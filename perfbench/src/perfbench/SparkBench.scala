package perfbench

import java.io.File
import java.util.concurrent.atomic.AtomicLong
import scala.collection.mutable.ArrayBuffer
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.graph._

/** Scheduler counters from a listener the benchmark registers. */
final class SchedulerCounters extends SparkListener {
  private val jobs, tasks, shuffleWrite, shuffleRead = new AtomicLong

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    val m = e.taskMetrics
    if (m != null) {
      shuffleWrite.addAndGet(m.shuffleWriteMetrics.bytesWritten)
      shuffleRead.addAndGet(m.shuffleReadMetrics.totalBytesRead)
    }
  }

  def snapshot: Array[Long] = Array(jobs.get, tasks.get, shuffleWrite.get, shuffleRead.get)
}

/** The Spark engine in ``local[nproc]``, configured as the production jobs
  * configure theirs, with its scratch space under ``r.stateDir``.
  */
final class SparkEngine(r: Run) {
  var spark: SparkSession          = _
  var counters: SchedulerCounters  = _
  var edges: DataFrame             = _

  def start(): Unit = r.tracer.span("spark.session") {
    val scratch = new File(r.stateDir, "spark").getAbsolutePath
    spark = SparkSession.builder
      .master(SparkBench.master(r.threads))
      .appName("perfbench")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", value = false)
      .config("spark.local.dir", s"$scratch/local")
      .config("spark.sql.warehouse.dir", s"$scratch/warehouse")
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    counters = new SchedulerCounters
    spark.sparkContext.addSparkListener(counters)
  }

  def stop(): Unit = if (spark != null) { spark.stop(); spark = null }

  /** Loads pairs as a checkpointed canonical edge DataFrame; returns seconds. */
  def load(pairs: Seq[(Int, Int)]): Double = LocalBench.timed {
    val df = r.tracer.span("graph.fromPairs")(EdgeList.fromPairs(spark, pairs)).localCheckpoint()
    df.count()
    edges = df
  }._2

  /** Scheduler counters once every event posted so far has been handled. */
  def counts: Array[Long] = {
    org.apache.spark.perfbench.ListenerDrain(spark.sparkContext)
    counters.snapshot
  }

  /** One decomposition, timed from the checkpointed edges until every
    * trussness value is on the driver.
    */
  def decompose(df: DataFrame, mode: SparkHIndexDecomposition.Mode, budgetMs: Long)
      : (Either[Exception, (Map[Long, Int], Int)], Double) = LocalBench.timed {
    try {
      val res  = SparkHIndexDecomposition.decompose(df, SparkBench.H, mode,
                                                    deadlineNanos = r.callDeadline(budgetMs))
      val rows = res.trussness.select("eid", "trussness").collect()
      Right((rows.map(x => x.getLong(0) -> x.getInt(1)).toMap, res.rounds))
    } catch { case e: Exception => Left(e) }
  }

  /** Small decomposition so Spark's code generation and the JIT have run
    * before the first timed call.
    */
  def warmup(): Unit = r.tracer.span("spark.warmup") {
    val k4 = EdgeList.fromPairs(spark, GraphGen.clique(4)).localCheckpoint()
    SparkHIndexDecomposition.decompose(k4, SparkBench.H).trussness.collect()
  }
}

/** ``spark-h2`` and the Spark layer of every traced run: the YT analogue,
  * h = 2, Sync mode.
  */
object SparkBench {
  val H = 2
  val CallBudgetMs = 120000L
  val SetupReps    = 3
  /** A call takes about half a window. The window always holds three, so
    * ``decompose_s`` (the fastest call) is not the first call after set-up,
    * which runs 10-20 % slower, and a traced run gets two untraced calls.
    */
  val MinCalls     = 3
  val CounterNames = Seq("spark.jobs", "spark.tasks", "spark.shuffle_write_bytes", "spark.shuffle_read_bytes")

  def master(threads: Int): String = s"local[$threads]"

  /** The YT analogue with its edges in a seed-dependent order. Relabelling
    * vertices, as the local workloads do, moves Spark's hash partitioning and
    * with it the time of a call by about 10 % between seeds (4-vCPU VM).
    */
  def pairs(seed: Long): Seq[(Int, Int)] = new scala.util.Random(seed).shuffle(Datasets.YT.edges)

  def matches(r: Run, got: Map[Long, Int], ref: Checked): Boolean = {
    val eids = ref.g.eids
    val same = got.size == ref.g.m && eids.indices.forall(i => got.get(eids(i)).contains(ref.ref(i)))
    if (!same) r.mismatches += 1
    same
  }

  /** One timed Sync call, verified, with the scheduler counters it moved. */
  final case class SyncCall(seconds: Double, ok: Boolean, rounds: Int, counters: Array[Long])

  def syncCall(r: Run, eng: SparkEngine, ref: Checked): SyncCall = {
    val before = eng.counts
    val (res, s) = r.tracer.span("spark.decompose.sync")(
      eng.decompose(eng.edges, SparkHIndexDecomposition.Sync, CallBudgetMs))
    val after = eng.counts
    val ok = res match {
      case Right((got, _)) => r.tracer.span("verify.compare")(matches(r, got, ref))
      case Left(e)         => System.err.println(s"[perfbench] Spark call: $e"); false
    }
    SyncCall(s, ok, res.map(_._2).getOrElse(0), after.zip(before).map { case (a, b) => a - b })
  }

  def recordCounters(r: Run, c: SyncCall): Unit = {
    r.repeat("spark.rounds", c.rounds.toLong)
    CounterNames.zip(c.counters).foreach { case (n, v) => r.repeat(n, v) }
  }

  def putCounters(r: Run, c: SyncCall, seconds: Double): Unit = {
    val rep = r.report
    rep.put("spark.rounds", c.rounds.toDouble, "count", "Sync, exact")
    CounterNames.zip(c.counters).foreach { case (n, v) =>
      rep.put(n, v.toDouble, if (n.endsWith("bytes")) "bytes" else "count", "one Sync decomposition, exact")
    }
    rep.put("spark.jobs_per_round", c.counters(0).toDouble / c.rounds, "count")
    rep.put("spark.per_round_s", seconds / c.rounds, "s", "Sync time / rounds")
  }

  /** Static tables and the Paral+ variant (``AsyncPruned(2)``). */
  def extras(r: Run, eng: SparkEngine, ref: Checked): Unit = {
    val tr = r.tracer
    val ((pairsDf, pairsRows), pairsS) = LocalBench.timed(tr.span("hop.hopDistances") {
      val p = HopNeighborhoods.hopDistances(eng.edges, H).localCheckpoint()
      (p, p.count())
    })
    val commonRows = tr.span("hop.commonNeighbors")(HopNeighborhoods.commonNeighbors(eng.edges, pairsDf).count())
    r.repeat("spark.pairs_rows", pairsRows)
    r.repeat("spark.common_rows", commonRows)
    val (res, paralpS) = tr.span("spark.decompose.paralp")(
      eng.decompose(eng.edges, SparkHIndexDecomposition.AsyncPruned(2), CallBudgetMs))
    r.check(res.exists { case (got, _) => matches(r, got, ref) }, "Spark AsyncPruned(2) result matches the reference")
    val rep = r.report
    rep.put("spark.pairs_s", pairsS, "s", "hopDistances + count")
    rep.put("spark.pairs_rows", pairsRows.toDouble, "count", "exact")
    rep.put("spark.common_rows", commonRows.toDouble, "count", "exact")
    rep.put("spark.paralp_s", paralpS, "s", "AsyncPruned(2)")
    rep.put("spark.paralp_rounds", res.map(_._2).getOrElse(0).toDouble, "count")
  }

  def reference(r: Run, edges: Seq[(Int, Int)], csrT: ArrayBuffer[Double]): Checked =
    r.tracer.inRun("reference")(r.tracer.span("bench.reference")(LocalBench.reference(r,
      LocalBench.seconds(csrT)(r.tracer.span("graph.fromEdges")(LocalGraph.fromEdges(edges))), H)))

  /** The ``spark-h2`` workload. */
  def run(r: Run): Unit = {
    val tr  = r.tracer
    val eng = new SparkEngine(r)
    val genT, csrT, loadT, setupT = ArrayBuffer.empty[Double]
    var edges: Seq[(Int, Int)] = null
    try {
      for (rep <- 1 to SetupReps) tr.inRun(s"setup-$rep") {
        val t0 = System.nanoTime()
        tr.span("bench.setup") {
          edges = LocalBench.seconds(genT)(tr.span("graph.generate")(pairs(r.seed)))
          eng.stop()
          eng.start()
          loadT += eng.load(edges)
          eng.warmup()
        }
        setupT += (if (rep == 1) r.secondsSinceStart else (System.nanoTime() - t0) / 1e9)
      }
      r.report.put("setup_s", Stats.median(setupT), "s", s"median of $SetupReps set-ups")
      r.report.put("setup.first_s", setupT.head, "s", "process start to end of the first set-up")
      val ref = reference(r, edges, csrT)

      val w = new Window
      var last: SyncCall = null
      val gc0 = Jvm.gcSeconds
      val st0 = Jvm.hostStealSeconds
      val t0  = System.nanoTime()
      var i   = 0
      while ((i < MinCalls || System.nanoTime() - t0 < r.seconds * 1e9) &&
             System.nanoTime() < r.hardDeadline) {
        val traced = r.trace && i % 2 == 1
        tr.on = traced
        val c = tr.inRun(s"request-$i")(tr.span("bench.request")(syncCall(r, eng, ref)))
        System.err.println(f"[perfbench] Spark call $i: ${c.seconds}%.3f s, ${c.rounds} rounds")
        if (r.count(c.ok, s"request $i")) {
          w.add(c.seconds, ref.g.m, traced)
          recordCounters(r, c)
          last = c
        }
        if (!traced) w.wall += c.seconds
        i += 1
      }
      tr.on = r.trace
      w.gc = Jvm.gcSeconds - gc0
      w.steal = Jvm.hostStealSeconds - st0
      LocalBench.endToEnd(r, w, 1)
      r.report.put("graph.count", SetupReps.toDouble, "count", "edge lists loaded")

      if (r.trace) {
        r.report.put("graph.gen_s", Stats.median(genT), "s", "median per input graph")
        r.report.put("graph.csr_build_s", csrT.head, "s", "CSR for the reference")
        r.report.put("spark.load_s", Stats.median(loadT), "s", s"median of $SetupReps loads")
        putCounters(r, last, Stats.median(w.untraced))
        extras(r, eng, ref)
        // The local engine on the same graph, for the shared per-layer metrics.
        val lw = LocalBench.window(r, H, CallBudgetMs, 0.0, 10, r.trace, "local")(() => ref)
        LocalBench.layers(r, H, Seq(ref), lw)
      }
    } finally eng.stop()
  }

  /** The Spark layer inside the traced run of a local workload: the
    * ``spark-h2`` input of the same seed, one Sync and one Paral+ call.
    */
  def layer(r: Run): Unit = {
    val tr  = r.tracer
    val eng = new SparkEngine(r)
    try tr.inRun("spark")(tr.span("bench.spark") {
      eng.start()
      val edges = tr.span("graph.generate")(pairs(r.seed))
      val loadS = eng.load(edges)
      eng.warmup()
      val ref = reference(r, edges, ArrayBuffer.empty)
      val c   = syncCall(r, eng, ref)
      r.check(c.ok, "Spark Sync result matches the reference")
      recordCounters(r, c)
      r.report.put("spark.load_s", loadS, "s")
      putCounters(r, c, c.seconds)
      extras(r, eng, ref)
    }) finally eng.stop()
  }
}
