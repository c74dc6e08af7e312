package perfbench

import java.util.concurrent.{Callable, Executors}
import scala.collection.mutable.ArrayBuffer
import repro.core._
import repro.graph._

/** A workload served by the shared-memory engine. ``graph(seed, i)`` is the
  * edge list of request ``i``. With ``cycle > 0`` the requests cycle through
  * the graphs of requests ``0 until cycle``, each built and checked once;
  * with ``cycle = 0`` every request is a new graph. Requests are served,
  * verified but untimed, for ``steadySeconds`` before the timed window.
  */
final case class LocalWorkload(name: String, h: Int, callBudgetMs: Long, cycle: Int, steadySeconds: Double,
                               graph: (Long, Int) => Seq[(Int, Int)])

/** One input graph with its reference trussness and the reference's cost. */
final case class Checked(g: LocalGraph, ref: Array[Int], baseSeconds: Double)

/** Timing of the calls of a window: per-call seconds (untraced and traced
  * apart) of the verified calls, in order, with the edges of each untraced
  * one, their async round counts, and the CPU they used.
  */
final class Window {
  val untraced      = ArrayBuffer.empty[Double]
  val untracedEdges = ArrayBuffer.empty[Int]
  val traced        = ArrayBuffer.empty[Double]
  val asyncRounds   = ArrayBuffer.empty[Int]
  var wall          = 0.0
  var cpu           = 0.0
  var gc            = 0.0
  var steal         = 0.0

  def add(seconds: Double, edges: Int, traced: Boolean): Unit =
    if (traced) this.traced += seconds
    else { untraced += seconds; untracedEdges += edges }
}

object LocalBench {

  /** The AN analogue's generator seed for ``ring-h3``. The dataset's own
    * instance needs 88 synchronous rounds (Single alone ~53 s on 4 cores),
    * too slow for a traced run inside its time limit; this one needs 37.
    */
  val RingBaseSeed = 2L

  // Seeds relabel one fixed instance, so each seed gives other input bytes
  // and edge order but the same graph: a fresh AN instance per seed moves
  // the round count between 19 and 48. Which thread gets the hub edges
  // still depends on the labels (hub-h3 moved ~10 % between seeds), so
  // hub-h3 cycles through three relabellings per run.
  //
  // Without untimed requests before the window, the first seconds of
  // serve-small ran up to 1.8x slower than the rest (JIT of the client's
  // verifier, young heap) and hub-h3's first calls ~15 % slower. ring-h3's
  // calls showed no trend: its first set-up already runs one on the graph.
  val HubH3: LocalWorkload = LocalWorkload("hub-h3", 3, 30000L, cycle = 3, steadySeconds = 3.0,
    (seed, i) => GraphGen.relabel(Datasets.YT.edges, seed * 1000003L + i))
  val RingH3: LocalWorkload = LocalWorkload("ring-h3", 3, 60000L, cycle = 1, steadySeconds = 0.0,
    (seed, _) => GraphGen.relabel(Datasets.AN.gen(RingBaseSeed), seed))
  val ServeSmall: LocalWorkload = LocalWorkload("serve-small", 2, 5000L, cycle = 0, steadySeconds = 3.0,
    (seed, i) => GraphGen.plantedCommunities(4, 12, 0.5, 20, seed * 1000003L + i))

  val SetupReps   = 11
  val WarmupCalls = 30
  /** The first set-up runs more calls, so the JIT is done before timing. */
  val FirstWarmupCalls = 300
  /** Request graphs the per-layer metrics of ``serve-small`` are taken on. */
  val ServeLayerSample = 64
  val ReferenceBudgetMs = 60000L
  /** Requests a ``serve-small`` client prepares at a time. */
  val ClientBatch = 32

  /** The production configuration: Paral+ at ``threads`` threads. */
  def paralPlus(threads: Int, deadline: Long): LocalHIndexConfig =
    LocalHIndexConfig(threads = threads, async = true, pruning = true, deadlineNanos = deadline)

  def seconds[A](into: ArrayBuffer[Double])(body: => A): A = {
    val t0 = System.nanoTime()
    try body finally into += (System.nanoTime() - t0) / 1e9
  }

  def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a  = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Paral+ calls on a small fixed graph, and on ``g`` when given, so class
    * loading and JIT compilation of the engine happen before the first
    * timed call.
    */
  def warmup(r: Run, h: Int, g: Option[LocalGraph]): Unit = r.tracer.span("local.warmup") {
    val cfg = paralPlus(r.threads, r.callDeadline(ReferenceBudgetMs))
    val w   = LocalGraph.fromEdges(GraphGen.plantedCommunities(4, 12, 0.5, 20, 0L))
    for (_ <- 1 to (if (g.isDefined) FirstWarmupCalls else WarmupCalls))
      LocalHIndexDecomposition.decompose(w, h, cfg)
    g.foreach(LocalHIndexDecomposition.decompose(_, h, cfg))
  }

  /** ``f`` over ``xs``, one thread per element. */
  def inParallel[A, B](xs: Seq[A])(f: A => B): Seq[B] = {
    val pool = Executors.newFixedThreadPool(xs.length)
    try xs.map(x => pool.submit(new Callable[B] { def call(): B = f(x) })).map(_.get)
    finally pool.shutdown()
  }

  /** Generates request ``i`` and builds its CSR, timing both. */
  def build(r: Run, wl: LocalWorkload, i: Int, genT: ArrayBuffer[Double],
            csrT: ArrayBuffer[Double]): LocalGraph = {
    val edges = seconds(genT)(r.tracer.span("graph.generate")(wl.graph(r.seed, i)))
    seconds(csrT)(r.tracer.span("graph.fromEdges")(LocalGraph.fromEdges(edges)))
  }

  def reference(r: Run, g: LocalGraph, h: Int): Checked = {
    val (ref, s) = timed(r.tracer.span("verify.base")(
      BaselinePeeling.trussness(g, h, r.callDeadline(ReferenceBudgetMs))))
    Checked(g, ref, s)
  }

  def run(r: Run, wl: LocalWorkload): Unit = {
    val tr = r.tracer
    val genT, csrT, setupT = ArrayBuffer.empty[Double]
    var graphs: Seq[LocalGraph] = Nil
    for (rep <- 1 to SetupReps) tr.inRun(s"setup-$rep") {
      val t0 = System.nanoTime()
      tr.span("bench.setup") {
        graphs = (0 until math.max(1, wl.cycle)).map(build(r, wl, _, genT, csrT))
        // Only the first set-up also warms up on the workload's own graph;
        // the later ones then run compiled code and their median is steady.
        warmup(r, wl.h, Some(graphs.head).filter(_ => rep == 1))
      }
      // The first set-up also pays for JVM start and class loading.
      setupT += (if (rep == 1) r.secondsSinceStart else (System.nanoTime() - t0) / 1e9)
    }
    System.err.println(s"[perfbench] set-ups: ${setupT.map(x => f"$x%.3f").mkString(" ")} s")
    r.report.put("setup_s", Stats.median(setupT), "s", s"median of $SetupReps set-ups")
    r.report.put("setup.first_s", setupT.head, "s", "process start to end of the first set-up")

    // An untraced run computes the references side by side (BaselinePeeling
    // is single-threaded); the tracer follows one thread, so a traced run
    // computes them one after another.
    val cycled =
      if (wl.cycle == 0) Nil
      else if (r.trace) tr.inRun("reference")(tr.span("bench.reference")(graphs.map(reference(r, _, wl.h))))
      else inParallel(graphs)(reference(r, _, wl.h))
    cycled.foreach(c => r.check(c.ref.length == c.g.m, "reference covers every edge"))

    // The client prepares requests (graph, CSR, reference) in small batches
    // between calls, so the garbage it makes is mostly collected outside
    // the calls it times and dies young.
    var sent = 0
    var next = 1
    val queue = scala.collection.mutable.Queue.empty[Checked]
    val nextRequest = { () =>
      sent += 1
      if (cycled.nonEmpty) cycled((sent - 1) % cycled.length)
      else {
        if (queue.isEmpty) for (_ <- 1 to ClientBatch) {
          queue += reference(r, build(r, wl, next, genT, csrT), wl.h)
          next += 1
        }
        queue.dequeue()
      }
    }
    if (wl.steadySeconds > 0)
      window(r, wl.h, wl.callBudgetMs, wl.steadySeconds, 1, trace = false, label = "warm")(nextRequest)
    val w = window(r, wl.h, wl.callBudgetMs, r.seconds.toDouble, if (r.trace) 2 else 1, r.trace)(nextRequest)
    endToEnd(r, w, math.max(1, wl.cycle))
    r.report.put("graph.count", (SetupReps * graphs.length + next - 1).toDouble,
                 "count", "CSR graphs built for set-up and requests")

    if (r.trace) {
      val sample =
        if (cycled.nonEmpty) cycled.take(1)
        else tr.inRun("layers")((0 until ServeLayerSample).map { i =>
          reference(r, build(r, wl, i, ArrayBuffer.empty, ArrayBuffer.empty), wl.h)
        })
      r.report.put("graph.gen_s", Stats.median(genT), "s", "median per input graph")
      r.report.put("graph.csr_build_s", Stats.median(csrT), "s", "median per input graph")
      layers(r, wl.h, sample, w)
      SparkBench.layer(r)
    }
  }

  /** Paral+ calls back to back for ``seconds``, and at least ``minCalls``
    * of them; with ``trace`` every second call is traced. ``next`` yields
    * each request's graph with its reference; only the decomposition is
    * timed, and every call is verified and counted.
    */
  def window(r: Run, h: Int, budgetMs: Long, seconds: Double, minCalls: Int, trace: Boolean,
             label: String = "request")(next: () => Checked): Window = {
    val tr = r.tracer
    val w  = new Window
    val gc0 = Jvm.gcSeconds
    val st0 = Jvm.hostStealSeconds
    val t0  = System.nanoTime()
    var i   = 0
    while ((i < minCalls || System.nanoTime() - t0 < seconds * 1e9) &&
           System.nanoTime() < r.hardDeadline) {
      val traced = trace && i % 2 == 1
      tr.on = traced
      tr.inRun(s"$label-$i")(tr.span("bench.request") {
        val in  = next()
        val c0  = Jvm.processCpuSeconds
        val s   = System.nanoTime()
        val res =
          try Right(tr.span("local.decompose.paralp")(
            LocalHIndexDecomposition.decompose(in.g, h, paralPlus(r.threads, r.callDeadline(budgetMs)))))
          catch { case e: Exception => Left(e) }
        val dt  = (System.nanoTime() - s) / 1e9
        if (!traced) w.cpu += Jvm.processCpuSeconds - c0
        val ok = res match {
          case Right(out) => tr.span("verify.compare")(Verify.sameTrussness(r, out.trussness, in.ref))
          case Left(e)    => System.err.println(s"[perfbench] call $i: $e"); false
        }
        // Slow calls are few enough to list; they show drift within a run.
        if (dt >= 0.5) System.err.println(f"[perfbench] $label $i: $dt%.3f s, ${res.map(_.rounds).getOrElse(-1)} rounds")
        if (r.count(ok, s"$label $i")) {
          w.add(dt, in.g.m, traced)
          res.foreach(out => w.asyncRounds += out.rounds)
        }
        if (!traced) w.wall += dt
      })
      i += 1
    }
    tr.on = r.trace
    w.gc = Jvm.gcSeconds - gc0
    w.steal = Jvm.hostStealSeconds - st0
    w
  }

  val Stretches = 10

  /** End-to-end figures of a window. Its untraced calls are cut into about
    * ``Stretches`` stretches of consecutive calls, each a whole number of
    * ``unit`` calls (one pass over the cycled graphs), or a call each when
    * there are fewer. Co-tenants on the host slow a run for seconds at a
    * time (seen as steal), a change to the program slows every stretch:
    * ``decompose_s`` is the median call of the fastest stretch and
    * ``edges_per_s`` the edge rate of the fastest stretch. The whole
    * window's median is printed beside them.
    */
  def endToEnd(r: Run, w: Window, unit: Int): Unit = {
    val n = w.untraced.length
    if (n == 0) throw new IllegalStateException("no timed call succeeded")
    val size    = unit * math.max(1, n / Stretches / unit)
    val k       = math.max(1, n / size)
    val parts   = (0 until k).map(i => (i * size, if (i == k - 1) n else (i + 1) * size))
    val medians = parts.map { case (a, b) => Stats.median(w.untraced.slice(a, b)) }
    val rates   = parts.map { case (a, b) => w.untracedEdges.slice(a, b).sum / w.untraced.slice(a, b).sum }
    val whole   = Stats.median(w.untraced)
    // In order, so a trend (a warm-up too short) shows.
    System.err.println(s"[perfbench] call medians by stretch of the window: ${medians.map(x => f"$x%.4g").mkString(" ")} s")
    System.err.println(f"[perfbench] host steal during the window: ${w.steal}%.2f s of vCPU time")
    r.report.put("decompose_s", medians.min, "s",
                 s"median call of the fastest of $k stretches; whole window: median ${Report.num(whole)} s of n=$n")
    val (tail, note) = Stats.tail(w.untraced)
    r.report.put("decompose_tail_s", tail, "s", note)
    r.report.put("edges_per_s", rates.max, "1/s", s"edges / timed wall time of the fastest of $k stretches")
    r.report.put("jvm.gc_s", w.gc, "s", "GC time during the timed window")
    if (r.trace && w.traced.nonEmpty)
      r.report.put("trace.overhead_ratio", Stats.median(w.traced) / Stats.median(w.untraced), "ratio",
                   s"traced n=${w.traced.length} / untraced n=${w.untraced.length}")
  }

  /** Sweeps of the hop-bounded maximin kernel scan adjacency lists: per
    * edge and endpoint, ``h`` passes over the degrees of the endpoint's
    * h-ball. Computed from ``LocalGraph.bfs``, not counted in the kernel.
    */
  def adjScansPerSweep(g: LocalGraph, h: Int): Long = {
    val stamp = new Array[Int](g.n); val dist = new Array[Int](g.n); val out = new Array[Int](g.n)
    val ballDeg = new Array[Long](g.n)
    var v = 0
    while (v < g.n) {
      val cnt = g.bfs(v, h, null, stamp, v + 1, dist, out)
      var s = 0L; var i = 0
      while (i < cnt) { s += g.degree(out(i)); i += 1 }
      ballDeg(v) = s
      v += 1
    }
    var total = 0L; var e = 0
    while (e < g.m) { total += h.toLong * (ballDeg(g.edgeSrc(e)) + ballDeg(g.edgeDst(e))); e += 1 }
    total
  }

  /** Per-layer metrics of the local engine on ``sample`` (sums over the
    * sample): h-support, the kernel's scan count, the four paper variants
    * (each verified), and the fixed cost of one call.
    */
  def layers(r: Run, h: Int, sample: Seq[Checked], w: Window): Unit = {
    val tr = r.tracer
    val T  = r.threads
    tr.inRun("layers")(tr.span("bench.layers") {
      var supSum, supSum2, supMax, scans, scans2 = 0L
      var supS = 0.0
      var scanWork = 0.0
      val times  = Array.fill(4)(0.0)
      val rounds = Array.fill(4)(0L)
      val variants = Seq(
        "single" -> LocalHIndexConfig(threads = 1),
        "paral"  -> LocalHIndexConfig(threads = T),
        "asyn"   -> LocalHIndexConfig(threads = T, async = true),
        "paralp" -> LocalHIndexConfig(threads = T, async = true, pruning = true))
      for (c <- sample) {
        val dl = r.callDeadline(ReferenceBudgetMs)
        val (sup, s) = timed(tr.span("hsupport.local")(HSupport.local(c.g, h, dl)))
        supS += s
        supSum += sup.map(_.toLong).sum
        supMax = math.max(supMax, sup.max.toLong)
        supSum2 += tr.span("hsupport.local")(HSupport.local(c.g, h, dl)).map(_.toLong).sum
        val sc = tr.span("graph.bfs")(adjScansPerSweep(c.g, h))
        scans += sc
        scans2 += tr.span("graph.bfs")(adjScansPerSweep(c.g, h))
        for (((name, cfg), k) <- variants.zipWithIndex) {
          val (out, t) = timed(tr.span(s"local.decompose.$name")(
            LocalHIndexDecomposition.decompose(c.g, h, cfg.copy(deadlineNanos = r.callDeadline(ReferenceBudgetMs)))))
          r.check(Verify.sameTrussness(r, out.trussness, c.ref), s"$name result matches the reference")
          times(k) += t
          rounds(k) += out.rounds
          if (k == 0) scanWork += out.rounds.toDouble * sc
        }
      }
      r.repeat("hsupport.sum", supSum); r.repeat("hsupport.sum", supSum2)
      r.repeat("kernel.adj_scans_per_sweep", scans); r.repeat("kernel.adj_scans_per_sweep", scans2)
      // Single and Paral are both synchronous: their round counts must agree.
      r.repeat("local.rounds_sync", rounds(0)); r.repeat("local.rounds_sync", rounds(1))
      r.repeat("graph.n", sample.map(_.g.n.toLong).sum)
      r.repeat("graph.m", sample.map(_.g.m.toLong).sum)

      val rep = r.report
      rep.put("graph.n", sample.map(_.g.n).sum.toDouble, "count", s"vertices of ${sample.length} graph(s)")
      rep.put("graph.m", sample.map(_.g.m).sum.toDouble, "count", s"edges of ${sample.length} graph(s)")
      rep.put("hsupport.local_s", supS, "s", "single-threaded HSupport.local")
      rep.put("hsupport.sum", supSum.toDouble, "count", "contributions per full sweep, exact")
      rep.put("hsupport.max", supMax.toDouble, "count")
      rep.put("kernel.adj_scans_per_sweep", scans.toDouble, "count", "computed from LocalGraph.bfs, exact")
      rep.put("kernel.ns_per_scan", times(0) * 1e9 / scanWork, "ns", "local.single_s / (rounds x scans)")
      rep.put("local.single_s", times(0), "s", "threads=1 sync")
      rep.put("local.paral_s", times(1), "s", s"threads=$T sync")
      rep.put("local.asyn_s", times(2), "s", s"threads=$T async")
      rep.put("local.paralp_s", times(3), "s", s"threads=$T async+pruning")
      rep.put("local.rounds_sync", rounds(0).toDouble, "count", "exact")
      rep.put("local.rounds_asyn", rounds(2).toDouble, "count", "Asyn variant")
      val ar = w.asyncRounds.map(_.toDouble).toSeq
      rep.put("local.rounds_async_min", ar.min, "count", s"Paral+ calls of the window, n=${ar.length}")
      rep.put("local.rounds_async_median", Stats.median(ar), "count")
      rep.put("local.rounds_async_max", ar.max, "count")
      val speedup = times(0) / times(1)
      rep.put("local.speedup", speedup, "ratio", "Single / Paral (Fig. 5)")
      rep.put("local.parallel_eff", speedup / T, "ratio", s"speedup / $T threads")
      rep.put("local.cpu_util", w.cpu / (w.wall * T), "ratio", "process CPU / (wall x threads), timed Paral+")
      rep.put("local.async_round_ratio", rounds(2).toDouble / rounds(0), "ratio", "Asyn / Paral rounds (Fig. 6)")
      rep.put("local.prune_gain", times(2) / times(3), "ratio", "Asyn / Paral+ time")
      rep.put("local.per_round_s", times(1) / rounds(1), "s", "Paral time / sync rounds")
      rep.put("verify.base_s", sample.map(_.baseSeconds).sum, "s", "BaselinePeeling.trussness")

      val k4 = LocalGraph.fromEdges(GraphGen.clique(4))
      val fixed = ArrayBuffer.empty[Double]
      tr.span("local.decompose.k4")(for (_ <- 1 to 50) seconds(fixed)(
        LocalHIndexDecomposition.decompose(k4, h, paralPlus(T, r.callDeadline(ReferenceBudgetMs)))))
      rep.put("local.fixed_call_s", Stats.median(fixed), "s", s"median Paral+ call on K4, threads=$T")
    })
  }
}

object Verify {
  /** Compares a result with the reference; a difference counts as a mismatch. */
  def sameTrussness(r: Run, got: Array[Int], ref: Array[Int]): Boolean = {
    val same = java.util.Arrays.equals(got, ref)
    if (!same) r.mismatches += 1
    same
  }
}
