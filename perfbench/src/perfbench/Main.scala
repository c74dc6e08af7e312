package perfbench

import java.io.File

/** Benchmark entry point: runs one workload for ``--seconds``, verifies every
  * timed decomposition against ``BaselinePeeling``, prints the machine
  * facts and every metric by name and unit, and ends with one JSON line.
  * ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` records spans
  * and reports the per-layer metrics. Launched by ``perfbench/run.py``.
  */
object Main {
  val Workloads = Seq("hub-h3", "ring-h3", "serve-small", "spark-h2")

  val EndToEnd = Seq("decompose_s", "edges_per_s", "setup_s")

  /** Printed with the end-to-end metrics but left out of their bounded set:
    * on ``serve-small`` it is the 10th-slowest of ~2500 calls, set by how
    * often the VM preempts a worker thread, and spread ~25 % between runs on
    * a 4-vCPU VM.
    */
  val Tail = "decompose_tail_s"

  val SelfLayers = Seq("bench", "graph", "hsupport", "local", "verify", "hop", "spark")

  val PerLayer: Seq[String] = Seq(
    Tail,
    "graph.gen_s", "graph.csr_build_s", "graph.n", "graph.m", "graph.count",
    "hsupport.local_s", "hsupport.sum", "hsupport.max",
    "kernel.adj_scans_per_sweep", "kernel.ns_per_scan",
    "local.single_s", "local.paral_s", "local.asyn_s", "local.paralp_s",
    "local.rounds_sync", "local.rounds_asyn",
    "local.rounds_async_min", "local.rounds_async_median", "local.rounds_async_max",
    "local.speedup", "local.parallel_eff", "local.cpu_util", "local.async_round_ratio",
    "local.prune_gain", "local.per_round_s", "local.fixed_call_s",
    "spark.load_s", "spark.pairs_s", "spark.per_round_s", "spark.pairs_rows", "spark.common_rows",
    "spark.rounds", "spark.jobs", "spark.tasks", "spark.shuffle_write_bytes", "spark.shuffle_read_bytes",
    "spark.jobs_per_round", "spark.paralp_s", "spark.paralp_rounds",
    "verify.base_s", "verify.mismatches", "verify.error_rate",
    "jvm.gc_s", "jvm.peak_heap_mb", "trace.overhead_ratio",
    "setup.first_s", "exact.repeat_mismatches",
  ) ++ SelfLayers.map(l => s"self.${l}_s")

  private def usage(msg: String): Nothing = {
    System.err.println(s"perfbench: $msg\nusage: --workload <${Workloads.mkString("|")}> " +
                       "--seed <n> --seconds <n> --trace <0|1> --state-dir <dir>")
    sys.exit(2)
  }

  def main(argv: Array[String]): Unit = {
    val opts = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => usage(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def opt(k: String): String = opts.getOrElse(k, usage(s"missing --$k"))
    val workload = opt("workload")
    if (!Workloads.contains(workload)) usage(s"unknown workload $workload")
    val seed    = opt("seed").toLongOption.getOrElse(usage("--seed must be an integer"))
    val seconds = opt("seconds").toIntOption.filter(_ >= 1).getOrElse(usage("--seconds must be >= 1"))
    val trace   = opt("trace") match {
      case "0" => false
      case "1" => true
      case t   => usage(s"--trace must be 0 or 1, got $t")
    }
    val r = new Run(workload, seed, seconds, trace, new File(opt("state-dir")))

    println(s"# perfbench workload=$workload seed=$seed seconds=$seconds trace=${if (trace) 1 else 0}")
    println(s"# machine nproc=${r.threads} java=${System.getProperty("java.version")} " +
            s"(${System.getProperty("java.vm.name")}) xmx=${Jvm.xmx} " +
            s"max_heap_mb=${Runtime.getRuntime.maxMemory / (1024 * 1024)} " +
            s"spark=${org.apache.spark.SPARK_VERSION} master=${SparkBench.master(r.threads)}")

    workload match {
      case "hub-h3"      => LocalBench.run(r, LocalBench.HubH3)
      case "ring-h3"     => LocalBench.run(r, LocalBench.RingH3)
      case "serve-small" => LocalBench.run(r, LocalBench.ServeSmall)
      case "spark-h2"    => SparkBench.run(r)
    }

    val rep = r.report
    val errorRate = r.failed.toDouble / r.attempted
    if (trace) {
      rep.put("verify.mismatches", r.mismatches.toDouble, "count", "results that differ from the reference")
      rep.put("verify.error_rate", errorRate, "ratio")
      rep.put("jvm.peak_heap_mb", Jvm.peakHeapMb, "MB", "memory watch only")
      val self = r.tracer.selfSeconds
      SelfLayers.foreach(l => rep.put(s"self.${l}_s", self.getOrElse(l, 0.0), "s", "self time in spans"))
      rep.put("exact.repeat_mismatches", (r.exactMismatches + r.compareStoredExact()).toDouble, "count",
              s"${r.exact.size} exact counters, within this run and against earlier runs")
      val spans = new File(r.stateDir, s"trace-$workload-seed$seed.jsonl")
      r.tracer.write(spans)
      println(s"# ${r.tracer.count} spans written to ${spans.getPath}")
      println("# paper shape (Fig. 4 times, Fig. 5 speedup, Fig. 6 rounds):")
      println(f"#   Base ${rep("verify.base_s")}%.4f s  Single ${rep("local.single_s")}%.4f s  " +
              f"Paral ${rep("local.paral_s")}%.4f s  Asyn ${rep("local.asyn_s")}%.4f s  " +
              f"Paral+ ${rep("local.paralp_s")}%.4f s")
      println(f"#   speedup Single/Paral ${rep("local.speedup")}%.2f x at ${r.threads} threads;  " +
              f"rounds Paral ${rep("local.rounds_sync")}%.0f vs Asyn ${rep("local.rounds_asyn")}%.0f")
    } else if (r.exact.nonEmpty) {
      r.compareStoredExact()
    }
    val names = if (trace) PerLayer else EndToEnd
    rep.lines(if (trace) names else names :+ Tail).foreach(println)
    println(f"error_rate                         $errorRate%-22s ratio  (${r.failed} failed of ${r.attempted} attempted)")
    r.problems.foreach(p => println(s"# check failed: $p"))
    val correct = r.failed == 0 && r.problems.isEmpty && r.mismatches == 0
    println(rep.json(correct, r.attempted, r.failed, names))
    System.out.flush()
    sys.exit(0)
  }
}
