package perfbench

import java.io.File
import java.lang.management.{ManagementFactory, MemoryType}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import repro.core.Budget

/** Everything one benchmark process shares: its arguments, tracer, report,
  * the failure tally behind ``error_rate``, and the hard deadline every
  * call runs under, so a run that blows up still ends within its time
  * limit and reports the overrun as a failure.
  */
final class Run(val workload: String, val seed: Long, val seconds: Int, val trace: Boolean,
                val stateDir: File) {
  val tracer  = new Tracer(trace)
  val report  = new Report
  val threads: Int = Runtime.getRuntime.availableProcessors()
  /** Process start, from the JVM's own clock. */
  val startMillis: Long = ManagementFactory.getRuntimeMXBean.getStartTime
  val hardDeadline: Long =
    System.nanoTime() + (Run.HardLimitSeconds * 1000 - (System.currentTimeMillis() - startMillis)) * 1000000L

  var attempted = 0L
  var failed    = 0L
  /** Results, timed or not, that differed from the reference. */
  var mismatches = 0L
  /** Failed checks outside the timed calls (layer results, the reference). */
  val problems: mutable.ArrayBuffer[String] = mutable.ArrayBuffer.empty[String]

  def callDeadline(budgetMs: Long): Long = math.min(Budget.deadline(budgetMs), hardDeadline)
  def secondsSinceStart: Double = (System.currentTimeMillis() - startMillis) / 1e3

  /** Records one timed call; returns whether it succeeded. */
  def count(ok: Boolean, what: => String): Boolean = {
    attempted += 1
    if (!ok) { failed += 1; System.err.println(s"[perfbench] failed call: $what") }
    ok
  }

  def check(ok: Boolean, what: => String): Unit =
    if (!ok) { problems += what; System.err.println(s"[perfbench] check failed: $what") }

  /** Counters that must repeat exactly: within this run (``repeat``) and
    * against the values an earlier run of the same build, workload and seed
    * stored under ``stateDir``.
    */
  val exact: mutable.LinkedHashMap[String, Long] = mutable.LinkedHashMap.empty[String, Long]
  var exactMismatches = 0

  def repeat(name: String, value: Long): Unit =
    exact.get(name) match {
      case Some(prev) if prev != value =>
        exactMismatches += 1
        System.err.println(s"[perfbench] exact counter $name did not repeat: $prev then $value")
      case Some(_) =>
      case None    => exact(name) = value
    }

  /** Compares this run's exact counters with the stored ones and stores the
    * union. Returns the number of counters that differ.
    */
  def compareStoredExact(): Int = {
    val file = new File(stateDir, s"exact-$workload-seed$seed.txt")
    val stored: Map[String, Long] =
      if (!file.exists) Map.empty
      else {
        val src = scala.io.Source.fromFile(file, "UTF-8")
        try src.getLines().map(_.split(' ')).collect { case Array(k, v) => k -> v.toLong }.toMap
        finally src.close()
      }
    val differ = exact.collect { case (k, v) if stored.get(k).exists(_ != v) => k }
    differ.foreach(k => System.err.println(
      s"[perfbench] exact counter $k = ${exact(k)} differs from an earlier run: ${stored(k)}"))
    val merged = stored ++ exact.filterNot { case (k, _) => stored.contains(k) }
    file.getParentFile.mkdirs()
    val out = new java.io.PrintWriter(file, "UTF-8")
    try merged.toSeq.sortBy(_._1).foreach { case (k, v) => out.println(s"$k $v") } finally out.close()
    differ.size
  }
}

object Run {
  /** Every call's deadline stays inside this many seconds of process start. */
  val HardLimitSeconds = 165L
}

/** JVM-wide counters read around the timed window. */
object Jvm {
  def gcSeconds: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum / 1e3

  /** Peak use of the heap pools that outlive a young collection (eden is
    * left out: the heap is fixed at -Xmx, so eden fills it between GCs).
    */
  def peakHeapMb: Double =
    ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(p => p.getType == MemoryType.HEAP && !p.getName.contains("Eden"))
      .map(_.getPeakUsage.getUsed).sum / (1024.0 * 1024.0)

  /** CPU time of the whole process, in seconds. */
  def processCpuSeconds: Double = ManagementFactory.getOperatingSystemMXBean match {
    case os: com.sun.management.OperatingSystemMXBean => os.getProcessCpuTime / 1e9
    case _ => Double.NaN
  }

  /** vCPU time the host gave to other guests (``steal`` in /proc/stat),
    * in seconds; NaN where the file is missing. Steal during a window means
    * co-tenants slowed it: on a 4-vCPU VM, 1 % steal made serve-small ~20 %
    * slower.
    */
  def hostStealSeconds: Double =
    try {
      val src = scala.io.Source.fromFile("/proc/stat", "UTF-8")
      val cpu = try src.getLines().next().trim.split("\\s+") finally src.close()
      if (cpu.length > 8) cpu(8).toLong / 100.0 else Double.NaN
    } catch { case _: java.io.IOException => Double.NaN }

  def xmx: String = ManagementFactory.getRuntimeMXBean.getInputArguments.asScala
    .filter(_.startsWith("-Xmx")).lastOption.map(_.drop(4)).getOrElse("default")
}
