package perfbench

import scala.collection.mutable

/** Named metrics with units, kept in insertion order, and the result line
  * the benchmark prints last: one JSON object with ``correct``,
  * ``attempted``, ``failed`` and ``metrics``.
  */
final class Report {
  private val values = mutable.LinkedHashMap.empty[String, (Double, String)]
  private val notes  = mutable.LinkedHashMap.empty[String, String]

  def put(name: String, value: Double, unit: String, note: String = ""): Unit = {
    require(!value.isNaN && !value.isInfinite, s"metric $name is not finite: $value")
    values(name) = (value, unit)
    if (note.nonEmpty) notes(name) = note
  }

  def apply(name: String): Double = values(name)._1

  /** Human-readable ``name value unit  (note)`` lines. */
  def lines(names: Iterable[String]): Seq[String] =
    names.toSeq.filter(values.contains).map { n =>
      val (v, u) = values(n)
      val note   = notes.get(n).map(x => s"  ($x)").getOrElse("")
      f"$n%-34s ${Report.num(v)}%-22s $u$note"
    }

  /** The result line: exactly the metrics in ``names``, each of which must
    * have been measured.
    */
  def json(correct: Boolean, attempted: Long, failed: Long, names: Seq[String]): String = {
    val missing = names.filterNot(values.contains)
    require(missing.isEmpty, s"metrics not measured: ${missing.mkString(", ")}")
    val ms = names.map { n =>
      val (v, u) = values(n)
      s""""$n": {"value": ${Report.num(v)}, "unit": "$u"}"""
    }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}

object Report {
  /** A JSON number with all its digits (integral values without a fraction). */
  def num(v: Double): String =
    if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else v.toString
}

object Stats {
  def median(xs: collection.Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** The highest percentile that has at least ten samples beyond it, with a
    * note naming the percentile and the sample count. With fewer than
    * eleven samples no such percentile exists and the maximum is reported.
    */
  def tail(xs: collection.Seq[Double]): (Double, String) = {
    require(xs.nonEmpty, "tail of no samples")
    val s = xs.sorted
    val n = s.length
    if (n < 11) (s.last, s"max of n=$n; fewer than 11 samples")
    else (s(n - 11), f"p${100.0 * (n - 10) / n}%.1f of n=$n, 10 samples beyond")
  }
}
