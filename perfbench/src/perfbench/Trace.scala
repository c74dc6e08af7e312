package perfbench

import java.io.{File, PrintWriter}
import scala.collection.mutable.ArrayBuffer

/** One recorded span: ``parent`` is the id of the enclosing span (-1 for a
  * root) and ``run`` names the request or phase the span belongs to.
  */
final case class Span(id: Int, name: String, parent: Int, run: String, startNs: Long, endNs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
  /** The layer a span belongs to: its name up to the first dot. */
  def layer: String = name.takeWhile(_ != '.')
}

/** Spans recorded by the benchmark around its calls into each layer. Spans
  * are kept in memory and written out at the end. The benchmark drives the
  * layers from one thread, so spans nest strictly and a stack gives each
  * span its parent. With ``enabled`` false (the timed runs) nothing is
  * recorded; ``on`` lets a traced run leave single calls untraced, to
  * measure the tracing overhead.
  */
final class Tracer(val enabled: Boolean) {
  private val spans  = ArrayBuffer.empty[Span]
  private var stack  = List.empty[Int]
  private var nextId = 0
  var on: Boolean    = enabled
  var run: String    = "main"

  def span[A](name: String)(body: => A): A =
    if (!(enabled && on)) body
    else {
      val id = nextId; nextId += 1
      val parent = stack.headOption.getOrElse(-1)
      stack = id :: stack
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        stack = stack.tail
        spans += Span(id, name, parent, run, t0, t1)
      }
    }

  /** Runs ``body`` with ``run`` set to ``id``. */
  def inRun[A](id: String)(body: => A): A = {
    val prev = run; run = id
    try body finally run = prev
  }

  /** Self time per layer in seconds: each span's duration minus the time
    * its direct children cover (children run one after another).
    */
  def selfSeconds: Map[String, Double] = {
    val childTime = spans.groupMapReduce(_.parent)(_.seconds)(_ + _)
    spans.groupMapReduce(_.layer)(s => s.seconds - childTime.getOrElse(s.id, 0.0))(_ + _)
  }

  /** Writes every span as one JSON object per line. */
  def write(file: File): Unit = {
    file.getParentFile.mkdirs()
    val out = new PrintWriter(file, "UTF-8")
    try spans.sortBy(_.startNs).foreach { s =>
      out.println(s"""{"id": ${s.id}, "name": "${s.name}", "parent": ${s.parent}, "run": "${s.run}", """ +
                  s""""start_ns": ${s.startNs}, "end_ns": ${s.endNs}}""")
    } finally out.close()
  }

  def count: Int = spans.length
}
