package org.apache.spark.perfbench

import org.apache.spark.SparkContext

/** Waits until the listener bus has delivered every event posted so far, so
  * counters read right after a job include all of its events. Lives under
  * ``org.apache.spark`` because the bus is package-private.
  */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
