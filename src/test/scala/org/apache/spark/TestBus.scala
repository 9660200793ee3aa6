package org.apache.spark

/** Access to the listener bus, which Spark keeps package-private: a spec
  * waits for every queued event before it reads a listener's counters.
  */
object TestBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
