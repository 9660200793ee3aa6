package org.apache.spark

/** Access to the listener bus, which Spark keeps package-private: the
  * benchmark waits for every queued event before it reads its counters.
  */
object BenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
