package org.apache.spark

import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}

/** Access to the listener bus, which Spark keeps package-private: a spec
  * waits for every queued event before it reads a listener's counters.
  */
object TestBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()

  /** Spark jobs started while `body` runs. */
  def jobs(sc: SparkContext)(body: => Any): Int = {
    drain(sc)
    val started = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = { started.incrementAndGet(); () }
    }
    sc.addSparkListener(listener)
    try { body; drain(sc); started.get } finally sc.removeSparkListener(listener)
  }
}
