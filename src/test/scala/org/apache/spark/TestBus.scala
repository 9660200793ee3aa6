package org.apache.spark

import java.util.concurrent.ConcurrentLinkedQueue

import scala.jdk.CollectionConverters._

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}

/** Access to the listener bus, which Spark keeps package-private: a spec
  * waits for every queued event before it reads a listener's counters.
  */
object TestBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()

  /** Spark jobs started while `body` runs. */
  def jobs(sc: SparkContext)(body: => Any): Int = jobSites(sc)(body).size

  /** The call sites of the Spark jobs started while `body` runs, one per
    * job: its stages' names (such as "count at SubTab.scala:80").
    */
  def jobSites(sc: SparkContext)(body: => Any): Seq[String] = {
    drain(sc)
    val started = new ConcurrentLinkedQueue[String]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = {
        started.add(e.stageInfos.map(_.name).distinct.mkString("; ")); ()
      }
    }
    sc.addSparkListener(listener)
    try { body; drain(sc); started.asScala.toSeq } finally sc.removeSparkListener(listener)
  }
}
