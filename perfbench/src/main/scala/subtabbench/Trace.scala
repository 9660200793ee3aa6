package subtabbench

import java.lang.management.ManagementFactory
import java.util.concurrent.ConcurrentHashMap

import org.apache.spark.BenchBus
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession

import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Counters one span collects: its own Spark work and JVM GC time. */
final case class Counters(jobs: Long = 0, stages: Long = 0, tasks: Long = 0,
                          emptyTasks: Long = 0, taskMs: Double = 0, gcMs: Double = 0) {
  def +(o: Counters): Counters = Counters(jobs + o.jobs, stages + o.stages, tasks + o.tasks,
    emptyTasks + o.emptyTasks, taskMs + o.taskMs, gcMs + o.gcMs)
  /** Tasks that read at least one record, over all tasks. */
  def usefulTaskRatio: Double = if (tasks == 0) 1.0 else (tasks - emptyTasks).toDouble / tasks
}

/** One recorded span. `parent` is -1 for a root; spans of one public call
  * share `request`. Times are nanoseconds of `System.nanoTime`.
  */
final case class Span(id: Int, name: String, parent: Int, request: String,
                      startNs: Long, endNs: Long, gcMs: Double) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** Spark listener that attributes jobs, stages and tasks to the span that was
  * innermost on the submitting thread (carried as a job-local property).
  */
final class SpanListener extends SparkListener {
  private val stageSpan = new ConcurrentHashMap[Int, Int]()
  private val counts = new ConcurrentHashMap[Int, Counters]()

  private def add(span: Int, c: Counters): Unit = counts.merge(span, c, (a, b) => a + b)

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val span = Option(e.properties).flatMap(p => Option(p.getProperty(Tracer.SpanKey)))
      .map(_.toInt).getOrElse(-1)
    e.stageIds.foreach(stageSpan.put(_, span))
    add(span, Counters(jobs = 1))
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
    add(stageSpan.getOrDefault(e.stageInfo.stageId, -1), Counters(stages = 1))

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val m = e.taskMetrics
    val read =
      if (m == null) 0L
      else m.inputMetrics.recordsRead + m.shuffleReadMetrics.recordsRead
    add(stageSpan.getOrDefault(e.stageId, -1),
      Counters(tasks = 1, emptyTasks = if (read == 0) 1 else 0,
        taskMs = if (m == null) 0.0 else m.executorRunTime.toDouble))
  }

  def snapshot: Map[Int, Counters] = counts.asScala.toMap
}

/** In-memory span recorder. Spans are kept until the run ends and then
  * written out; nothing is recorded unless the run is traced.
  */
final class Tracer(spark: SparkSession) {
  private val sc = spark.sparkContext
  private val listener = new SpanListener
  sc.addSparkListener(listener)

  private val done = mutable.ArrayBuffer[Span]()
  private var stack: List[(Int, String)] = Nil
  private var nextId = 0

  def span[A](name: String, request: String = null)(body: => A): A = {
    val id = nextId; nextId += 1
    val parent = stack.headOption.map(_._1).getOrElse(-1)
    val req = Option(request).orElse(stack.headOption.map(_._2)).getOrElse(name)
    stack = (id, req) :: stack
    sc.setLocalProperty(Tracer.SpanKey, id.toString)
    val gc0 = Tracer.gcMillis()
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      done += Span(id, name, parent, req, t0, t1, Tracer.gcMillis() - gc0)
      stack = stack.tail
      sc.setLocalProperty(Tracer.SpanKey, stack.headOption.map(_._1.toString).orNull)
    }
  }

  /** Finished spans with their inclusive counters (own work plus that of
    * every descendant), once every queued listener event is processed.
    */
  def finish(): Seq[(Span, Counters)] = {
    BenchBus.drain(sc)
    sc.removeSparkListener(listener)
    val own = listener.snapshot
    val children = done.groupBy(_.parent)
    def inclusive(s: Span): Counters =
      children.getOrElse(s.id, Nil).foldLeft(
        own.getOrElse(s.id, Counters()).copy(gcMs = 0))(_ + inclusive(_)).copy(gcMs = s.gcMs)
    done.sortBy(_.id).map(s => s -> inclusive(s)).toSeq
  }
}

object Tracer {
  val SpanKey = "subtabbench.span"

  def gcMillis(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum.toDouble
}
