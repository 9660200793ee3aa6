package subtabbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}

import org.apache.spark.sql.SparkSession

/** Benchmark entry point: one workload, one seed, one process.
  *
  *   Main --workload W --seed N --seconds S --trace 0|1 --out RESULT.json
  *        --spans SPANS.jsonl [--git-sha SHA] [--source-digest HEX]
  *
  * It writes the result file (run record, output checks, metrics) and, when
  * traced, the span file; `run.py` builds the program and prints the final
  * result line.
  */
object Main {

  /** Spark cores: all of the machine's, up to 4, so runs on larger machines
    * stay comparable with the recorded baseline.
    */
  val Cores: Int = math.min(4, Runtime.getRuntime.availableProcessors())

  /** Root spans of the timed phase, per workload kind. */
  val TimedRoots = Set("subtab.preprocess", "subtab.select", "eval.prepare", "eval.round")

  def main(args: Array[String]): Unit = {
    val a = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): String = a.getOrElse(k, usage(s"missing --$k"))
    val workload = need("workload")
    if (!Workloads.Names.contains(workload)) usage(s"unknown workload $workload")
    val seed = need("seed").toLong
    val seconds = need("seconds").toInt
    val trace = need("trace") == "1"
    val out = Paths.get(need("out"))
    val spansOut = Paths.get(need("spans"))

    // Same session settings as the exhibits' jobs (64 shuffle partitions,
    // no broadcast joins, no UI).
    val spark = SparkSession.builder()
      .master(s"local[$Cores]")
      .appName(s"subtabbench-$workload")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    try {
      val r = execute(spark, workload, seed, seconds, trace, out, spansOut,
        a.getOrElse("git-sha", "unknown"), a.getOrElse("source-digest", "unknown"))
      println(s"subtabbench $workload seed=$seed seconds=$seconds trace=${if (trace) 1 else 0} " +
        s"table=${r.table.map { case (k, v) => s"$k=$v" }.mkString(",")}")
      reported(r).foreach { case (d, v) =>
        println(f"  ${d.name}%-28s $v%14.4f ${d.unit}%-6s (${d.better} is better)") }
      r.notes.foreach { case (k, v) => println(s"  note $k: $v") }
      println("  phases (s): " + r.phases.map { case (k, v) => f"$k=$v%.2f" }.mkString(" "))
      println(s"  output checks: ${r.attempted - r.failed}/${r.attempted} operations passed")
      r.failures.foreach(f => println(s"  FAILED $f"))
    } finally spark.stop()
  }

  /** The metrics a run reports: every end-to-end metric when untraced, every
    * per-layer metric when traced (0 for a layer the workload never calls).
    */
  def reported(r: Run): Seq[(MetricDef, Double)] =
    if (r.traced) MetricDefs.PerLayer.map(d => d -> r.metrics.getOrElse(d.name, 0.0))
    else MetricDefs.EndToEnd.map(d => d -> r.metrics.getOrElse(d.name,
      throw new IllegalStateException(s"metric ${d.name} was not measured")))

  /** Run one workload on `spark` and write its result file (and, when
    * traced, its span file).
    */
  def execute(spark: SparkSession, workload: String, seed: Long, seconds: Int, trace: Boolean,
              out: Path, spansOut: Path, gitSha: String, sourceDigest: String): Run = {
    val r = new Run(spark, seed, seconds, if (trace) Some(new Tracer(spark)) else None)
    val t0 = System.nanoTime()
    Workloads.run(workload, r)
    val spans = r.tracer.map(_.finish()).getOrElse(Nil)
    if (trace) r.metrics ++= layerMetrics(spans, r)
    val record = Json.obj(
      "workload" -> workload, "seed" -> seed, "seconds" -> seconds, "trace" -> trace,
      "nproc" -> Runtime.getRuntime.availableProcessors(), "spark_master" -> spark.sparkContext.master,
      "max_heap_mb" -> Runtime.getRuntime.maxMemory() / 1048576L,
      "spark_version" -> spark.version, "scala_version" -> scala.util.Properties.versionNumberString,
      "java_version" -> System.getProperty("java.version"),
      "git_sha" -> gitSha, "source_digest" -> sourceDigest,
      "table" -> Json.Obj(r.table.toSeq))
    val result = Json.obj(
      "run" -> record,
      "correct" -> (r.failed == 0), "attempted" -> r.attempted, "failed" -> r.failed,
      "failures" -> r.failures.toSeq,
      "metrics" -> Json.Obj(reported(r).map { case (d, v) =>
        d.name -> Json.obj("value" -> v, "unit" -> d.unit, "better" -> d.better) }),
      "notes" -> Json.Obj(r.notes.toSeq),
      "phases_s" -> Json.Obj(r.phases.toSeq),
      "ops" -> r.ops.toSeq,
      "spans_file" -> (if (trace) spansOut.getFileName.toString else null))
    Files.createDirectories(out.toAbsolutePath.getParent)
    Files.write(out, Json.render(result).getBytes(StandardCharsets.UTF_8))
    if (trace) Files.write(spansOut, spans.map { case (s, c) =>
      Json.render(Json.obj("id" -> s.id, "name" -> s.name, "parent" -> s.parent,
        "request" -> s.request, "start_ms" -> (s.startNs - t0) / 1e6, "end_ms" -> (s.endNs - t0) / 1e6,
        "ms" -> s.ms, "jobs" -> c.jobs, "stages" -> c.stages, "tasks" -> c.tasks,
        "empty_tasks" -> c.emptyTasks, "task_ms" -> c.taskMs, "gc_ms" -> c.gcMs))
    }.mkString("", "\n", "\n").getBytes(StandardCharsets.UTF_8))
    r
  }

  private def usage(msg: String): Nothing = {
    Console.err.println(s"subtabbench: $msg")
    sys.exit(2)
  }

  /** Per-layer metrics from the spans of a traced run. A layer's time is
    * summed within a request (a public call) and the median over requests
    * is reported.
    */
  def layerMetrics(spans: Seq[(Span, Counters)], r: Run): Map[String, Double] = {
    val by = spans.groupBy(_._1.name)
    def ms(name: String): Double = by.get(name).fold(0.0) { ss =>
      Stats.median(ss.groupBy(_._1.request).values.map(_.map(_._1.ms).sum).toSeq)
    }
    val selects = by.getOrElse("subtab.select", Nil)
    val roots = spans.filter { case (s, _) => s.parent == -1 && TimedRoots(s.name) }
    val total = roots.map(_._2).foldLeft(Counters())(_ + _)
    val children = spans.groupBy(_._1.parent)
    val coverage = roots.map { case (s, _) => children.getOrElse(s.id, Nil).map(_._1.ms).sum / s.ms }
    val selectCounters = selects.map(_._2).foldLeft(Counters())(_ + _)
    Map(
      "binning.fit_ms" -> ms("binning.fit"), "binning.transform_ms" -> ms("binning.transform"),
      "corpus.build_ms" -> ms("corpus.build"), "embedding.train_ms" -> ms("embedding.train"),
      "embedding.core_util" -> by.get("embedding.train").fold(0.0) { ss =>
        val (s, c) = ss.head; c.taskMs / (s.ms * Cores) },
      "subtab.query_view_ms" -> ms("subtab.query_view"), "subtab.rows_ms" -> ms("subtab.rows"),
      "subtab.column_vectors_ms" -> ms("subtab.column_vectors"), "subtab.cols_ms" -> ms("subtab.cols"),
      "centroid.select_named_ms" -> ms("centroid.select_named"),
      "select.spark_jobs" -> (if (selects.isEmpty) 0.0 else Stats.median(selects.map(_._2.jobs.toDouble))),
      "select.spark_tasks" -> (if (selects.isEmpty) 0.0 else Stats.median(selects.map(_._2.tasks.toDouble))),
      "select.useful_task_ratio" -> (if (selects.isEmpty) 0.0 else selectCounters.usefulTaskRatio),
      "apriori.frequent_ms" -> ms("apriori.frequent"), "apriori.rules_ms" -> ms("apriori.rules"),
      "matrix.collect_ms" -> ms("matrix.collect"), "scorer.build_ms" -> ms("scorer.build"),
      "metrics.described_cells_ms" -> ms("metrics.described_cells"),
      "metrics.sub_table_tokens_ms" -> ms("metrics.sub_table_tokens"),
      "metrics.scores_ms" -> ms("metrics.scores"),
      "spark.jobs" -> total.jobs.toDouble, "spark.stages" -> total.stages.toDouble,
      "spark.tasks" -> total.tasks.toDouble, "spark.task_ms" -> total.taskMs, "jvm.gc_ms" -> total.gcMs,
      "trace.coverage" -> (if (coverage.isEmpty) 0.0 else Stats.mean(coverage)),
      "trace.overhead" -> (if (r.overhead.isEmpty) 0.0 else r.overhead.map(_._2).sum / r.overhead.map(_._1).sum),
    )
  }
}
