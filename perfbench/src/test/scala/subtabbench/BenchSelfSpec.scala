package subtabbench

import java.nio.file.{Files, Path, Paths}

import org.apache.spark.sql.SparkSession
import org.json4s._
import org.json4s.jackson.JsonMethods.parse
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.core.Tables

import scala.jdk.CollectionConverters._

/** Self-tests of the benchmark: BENCHMARK.json agrees with what the runs
  * report, result files carry the run record, traced runs reproduce the
  * public calls' results and their layer spans account for each timed call.
  * Run with `sbt test` from this directory.
  */
class BenchSelfSpec extends AnyFunSuite with BeforeAndAfterAll {
  implicit val formats: Formats = DefaultFormats

  lazy val spark: SparkSession = SparkSession.builder()
    .master(s"local[${Main.Cores}]")
    .config("spark.sql.shuffle.partitions", "64")
    .config("spark.sql.autoBroadcastJoinThreshold", -1L)
    .config("spark.ui.enabled", "false")
    .getOrCreate()

  private lazy val dir: Path = Files.createTempDirectory("subtabbench-selftest")
  private lazy val spec: JValue = parse(new String(Files.readAllBytes(Paths.get("..", "BENCHMARK.json")), "UTF-8"))

  override def afterAll(): Unit = {
    spark.stop()
    Files.list(dir).iterator().asScala.foreach(Files.delete)
    Files.delete(dir)
    super.afterAll()
  }

  /** Run a workload for one second; returns the parsed result and spans. */
  private def run(workload: String, trace: Boolean): (JValue, Seq[JValue]) = {
    val name = s"$workload-$trace"
    val out = dir.resolve(s"$name.json")
    val spans = dir.resolve(s"$name.spans.jsonl")
    Main.execute(spark, workload, seed = 5, seconds = 1, trace, out, spans, "test", "test")
    val lines = if (trace) Files.readAllLines(spans).asScala.toSeq.map(parse(_)) else Nil
    (parse(new String(Files.readAllBytes(out), "UTF-8")), lines)
  }

  private def bound(metric: String): Double =
    (spec \ "end_to_end").children.find(m => (m \ "name").extract[String] == metric)
      .map(m => (m \ "bound").extract[Double]).get

  private lazy val explore = run("explore-flights", trace = false)
  private lazy val exploreTraced = run("explore-flights", trace = true)
  private lazy val evaluateTraced = run("evaluate-flights", trace = true)

  test("BENCHMARK.json lists the workloads and the metrics the runs report") {
    assert((spec \ "workloads").children.map(w => (w \ "name").extract[String]) == Workloads.Names)
    def defs(key: String) = (spec \ key).children.map(m =>
      MetricDef((m \ "name").extract[String], (m \ "unit").extract[String], (m \ "better").extract[String]))
    assert(defs("end_to_end") == MetricDefs.EndToEnd)
    assert(defs("per_layer") == MetricDefs.PerLayer)
  }

  test("a result file carries the run record, the checks and every end-to-end metric") {
    val (res, _) = explore
    val run = res \ "run"
    for (k <- Seq("nproc", "max_heap_mb", "spark_version", "scala_version", "git_sha",
                  "source_digest", "seed", "workload"))
      assert(run \ k != JNothing, s"run record lacks $k")
    for (k <- Seq("name", "rows", "cols", "rstar_rules", "rstar_itemsets", "vocab"))
      assert(run \ "table" \ k != JNothing, s"table shape lacks $k")
    assert((res \ "correct").extract[Boolean], (res \ "failures").extract[Seq[String]].mkString("; "))
    assert((res \ "attempted").extract[Int] >= 3)
    assert((res \ "failed").extract[Int] == 0)
    val metrics = (res \ "metrics").asInstanceOf[JObject].obj
    assert(metrics.map(_._1) == MetricDefs.EndToEnd.map(_.name))
    metrics.foreach { case (name, m) =>
      val v = (m \ "value").extract[Double]
      assert(v > 0 && !v.isInfinite, s"$name = $v")
    }
  }

  test("traced runs reproduce the public calls' results") {
    for ((res, _) <- Seq(exploreTraced, evaluateTraced)) {
      assert((res \ "failures").extract[Seq[String]].isEmpty,
        (res \ "failures").extract[Seq[String]].mkString("; "))
      assert((res \ "correct").extract[Boolean])
    }
  }

  test("traced runs time every layer on both workloads") {
    for ((res, _) <- Seq(exploreTraced, evaluateTraced); d <- MetricDefs.PerLayer if Set("ms", "us")(d.unit)) {
      val v = (res \ "metrics" \ d.name \ "value").extract[Double]
      assert(v > 0, s"${d.name} = $v on ${(res \ "run" \ "workload").extract[String]}")
    }
  }

  test("layer spans sum to within the benchmark's bound of each timed call") {
    val boundOf = Map("subtab.preprocess" -> bound("prepare_s"), "eval.prepare" -> bound("prepare_s"),
      "subtab.select" -> bound("answer_p50_ms"), "eval.round" -> bound("answer_p50_ms"))
    for ((_, spans) <- Seq(exploreTraced, evaluateTraced)) {
      val children = spans.groupBy(s => (s \ "parent").extract[Int])
      val roots = spans.filter(s => (s \ "parent").extract[Int] == -1 &&
        Main.TimedRoots((s \ "name").extract[String]))
      assert(roots.nonEmpty)
      roots.foreach { root =>
        val name = (root \ "name").extract[String]
        val total = (root \ "ms").extract[Double]
        val sum = children.getOrElse((root \ "id").extract[Int], Nil).map(s => (s \ "ms").extract[Double]).sum
        assert(sum <= total, s"$name: layers $sum ms exceed the call's $total ms")
        assert(sum >= (1 - boundOf(name)) * total, s"$name: layers cover $sum of $total ms")
      }
    }
  }

  test("the explore breakdown shows Word2Vec as the largest pre-processing span") {
    val (res, spans) = exploreTraced
    val pre = spans.find(s => (s \ "name").extract[String] == "subtab.preprocess").get
    val largest = spans.filter(s => (s \ "parent") == (pre \ "id")).maxBy(s => (s \ "ms").extract[Double])
    assert((largest \ "name").extract[String] == "embedding.train")
    assert((res \ "metrics" \ "select.spark_jobs" \ "value").extract[Double] > 0)
    assert((res \ "metrics" \ "trace.overhead" \ "value").extract[Double] > 0)
  }

  test("tiny generated queries match between one and maxTiny rows") {
    val df = Workloads.sample(Workloads.Flights.make(spark)._1, Workloads.Flights.rows, 3).cache()
    val pool = QueryGen.pool(df, df.collect(), Seq("CANCELLED"), seed = 3, maxTiny = 3)
    assert(pool.map(_.kind) == Seq("broad", "narrow", "tiny", "broad", "narrow", "tiny"))
    pool.filter(_.kind == "tiny").foreach { q =>
      val n = q(df).select(Tables.Rid).count()
      assert(n >= 1 && n <= 3, s"${q.describe}: $n rows")
    }
    df.unpersist()
  }

  test("the tail is the highest percentile with ten samples beyond it, else the maximum") {
    assert(Stats.tail((1 to 5).map(_.toDouble)) == ((100.0, 5.0)))
    assert(Stats.tail((1 to 40).map(_.toDouble)) == ((75.0, 30.0)))
    assert(Stats.tail((1 to 100).map(_.toDouble)) == ((90.0, 90.0)))
  }
}
