package repro.core

import java.math.BigDecimal
import java.sql.{Date, Timestamp}

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.catalyst.expressions.ScalaUDF
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import org.apache.spark.sql.execution.LogicalRDD
import org.apache.spark.sql.types._
import repro.SparkSpec
import repro.data.Datasets
import repro.exp.Ctx

import scala.util.Random

/** `Binning.BinModel.transform`'s materialized binned table: equal, row for
  * row and partition for partition, to the lazy UDF projection it replaced
  * ([[LazyBinning]]); free of the projection's lineage; and freed by
  * `SubTab.Model.unpersist()`.
  */
class BinnedCheckpointSpec extends SparkSpec {

  /** Each partition's rows of `df`, in order. */
  def partitions(df: DataFrame): Seq[Seq[Row]] =
    df.rdd.glom().collect().map(_.toSeq).toSeq

  def sameAsLazy(df: DataFrame, nBins: Int = 5): Unit = {
    val m = Binning.fit(df, nBins)
    val got = partitions(m.transform(df))
    val want = partitions(LazyBinning.transform(m, df))
    assert(got.map(_.size) == want.map(_.size), s"partition sizes, ${df.columns.toSeq}")
    assert(got == want, s"rows, ${df.columns.toSeq}")
    assert(got.flatten.nonEmpty)
  }

  test("transform equals the lazy projection on the six generators") {
    Datasets.all(spark, 0.05).foreach { case (df, _) => sameAsLazy(df) }
  }

  /** NaN and null numerics, decimals, dates, timestamps, booleans, an
    * integer column and an all-null one.
    */
  val mixedSchema: StructType = StructType(Seq(
    StructField(Tables.Rid, LongType, nullable = false),
    StructField("d", DoubleType), StructField("f", FloatType), StructField("i", IntegerType),
    StructField("dec", DecimalType(12, 3)), StructField("day", DateType),
    StructField("ts", TimestampType), StructField("flag", BooleanType),
    StructField("s", StringType), StructField("none", DoubleType)))

  def mixedRows(n: Int, seed: Long): Seq[Row] = {
    val rnd = new Random(seed)
    def sometimesNull[A](a: => A): Any = if (rnd.nextInt(8) == 0) null else a
    (0 until n).map { i =>
      Row(i.toLong * 7 - 3,
        if (rnd.nextInt(10) == 0) Double.NaN else sometimesNull(rnd.nextGaussian() * 100),
        if (rnd.nextInt(10) == 0) Float.NaN else sometimesNull(rnd.nextFloat()),
        sometimesNull(rnd.nextInt(4)),
        sometimesNull(BigDecimal.valueOf(rnd.nextInt(2000000) - 1000000L, 3)),
        sometimesNull(Date.valueOf(java.time.LocalDate.of(2020, 1, 1).plusDays(rnd.nextInt(9).toLong))),
        sometimesNull(new Timestamp(1577836800000L + rnd.nextInt(6) * 3600500L)),
        sometimesNull(rnd.nextBoolean()),
        sometimesNull(Seq("a", "é", "日本", "OTHER", "∅", "z", "b")(rnd.nextInt(7))),
        null)
    }
  }

  test("transform equals the lazy projection on NaN and null numerics, decimals, dates, timestamps, booleans") {
    for ((n, seed) <- Seq((300, 1L), (40, 2L)); nBins <- Seq(2, 5)) {
      val df = spark.createDataFrame(java.util.Arrays.asList(mixedRows(n, seed): _*), mixedSchema)
      sameAsLazy(df, nBins)
      sameAsLazy(df.repartition(3), nBins)
    }
  }

  def hasUdf(plan: LogicalPlan): Boolean =
    plan.collect { case p => p.expressions.exists(_.find(_.isInstanceOf[ScalaUDF]).isDefined) }.contains(true)

  /** Every RDD that `rdd` descends from. */
  def ancestors(rdd: RDD[_]): Seq[RDD[_]] =
    rdd.dependencies.flatMap(d => d.rdd +: ancestors(d.rdd))

  test("the binned frame carries no UDF, and its rows descend only from the checkpoint") {
    val (df, _) = Datasets.flights(spark, 0.0)
    val m = Binning.fit(df, 5)
    val binned = m.transform(df)
    assert(!hasUdf(binned.queryExecution.analyzed))
    assert(hasUdf(LazyBinning.transform(m, df).queryExecution.analyzed))
    val stored = binned.queryExecution.logical match { case r: LogicalRDD => r.rdd }
    assert(ancestors(stored).map(_.getClass.getSimpleName) == Seq("LocalCheckpointRDD"))
    // A job over the binned frame, such as Metrics' pass, starts there too.
    val scan = binned.select(Tables.Rid, m.cols.head).queryExecution.toRdd
    assert(ancestors(scan).filter(_.dependencies.isEmpty).map(_.getClass.getSimpleName) ==
      Seq("LocalCheckpointRDD"))
    Binning.release(binned)
  }

  test("Model.unpersist leaves none of the model's RDDs persisted") {
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.keySet
    val (df, _) = Datasets.cyber(spark, 0.0001)
    val model = SubTab.preprocess(df.limit(300), Ctx.BenchSubTab)
    val stored = model.binned.queryExecution.logical match { case r: LogicalRDD => r.rdd }
    val held = sc.getPersistentRDDs.keySet -- before
    // The checkpoint and the cached original table.
    assert(held.contains(stored.id) && held.size == 2, held)
    model.unpersist()
    assert((sc.getPersistentRDDs.keySet -- before).isEmpty)
  }
}
