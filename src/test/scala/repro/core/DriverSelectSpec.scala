package repro.core

import org.apache.spark.TestBus
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import org.scalacheck.{Gen, Prop}
import repro.{PropSupport, SparkSpec}
import repro.data.Datasets
import repro.exp.Ctx

/** `SubTab.select` on the driver against the Spark path it replaced
  * ([[SparkSelect]]), its Spark job count, its rid hash, the model's local
  * copy of the original table and the driver size guard of
  * `SubTab.preprocess`.
  */
class DriverSelectSpec extends SparkSpec with PropSupport {

  lazy val cy: (SubTab.Model, Seq[String]) = {
    val (df, meta) = Datasets.cyber(spark, 0.05)
    (SubTab.preprocess(df, Ctx.BenchSubTab), meta.targets)
  }
  lazy val fl: (SubTab.Model, Seq[String]) = {
    val (df, meta) = Datasets.flights(spark, 0.0003)
    (SubTab.preprocess(df, Ctx.BenchSubTab), meta.targets)
  }

  val shapes = Seq((8, 6), (5, 4), (12, 10), (1, 3), (3, 1))

  type Query = Option[DataFrame => DataFrame]

  /** The driver and the Spark path give the same sub-table at every shape. */
  def sameAsSpark(table: (SubTab.Model, Seq[String]), query: Query, withTargets: Boolean): Unit = {
    val (model, metaTargets) = table
    val targets = if (withTargets) metaTargets else Nil
    shapes.filter(_._2 >= targets.size).foreach { case (k, l) =>
      val driver = SubTab.select(model, query, k, l, targets)
      val reference = SparkSelect.select(model, query, k, l, targets)
      assert(driver == reference, s"k = $k, l = $l, targets = $targets")
    }
  }

  def bothTables(query: Query, withTargets: Boolean = false): Unit =
    Seq(cy, fl).foreach(sameAsSpark(_, query, withTargets))

  test("a full-table select equals the Spark path") {
    bothTables(None)
    bothTables(None, withTargets = true)
  }

  test("a filtered select equals the Spark path") {
    bothTables(Some(d => d.where(col(Tables.Rid) % 3 === 1)), withTargets = true)
    sameAsSpark(cy, Some(d => d.where(col("protocol") === "UDP")), withTargets = false)
  }

  test("a projection with targets equals the Spark path") {
    Seq(cy, fl).foreach { case t @ (model, targets) =>
      val keep = (model.cols.take(7) ++ targets).distinct
      sameAsSpark(t, Some(d => d.where(col(Tables.Rid) < 900).select((Tables.Rid +: keep).map(col): _*)),
        withTargets = true)
    }
  }

  test("a query that repeats rids (a self-union) equals the Spark path") {
    bothTables(Some(d => d.where(col(Tables.Rid) % 2 === 0).union(d.where(col(Tables.Rid) % 3 === 0))))
  }

  test("an empty query result equals the Spark path") {
    bothTables(Some(d => d.where(lit(false))), withTargets = true)
  }

  test("a query result with fewer rows than k equals the Spark path") {
    bothTables(Some(d => d.where(col(Tables.Rid).isin(4L, 9L, 11L, 40L))))
  }

  test("above the cap, the driver core equals the Spark sample, UDF and min_by") {
    val (model, _) = cy
    val vecs = SparkSelect.rowVectors(model, model.binned, model.cols).cache()
    Seq((3, 6L, 300), (8, 17L, 500), (10, 5L, 1000), (4, 2L, 60)).foreach { case (k, seed, cap) =>
      val driver = CentroidSelect.rowSelection(vecs, k, seed, cap)
      val reference = SparkSelect.rowSelection(vecs, k, seed, cap)
      assert(driver.rids == reference.rids, s"k = $k, seed = $seed, cap = $cap")
      assert(driver.centers.map(_.toSeq).toSeq == reference.centers.map(_.toSeq).toSeq)
    }
    vecs.unpersist()
  }

  test("the driver hash equals Spark's pmod(xxhash64(rid, lit(seed)), 2^30)") {
    val rids = spark.range(-2000L, 3000L).toDF(Tables.Rid)
      .union(spark.createDataFrame(Seq(Tuple1(Long.MaxValue), Tuple1(Long.MinValue))).toDF(Tables.Rid))
    Seq(0L, 6L, 17L, -3L, Long.MaxValue).foreach { seed =>
      val bySpark = rids.select(col(Tables.Rid), SparkSelect.ridHash(col(Tables.Rid), seed))
        .collect().map(r => r.getLong(0) -> r.getLong(1))
      assert(bySpark.length == 5002)
      bySpark.foreach { case (rid, h) =>
        assert(CentroidSelect.ridHash(rid, seed) == h, s"rid $rid, seed $seed")
      }
    }
  }

  test("full-table, filter and projection selects run no Spark job") {
    val (model, targets) = fl
    val q: Query = Some(d => d.where(col("AIRLINE") === "AA"))
    val p: Query = Some(d => d.select((Tables.Rid +: model.cols.take(9) :+ targets.head).map(col): _*))
    SubTab.select(model, q, 8, 6, targets) // warm the model's driver-side tables
    assert(jobs(SubTab.select(model, 8, 6)) == 0)
    assert(jobs(SubTab.select(model, 10, 7, targets)) == 0)
    assert(jobs(SubTab.select(model, q, 8, 6, targets)) == 0)
    assert(jobs(SubTab.select(model, p, 9, 5, targets)) == 0)
    // A join is not folded while planning: it runs as jobs over the local copy.
    assert(jobs(SubTab.select(model, bigAirlines, 8, 6, targets)) > 0)
  }

  /** Rows of (airline, origin) groups with more than 20 flights: a left-semi
    * join against an aggregate, which Catalyst cannot fold over a local
    * relation.
    */
  val bigAirlines: Query = Some(d => d.join(
    d.groupBy("AIRLINE", "ORIGIN_AIRPORT").count().where(col("count") > 20),
    Seq("AIRLINE", "ORIGIN_AIRPORT"), "left_semi"))

  test("a query Catalyst cannot fold (a join on an aggregate) equals the Spark path") {
    val (model, _) = fl
    val n = bigAirlines.get(model.original).count()
    assert(n > 0 && n < model.matrix.rids.length)
    sameAsSpark(fl, bigAirlines, withTargets = true)
  }

  test("the local copy gives the same rids as the original for predicateFor queries") {
    val genTable: Gen[(Int, Seq[Row])] = for {
      nBins <- Gen.choose(2, 5)
      n <- Gen.choose(0, 40)
      rows <- Gen.listOfN(n, genRow)
    } yield (nBins, rows.zipWithIndex.map { case (r, i) => Row.fromSeq((i * 3L - 7) +: r) })
    checkProp(Prop.forAll(genTable, Gen.choose(0L, 1000L)) { case ((nBins, rows), seed) =>
      val df = spark.createDataFrame(java.util.Arrays.asList(rows: _*), localSchema).cache()
      val (binModel, binned) = Binning.bin(df, nBins)
      val model = new SubTab.Model(df, binModel, binned, binModel.cols,
        repro.embed.CellEmbedding.Model(4, Map.empty), SubTab.Params())
      val preds = binModel.vocabulary.map(repro.eda.Query.predicateFor(binModel, _))
      val rnd = new scala.util.Random(seed)
      val pair = rnd.shuffle(preds).take(2)
      val queries: Seq[DataFrame => DataFrame] =
        rnd.shuffle(preds).take(8).map(p => (d: DataFrame) => d.where(p.toColumn)) :+
          ((d: DataFrame) => repro.eda.Query(pair, Some(pair.map(_.col).distinct))(d))
      val ok = queries.forall(q => rids(q(model.local)) == rids(q(model.original)))
      df.unpersist()
      ok
    }, minSuccessful = 25)
  }

  def rids(d: DataFrame): Seq[Long] = d.select(Tables.Rid).collect().map(_.getLong(0)).sorted.toSeq

  /** `__rid`, a numeric column with NaNs and nulls, a small-domain integer
    * column, a categorical column with non-ASCII values and enough of them
    * for an OTHER bin, and an all-null numeric and categorical column.
    */
  val localSchema: StructType = StructType(Seq(
    StructField(Tables.Rid, LongType, nullable = false),
    StructField("x", DoubleType), StructField("k", IntegerType), StructField("cat", StringType),
    StructField("none_num", DoubleType), StructField("none_cat", StringType)))

  val genRow: Gen[Seq[Any]] = for {
    x <- Gen.frequency(1 -> Gen.const(null), 1 -> Gen.const(Double.NaN),
      4 -> Gen.choose(-3, 3).map(_.toDouble), 2 -> Gen.choose(-1e3, 1e3))
    k <- Gen.frequency(1 -> Gen.const(null), 4 -> Gen.choose(0, 3).map(Int.box))
    cat <- Gen.frequency(1 -> Gen.const(null),
      6 -> Gen.oneOf("a", "b", "é", "ß", "日本", "Ω", "ζ", "\uD83D\uDE00", "A", "z", "OTHER"))
  } yield Seq(x, k, cat, null, null)

  test("preprocess fails fast when the binned table would not fit the driver heap") {
    val (df, _) = Datasets.cyber(spark, 0.05)
    val n = df.count()
    val need = n * 15 * BinnedMatrix.BytesPerCell
    val e = intercept[IllegalArgumentException] {
      SubTab.preprocess(df, Ctx.BenchSubTab, heapBytes = 2 * need - 1)
    }
    Seq(s"n = $n rows", "m = 15 columns", s"${BinnedMatrix.BytesPerCell} B per cell", "MB heap")
      .foreach(part => assert(e.getMessage.contains(part), e.getMessage))
    BinnedMatrix.requireFits(n, 15, 2 * need)
  }

  test("an oversized table fails before binning: no binning job starts") {
    val (df, _) = Datasets.cyber(spark, 0.05)
    val sc = spark.sparkContext
    var e: IllegalArgumentException = null
    val sites = TestBus.jobSites(sc) {
      e = intercept[IllegalArgumentException](SubTab.preprocess(df, Ctx.BenchSubTab, heapBytes = 1000000L))
    }
    assert(e.getMessage.contains("more than half of the 1 MB heap"), e.getMessage)
    assert(sites.nonEmpty && !sites.exists(_.contains("Binning")), sites)
    // Binning's jobs do name it.
    assert(TestBus.jobSites(sc)(Binning.release(Binning.bin(df)._2)).exists(_.contains("Binning")))
  }
}
