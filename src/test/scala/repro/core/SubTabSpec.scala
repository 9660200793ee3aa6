package repro.core

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.data.{CatCell, CatCol, Datasets, NumCell, NumCol, Pattern, SynthTable}

/** End-to-end SubTab (Algorithm 2) on a small planted-pattern table. */
class SubTabSpec extends SparkSpec {

  lazy val (df, meta) = Datasets.cyber(spark, 0.05) // ~2000 rows, 15 cols
  lazy val model: SubTab.Model = SubTab.preprocess(df)

  test("preprocess bins every column and caches the binned table") {
    assert(model.cols.size == 15)
    assert(model.binned.columns.head == Tables.Rid)
    assert(model.binned.count() == df.count())
  }

  test("select returns a k×l sub-table of existing rows and columns") {
    val sub = SubTab.select(model, k = 8, l = 6)
    assert(sub.rowIds.size == 8 && sub.rowIds.distinct.size == 8)
    assert(sub.cols.size == 6)
    assert(sub.cols.forall(model.cols.contains))
    val rids = df.select(Tables.Rid).collect().map(_.getLong(0)).toSet
    assert(sub.rowIds.forall(rids.contains))
  }

  test("selection is deterministic") {
    val a = SubTab.select(model, 6, 5)
    val b = SubTab.select(model, 6, 5)
    assert(a == b)
  }

  test("target columns are always included and count toward l") {
    val sub = SubTab.select(model, 5, 4, targets = Seq("attack_type", "severity"))
    assert(sub.cols.contains("attack_type") && sub.cols.contains("severity"))
    assert(sub.cols.size == 4)
  }

  test("l equal to the number of targets returns exactly the targets") {
    val sub = SubTab.select(model, 5, 2, targets = Seq("attack_type", "severity"))
    assert(sub.cols.toSet == Set("attack_type", "severity"))
  }

  test("more targets than columns is rejected") {
    intercept[IllegalArgumentException] {
      SubTab.select(model, 5, 1, targets = Seq("attack_type", "severity"))
    }
  }

  test("k larger than the table returns every row") {
    val (small, _) = Datasets.cyber(spark, 0.0001) // floor: 2000 rows
    val tiny = small.limit(7).cache()
    val m2 = SubTab.preprocess(tiny)
    val sub = SubTab.select(m2, k = 50, l = 3)
    assert(sub.rowIds.size == 7)
    m2.unpersist()
  }

  test("query selection only returns rows satisfying the query") {
    val q = (d: org.apache.spark.sql.DataFrame) => d.where(col("protocol") === "UDP")
    val sub = SubTab.select(model, Some(q), k = 6, l = 5, Nil)
    val selected = df.where(col(Tables.Rid).isin(sub.rowIds: _*))
      .select("protocol").collect().map(_.getString(0))
    assert(selected.nonEmpty && selected.forall(_ == "UDP"))
  }

  test("query projection restricts the candidate columns") {
    val keep = Seq("protocol", "packets", "bytes", "severity")
    val q = (d: org.apache.spark.sql.DataFrame) =>
      d.select((Tables.Rid +: keep).map(col): _*)
    val sub = SubTab.select(model, Some(q), k = 5, l = 3, Nil)
    assert(sub.cols.forall(keep.contains))
  }

  test("queryView requires the query to preserve __rid") {
    val bad = (d: org.apache.spark.sql.DataFrame) => d.drop(Tables.Rid)
    intercept[IllegalArgumentException] {
      SubTab.select(model, Some(bad), 5, 3, Nil)
    }
  }

  test("row selection represents the planted attack patterns") {
    // ddos+scan+bruteforce are ~35% of rows and embed far from background;
    // a 10-centroid selection should include at least one attack row.
    val sub = SubTab.select(model, k = 10, l = 6)
    val attacks = df.where(col(Tables.Rid).isin(sub.rowIds: _*))
      .where(col("attack_type") =!= "none").count()
    assert(attacks >= 1, "no planted-pattern row among the centroids")
  }

  test("column vectors have the embedding dimension and cover all columns") {
    val cvs = SubTab.columnVectors(model, model.binned, model.cols)
    assert(cvs.map(_._1) == model.cols)
    assert(cvs.forall(_._2.length == model.cellVecs.vectorSize))
    assert(cvs.exists(_._2.exists(_ != 0f)))
  }

  test("subTableTokens returns the sub-table contents in rid order") {
    val sub = SubTab.select(model, 4, 3)
    val mat = model.matrix
    val expected = sub.rowIds.sorted.map { rid =>
      val row = mat.codes(java.util.Arrays.binarySearch(mat.rids, rid))
      sub.cols.map(c => mat.tokens(row(mat.cols.indexOf(c))))
    }
    assert(Metrics.subTableTokens(model.binned, sub) == expected)
  }

  test("withRid is idempotent and subTableTokens projects in order") {
    val plain = Tables.withRid(df.select(Tables.dataCols(df).take(2).map(col): _*))
    assert(Tables.withRid(plain).columns.count(_ == Tables.Rid) == 1)
    val binned = Binning.bin(plain)._2.cache()
    val rids = binned.select(Tables.Rid).limit(3).collect().map(_.getLong(0)).toSeq
    val Seq(first, last) = Tables.dataCols(plain)
    val toks = Metrics.subTableTokens(binned, SubTable(rids.reverse, Seq(last, first)))
    assert(toks.size == 3)
    assert(toks.forall(r => r.map(Binning.tokenCol) == Seq(last, first)))
    binned.unpersist()
  }

  test("an empty query result gives no rows and min(l, |qCols|) columns with the targets") {
    val q = (d: org.apache.spark.sql.DataFrame) => d.where(lit(false))
    val sub = SubTab.select(model, Some(q), k = 5, l = 4, Seq("attack_type"))
    assert(sub.rowIds.isEmpty)
    assert(sub.cols.size == math.min(4, model.cols.size) && sub.cols.contains("attack_type"))
    assert(sub.cols.distinct.size == sub.cols.size && sub.cols.forall(model.cols.contains))
  }

  test("a query result with fewer rows than k returns all of them") {
    val q = (d: org.apache.spark.sql.DataFrame) => d.where(col(Tables.Rid) < 3)
    val sub = SubTab.select(model, Some(q), k = 8, l = 4, Nil)
    assert(sub.rowIds.sorted == Seq(0L, 1L, 2L))
  }

  test("l larger than the number of columns returns every column") {
    val sub = SubTab.select(model, k = 4, l = model.cols.size + 5)
    assert(sub.cols == model.cols)
  }

  test("the same seed gives the same sub-table after repartitioning the binned frame") {
    val binned8 = model.binned.repartition(8).cache()
    val m8 = new SubTab.Model(model.original, model.binModel, binned8, model.cols,
      model.cellVecs, model.params)
    val q = (d: org.apache.spark.sql.DataFrame) => d.where(col("protocol") === "UDP")
    assert(SubTab.select(m8, k = 7, l = 5) == SubTab.select(model, k = 7, l = 5))
    assert(SubTab.select(m8, Some(q), 6, 4, Seq("severity")) ==
      SubTab.select(model, Some(q), 6, 4, Seq("severity")))
    binned8.unpersist()
  }

  test("SynthTable constant pattern cells land in a single bin") {
    // Regression: planted numeric cells are points so equi-depth edges can
    // never split a pattern across bins.
    val cols = Seq[repro.data.ColSpec](
      NumCol("v", 0, 100), CatCol("g", Seq("x", "y")), NumCol("w", 0, 1))
    val pats = Seq(Pattern("p", 0.3, Map(
      "v" -> NumCell(88, 88), "g" -> CatCell("x"), "w" -> NumCell(0.9, 0.9))))
    val d = SynthTable.build(spark, 2000, cols, pats, fuzz = 0.0, tag = "tst")
    val (_, binned) = Binning.bin(d, 5)
    val joined = d.select(col(Tables.Rid), col("v")).join(
      binned.select(col(Tables.Rid), col("v").as("vb")), Tables.Rid)
    val patternBins = joined.where(col("v") === 88.0)
      .select("vb").distinct().collect().map(_.getString(0))
    assert(patternBins.length == 1, s"pattern split across bins: ${patternBins.toSeq}")
  }
}
