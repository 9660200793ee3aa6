package repro.core

import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{NumericType, StringType}
import org.scalacheck.Prop
import repro.{Oracle, PropSupport, SparkSpec}

class BinningSpec extends SparkSpec with PropSupport {
  import Binning._

  private lazy val df = {
    import spark.implicits._
    (0 until 1000).map { i =>
      (i.toLong, i.toDouble, if (i % 10 == 0) null else s"c${i % 7}",
        if (i % 5 == 0) null.asInstanceOf[java.lang.Double] else java.lang.Double.valueOf(i % 3))
    }.toDF(Tables.Rid, "num", "cat", "fewnum")
  }

  test("token helpers round-trip") {
    val t = token("DISTANCE", "b3")
    assert(tokenCol(t) == "DISTANCE")
    assert(tokenLabel(t) == "b3")
  }

  test("fit assigns continuous bins to numeric columns") {
    val m = fit(df, 5)
    assert(m("num").isInstanceOf[ContinuousBins])
    assert(m("fewnum").isInstanceOf[ContinuousBins])
    assert(m("cat").isInstanceOf[CategoricalBins])
  }

  test("equi-depth binning on uniform data gives ~equal bin counts") {
    val (_, binned) = bin(df, 5)
    val counts = binned.groupBy("num").count().collect()
      .map(r => r.getString(0) -> r.getLong(1)).toMap
    assert(counts.size == 5)
    counts.values.foreach(c => assert(c >= 150 && c <= 250, s"skewed bin: $counts"))
  }

  test("nulls map to the ∅ bin for both numeric and categorical") {
    val (m, binned) = bin(df, 5)
    val catNull = binned.where(col("cat") === token("cat", NullLabel)).count()
    assert(catNull == 100)
    val numNull = binned.where(col("fewnum") === token("fewnum", NullLabel)).count()
    assert(numNull == 200)
    assert(m("cat").label(null) == NullLabel)
  }

  test("NaN maps to the ∅ bin") {
    val b = ContinuousBins("x", Array(1.0, 2.0))
    assert(b.label(Double.NaN) == NullLabel)
    assert(b.label(java.lang.Double.valueOf(Double.NaN)) == NullLabel)
  }

  test("constant numeric column yields a single occupied bin") {
    import spark.implicits._
    val c = (0 until 50).map(i => (i.toLong, 42.0)).toDF(Tables.Rid, "k")
    val (m, binned) = bin(c, 5)
    assert(binned.select("k").distinct().count() == 1)
    // quantiles collapse: at most one interior edge survives deduplication
    assert(m("k").asInstanceOf[ContinuousBins].edges.length <= 1)
  }

  test("few-distinct numeric column gets one bin per value region") {
    val (_, binned) = bin(df, 5)
    // fewnum has values {0,1,2} (plus nulls): at most 4 distinct tokens
    val distinct = binned.select("fewnum").distinct().count()
    assert(distinct >= 3 && distinct <= 4)
  }

  test("categorical with <= nBins categories keeps them all, no OTHER") {
    val m = fit(df, 7) // cat has 7 categories
    val cb = m("cat").asInstanceOf[CategoricalBins]
    assert(!cb.hasOther)
    assert(cb.kept.size == 7)
  }

  test("categorical with > nBins categories groups the tail into OTHER") {
    val m = fit(df, 5)
    val cb = m("cat").asInstanceOf[CategoricalBins]
    assert(cb.hasOther)
    assert(cb.kept.size == 4)
    assert(cb.label("never-seen") == "OTHER")
  }

  test("exactly nBins+0 categories does not invent OTHER at the boundary") {
    import spark.implicits._
    val c = (0 until 90).map(i => (i.toLong, s"v${i % 5}")).toDF(Tables.Rid, "c")
    val m = fit(c, 5)
    val cb = m("c").asInstanceOf[CategoricalBins]
    assert(!cb.hasOther && cb.kept.size == 5)
  }

  test("transform preserves __rid and column order") {
    val (_, binned) = bin(df, 5)
    assert(binned.columns.toSeq == Seq(Tables.Rid, "num", "cat", "fewnum"))
    assert(binned.select(Tables.Rid).collect().map(_.getLong(0)).sorted.toSeq ==
      (0L until 1000L))
  }

  test("every binned cell is a token of its own column") {
    val (m, binned) = bin(df, 5)
    val vocab = m.vocabulary.toSet
    binned.drop(Tables.Rid).collect().foreach { r =>
      Seq("num", "cat", "fewnum").zipWithIndex.foreach { case (c, i) =>
        val t = r.getString(i)
        assert(tokenCol(t) == c)
        assert(vocab.contains(t), s"token $t missing from vocabulary")
      }
    }
  }

  test("vocabulary is distinct and column-qualified") {
    val m = fit(df, 5)
    val v = m.vocabulary
    assert(v.distinct.size == v.size)
    assert(v.forall(_.contains(Sep)))
  }

  test("continuous label is total and consistent with edges (property)") {
    val b = ContinuousBins("x", Array(0.0, 10.0, 20.0))
    checkProp(Prop.forAll { (d: Double) =>
      d.isNaN || {
        val l = b.label(d)
        val expected =
          if (d <= 0.0) "b0"
          else if (d <= 10.0) "b1"
          else if (d <= 20.0) "b2"
          else "b3"
        l == expected
      }
    })
  }

  test("boundary values stay in the lower bin (v > edge rule)") {
    val b = ContinuousBins("x", Array(1.0, 2.0))
    assert(b.label(1.0) == "b0")
    assert(b.label(1.0000001) == "b1")
    assert(b.label(2.0) == "b1")
    assert(b.label(2.1) == "b2")
  }

  test("binned histogram counts match DuckDB (oracle)") {
    import spark.implicits._
    val raw = (0 until 400).map(i => (i.toLong, (i % 20).toDouble)).toDF(Tables.Rid, "v")
    val (m, binned) = bin(raw, 4)
    val edges = m("v").asInstanceOf[ContinuousBins].edges
    assert(edges.length == 3)
    val sparkCounts = binned.groupBy(col("v").as("bin")).count()
      .select(col("bin"), col("count").cast("long").as("n"))
    val sql =
      s"""SELECT CASE
         |  WHEN CAST(v AS DOUBLE) <= ${edges(0)} THEN 'v=b0'
         |  WHEN CAST(v AS DOUBLE) <= ${edges(1)} THEN 'v=b1'
         |  WHEN CAST(v AS DOUBLE) <= ${edges(2)} THEN 'v=b2'
         |  ELSE 'v=b3' END AS bin, CAST(COUNT(*) AS BIGINT) AS n
         |FROM raw GROUP BY 1""".stripMargin
    Oracle.assertEquivalent(sparkCounts, sql, "raw" -> raw.select(col("v")))
  }

  /** Reference for `fit`'s categorical bins: one `groupBy`/`orderBy`/`limit`
    * query per categorical column.
    */
  def perColumnCategoricalBins(d: org.apache.spark.sql.DataFrame, nBins: Int): Seq[ColBins] =
    Tables.dataCols(d).filterNot(c => d.schema(c).dataType.isInstanceOf[NumericType]).map { c =>
      val top = d.where(col(c).isNotNull)
        .groupBy(col(c).cast(StringType).as("v")).count()
        .orderBy(desc("count"), asc("v"))
        .limit(nBins + 1)
        .collect().map(_.getString(0)).toSeq
      if (top.size <= nBins) CategoricalBins(c, top.toSet, hasOther = false)
      else CategoricalBins(c, top.take(nBins - 1).toSet, hasOther = true)
    }

  test("fit's grouped categorical pass equals the per-column queries") {
    import spark.implicits._
    // Ties everywhere: 14 values of 6 rows each, non-ASCII ones among them.
    val values = Seq("b", "a", "é", "日本", "Z", "ß", "OTHER", "Ω", "a ", "10", "9", "∅", "e", "B")
    val ties = (0 until 84).map { i =>
      (i.toLong, values(i % values.size), i % 3 == 0, if (i % 4 == 0) null else values((i / 6) % values.size))
    }.toDF(Tables.Rid, "tie", "flag", "tie_nulls")
    val tables = repro.data.Datasets.all(spark, 0.05).map(_._1) :+ ties :+ df
    for (t <- tables; nBins <- Seq(2, 3, 5, 8)) {
      val grouped = fit(t, nBins).bins.collect { case b: CategoricalBins => b }
      assert(grouped == perColumnCategoricalBins(t, nBins), s"nBins = $nBins, ${t.columns.toSeq}")
    }
  }

  test("fit rejects nBins < 2") {
    intercept[IllegalArgumentException] { fit(df, 1) }
  }
}
