package repro.select

import repro.SparkSpec
import repro.core.Tables

import scala.util.Random

class NaiveClusteringSpec extends SparkSpec {

  val cols = Seq("big", "small", "cat")

  /** Raw table: `big` has huge magnitudes (two far groups), `small` is
    * noise in [0,1], `cat` has three values.
    */
  lazy val df = {
    import spark.implicits._
    val rng = new Random(17)
    (0L until 60L).map { i =>
      val big = if (i < 30) 0.0 + rng.nextDouble() else 10000.0 + rng.nextDouble()
      (i, big, rng.nextDouble(), s"c${i % 3}")
    }.toDF((Tables.Rid +: cols): _*)
  }

  test("selectRows returns k distinct existing rows") {
    val rows = NaiveClustering.selectRows(df, cols, k = 6, seed = 1)
    assert(rows.size == 6 && rows.distinct.size == 6)
    assert(rows.forall(_ < 60L))
  }

  test("raw-magnitude clustering splits on the large-scale column") {
    // With k=2, KMeans on unscaled data must separate by `big` (0 vs 10000):
    // one representative from each magnitude group.
    val rows = NaiveClustering.selectRows(df, cols, k = 2, seed = 2)
    val groups = rows.map(r => if (r < 30) 0 else 1).toSet
    assert(groups == Set(0, 1), s"expected one row per magnitude group, got $rows")
  }

  test("selectCols returns l columns including targets") {
    val cs = NaiveClustering.selectCols(df, cols, l = 2, targets = Seq("cat"), seed = 3)
    assert(cs.size == 2 && cs.contains("cat"))
  }

  test("selectCols returns all columns when l >= m") {
    val cs = NaiveClustering.selectCols(df, cols, l = 10)
    assert(cs.toSet == cols.toSet)
  }

  test("run composes rows and cols deterministically") {
    val a = NaiveClustering.run(df, cols, 5, 2, seed = 4)
    val b = NaiveClustering.run(df, cols, 5, 2, seed = 4)
    assert(a == b)
    assert(a.rowIds.size == 5 && a.cols.size == 2)
  }

  test("null cells are tolerated (encoded as zero)") {
    import spark.implicits._
    val withNulls = (0L until 20L).map { i =>
      (i, if (i % 4 == 0) null.asInstanceOf[java.lang.Double]
          else java.lang.Double.valueOf(i.toDouble),
        if (i % 5 == 0) null.asInstanceOf[String] else s"c${i % 2}")
    }.toDF(Tables.Rid, "num", "cat")
    val sub = NaiveClustering.run(withNulls, Seq("num", "cat"), 4, 2)
    assert(sub.rowIds.size == 4)
  }

  test("selectCols does not depend on partitioning or row order when its sort column ties") {
    import spark.implicits._
    // `g` ties over the first 400 rids, more than the 256-row column sample;
    // `a` and `b` are large on different halves of those tied rows.
    val rows = (0L until 600L).map { i =>
      (i, (i / 400).toDouble, if (i < 200) 1000.0 else 0.0,
        if (i >= 200 && i < 400) 1000.0 else 0.0, (i % 7).toDouble)
    }
    val tieCols = Seq("g", "a", "b", "c")
    val fwd = rows.toDF((Tables.Rid +: tieCols): _*)
    val rev = rows.reverse.toDF((Tables.Rid +: tieCols): _*)
    val expected = NaiveClustering.selectCols(fwd, tieCols, l = 2, seed = 5)
    assert(NaiveClustering.selectCols(fwd.repartition(7), tieCols, l = 2, seed = 5) == expected)
    assert(NaiveClustering.selectCols(rev, tieCols, l = 2, seed = 5) == expected)
  }

  test("more targets than columns is rejected") {
    intercept[IllegalArgumentException] {
      NaiveClustering.selectCols(df, cols, l = 1, targets = Seq("cat", "big"))
    }
  }
}
