package repro.core

import org.apache.spark.ml.clustering.KMeans
import org.apache.spark.ml.linalg.{Vector, Vectors}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.SparkSpec

import scala.util.Random

class CentroidSelectSpec extends SparkSpec {

  /** Three well-separated blobs of 2-d points. */
  def blobs(perBlob: Int = 20): Seq[(Long, Array[Double], Int)] = {
    val rng = new Random(5)
    val centers = Seq((0.0, 0.0), (100.0, 0.0), (0.0, 100.0))
    centers.zipWithIndex.flatMap { case ((cx, cy), b) =>
      (0 until perBlob).map { i =>
        val rid = (b * perBlob + i).toLong
        (rid, Array(cx + rng.nextGaussian(), cy + rng.nextGaussian()), b)
      }
    }
  }

  def vecsDf(points: Seq[(Long, Array[Double], Int)]) = {
    import spark.implicits._
    points.map { case (rid, v, _) => (rid, Vectors.dense(v)) }
      .toDF(Tables.Rid, "features")
  }

  test("selectRows picks one representative per well-separated cluster") {
    val pts = blobs()
    val picked = CentroidSelect.selectRows(vecsDf(pts), 3, seed = 1)
    assert(picked.size == 3)
    val blobsOf = picked.map(rid => pts.find(_._1 == rid).get._3)
    assert(blobsOf.toSet == Set(0, 1, 2), s"picked $picked from blobs $blobsOf")
  }

  test("selected representatives are near their blob centers") {
    val pts = blobs()
    val centers = Map(0 -> (0.0, 0.0), 1 -> (100.0, 0.0), 2 -> (0.0, 100.0))
    val picked = CentroidSelect.selectRows(vecsDf(pts), 3, seed = 1)
    picked.foreach { rid =>
      val (_, v, b) = pts.find(_._1 == rid).get
      val (cx, cy) = centers(b)
      val d = math.hypot(v(0) - cx, v(1) - cy)
      assert(d < 5.0, s"representative $rid too far from its center: $d")
    }
  }

  test("selectRows returns all rows when k >= n") {
    val pts = blobs(perBlob = 2)
    val picked = CentroidSelect.selectRows(vecsDf(pts), 100)
    assert(picked.sorted == pts.map(_._1).sorted)
  }

  test("selectRows with k <= 0 returns nothing") {
    assert(CentroidSelect.selectRows(vecsDf(blobs(2)), 0).isEmpty)
  }

  test("selectRows is deterministic in the seed") {
    val df = vecsDf(blobs())
    val a = CentroidSelect.selectRows(df, 3, seed = 42)
    val b = CentroidSelect.selectRows(df, 3, seed = 42)
    assert(a == b)
  }

  test("selectRows returns k distinct rows even with duplicate vectors") {
    import spark.implicits._
    val df = (0L until 10L).map(i => (i, Vectors.dense(1.0, 1.0)))
      .toDF(Tables.Rid, "features")
    val picked = CentroidSelect.selectRows(df, 4)
    assert(picked.size == 4 && picked.distinct.size == 4)
  }

  test("selectNamed picks one column per separated group") {
    val items = Seq(
      "x1" -> Array(0f, 0f), "x2" -> Array(0.1f, 0f),
      "y1" -> Array(50f, 0f), "y2" -> Array(50.2f, 0f),
      "z1" -> Array(0f, 50f),
    )
    val picked = CentroidSelect.selectNamed(spark, items, 3, seed = 2)
    assert(picked.size == 3)
    val groups = picked.map(_.head) // 'x', 'y', 'z'
    assert(groups.toSet == Set('x', 'y', 'z'))
  }

  test("selectNamed returns everything when k >= size") {
    val items = Seq("a" -> Array(0f), "b" -> Array(1f))
    assert(CentroidSelect.selectNamed(spark, items, 5) == Seq("a", "b"))
  }

  def sqdist(a: Array[Double], b: Array[Double]): Double =
    a.zip(b).map { case (x, y) => (x - y) * (x - y) }.sum

  def mean(vs: Seq[Array[Double]]): Array[Double] =
    vs.transpose.map(_.sum / vs.size).toArray

  test("k = 1 returns the item nearest the mean on both entry points") {
    val pts = blobs()
    val mu = mean(pts.map(_._2))
    val nearest = pts.minBy(p => (sqdist(p._2, mu), p._1))._1
    assert(CentroidSelect.selectRows(vecsDf(pts), 1, seed = 3) == Seq(nearest))

    val items = pts.map { case (rid, v, _) => s"c$rid" -> v.map(_.toFloat) }
    val fmu = mean(items.map(_._2.map(_.toDouble)))
    val nearestName = items.minBy(i => (sqdist(i._2.map(_.toDouble), fmu), i._1))._1
    assert(CentroidSelect.selectNamed(spark, items, 1, seed = 3) == Seq(nearestName))
  }

  test("selectRows does not depend on partitioning or row order") {
    val pts = blobs()
    val one = vecsDf(pts).coalesce(1)
    val eight = vecsDf(new Random(9).shuffle(pts)).repartition(8)
    assert(eight.rdd.getNumPartitions == 8)
    Seq(1, 3, 5, 7).foreach { k =>
      assert(CentroidSelect.selectRows(one, k, seed = 4) ==
        CentroidSelect.selectRows(eight, k, seed = 4), s"k = $k")
    }
  }

  test("all-duplicate input gives k distinct rows and k distinct names") {
    import spark.implicits._
    val df = (0L until 10L).map(i => (i, Vectors.dense(2.0, 2.0)))
      .toDF(Tables.Rid, "features").repartition(3)
    assert(CentroidSelect.selectRows(df, 4, seed = 5) == Seq(0L, 1L, 2L, 3L))
    val items = (0 until 10).map(i => s"c$i" -> Array(2f, 2f))
    val names = CentroidSelect.selectNamed(spark, items, 4, seed = 5)
    assert(names.size == 4 && names.distinct.size == 4 && names.forall(items.map(_._1).contains))
  }

  test("above the driver cap, each pick is the nearest real member of its cluster") {
    val pts = blobs(perBlob = 40)
    val byRid = pts.map(p => p._1 -> p._2).toMap
    val sel = CentroidSelect.rowSelection(vecsDf(pts).repartition(4), 3, seed = 6, cap = 30)
    assert(sel.rids.size == 3 && sel.rids.distinct.size == 3)
    assert(sel.rids.forall(byRid.contains))
    assert(sel.rids.map(rid => pts.find(_._1 == rid).get._3).toSet == Set(0, 1, 2))
    val cluster = (v: Array[Double]) => sel.centers.indices.minBy(c => sqdist(sel.centers(c), v))
    sel.rids.foreach { rid =>
      val c = cluster(byRid(rid))
      val members = pts.filter(p => cluster(p._2) == c)
      val best = members.minBy(p => (sqdist(p._2, sel.centers(c)), p._1))._1
      assert(best == rid, s"cluster $c: picked $rid, nearest member is $best")
    }
    // The same seed fits the same sample and centers.
    assert(CentroidSelect.rowSelection(vecsDf(pts), 3, seed = 6, cap = 30).rids == sel.rids)
  }

  /** The MLlib KMeans selection this clusterer replaces: fit, assign, and
    * keep the row nearest each center (ties by rid).
    */
  def mllibReference(df: DataFrame, k: Int, seed: Long): Set[Long] = {
    val model = new KMeans().setK(k).setSeed(seed).setMaxIter(20)
      .setFeaturesCol("features").setPredictionCol("cluster").fit(df)
    val centers = model.clusterCenters
    val dist = udf { (v: Vector, c: Int) => Vectors.sqdist(v, centers(c)) }
    model.transform(df).withColumn("dist", dist(col("features"), col("cluster")))
      .groupBy(col("cluster"))
      .agg(min_by(col(Tables.Rid), struct(col("dist"), col(Tables.Rid))))
      .collect().map(_.getLong(1)).toSet
  }

  test("on well-separated blobs the representatives equal MLlib KMeans's") {
    val df = vecsDf(blobs(perBlob = 25)).cache()
    Seq(1L, 7L, 13L).foreach { seed =>
      assert(CentroidSelect.selectRows(df, 3, seed).toSet == mllibReference(df, 3, seed),
        s"seed $seed")
    }
    df.unpersist()
  }
}
