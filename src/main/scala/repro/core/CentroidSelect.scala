package repro.core

import org.apache.spark.ml.linalg.Vector
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Clustering + centroid-representative selection (paper Alg. 2, lines
  * 11-12 and 16-17): cluster the vectors into `k` groups, then pick, per
  * cluster, the *actual element* nearest the cluster center — sub-tables
  * must contain real rows/columns, not synthetic means.
  *
  * The clusterer runs on the driver: seeded greedy k-means++ seeding (Arthur &
  * Vassilvitskii, SODA'07), then Lloyd iterations (at most 20, stopping once
  * no center moves by more than 1e-4 — MLlib's defaults). A cluster's
  * representative is its member nearest the center, ties broken by id; when
  * duplicate vectors leave fewer than `k` non-empty clusters, the selection
  * is padded with the lowest unselected ids. Columns (at most m vectors) are
  * clustered without Spark. Rows are collected once, at most
  * [[DriverRowCap]] of them; a larger input is fitted on a seeded rid-hash
  * sample of that size, and one Spark pass keeps the nearest real row per
  * center.
  */
object CentroidSelect {

  /** Most row vectors collected to the driver: about 10 MB at dim 64. */
  private[core] val DriverRowCap = 20000

  private val MaxIter = 20
  private val Tolerance = 1e-4
  private val HashBuckets = 1L << 30

  /** The selected rids and the centers they were picked for. */
  private[core] final case class RowSelection(rids: Seq[Long], centers: Array[Array[Double]])

  /** Select up to `k` row ids from a (`__rid`, `features`) frame. If fewer
    * rows than `k` exist, all are returned. The result is sorted and does not
    * depend on the frame's partitioning.
    */
  def selectRows(vecs: DataFrame, k: Int, seed: Long = 17): Seq[Long] =
    rowSelection(vecs, k, seed, DriverRowCap).rids

  private[core] def rowSelection(vecs: DataFrame, k: Int, seed: Long, cap: Int): RowSelection = {
    if (k <= 0) return RowSelection(Seq.empty, Array.empty)
    val feats = vecs.select(col(Tables.Rid), col("features"))
    val head = feats.limit(cap + 1).collect()
    if (head.length <= cap) {
      val rows = head.map(r => (r.getLong(0), r.getAs[Vector](1).toArray)).sortBy(_._1)
      val rids = rows.map(_._1)
      val points = rows.map(_._2)
      if (rows.length <= k) return RowSelection(rids.toSeq, points)
      val centers = fit(points, k, seed)
      val picked = representatives(points, centers).map(rids(_)).toSeq
      RowSelection(pad(picked, rids.iterator, k).sorted, centers)
    } else {
      val centers = fit(hashSample(feats, seed, cap), k, seed)
      val nearest = udf { (v: Vector) => nearestCenter(centers, v.toArray) }
      val picked = feats.withColumn("near", nearest(col("features")))
        .groupBy(col("near._1"))
        .agg(min_by(col(Tables.Rid), struct(col("near._2"), col(Tables.Rid))))
        .collect().map(_.getLong(1)).toSeq
      val lowest =
        if (picked.size >= k) Iterator.empty
        else feats.select(Tables.Rid).orderBy(Tables.Rid).limit(k).collect().iterator.map(_.getLong(0))
      RowSelection(pad(picked, lowest, k).sorted, centers)
    }
  }

  /** The (at most) `cap` row vectors with the smallest hash of (rid, seed),
    * in rid order. A pre-filter keeps about 2·cap rows, so no partition ships
    * more than that to the driver.
    */
  private def hashSample(feats: DataFrame, seed: Long, cap: Int): Array[Array[Double]] = {
    val keep = math.ceil(math.min(1.0, 2.0 * cap / feats.count()) * HashBuckets).toLong
    feats.withColumn("h", pmod(xxhash64(col(Tables.Rid), lit(seed)), lit(HashBuckets)))
      .where(col("h") < keep)
      .orderBy(col("h"), col(Tables.Rid)).limit(cap)
      .collect().map(r => (r.getLong(0), r.getAs[Vector](1).toArray))
      .sortBy(_._1).map(_._2)
  }

  /** Select up to `k` named items (columns) from driver-side vectors; the
    * names are the ids. Returned in input order. `spark` is unused — the
    * items are clustered on the driver — and kept for source compatibility.
    */
  def selectNamed(spark: SparkSession, items: Seq[(String, Array[Float])],
                  k: Int, seed: Long = 19): Seq[String] = {
    if (k <= 0) return Seq.empty
    if (items.size <= k) return items.map(_._1)
    val byName = items.sortBy(_._1)
    val points = byName.map(_._2.map(_.toDouble)).toArray
    val picked = representatives(points, fit(points, k, seed)).map(byName(_)._1).toSeq
    val chosen = pad(picked, byName.iterator.map(_._1), k).toSet
    items.map(_._1).filter(chosen)
  }

  /** `picked` plus the first `candidates` not in it, up to `k` in all. */
  private def pad[A](picked: Seq[A], candidates: Iterator[A], k: Int): Seq[A] =
    if (picked.size >= k) picked
    else {
      val have = picked.toSet
      picked ++ candidates.filterNot(have).take(k - picked.size)
    }

  /** Seeded greedy k-means++ seeding, then Lloyd iterations. Returns at most
    * `k` centers: fewer when the points have fewer than `k` distinct values.
    * Each seeding step draws 2 + ⌊ln k⌋ candidates with probability
    * proportional to their squared distance to the nearest chosen center and
    * keeps the one that lowers the total the most (scikit-learn's seeding,
    * which the paper's implementation uses). Over ten seeds on the Fig. 8
    * tables it lowered the mean k-means cost in five of the six row and
    * column clusterings, compared with plain k-means++.
    */
  private def fit(points: Array[Array[Double]], k: Int, seed: Long): Array[Array[Double]] = {
    val n = points.length
    if (n == 0 || k <= 0) return Array.empty
    val rng = new Random(seed)
    val trials = 2 + math.log(k).toInt
    val centers = ArrayBuffer(points(rng.nextInt(n)).clone())
    var d2 = points.map(sqdist(_, centers.head))
    var total = d2.sum
    while (centers.size < k && total > 0) {
      var best = -1
      var bestD2 = d2
      var bestTotal = Double.PositiveInfinity
      (0 until trials).foreach { _ =>
        val r = rng.nextDouble() * total
        var i = 0
        var acc = d2(0)
        while (i < n - 1 && acc <= r) { i += 1; acc += d2(i) }
        if (d2(i) == 0) i = d2.indices.maxBy(d2) // rounding ran past the mass
        val cand = Array.tabulate(n)(j => math.min(d2(j), sqdist(points(j), points(i))))
        val candTotal = cand.sum
        if (candTotal < bestTotal) { best = i; bestD2 = cand; bestTotal = candTotal }
      }
      centers += points(best).clone()
      d2 = bestD2
      total = bestTotal
    }
    lloyd(points, centers.toArray)
  }

  private def lloyd(points: Array[Array[Double]], centers: Array[Array[Double]]): Array[Array[Double]] = {
    val dim = points.head.length
    var iter = 0
    var moved = true
    while (iter < MaxIter && moved) {
      val sums = Array.ofDim[Double](centers.length, dim)
      val counts = new Array[Int](centers.length)
      points.foreach { p =>
        val c = nearestCenter(centers, p)._1
        counts(c) += 1
        var d = 0
        while (d < dim) { sums(c)(d) += p(d); d += 1 }
      }
      moved = false
      centers.indices.foreach { c =>
        // An empty cluster keeps its center.
        if (counts(c) > 0) {
          val mean = sums(c).map(_ / counts(c))
          if (sqdist(mean, centers(c)) > Tolerance * Tolerance) moved = true
          centers(c) = mean
        }
      }
      iter += 1
    }
    centers
  }

  /** Index of each non-empty cluster's member nearest its center (ties go
    * to the lower index), in center order.
    */
  private def representatives(points: Array[Array[Double]],
                              centers: Array[Array[Double]]): Array[Int] = {
    val best = Array.fill(centers.length)(-1)
    val bestDist = Array.fill(centers.length)(Double.PositiveInfinity)
    points.indices.foreach { i =>
      val (c, d) = nearestCenter(centers, points(i))
      if (d < bestDist(c)) { best(c) = i; bestDist(c) = d }
    }
    best.filter(_ >= 0)
  }

  /** Nearest center (ties go to the lower index) and its squared distance. */
  private def nearestCenter(centers: Array[Array[Double]], p: Array[Double]): (Int, Double) = {
    var best = 0
    var bestDist = Double.PositiveInfinity
    var c = 0
    while (c < centers.length) {
      val d = sqdist(centers(c), p)
      if (d < bestDist) { best = c; bestDist = d }
      c += 1
    }
    (best, bestDist)
  }

  private def sqdist(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0
    var d = 0
    while (d < a.length) { val x = a(d) - b(d); s += x * x; d += 1 }
    s
  }
}
