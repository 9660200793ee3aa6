package repro.core

import org.apache.spark.ml.linalg.Vector
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.expressions.XXH64
import org.apache.spark.sql.functions.col

import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Clustering + centroid-representative selection (paper Alg. 2, lines
  * 11-12 and 16-17): cluster the vectors into `k` groups, then pick, per
  * cluster, the *actual element* nearest the cluster center — sub-tables
  * must contain real rows/columns, not synthetic means.
  *
  * Everything runs on the driver: seeded greedy k-means++ seeding (Arthur &
  * Vassilvitskii, SODA'07), then Lloyd iterations (at most 20, stopping once
  * no center moves by more than 1e-4 — MLlib's defaults). A cluster's
  * representative is its member nearest the center, ties broken by id; when
  * duplicate vectors leave fewer than `k` non-empty clusters, the selection
  * is padded with the lowest unselected ids. Up to [[DriverRowCap]] rows
  * are fitted directly; a larger input is fitted on a seeded rid-hash sample
  * of that size, and every row is then assigned to its nearest center in one
  * pass. [[SubTab]] builds its row vectors on the driver and calls the core
  * ([[rowSelection]] over rids and a row-vector function) without Spark.
  */
object CentroidSelect {

  /** Most rows the clusterer fits on: about 10 MB of vectors at dim 64. */
  private[core] val DriverRowCap = 20000

  private val MaxIter = 20
  private val Tolerance = 1e-4
  private val HashBuckets = 1L << 30
  /** Spark's default seed of `xxhash64`. */
  private val SparkHashSeed = 42L

  /** The selected rids and the centers they were picked for. */
  private[core] final case class RowSelection(rids: Seq[Long], centers: Array[Array[Double]])

  /** Select up to `k` row ids from a (`__rid`, `features`) frame. If fewer
    * rows than `k` exist, all are returned. The result is sorted and does not
    * depend on the frame's partitioning. Collects the frame once.
    */
  def selectRows(vecs: DataFrame, k: Int, seed: Long = 17): Seq[Long] =
    rowSelection(vecs, k, seed, DriverRowCap).rids

  private[core] def rowSelection(vecs: DataFrame, k: Int, seed: Long, cap: Int): RowSelection = {
    if (k <= 0) return RowSelection(Seq.empty, Array.empty)
    val rows = vecs.select(col(Tables.Rid), col("features")).collect()
      .map(r => (r.getLong(0), r.getAs[Vector](1).toArray)).sortBy(_._1)
    val points = rows.map(_._2)
    rowSelection(rows.map(_._1), points(_), k, seed, cap)
  }

  /** The clusterer core: `rids` ascending, `vec(i)` the vector of row i.
    * Fits on every row up to `cap` rows, otherwise on [[hashSample]]; then
    * keeps, per center, the row with the smallest (distance, rid).
    */
  private[core] def rowSelection(rids: Array[Long], vec: Int => Array[Double],
                                 k: Int, seed: Long, cap: Int): RowSelection = {
    val n = rids.length
    if (k <= 0) return RowSelection(Seq.empty, Array.empty)
    if (n <= k) return RowSelection(rids.toSeq, Array.tabulate(n)(vec))
    val (fitOn, vecOf) =
      if (n <= cap) { val points = Array.tabulate(n)(vec); (points, points(_: Int)) }
      else (hashSample(rids, seed, cap).map(vec), vec)
    val centers = fit(fitOn, k, seed)
    val picked = representatives(n, vecOf, centers).map(rids(_)).toSeq
    RowSelection(pad(picked, rids.iterator, k).sorted, centers)
  }

  /** Spark's `pmod(xxhash64(rid, lit(seed)), 2^30)`, computed on the driver. */
  private[core] def ridHash(rid: Long, seed: Long): Long = {
    val h = XXH64.hashLong(seed, XXH64.hashLong(rid, SparkHashSeed))
    ((h % HashBuckets) + HashBuckets) % HashBuckets
  }

  /** Indices of the (at most) `cap` rows with the smallest (hash of (rid,
    * seed), rid), ascending. A pre-filter first keeps the rows whose hash is
    * below a 2·cap/n quantile of the buckets, as the Spark sample did.
    */
  private def hashSample(rids: Array[Long], seed: Long, cap: Int): Array[Int] = {
    val keep = math.ceil(math.min(1.0, 2.0 * cap / rids.length) * HashBuckets).toLong
    val h = rids.map(ridHash(_, seed))
    rids.indices.filter(h(_) < keep).sortBy(i => (h(i), rids(i))).take(cap).sorted.toArray
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
    val picked = representatives(points.length, points(_), fit(points, k, seed)).map(byName(_)._1).toSeq
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
  private[core] def fit(points: Array[Array[Double]], k: Int, seed: Long): Array[Array[Double]] = {
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
  private def representatives(n: Int, vec: Int => Array[Double],
                              centers: Array[Array[Double]]): Array[Int] = {
    val best = Array.fill(centers.length)(-1)
    val bestDist = Array.fill(centers.length)(Double.PositiveInfinity)
    var i = 0
    while (i < n) {
      val (c, d) = nearestCenter(centers, vec(i))
      if (d < bestDist(c)) { best(c) = i; bestDist(c) = d }
      i += 1
    }
    best.filter(_ >= 0)
  }

  /** Nearest center (ties go to the lower index) and its squared distance. */
  private[core] def nearestCenter(centers: Array[Array[Double]], p: Array[Double]): (Int, Double) = {
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
