package repro.core

import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** The clusterer that [[CentroidSelect]]'s bound-pruned, pooled one
  * replaced, kept as the reference it is checked against: the same greedy
  * k-means++ seeding with its candidates evaluated one after the other,
  * Lloyd iterations that assign every point to its nearest center in every
  * iteration, and a single-threaded representatives pass.
  */
object PlainLloyd {

  private val MaxIter = 20
  private val Tolerance = 1e-4

  def fit(points: Array[Array[Double]], k: Int, seed: Long): Array[Array[Double]] = {
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

  def lloyd(points: Array[Array[Double]], centers: Array[Array[Double]]): Array[Array[Double]] = {
    val dim = points.head.length
    var iter = 0
    var moved = true
    while (iter < MaxIter && moved) {
      val sums = Array.ofDim[Double](centers.length, dim)
      val counts = new Array[Int](centers.length)
      points.foreach { p =>
        val c = CentroidSelect.nearestCenter(centers, p)._1
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
  def representatives(n: Int, vec: Int => Array[Double], centers: Array[Array[Double]]): Array[Int] = {
    val best = Array.fill(centers.length)(-1)
    val bestDist = Array.fill(centers.length)(Double.PositiveInfinity)
    var i = 0
    while (i < n) {
      val (c, d) = CentroidSelect.nearestCenter(centers, vec(i))
      if (d < bestDist(c)) { best(c) = i; bestDist(c) = d }
      i += 1
    }
    best.filter(_ >= 0)
  }

  /** The centers' coordinates as raw bits, for bit-for-bit comparison. */
  def bits(centers: Array[Array[Double]]): Seq[Seq[Long]] =
    centers.toSeq.map(_.toSeq.map(java.lang.Double.doubleToRawLongBits))

  private def sqdist(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0
    var d = 0
    while (d < a.length) { val x = a(d) - b(d); s += x * x; d += 1 }
    s
  }
}
