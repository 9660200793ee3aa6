package repro.core

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

/** [[CentroidSelect]]'s bound-pruned Lloyd, pooled seeding and pooled
  * representatives pass against [[PlainLloyd]], bit for bit, on random
  * point sets: Gaussian blobs, uniform points, a few distinct points
  * repeated (k at or above their number included), and integer-grid points,
  * whose distances tie. Each case runs ten times, so that a result that
  * depends on the pool's thread timing shows.
  */
class ClustererEquivalenceSpec extends AnyFunSuite {

  val Runs = 10

  /** `fit` and `representatives` equal the plain clusterer's in every run. */
  def sameAsPlain(points: Array[Array[Double]], k: Int, seed: Long, what: String): Unit = {
    val reference = PlainLloyd.fit(points, k, seed)
    val picks = PlainLloyd.representatives(points.length, points(_), reference)
    (1 to Runs).foreach { run =>
      val centers = CentroidSelect.fit(points, k, seed)
      assert(PlainLloyd.bits(centers) == PlainLloyd.bits(reference), s"$what: centers differ in run $run")
      assert(CentroidSelect.representatives(points.length, points(_), centers).toSeq == picks.toSeq,
        s"$what: representatives differ in run $run")
    }
  }

  def pointSet(rng: Random, kind: Int, n: Int, dim: Int): Array[Array[Double]] = kind match {
    case 0 => // Gaussian blobs
      val centers = Array.fill(1 + rng.nextInt(12))(Array.fill(dim)(rng.nextDouble() * 10))
      Array.fill(n) {
        val c = centers(rng.nextInt(centers.length))
        Array.tabulate(dim)(d => c(d) + rng.nextGaussian() * 0.7)
      }
    case 1 => Array.fill(n)(Array.fill(dim)(rng.nextDouble() - 0.5))
    case 2 => // a few distinct points, repeated
      val distinct = Array.fill(1 + rng.nextInt(8))(Array.fill(dim)(rng.nextGaussian()))
      Array.fill(n)(distinct(rng.nextInt(distinct.length)).clone())
    case _ => // integer grid: many equidistant ties
      val side = 2 + rng.nextInt(3)
      Array.fill(n)(Array.fill(dim)(rng.nextInt(side).toDouble))
  }

  test("fit and representatives equal the plain clusterer on 240 random point sets") {
    val rng = new Random(2024)
    (0 until 240).foreach { c =>
      val kind = c % 4
      // Mostly small sets, one in six up to 3,000 points (pooled chunks).
      val n = if (c % 6 == 5) rng.nextInt(3001) else rng.nextInt(400)
      val dim = 1 + rng.nextInt(64)
      val k = 1 + rng.nextInt(16)
      val seed = rng.nextLong()
      sameAsPlain(pointSet(rng, kind, n, dim), k, seed, s"case $c (kind $kind, n = $n, dim = $dim, k = $k)")
    }
  }

  test("k at or above the number of distinct points, and tied grids at full size") {
    val rng = new Random(7)
    Seq((2, 3000, 5, 8), (2, 2000, 64, 16), (3, 3000, 2, 16), (3, 2500, 3, 9), (3, 1, 1, 4), (1, 0, 3, 5))
      .foreach { case (kind, n, dim, k) =>
        sameAsPlain(pointSet(rng, kind, n, dim), k, rng.nextLong(), s"kind $kind, n = $n, dim = $dim, k = $k")
      }
  }
}
