package repro.core

import org.apache.spark.ml.linalg.Vector
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.expressions.XXH64
import org.apache.spark.sql.functions.col

import java.util.concurrent.{Callable, ExecutionException, ExecutorService, LinkedBlockingQueue,
  ThreadPoolExecutor, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger

import scala.collection.mutable.ArrayBuffer
import scala.reflect.ClassTag
import scala.util.{Failure, Random, Success, Try}

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
  *
  * A Lloyd iteration skips the distances that Hamerly's bounds (SDM'10)
  * prove cannot change a point's center, and recomputes the rest exactly as
  * [[nearestCenter]] does (see [[lloyd]]). The independent work of a fit —
  * the row vectors, each seeding step's candidates, the assignment step and
  * the representatives pass — runs on one driver pool of at most
  * `availableProcessors` daemon threads, the calling thread included, in
  * contiguous point chunks whose results merge in chunk order. A select runs
  * no Spark job, so those cores are otherwise idle. Every result is bit for
  * bit that of the plain single-threaded loop (`PlainLloyd` in `src/test`),
  * whatever the thread count or timing.
  */
object CentroidSelect {

  /** Most rows the clusterer fits on: about 10 MB of vectors at dim 64. */
  private[core] val DriverRowCap = 20000

  private val MaxIter = 20
  /** Bound margin of the pruned Lloyd step, as a fraction of the points'
    * bounding-box diagonal.
    */
  private val PruneSlack = 1e-9
  /** Threads a fit splits its work over, the calling thread included. */
  private val Parallelism = Runtime.getRuntime.availableProcessors
  /** Fewest points per pooled chunk: a pass pools its work only when it
    * has at least two chunks, so over fewer than 256 points it runs inline.
    * Measured on FL row vectors (dimension 64, k 8–12, 4 cores): a fit of
    * 192 points took 1.1 ms inline and 1.4–1.6 ms pooled; from 256 points
    * on, the pooled fit was faster (320 points: 2.1 ms inline, 1.3–1.4 ms
    * pooled).
    */
  private val MinChunk = 128
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

  /** The clusterer core: `rids` ascending, `vec(i)` the vector of row i,
    * called from the driver pool's threads as well. Fits on every row up to
    * `cap` rows, otherwise on [[hashSample]]; then keeps, per center, the row
    * with the smallest (distance, rid).
    */
  private[core] def rowSelection(rids: Array[Long], vec: Int => Array[Double],
                                 k: Int, seed: Long, cap: Int): RowSelection = {
    val n = rids.length
    if (k <= 0) return RowSelection(Seq.empty, Array.empty)
    if (n <= k) return RowSelection(rids.toSeq, Array.tabulate(n)(vec))
    val (fitOn, vecOf) =
      if (n <= cap) { val points = vectors(n, vec); (points, points(_: Int)) }
      else { val sample = hashSample(rids, seed, cap); (vectors(sample.length, i => vec(sample(i))), vec) }
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
    * column clusterings, compared with plain k-means++. A step draws all its
    * candidates' positions from the rng first, in order, then evaluates the
    * candidates as pool tasks and keeps the first with the strictly lowest
    * total.
    */
  private[core] def fit(points: Array[Array[Double]], k: Int, seed: Long): Array[Array[Double]] = {
    val n = points.length
    if (n == 0 || k <= 0) return Array.empty
    val rng = new Random(seed)
    val trials = 2 + math.log(k).toInt
    val centers = ArrayBuffer(points(rng.nextInt(n)).clone())
    var d2 = new Array[Double](n)
    locally { var j = 0; while (j < n) { d2(j) = sqdist(points(j), centers.head); j += 1 } }
    var total = sum(d2)
    while (centers.size < k && total > 0) {
      val rs = Array.fill(trials)(rng.nextDouble() * total)
      val last = d2
      val cands = tasks(trials, pooled = n >= 2 * MinChunk) { t =>
        val i = sampleIndex(last, rs(t))
        val cand = new Array[Double](n)
        var j = 0
        while (j < n) { cand(j) = math.min(last(j), sqdist(points(j), points(i))); j += 1 }
        (i, cand, sum(cand))
      }
      var best = -1
      var bestTotal = Double.PositiveInfinity
      cands.indices.foreach { t => if (cands(t)._3 < bestTotal) { best = t; bestTotal = cands(t)._3 } }
      centers += points(cands(best)._1).clone()
      d2 = cands(best)._2
      total = bestTotal
    }
    lloyd(points, centers.toArray)
  }

  /** The first index whose running sum of `d2` exceeds `r`; a zero-mass index
    * reached by rounding is replaced by the first index of largest mass.
    */
  private def sampleIndex(d2: Array[Double], r: Double): Int = {
    val n = d2.length
    var i = 0
    var acc = d2(0)
    while (i < n - 1 && acc <= r) { i += 1; acc += d2(i) }
    if (d2(i) == 0) d2.indices.maxBy(d2) else i
  }

  private def sum(xs: Array[Double]): Double = {
    var s = 0.0
    var i = 0
    while (i < xs.length) { s += xs(i); i += 1 }
    s
  }

  /** Lloyd iterations with Hamerly's bounds (SDM'10): each point keeps its
    * center, an upper bound on its distance to that center and a lower bound
    * on its distance to every other center. A point whose upper bound lies
    * below both the lower bound and half its center's distance to the
    * nearest other center, by a margin of [[PruneSlack]] times the points'
    * bounding-box diagonal, keeps its center; any other point is assigned as
    * [[nearestCenter]] assigns it. The margin is far above the rounding
    * error of the bounds, so a pruned point's nearest center is the same in
    * exact and in floating-point arithmetic, and a tie is never pruned: it
    * goes to the lower center index, as in the unbounded loop. The
    * assignment runs in contiguous point chunks on the pool; the centers are
    * then summed in point order, so every iteration, and the result, is bit
    * for bit that of the unbounded loop.
    */
  private def lloyd(points: Array[Array[Double]], centers: Array[Array[Double]]): Array[Array[Double]] = {
    val n = points.length
    val k = centers.length
    val dim = points.head.length
    val margin = PruneSlack * diagonal(points)
    val assign = new Array[Int](n)
    val upper = new Array[Double](n)
    val lower = new Array[Double](n)
    val half = new Array[Double](k)
    val drift = new Array[Double](k)
    val bounds = chunkBounds(n)
    var iter = 0
    var moved = true
    while (iter < MaxIter && moved) {
      val first = iter == 0
      // The largest and second-largest drift of the last update.
      var top = -1
      var driftMax = 0.0
      var driftNext = 0.0
      if (!first) {
        centers.indices.foreach { c =>
          if (drift(c) > driftMax) { driftNext = driftMax; driftMax = drift(c); top = c }
          else if (drift(c) > driftNext) driftNext = drift(c)
        }
        halfGaps(centers, half)
      }
      tasks(bounds.length - 1) { t =>
        var i = bounds(t)
        while (i < bounds(t + 1)) {
          val p = points(i)
          if (first) nearestTwo(centers, p, i, assign, upper, lower)
          else {
            val a = assign(i)
            upper(i) += drift(a)
            lower(i) -= (if (a == top) driftNext else driftMax)
            val m = math.max(half(a), lower(i))
            if (!(upper(i) + margin < m)) {
              upper(i) = math.sqrt(sqdist(centers(a), p))
              if (!(upper(i) + margin < m)) nearestTwo(centers, p, i, assign, upper, lower)
            }
          }
          i += 1
        }
      }
      val sums = Array.ofDim[Double](k, dim)
      val counts = new Array[Int](k)
      var i = 0
      while (i < n) {
        val c = assign(i)
        val p = points(i)
        counts(c) += 1
        val s = sums(c)
        var d = 0
        while (d < dim) { s(d) += p(d); d += 1 }
        i += 1
      }
      moved = false
      centers.indices.foreach { c =>
        // An empty cluster keeps its center.
        drift(c) = 0.0
        if (counts(c) > 0) {
          val mean = sums(c).map(_ / counts(c))
          val shift = sqdist(mean, centers(c))
          if (shift > Tolerance * Tolerance) moved = true
          drift(c) = math.sqrt(shift)
          centers(c) = mean
        }
      }
      iter += 1
    }
    centers
  }

  /** Assigns point `i` (vector `p`) to its nearest center as
    * [[nearestCenter]] does, and sets its bounds to the exact distances to
    * the nearest and second-nearest centers.
    */
  private def nearestTwo(centers: Array[Array[Double]], p: Array[Double], i: Int,
                         assign: Array[Int], upper: Array[Double], lower: Array[Double]): Unit = {
    var best = 0
    var bestDist = Double.PositiveInfinity
    var second = Double.PositiveInfinity
    var c = 0
    while (c < centers.length) {
      val d = sqdist(centers(c), p)
      if (d < bestDist) { second = bestDist; best = c; bestDist = d }
      else if (d < second) second = d
      c += 1
    }
    assign(i) = best
    upper(i) = math.sqrt(bestDist)
    lower(i) = math.sqrt(second)
  }

  /** `half(c)`: half the distance from center c to its nearest other center
    * (infinite for a single center).
    */
  private def halfGaps(centers: Array[Array[Double]], half: Array[Double]): Unit = {
    java.util.Arrays.fill(half, Double.PositiveInfinity)
    var a = 0
    while (a < centers.length) {
      var b = a + 1
      while (b < centers.length) {
        val h = math.sqrt(sqdist(centers(a), centers(b))) / 2
        if (h < half(a)) half(a) = h
        if (h < half(b)) half(b) = h
        b += 1
      }
      a += 1
    }
  }

  /** Diagonal of the points' bounding box: no two points or centers are
    * farther apart.
    */
  private def diagonal(points: Array[Array[Double]]): Double = {
    val dim = points.head.length
    val lo = Array.fill(dim)(Double.PositiveInfinity)
    val hi = Array.fill(dim)(Double.NegativeInfinity)
    points.foreach { p =>
      var d = 0
      while (d < dim) { lo(d) = math.min(lo(d), p(d)); hi(d) = math.max(hi(d), p(d)); d += 1 }
    }
    math.sqrt(sqdist(lo, hi))
  }

  /** Index of each non-empty cluster's member nearest its center (ties go
    * to the lower index), in center order. Contiguous chunks of the points
    * run on the pool; their bests merge in chunk order.
    */
  private[core] def representatives(n: Int, vec: Int => Array[Double],
                                    centers: Array[Array[Double]]): Array[Int] = {
    val bounds = chunkBounds(n)
    val chunkBests = tasks(bounds.length - 1) { t =>
      val best = Array.fill(centers.length)(-1)
      val bestDist = Array.fill(centers.length)(Double.PositiveInfinity)
      var i = bounds(t)
      while (i < bounds(t + 1)) {
        val (c, d) = nearestCenter(centers, vec(i))
        if (d < bestDist(c)) { best(c) = i; bestDist(c) = d }
        i += 1
      }
      (best, bestDist)
    }
    val best = Array.fill(centers.length)(-1)
    val bestDist = Array.fill(centers.length)(Double.PositiveInfinity)
    chunkBests.foreach { case (b, bd) =>
      centers.indices.foreach { c => if (bd(c) < bestDist(c)) { best(c) = b(c); bestDist(c) = bd(c) } }
    }
    best.filter(_ >= 0)
  }

  /** `Array.tabulate(n)(vec)`, its contiguous chunks built on the pool. */
  private def vectors(n: Int, vec: Int => Array[Double]): Array[Array[Double]] = {
    val bounds = chunkBounds(n)
    tasks(bounds.length - 1) { t =>
      Array.tabulate(bounds(t + 1) - bounds(t))(i => vec(bounds(t) + i))
    }.flatten
  }

  /** Start offsets of the chunks of `n` points, then `n`: one chunk per
    * [[MinChunk]] points, at most [[Parallelism]] chunks.
    */
  private def chunkBounds(n: Int): Array[Int] = {
    val chunks = math.max(1, math.min(Parallelism, n / MinChunk))
    Array.tabulate(chunks + 1)(t => (n.toLong * t / chunks).toInt)
  }

  /** The driver pool: at most [[Parallelism]] − 1 daemon threads, which end
    * after a minute idle. Built on first use.
    */
  private lazy val pool: ExecutorService = {
    val made = new AtomicInteger()
    val threads = math.max(1, Parallelism - 1)
    val p = new ThreadPoolExecutor(threads, threads, 60, TimeUnit.SECONDS, new LinkedBlockingQueue[Runnable](),
      (r: Runnable) => {
        val t = new Thread(r, s"centroid-select-${made.incrementAndGet()}")
        t.setDaemon(true)
        t
      })
    p.allowCoreThreadTimeOut(true)
    p
  }

  /** `f(0)`, …, `f(count - 1)` in task order. When `pooled`, `f(0)` runs on
    * the calling thread and the others on the driver pool; otherwise all run
    * on the calling thread. Every task runs to its end before this returns;
    * a failure is rethrown, the first in task order. `f` must not call
    * `tasks` itself: a pool thread that waits on the pool can deadlock it.
    */
  private def tasks[A: ClassTag](count: Int, pooled: Boolean = true)(f: Int => A): Array[A] =
    if (!pooled || count == 1 || Parallelism == 1) Array.tabulate(count)(f)
    else {
      val rest = (1 until count).map(t => pool.submit(new Callable[A] { def call(): A = f(t) }))
      val head = Try(f(0))
      val tail = rest.map(r => try Success(r.get()) catch { case e: ExecutionException => Failure(e.getCause) })
      (head +: tail).map(_.get).toArray
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
