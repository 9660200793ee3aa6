package repro.select

import repro.core.{Scorer, SubTable}

import scala.util.Random

/** MAB baseline (paper §6.1 baseline 4): a multi-armed-bandit search where
  * every row and every free column is an arm. Each iteration the bandit
  * plays the k rows and l − |U*| columns with the highest UCB1 value
  * [Lai & Robbins / Auer], evaluates the resulting sub-table with the
  * combined metric, and credits the reward to every participating arm.
  * Untried arms have infinite UCB (random-ordered), so the early phase is a
  * forced sweep — which is precisely why the paper finds MAB hopeless at
  * table scale.
  */
object MAB {

  final case class Result(sub: SubTable, score: Double, iterations: Int)

  /** UCB1 exploration weight. */
  private val UcbC = 1.4

  def run(scorer: Scorer, k: Int, l: Int, targets: Seq[String] = Nil,
          budgetMillis: Long = 60000, maxIters: Int = Int.MaxValue,
          seed: Long = 37): Result = {
    val rng = new Random(seed)
    val n = scorer.n
    val targetIdxs = scorer.colIndices(targets)
    val freeCols = (0 until scorer.m).filterNot(targetIdxs.contains).toArray
    val kk = math.min(k, n)
    val wantFree = math.min(l - targetIdxs.length, freeCols.length)
    require(wantFree >= 0, s"more targets (${targets.size}) than columns ($l)")

    val rowCnt = new Array[Long](n);        val rowSum = new Array[Double](n)
    val colCnt = new Array[Long](freeCols.length); val colSum = new Array[Double](freeCols.length)
    // Random tie order for untried arms.
    val rowOrder = rng.shuffle((0 until n).toVector).toArray
    val colOrder = rng.shuffle(freeCols.indices.toVector).toArray

    def topArms(order: Array[Int], cnt: Array[Long], sum: Array[Double],
                t: Long, take: Int): Array[Int] = {
      val untried = order.iterator.filter(cnt(_) == 0L).take(take).toArray
      if (untried.length >= take) untried
      else {
        val tried = cnt.indices.filter(cnt(_) > 0L)
        val scored = tried.sortBy { i =>
          -(sum(i) / cnt(i) + UcbC * math.sqrt(math.log(math.max(2L, t)) / cnt(i)))
        }
        untried ++ scored.take(take - untried.length)
      }
    }

    val deadline = Budgets.saturatingDeadline(System.nanoTime(), budgetMillis)
    var best: (Array[Int], Array[Int]) = null
    var bestScore = Double.NegativeInfinity
    var t = 0L
    while (t < maxIters && (t == 0 || System.nanoTime() < deadline)) {
      val rows = topArms(rowOrder, rowCnt, rowSum, t, kk).sorted
      val colsFreeIdx = topArms(colOrder, colCnt, colSum, t, wantFree)
      val cols = (targetIdxs ++ colsFreeIdx.map(freeCols)).sorted
      val reward = scorer.combined(rows, cols)
      rows.foreach { r => rowCnt(r) += 1; rowSum(r) += reward }
      colsFreeIdx.foreach { c => colCnt(c) += 1; colSum(c) += reward }
      if (reward > bestScore) { bestScore = reward; best = (rows, cols) }
      t += 1
    }
    Result(scorer.toSubTable(best._1, best._2), bestScore, t.toInt)
  }
}
