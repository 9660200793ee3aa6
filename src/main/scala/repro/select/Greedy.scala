package repro.select

import repro.core.{Metrics, Scorer, SubTable}
import repro.core.Scorer.ColSet

import scala.collection.mutable
import scala.util.Random

/** Greedy sub-table selection (paper Algorithm 1) and its budgeted
  * "semi-greedy" variant (§6.1 baseline 5).
  *
  * ColumnSelection enumerates l-column subsets — exhaustively when asked
  * (small m, used for the approximation-guarantee tests), otherwise in
  * random order under a wall-clock / subset-count budget, exactly like the
  * paper's semi-greedy modification. For each subset, GreedyRowSelection
  * adds the row with the largest marginal cell-coverage gain, k times; by
  * submodularity of cellCov in the rows this achieves (1 − 1/e)·OPT per
  * column subset (Prop. 4.3).
  *
  * The inner loop is heavily optimized but *exact*: rows are grouped by
  * their signature of applicable-and-uncovered itemsets, so each greedy step
  * evaluates one marginal gain per distinct signature rather than per row.
  * All rules of one itemset hold for the same rows and are covered
  * together, so grouping by itemsets gives the same rows as by rules.
  */
object Greedy {

  final case class Result(sub: SubTable, cellCov: Double,
                          colSetsTried: Int, elapsedMillis: Long)

  def run(scorer: Scorer, k: Int, l: Int, targets: Seq[String] = Nil,
          budgetMillis: Long = Long.MaxValue, maxColSets: Int = Int.MaxValue,
          exhaustive: Boolean = false, seed: Long = 31): Result = {
    val t0 = System.nanoTime()
    val targetIdxs = scorer.colIndices(targets).sorted
    val free = (0 until scorer.m).filterNot(targetIdxs.contains).toArray
    val wantFree = math.min(l - targetIdxs.length, free.length)
    require(wantFree >= 0, s"more targets (${targets.size}) than columns ($l)")

    val subsets: Iterator[Array[Int]] =
      if (exhaustive) free.toSeq.combinations(wantFree).map(c => (targetIdxs ++ c).sorted)
      else randomSubsets(new Random(seed), free, wantFree).map(c => (targetIdxs ++ c).sorted)

    val deadline = Budgets.saturatingDeadline(t0, budgetMillis)
    var best: (Array[Int], Array[Int]) = null
    var bestCov = Double.NegativeInfinity
    var tried = 0
    val it = subsets
    while (it.hasNext && tried < maxColSets &&
           (tried == 0 || System.nanoTime() < deadline)) {
      val colIdxs = it.next()
      val (rows, cov) = greedyRows(scorer, colIdxs, k)
      if (cov > bestCov) { bestCov = cov; best = (rows, colIdxs) }
      tried += 1
    }
    Result(scorer.toSubTable(best._1, best._2), bestCov, tried,
      (System.nanoTime() - t0) / 1000000L)
  }

  /** Endless stream of distinct-within-draw random subsets (duplicates
    * across draws possible, as in traversing combinations in random order
    * with restarts — the budget bounds the traversal anyway).
    */
  private def randomSubsets(rng: Random, from: Array[Int], k: Int): Iterator[Array[Int]] =
    Iterator.continually(rng.shuffle(from.toSeq).take(k).sorted.toArray)

  /** GreedyRowSelection: k rows maximizing marginal cell coverage over the
    * fixed column set. Returns (row indices, achieved cellCov in [0,1]).
    */
  private[select] def greedyRows(scorer: Scorer, colIdxs: Array[Int], k: Int): (Array[Int], Double) = {
    val n = scorer.n
    val m = scorer.m
    val colSet = ColSet(colIdxs, m)
    // Applicable itemsets: all columns inside the chosen subset.
    val applicable = scorer.itemsets.filter(_.colIdxs.forall(colSet.contains))
    // row -> applicable itemset ids that hold for it
    val rowRules: Array[mutable.ArrayBuffer[Int]] =
      Array.fill(n)(null.asInstanceOf[mutable.ArrayBuffer[Int]])
    applicable.zipWithIndex.foreach { case (cr, aid) =>
      cr.matchRows.foreach { r =>
        if (rowRules(r) == null) rowRules(r) = mutable.ArrayBuffer[Int]()
        rowRules(r) += aid
      }
    }

    val coveredRules = new Array[Boolean](applicable.length)
    val coveredCells = new java.util.BitSet(n * m)
    val picked = mutable.ArrayBuffer[Int]()
    val pickedSet = new Array[Boolean](n)

    // Gain of covering a *set of rules* on top of coveredCells.
    val tmpBits = new mutable.ArrayBuffer[Int]()
    def gainOf(ruleIds: Seq[Int]): Long = {
      var gain = 0L
      tmpBits.clear()
      ruleIds.foreach { aid =>
        val cr = applicable(aid)
        var i = 0
        while (i < cr.matchRows.length) {
          val base = cr.matchRows(i) * m
          var j = 0
          while (j < cr.colIdxs.length) {
            val bit = base + cr.colIdxs(j)
            if (!coveredCells.get(bit)) { coveredCells.set(bit); tmpBits += bit; gain += 1 }
            j += 1
          }
          i += 1
        }
      }
      tmpBits.foreach(coveredCells.clear) // roll back the trial marks
      gain
    }

    var step = 0
    while (step < math.min(k, n)) {
      // Group candidate rows by their uncovered-itemset signature.
      val bySig = mutable.LinkedHashMap[Seq[Int], Int]() // signature -> first row
      var r = 0
      while (r < n) {
        if (!pickedSet(r)) {
          val rr = rowRules(r)
          val sig: Seq[Int] =
            if (rr == null) Seq.empty
            else rr.iterator.filterNot(coveredRules).toSeq
          if (!bySig.contains(sig)) bySig(sig) = r
        }
        r += 1
      }
      // Best signature by gain (ties -> first row index for determinism).
      var bestSig: Seq[Int] = Seq.empty
      var bestRow = -1
      var bestGain = -1L
      bySig.foreach { case (sig, row) =>
        val g = if (sig.isEmpty) 0L else gainOf(sig)
        if (g > bestGain || (g == bestGain && (bestRow == -1 || row < bestRow))) {
          bestGain = g; bestSig = sig; bestRow = row
        }
      }
      // Commit.
      picked += bestRow
      pickedSet(bestRow) = true
      bestSig.foreach { aid =>
        coveredRules(aid) = true
        applicable(aid).mark(coveredCells)
      }
      step += 1
    }
    (picked.toArray.sorted, Metrics.coverageRatio(coveredCells.cardinality(), scorer.upcov))
  }
}
