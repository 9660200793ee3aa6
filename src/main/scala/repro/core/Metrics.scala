package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.rules.Rule

/** The paper's informativeness metrics (§3.2), computed distributedly.
  *
  * - cell coverage (Def. 3.6): |union of cell(R,T) over rules covered by the
  *   sub-table| / upcov, where upcov is the same union over *all* rules;
  * - diversity (Def. 3.7): 1 − average pairwise Jaccard similarity of the
  *   sub-table rows (similar = same bin, i.e. same token);
  * - combined score (Eq. 3): α·cellCov + (1−α)·divers.
  *
  * Both cell(R,T) and whether a sub-table covers R depend only on R's
  * itemset lhs ∪ rhs, so coverage works on the distinct itemsets of the rule
  * set. The sub-table side (which itemsets are covered) is decided on the
  * driver — sub-tables are k×l with k,l ≈ 10 — and one Spark pass then
  * counts both unions: the (small) itemset list is shipped with the task,
  * each row computes the sets of its columns touched by any and by a covered
  * itemset, and the two cell counts are summed. An exact score is two Spark
  * actions: one collect of the sub-table's tokens and that pass.
  */
object Metrics {

  /** Rules from `rules` covered by the sub-table (Def. 3.6 d1): all rule
    * columns selected, and at least one selected row satisfies the rule.
    * `subRows` are the sub-table's binned rows as token sets (over the full
    * schema or any superset of `subCols` — extra tokens are harmless since a
    * covered rule's columns must lie inside `subCols`).
    */
  def coveredRules(rules: Seq[Rule], subRows: Seq[Set[String]],
                   subCols: Set[String]): Seq[Rule] =
    rules.filter(r => r.columns.subsetOf(subCols) && subRows.exists(r.holdsFor))

  /** |union over `rules` of cell(R,T)| — the number of cells of the binned
    * table described by at least one of the given rules. One distributed
    * pass; cost O(rows × distinct itemsets).
    */
  def describedCellCount(binned: DataFrame, cols: Seq[String], rules: Seq[Rule]): Long =
    cellCounts(binned, cols, rules.map(_.items).distinct, Set.empty)._1

  /** One pass over the binned table: (cells described by any of `itemsets`,
    * cells described by the itemsets in `covered`).
    */
  private def cellCounts(binned: DataFrame, cols: Seq[String], itemsets: Seq[Vector[String]],
                         covered: Set[Vector[String]]): (Long, Long) = {
    import binned.sparkSession.implicits._
    if (itemsets.isEmpty) return (0L, 0L)
    val colIdx = cols.zipWithIndex.toMap
    // Per itemset: (column indices, required tokens, covered?).
    val compiled: Array[(Array[Int], Array[String], Boolean)] = itemsets.iterator.map { items =>
      (items.map(t => colIdx(Binning.tokenCol(t))).toArray, items.toArray, covered(items))
    }.toArray
    val ds = binned.select(array(cols.map(col): _*).as("toks")).as[Seq[String]]
    val perPartition = ds.mapPartitions { it =>
      var described = 0L
      var coveredCells = 0L
      val any = new java.util.BitSet(cols.size)
      val cov = new java.util.BitSet(cols.size)
      it.foreach { toksSeq =>
        val toks = toksSeq.toArray
        any.clear(); cov.clear()
        var ri = 0
        while (ri < compiled.length) {
          val (idxs, items, isCovered) = compiled(ri)
          var j = 0; var ok = true
          while (ok && j < idxs.length) { ok = toks(idxs(j)) == items(j); j += 1 }
          if (ok) {
            var j2 = 0
            while (j2 < idxs.length) {
              any.set(idxs(j2))
              if (isCovered) cov.set(idxs(j2))
              j2 += 1
            }
          }
          ri += 1
        }
        described += any.cardinality()
        coveredCells += cov.cardinality()
      }
      Iterator.single((described, coveredCells))
    }
    perPartition.reduce((a, b) => (a._1 + b._1, a._2 + b._2))
  }

  /** Binned rows of the sub-table as aligned token vectors over `sub.cols`
    * (row order = rid order). One collect; the at most k rows are sorted on
    * the driver.
    */
  def subTableTokens(binned: DataFrame, sub: SubTable): Seq[Seq[String]] =
    binned.where(col(Tables.Rid).isin(sub.rowIds: _*))
      .select((Tables.Rid +: sub.cols).map(col): _*).collect()
      .sortBy(_.getLong(0))
      .map(r => sub.cols.indices.map(i => r.getString(i + 1))).toSeq

  /** Covered cells over upcov; vacuously 1 when no rule describes any cell. */
  def coverageRatio(coveredCells: Long, upcov: Long): Double =
    if (upcov == 0L) 1.0 else coveredCells.toDouble / upcov

  /** Cell coverage of a sub-table w.r.t. the (already target-filtered) rule
    * set. If no rule describes any cell (upcov = 0) coverage is vacuously 1.
    */
  def cellCoverage(binned: DataFrame, cols: Seq[String], rules: Seq[Rule],
                   sub: SubTable): Double =
    cellCoverage(binned, cols, rules, sub.cols, subTableTokens(binned, sub))

  /** Cell coverage given the sub-table's collected tokens over `subCols`. */
  private def cellCoverage(binned: DataFrame, cols: Seq[String], rules: Seq[Rule],
                           subCols: Seq[String], subRows: Seq[Seq[String]]): Double = {
    val itemsets = rules.distinctBy(_.items)
    val covered = coveredRules(itemsets, subRows.map(_.toSet), subCols.toSet).map(_.items)
    val (upcov, coveredCells) = cellCounts(binned, cols, itemsets.map(_.items), covered.toSet)
    coverageRatio(coveredCells, upcov)
  }

  /** Pairwise Jaccard-like similarity (Def. 3.7): fraction of columns on
    * which the two rows fall in the same bin.
    */
  def jaccard(a: Seq[String], b: Seq[String]): Double = {
    require(a.size == b.size, "rows must be aligned over the same columns")
    if (a.isEmpty) 0.0
    else a.iterator.zip(b.iterator).count { case (x, y) => x == y }.toDouble / a.size
  }

  /** Diversity = 1 − average pairwise (unordered, distinct) similarity.
    * A single-row sub-table has no pairs and is maximally diverse (1.0).
    */
  def diversity(subRowsTokens: Seq[Seq[String]]): Double = {
    val rows = subRowsTokens.toIndexedSeq
    val k = rows.size
    if (k < 2) 1.0
    else {
      var sum = 0.0; var pairs = 0
      var i = 0
      while (i < k) {
        var j = i + 1
        while (j < k) { sum += jaccard(rows(i), rows(j)); pairs += 1; j += 1 }
        i += 1
      }
      1.0 - sum / pairs
    }
  }

  /** Cell coverage, diversity and the combined score (Eq. 3). */
  final case class Scores(cellCov: Double, divers: Double, combined: Double)

  /** Exact scores of a sub-table over a target-filtered rule set: one
    * collect of the sub-table's tokens, shared by coverage and diversity,
    * and one coverage pass.
    */
  def scores(binned: DataFrame, cols: Seq[String], rules: Seq[Rule],
             sub: SubTable, alpha: Double = 0.5): Scores = {
    val subRows = subTableTokens(binned, sub)
    val cc = cellCoverage(binned, cols, rules, sub.cols, subRows)
    val dv = diversity(subRows)
    Scores(cc, dv, alpha * cc + (1 - alpha) * dv)
  }
}
