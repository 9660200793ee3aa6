package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.rules.Rule

/** The exact scores that [[Metrics.scores]]'s one pass replaced, kept as the
  * reference it is checked against. An exact score is two Spark actions:
  *   - one collect of the sub-table's tokens ([[Metrics.subTableTokens]]),
  *     from which the driver decides the covered itemsets with
  *     [[Metrics.coveredRules]];
  *   - one pass that compares every row against every distinct itemset as
  *     strings and sums the cells described by any and by a covered itemset.
  */
object TwoActionMetrics {

  def scores(binned: DataFrame, cols: Seq[String], rules: Seq[Rule],
             sub: SubTable, alpha: Double = 0.5): Metrics.Scores = {
    val subRows = Metrics.subTableTokens(binned, sub)
    val cc = cellCoverage(binned, cols, rules, sub.cols, subRows)
    val dv = Metrics.diversity(subRows)
    Metrics.Scores(cc, dv, alpha * cc + (1 - alpha) * dv)
  }

  private def cellCoverage(binned: DataFrame, cols: Seq[String], rules: Seq[Rule],
                           subCols: Seq[String], subRows: Seq[Seq[String]]): Double = {
    val itemsets = rules.distinctBy(_.items)
    val covered = Metrics.coveredRules(itemsets, subRows.map(_.toSet), subCols.toSet).map(_.items)
    val (upcov, coveredCells) = cellCounts(binned, cols, itemsets.map(_.items), covered.toSet)
    Metrics.coverageRatio(coveredCells, upcov)
  }

  /** One pass over the binned table: (cells described by any of `itemsets`,
    * cells described by the itemsets in `covered`).
    */
  def cellCounts(binned: DataFrame, cols: Seq[String], itemsets: Seq[Vector[String]],
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
}
