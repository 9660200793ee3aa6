package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.unsafe.types.UTF8String
import repro.rules.Rule

import scala.collection.immutable.ArraySeq
import scala.collection.mutable

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
  * set. An exact score is one Spark pass. Before it, the driver interns the
  * items to int codes, indexes each itemset by its first item and marks as
  * *candidates* the itemsets whose columns all lie in the sub-table's
  * columns: only they can be covered. Each row then checks the itemsets
  * indexed under its own tokens, adds its cells described by any itemset to
  * upcov, and yields its *signature*, the sorted candidates it satisfies.
  * The pass returns upcov, the number of rows per signature and the
  * sub-table's rows with their signatures. The covered itemsets are the
  * union of the sub-table rows' signatures, and the covered cells are the
  * sum over signatures of count × |∪ columns of its covered itemsets|.
  *
  * The pass reads Spark's internal rows (`queryExecution.toRdd`), with no
  * `Row` deserializer: it looks each cell's `UTF8String` up in the item
  * codes and makes `String`s only of the at most k sub-table rows' tokens.
  * It accepts any binned frame; over the one [[Binning.BinModel.transform]]
  * stores, its job ships no ingestion lineage.
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
    * pass, or none for no rules.
    */
  def describedCellCount(binned: DataFrame, cols: Seq[String], rules: Seq[Rule]): Long =
    if (rules.isEmpty) 0L else pass(binned, cols, rules, SubTable(Nil, Nil)).upcov

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

  /** Exact scores of a sub-table over a target-filtered rule set, from one
    * Spark pass that serves coverage and diversity alike.
    */
  def scores(binned: DataFrame, cols: Seq[String], rules: Seq[Rule],
             sub: SubTable, alpha: Double = 0.5): Scores = {
    val p = pass(binned, cols, rules, sub)
    val covered = new java.util.BitSet(p.itemsetCols.length)
    p.subRows.foreach(_.signature.foreach(covered.set))
    val cells = new java.util.BitSet(cols.size)
    val coveredCells = p.signatures.iterator.map { case (signature, rows) =>
      cells.clear()
      signature.foreach(s => if (covered.get(s)) p.itemsetCols(s).foreach(cells.set))
      rows * cells.cardinality()
    }.sum
    val cc = coverageRatio(coveredCells, p.upcov)
    val dv = diversity(p.subRows.map(_.tokens))
    Scores(cc, dv, alpha * cc + (1 - alpha) * dv)
  }

  /** A sub-table row: its rid, its tokens over `sub.cols` and its signature. */
  private final case class SubRow(rid: Long, tokens: Seq[String], signature: Seq[Int])

  /** What the pass returns. `itemsetCols(s)` holds the column indices of
    * distinct itemset s, signatures are ids of candidate itemsets, and rows
    * that satisfy no candidate are not counted in `signatures`. `subRows`
    * are in rid order.
    */
  private final case class Pass(upcov: Long, signatures: Seq[(Seq[Int], Long)],
                                subRows: Seq[SubRow], itemsetCols: Array[Array[Int]])

  /** One Spark pass over `binned` for the distinct itemsets of `rules`,
    * with the candidates and sub-table rows of `sub`.
    */
  private def pass(binned: DataFrame, cols: Seq[String], rules: Seq[Rule], sub: SubTable): Pass = {
    val colIdx = cols.zipWithIndex.toMap
    sub.cols.foreach(c => require(colIdx.contains(c), s"sub-table column '$c' is not one of the scored columns"))
    // An empty itemset describes no cell, so it cannot change a count.
    val itemsets = rules.iterator.map(_.items).filter(_.nonEmpty).distinct.toArray
    val items = itemsets.iterator.flatten.distinct.toArray
    val code = items.iterator.zipWithIndex.toMap
    val utf8Code = code.map { case (t, c) => UTF8String.fromString(t) -> c }
    val codeCol = items.map(t => colIdx(Binning.tokenCol(t)))
    val itemsetCodes = itemsets.map(_.map(code).toArray)
    val itemsetCols = itemsetCodes.map(_.map(codeCol))
    val byFirst = Array.fill(items.length)(Array.newBuilder[Int])
    itemsetCodes.indices.foreach(s => byFirst(itemsetCodes(s)(0)) += s)
    val indexed = byFirst.map(_.result())
    val subCols = sub.cols.map(colIdx).toArray
    val candidate = itemsetCols.map(_.forall(subCols.contains))
    val subRids = sub.rowIds.toSet
    val m = cols.size

    val parts = binned.select((Tables.Rid +: cols).map(col): _*).queryExecution.toRdd.mapPartitions { rows =>
      var upcov = 0L
      val counts = mutable.HashMap[Seq[Int], Long]()
      val subRows = mutable.ArrayBuffer[SubRow]()
      val codes = new Array[Int](m)
      val any = new java.util.BitSet(m)
      val sig = new Array[Int](itemsetCodes.length)
      rows.foreach { row =>
        var j = 0
        while (j < m) {
          // A token counts as item c only in c's own column.
          val c = utf8Code.getOrElse(row.getUTF8String(j + 1), -1)
          codes(j) = if (c >= 0 && codeCol(c) == j) c else -1
          j += 1
        }
        any.clear()
        var nSig = 0
        j = 0
        while (j < m) {
          if (codes(j) >= 0) {
            val ids = indexed(codes(j))
            var x = 0
            while (x < ids.length) {
              val s = ids(x)
              val sc = itemsetCodes(s); val cs = itemsetCols(s)
              var t = 1; var ok = true
              while (ok && t < sc.length) { ok = codes(cs(t)) == sc(t); t += 1 }
              if (ok) {
                cs.foreach(any.set)
                if (candidate(s)) { sig(nSig) = s; nSig += 1 }
              }
              x += 1
            }
          }
          j += 1
        }
        upcov += any.cardinality()
        java.util.Arrays.sort(sig, 0, nSig)
        val signature = ArraySeq.unsafeWrapArray(java.util.Arrays.copyOf(sig, nSig))
        if (nSig > 0) counts(signature) = counts.getOrElse(signature, 0L) + 1
        val rid = row.getLong(0)
        if (subRids(rid)) subRows += SubRow(rid, subCols.toSeq.map { i =>
          val t = row.getUTF8String(i + 1)
          if (t == null) null else t.toString
        }, signature)
      }
      Iterator.single((upcov, counts.toSeq, subRows.toSeq))
    }.collect()

    Pass(parts.iterator.map(_._1).sum, parts.flatMap(_._2).toSeq,
      parts.flatMap(_._3).sortBy(_.rid).toSeq, itemsetCols)
  }
}
