package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.rules.Rule

/** Collected binned table: rids plus the token matrix, row-major. Built once
  * per experiment via [[BinnedMatrix.collect]]; the iterative baselines
  * (RAN best-of, Greedy, MAB) evaluate thousands of candidate sub-tables and
  * must not pay a Spark job per evaluation — exactly like the paper's
  * in-memory Pandas implementation.
  */
final case class BinnedMatrix(rids: Array[Long], cols: Array[String],
                              rows: Array[Array[String]]) {
  def n: Int = rows.length
  def m: Int = cols.length
}

object BinnedMatrix {
  /** Collect a binned table (must carry `__rid`). Keep this to baseline
    * scales (n up to a few hundred thousand rows).
    */
  def collect(binned: DataFrame, cols: Seq[String]): BinnedMatrix = {
    val rows = binned.select((Tables.Rid +: cols).map(col): _*)
      .orderBy(col(Tables.Rid)).collect()
    BinnedMatrix(
      rids = rows.map(_.getLong(0)),
      cols = cols.toArray,
      rows = rows.map(r => cols.indices.map(i => r.getString(i + 1)).toArray),
    )
  }
}

/** Driver-side evaluator of the paper's metrics over a [[BinnedMatrix]].
  *
  * Mirrors [[Metrics]] exactly (property-tested for equality) but answers a
  * `combined` evaluation in microseconds-to-milliseconds:
  *   - tokens are interned to dense int codes,
  *   - the rules are reduced to their distinct itemsets lhs ∪ rhs: every
  *     split of one itemset describes the same cells and is covered by the
  *     same sub-tables (Def. 3.6), so coverage is a function of itemsets,
  *   - each itemset is compiled to (columnIdx, code) pairs plus the sorted
  *     array of row indices it holds for,
  *   - coverage unions are taken in a scratch bitset over the n×m cell grid.
  */
final class Scorer(val mat: BinnedMatrix, allRules: Seq[Rule], val alpha: Double = 0.5) {
  import Scorer._

  val n: Int = mat.n
  val m: Int = mat.m
  private val colIdx: Map[String, Int] = mat.cols.zipWithIndex.toMap

  // Token interning (code 0.. per distinct token).
  private val dict = new java.util.HashMap[String, Int]()
  private def codeOf(t: String): Int =
    if (dict.containsKey(t)) dict.get(t)
    else { val nc = dict.size(); dict.put(t, nc); nc }
  /** codes(i)(j) = interned token of row i, column j. */
  private val codes: Array[Array[Int]] =
    mat.rows.map(r => r.map(codeOf))

  /** Compiled itemset: its items, their columns (indices) and required
    * codes, and the rows it holds for.
    */
  final case class CompiledItemset(items: Vector[String], colIdxs: Array[Int],
                                   reqCodes: Array[Int], matchRows: Array[Int]) {
    def holdsForRow(row: Int): Boolean = {
      var j = 0
      while (j < colIdxs.length) {
        if (codes(row)(colIdxs(j)) != reqCodes(j)) return false
        j += 1
      }
      true
    }
  }

  /** The distinct itemsets of the rules, in order of first occurrence. */
  val itemsets: Array[CompiledItemset] = allRules.iterator.map(_.items).distinct.map { items =>
    val idxs = items.map(t => colIdx(Binning.tokenCol(t))).toArray
    val req = items.map(t => dict.getOrDefault(t, -1)).toArray
    val matches =
      if (req.contains(-1)) Array.empty[Int] // token never occurs -> holds nowhere
      else {
        val b = Array.newBuilder[Int]
        var i = 0
        while (i < n) {
          var j = 0; var ok = true
          while (ok && j < idxs.length) { ok = codes(i)(idxs(j)) == req(j); j += 1 }
          if (ok) b += i
          i += 1
        }
        b.result()
      }
    CompiledItemset(items, idxs, req, matches)
  }.toArray

  /** Scratch bitset over the n×m cell grid, reused across evaluations. */
  private val scratch = new java.util.BitSet(n * m)

  /** Union cell count over an iterator of compiled itemsets. */
  private def unionCellCount(rs: Iterator[CompiledItemset]): Long = {
    scratch.clear()
    rs.foreach { cr =>
      var i = 0
      while (i < cr.matchRows.length) {
        val base = cr.matchRows(i) * m
        var j = 0
        while (j < cr.colIdxs.length) { scratch.set(base + cr.colIdxs(j)); j += 1 }
        i += 1
      }
    }
    scratch.cardinality().toLong
  }

  /** upcov: cells described by any rule at all. */
  val upcov: Long = unionCellCount(itemsets.iterator)

  /** Which compiled itemsets does a (rowIdxs, colIdxs) sub-table cover? */
  def covered(rowIdxs: Array[Int], colIdxSet: ColSet): Array[CompiledItemset] =
    itemsets.filter { cr =>
      allColsIn(cr.colIdxs, colIdxSet) && rowIdxs.exists(cr.holdsForRow)
    }

  /** Cell coverage of a sub-table given by row/column *indices* into the
    * matrix. Vacuously 1 when upcov = 0 (mirrors [[Metrics.cellCoverage]]).
    */
  def cellCov(rowIdxs: Array[Int], colIdxs: Array[Int]): Double =
    Metrics.coverageRatio(unionCellCount(covered(rowIdxs, ColSet(colIdxs, m)).iterator), upcov)

  /** Diversity over matrix indices. */
  def diversity(rowIdxs: Array[Int], colIdxs: Array[Int]): Double = {
    val k = rowIdxs.length
    if (k < 2 || colIdxs.isEmpty) return 1.0
    var sum = 0.0; var pairs = 0
    var i = 0
    while (i < k) {
      var j = i + 1
      while (j < k) {
        var same = 0
        var c = 0
        while (c < colIdxs.length) {
          if (codes(rowIdxs(i))(colIdxs(c)) == codes(rowIdxs(j))(colIdxs(c))) same += 1
          c += 1
        }
        sum += same.toDouble / colIdxs.length
        pairs += 1
        j += 1
      }
      i += 1
    }
    1.0 - sum / pairs
  }

  def combined(rowIdxs: Array[Int], colIdxs: Array[Int]): Double =
    alpha * cellCov(rowIdxs, colIdxs) + (1 - alpha) * diversity(rowIdxs, colIdxs)

  /** Translate matrix indices to a [[SubTable]] (rids + column names). */
  def toSubTable(rowIdxs: Array[Int], colIdxs: Array[Int]): SubTable =
    SubTable(rowIdxs.map(mat.rids).toSeq, colIdxs.map(mat.cols).toSeq)

  /** Matrix column indices for a set of column names. */
  def colIndices(names: Seq[String]): Array[Int] = names.map(colIdx).toArray

  /** Matrix row indices for a set of rids. */
  def rowIndices(rids: Seq[Long]): Array[Int] = {
    val pos = mat.rids.zipWithIndex.toMap
    rids.map(pos).toArray
  }
}

object Scorer {
  /** Small boolean-array set over column indices. */
  final case class ColSet(member: Array[Boolean]) {
    def contains(i: Int): Boolean = member(i)
  }
  object ColSet {
    def apply(idxs: Array[Int], m: Int): ColSet = {
      val a = new Array[Boolean](m)
      idxs.foreach(a(_) = true)
      ColSet(a)
    }
  }
  private def allColsIn(cols: Array[Int], set: ColSet): Boolean = {
    var i = 0
    while (i < cols.length) { if (!set.contains(cols(i))) return false; i += 1 }
    true
  }
}
