package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.rules.Rule

import scala.collection.mutable

/** The collected binned table: the one driver-side form of the binned rows.
  * Built once per experiment via [[BinnedMatrix.collect]]; the iterative
  * baselines (RAN best-of, Greedy, MAB) evaluate thousands of candidate
  * sub-tables and must not pay a Spark job per evaluation — exactly like the
  * paper's in-memory Pandas implementation — EmbDI walks its graph over the
  * same table, and the exhibits score, grade and read sub-tables from it.
  *
  *   - `rids(i)` is the rid of row i; rows are in rid order;
  *   - `codes(i)(j)` is the interned code of the token in row i, column j;
  *   - `tokens(c)` is the token with code c;
  *   - `rowsOf(c)` holds the rows containing token c, ascending.
  */
final class BinnedMatrix(val rids: Array[Long], val cols: Array[String],
                         val tokens: Array[String], val codes: Array[Array[Int]]) {
  def n: Int = codes.length
  def m: Int = cols.length

  private val codeOf: Map[String, Int] = tokens.iterator.zipWithIndex.toMap

  /** Code of `token`, or -1 when no cell holds it. */
  def code(token: String): Int = codeOf.getOrElse(token, -1)

  /** Row index of `rid`, by binary search over the sorted rids. */
  def row(rid: Long): Int = {
    val i = java.util.Arrays.binarySearch(rids, rid)
    require(i >= 0, s"rid $rid is not a row of the binned table")
    i
  }

  /** Row indices of `rids`, ascending and each once: rid order. */
  def rowsOfRids(rids: Iterable[Long]): Array[Int] = rids.iterator.map(row).toArray.sorted.distinct

  /** The sub-table's binned rows in rid order, each once, as aligned token
    * vectors over `sub.cols`.
    */
  def subTableTokens(sub: SubTable): Seq[Seq[String]] = {
    val js = sub.cols.map { c =>
      val j = cols.indexOf(c)
      require(j >= 0, s"sub-table column '$c' is not a column of the binned table")
      j
    }
    rowsOfRids(sub.rowIds).toSeq.map(i => js.map(j => tokens(codes(i)(j))))
  }

  val rowsOf: Array[Array[Int]] = {
    val b = Array.fill(tokens.length)(Array.newBuilder[Int])
    val last = Array.fill(tokens.length)(-1) // a row is listed once per token
    codes.indices.foreach { i =>
      codes(i).foreach { c => if (last(c) != i) { b(c) += i; last(c) = i } }
    }
    b.map(_.result())
  }
}

object BinnedMatrix {

  /** Driver heap per binned cell at the peak of [[collect]], in bytes. The
    * collected `Row`s of token `String`s dominate it. Measured on FL-like
    * tables of 30K, 60K and 120K rows × 31 columns (JDK 17, G1): the `Row`s
    * hold 68 B per cell live, heap use peaks 140–250 B per cell above the
    * pre-collect level during the collect (garbage included), and the
    * interned codes keep 9 B per cell once the `Row`s are dropped.
    *
    * `SubTab.Model.local`, built after this collect, stays below it:
    * measured on FL-like tables of 30K and 60K rows × 32 columns, the
    * collected `Row`s of the original table hold 31 B per cell, the heap
    * peaks 57 B per cell above the pre-collect level while the local
    * relation is built from them, and the local copy keeps 36 B per cell
    * once the `Row`s are dropped.
    */
  val BytesPerCell = 250L

  /** Fail fast, before [[collect]], when an n × m binned table would need
    * more than half of a `heapBytes` driver heap at [[BytesPerCell]]; the
    * other half is left to Spark, whose cached frames share the driver heap
    * in local mode. At a 2 GB heap that is about 4.3M cells (138K rows × 31
    * columns); at 8 GB about 17M cells.
    */
  def requireFits(n: Long, m: Int, heapBytes: Long): Unit = {
    val need = n * m * BytesPerCell
    require(need <= heapBytes / 2,
      f"the binned table (n = $n rows, m = $m columns) needs about ${need / 1e6}%.0f MB " +
        f"on the driver ($BytesPerCell B per cell), more than half of the ${heapBytes / 1e6}%.0f MB heap")
  }

  /** Collect a binned table (must carry `__rid`), sort its rows by rid on
    * the driver and intern tokens to codes in row-major order of first
    * occurrence. Keep this to baseline scales (n up to a few hundred
    * thousand rows).
    */
  def collect(binned: DataFrame, cols: Seq[String]): BinnedMatrix = {
    val rows = binned.select((Tables.Rid +: cols).map(col): _*).collect().sortBy(_.getLong(0))
    val tokens = mutable.ArrayBuffer[String]()
    val dict = mutable.HashMap[String, Int]()
    val codes = rows.map(r => Array.tabulate(cols.length) { j =>
      val t = r.getString(j + 1)
      dict.getOrElseUpdate(t, { tokens += t; tokens.length - 1 })
    })
    new BinnedMatrix(rows.map(_.getLong(0)), cols.toArray, tokens.toArray, codes)
  }
}

/** Driver-side evaluator of the paper's metrics over a [[BinnedMatrix]].
  *
  * Mirrors [[Metrics]] exactly ([[scores]] is property-tested for `==`
  * equality) but answers a `combined` evaluation in
  * microseconds-to-milliseconds:
  *   - the rules are reduced to their distinct itemsets lhs ∪ rhs: every
  *     split of one itemset describes the same cells and is covered by the
  *     same sub-tables (Def. 3.6), so coverage is a function of itemsets,
  *   - each itemset is compiled to (columnIdx, code) pairs plus the sorted
  *     array of row indices it holds for, found from the matrix's rows of its
  *     rarest token,
  *   - coverage unions are taken in a scratch bitset over the n×m cell grid.
  */
final class Scorer(val mat: BinnedMatrix, allRules: Seq[Rule], val alpha: Double = 0.5) {
  import Scorer._

  val n: Int = mat.n
  val m: Int = mat.m
  private val colIdx: Map[String, Int] = mat.cols.zipWithIndex.toMap

  /** Compiled itemset: its items, their columns (indices) and required
    * codes, and the rows it holds for.
    */
  final case class CompiledItemset(items: Vector[String], colIdxs: Array[Int], reqCodes: Array[Int]) {
    def holdsForRow(row: Int): Boolean = {
      var j = 0
      while (j < colIdxs.length) {
        if (mat.codes(row)(colIdxs(j)) != reqCodes(j)) return false
        j += 1
      }
      true
    }

    /** Rows of the rarest token that hold the other items too; empty when a
      * token occurs in no cell.
      */
    val matchRows: Array[Int] =
      if (reqCodes.contains(-1)) Array.empty[Int]
      else mat.rowsOf(reqCodes.minBy(mat.rowsOf(_).length)).filter(holdsForRow)

    /** Set the cells this itemset describes in a bitset over the n×m grid. */
    def mark(cells: java.util.BitSet): Unit = {
      var i = 0
      while (i < matchRows.length) {
        val base = matchRows(i) * m
        var j = 0
        while (j < colIdxs.length) { cells.set(base + colIdxs(j)); j += 1 }
        i += 1
      }
    }
  }

  /** The distinct itemsets of the rules, in order of first occurrence. */
  val itemsets: Array[CompiledItemset] = allRules.iterator.map(_.items).distinct.map { items =>
    CompiledItemset(items, items.map(t => colIdx(Binning.tokenCol(t))).toArray, items.map(mat.code).toArray)
  }.toArray

  /** Scratch bitset over the n×m cell grid, reused across evaluations. */
  private val scratch = new java.util.BitSet(n * m)

  /** Union cell count over an iterator of compiled itemsets. */
  private def unionCellCount(rs: Iterator[CompiledItemset]): Long = {
    scratch.clear()
    rs.foreach(_.mark(scratch))
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
    * matrix. Vacuously 1 when upcov = 0, as in [[Metrics.scores]].
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
          if (mat.codes(rowIdxs(i))(colIdxs(c)) == mat.codes(rowIdxs(j))(colIdxs(c))) same += 1
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

  /** Exact scores of a sub-table, equal to [[Metrics.scores]]': its rows are
    * taken in rid order, each once, so diversity sums its pairs in the same
    * order.
    */
  def scores(sub: SubTable): Metrics.Scores = {
    val rows = mat.rowsOfRids(sub.rowIds)
    val cs = colIndices(sub.cols)
    val cc = cellCov(rows, cs)
    val dv = diversity(rows, cs)
    Metrics.Scores(cc, dv, alpha * cc + (1 - alpha) * dv)
  }

  /** Translate matrix indices to a [[SubTable]] (rids + column names). */
  def toSubTable(rowIdxs: Array[Int], colIdxs: Array[Int]): SubTable =
    SubTable(rowIdxs.map(mat.rids).toSeq, colIdxs.map(mat.cols).toSeq)

  /** Matrix column indices for a set of column names. */
  def colIndices(names: Seq[String]): Array[Int] = names.map(colIdx).toArray

  /** Matrix row indices for a set of rids, in their order. */
  def rowIndices(rids: Seq[Long]): Array[Int] = rids.map(mat.row).toArray
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
