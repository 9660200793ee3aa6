package repro.rules

import org.apache.spark.sql.DataFrame
import repro.core.BinnedMatrix

import scala.collection.mutable

/** Level-wise Apriori association-rule mining [Agrawal & Srikant, VLDB'94]
  * over a *binned* token table — the mining substrate behind the paper's
  * cell-coverage metric (§6.1: support 0.1, confidence 0.6, min rule size 3).
  *
  * Mining runs on the driver, over the table's [[BinnedMatrix]]: candidate
  * itemsets come level by level from apriori-gen, and support is counted
  * vertically [Zaki, IEEE TKDE 2000]. Each frequent token keeps its rows
  * (the matrix's `rowsOf` list) as a bitset; a candidate's count is the
  * popcount of the AND of its tokens' bitsets, so memory stays at
  * |L1| · n bits however many itemsets are frequent. Every row is mined:
  * [[BinnedMatrix.requireFits]] already bounds the matrix, and the paper
  * treats the rule set as an *evaluation* artifact, not part of the online
  * algorithm.
  */
object Apriori {

  /** Mining parameters; defaults follow the paper's experimental setup. */
  final case class Params(
      minSupport: Double = 0.1,
      minConfidence: Double = 0.6,
      minRuleSize: Int = 3,
      maxItemsetSize: Int = 4,
  ) {
    require(minSupport > 0 && minSupport <= 1, "minSupport in (0,1]")
    require(minConfidence >= 0 && minConfidence <= 1, "minConfidence in [0,1]")
    require(minRuleSize >= 1 && maxItemsetSize >= minRuleSize,
      "need minRuleSize >= 1 and maxItemsetSize >= minRuleSize")
  }

  /** A frequent itemset (tokens sorted) with its absolute count in the
    * `nRows` mined rows.
    */
  final case class Itemset(items: Vector[String], count: Long) {
    def support(nRows: Long): Double = count.toDouble / nRows
  }

  /** Result of the frequent-itemset phase. */
  final case class Frequents(itemsets: Seq[Itemset], nRows: Long) {
    lazy val countOf: Map[Vector[String], Long] =
      itemsets.map(s => s.items -> s.count).toMap
  }

  /** Frequent itemsets of sizes 1..maxItemsetSize at minSupport, level by
    * level: L1 in token order, then each level's frequent candidates in
    * [[genCandidates]] order.
    */
  def frequentItemsets(mat: BinnedMatrix, p: Params): Frequents = {
    val n = mat.n
    val minCount = math.max(1L, math.ceil(p.minSupport * n).toLong)
    // L1: ids are positions in token order.
    val l1 = mat.tokens.indices.filter(mat.rowsOf(_).length >= minCount)
      .sortBy(mat.tokens(_)).toArray
    val names = l1.map(mat.tokens)
    val rowSets = l1.map { c =>
      val b = new java.util.BitSet(n)
      mat.rowsOf(c).foreach(b.set)
      b
    }
    val all = mutable.ArrayBuffer[Itemset]()
    all ++= l1.map(c => Itemset(Vector(mat.tokens(c)), mat.rowsOf(c).length.toLong))

    val scratch = new java.util.BitSet(n)
    var level: Array[Array[Int]] = l1.indices.map(Array(_)).toArray
    var k = 2
    while (k <= p.maxItemsetSize && level.length > 1) {
      val next = mutable.ArrayBuffer[Array[Int]]()
      genCandidates(level).foreach { cand =>
        scratch.clear()
        scratch.or(rowSets(cand(0)))
        var j = 1
        while (j < cand.length) { scratch.and(rowSets(cand(j))); j += 1 }
        val count = scratch.cardinality().toLong
        if (count >= minCount) {
          next += cand
          all += Itemset(cand.toVector.map(names), count)
        }
      }
      level = next.toArray
      k += 1
    }
    Frequents(all.toSeq, n)
  }

  /** [[frequentItemsets]] over a binned frame (must carry `__rid`). */
  def frequentItemsets(binned: DataFrame, cols: Seq[String], p: Params): Frequents =
    frequentItemsets(BinnedMatrix.collect(binned, cols), p)

  /** Apriori-gen: join frequent (k-1)-sets sharing a (k-2)-prefix, prune
    * candidates with an infrequent (k-1)-subset. Inputs/outputs are sorted
    * id arrays; `level` must itself be sorted lexicographically (it is, by
    * construction from sorted L1 and this function's output order).
    */
  private[rules] def genCandidates(level: Array[Array[Int]]): Array[Array[Int]] = {
    val levelSet: Set[Seq[Int]] = level.iterator.map(_.toSeq).toSet
    val out = mutable.ArrayBuffer[Array[Int]]()
    val sorted = level.sortWith((a, b) => java.util.Arrays.compare(a, b) < 0)
    var i = 0
    while (i < sorted.length) {
      var j = i + 1
      var samePrefix = true
      while (j < sorted.length && samePrefix) {
        val a = sorted(i); val b = sorted(j)
        samePrefix = a.length == 1 ||
          java.util.Arrays.equals(a, 0, a.length - 1, b, 0, b.length - 1)
        if (samePrefix) {
          val cand = (a :+ b(b.length - 1)).sorted
          // Prune: every (k-1)-subset must be frequent.
          val allSubsFrequent = cand.indices.forall { d =>
            val sub = cand.patch(d, Nil, 1).toSeq
            levelSet.contains(sub)
          }
          if (allSubsFrequent) out += cand
        }
        j += 1
      }
      i += 1
    }
    // Dedup (two different joins can yield the same candidate).
    out.map(_.toSeq).distinct.map(_.toArray).toArray
  }

  /** Generate rules from frequent itemsets: every split of an itemset of
    * size >= minRuleSize into non-empty lhs/rhs with confidence
    * count(I)/count(lhs) >= minConfidence.
    */
  def rulesFrom(freq: Frequents, p: Params): Seq[Rule] = {
    val out = mutable.ArrayBuffer[Rule]()
    for (is <- freq.itemsets if is.items.size >= p.minRuleSize) {
      val items = is.items
      val n = items.size
      // Non-empty proper subsets as lhs, encoded by bitmask.
      var mask = 1
      while (mask < (1 << n) - 1) {
        val lhs = items.indices.collect { case i if (mask & (1 << i)) != 0 => items(i) }
        val rhs = items.indices.collect { case i if (mask & (1 << i)) == 0 => items(i) }
        val lhsCount = freq.countOf(lhs.toVector)
        val conf = is.count.toDouble / lhsCount
        if (conf >= p.minConfidence)
          out += Rule(lhs, rhs, is.support(freq.nRows), conf)
        mask += 1
      }
    }
    out.toSeq
  }

  /** End-to-end mining. */
  def mine(mat: BinnedMatrix, p: Params): Seq[Rule] =
    rulesFrom(frequentItemsets(mat, p), p)

  /** [[mine]] over a binned frame (must carry `__rid`). */
  def mine(binned: DataFrame, cols: Seq[String], p: Params = Params()): Seq[Rule] =
    mine(BinnedMatrix.collect(binned, cols), p)
}
