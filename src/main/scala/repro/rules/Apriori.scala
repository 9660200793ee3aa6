package repro.rules

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions._
import repro.core.Tables

import scala.collection.mutable

/** Level-wise Apriori association-rule mining [Agrawal & Srikant, VLDB'94]
  * over a *binned* token table — the mining substrate behind the paper's
  * cell-coverage metric (§6.1: support 0.1, confidence 0.6, min rule size 3).
  *
  * Distribution strategy: candidate itemsets live on the driver (they are
  * small after support pruning); support counting is one
  * `Dataset.mapPartitions` pass per level with the candidates broadcast,
  * each partition accumulating a local count vector. Rows are interned to
  * sorted arrays of frequent-token ids and checked against candidates via a
  * per-row bitset, so a level costs O(rows × candidates × level).
  *
  * For very large inputs, mining runs on a uniform row sample
  * (`miningSampleRows`, default 50K) — support estimates at 0.1-level
  * thresholds are stable at that size, and the paper itself treats the rule
  * set as an *evaluation* artifact, not part of the online algorithm.
  */
object Apriori {

  /** Mining parameters; defaults follow the paper's experimental setup. */
  final case class Params(
      minSupport: Double = 0.1,
      minConfidence: Double = 0.6,
      minRuleSize: Int = 3,
      maxItemsetSize: Int = 4,
      miningSampleRows: Long = 50000,
      seed: Long = 7,
  ) {
    require(minSupport > 0 && minSupport <= 1, "minSupport in (0,1]")
    require(minConfidence >= 0 && minConfidence <= 1, "minConfidence in [0,1]")
    require(minRuleSize >= 1 && maxItemsetSize >= minRuleSize,
      "need minRuleSize >= 1 and maxItemsetSize >= minRuleSize")
  }

  /** A frequent itemset (tokens sorted) with its absolute count in the
    * mining sample of `nRows` rows.
    */
  final case class Itemset(items: Vector[String], count: Long) {
    def support(nRows: Long): Double = count.toDouble / nRows
  }

  /** Result of the frequent-itemset phase. */
  final case class Frequents(itemsets: Seq[Itemset], nRows: Long) {
    lazy val countOf: Map[Vector[String], Long] =
      itemsets.map(s => s.items -> s.count).toMap
  }

  /** Rows of `binned` as token arrays, in `cols` order, optionally sampled
    * down to ~`cap` rows (deterministic in `seed`).
    */
  private def tokenRows(binned: DataFrame, cols: Seq[String],
                        cap: Long, seed: Long): (Dataset[Array[String]], Long) = {
    import binned.sparkSession.implicits._
    val base = binned.select(array(cols.map(col): _*).as("toks"))
    val n = base.count()
    val sampled =
      if (n <= cap) base
      else base.sample(withReplacement = false, cap.toDouble / n, seed)
    val ds = sampled.select($"toks").as[Seq[String]].map(_.toArray)
    val m = ds.cache().count()
    (ds, m)
  }

  /** Frequent itemsets of sizes 1..maxItemsetSize at minSupport. */
  def frequentItemsets(binned: DataFrame, cols: Seq[String], p: Params): Frequents = {
    import binned.sparkSession.implicits._
    val (rows, n) = tokenRows(binned, cols, p.miningSampleRows, p.seed)
    try {
      val minCount = math.max(1L, math.ceil(p.minSupport * n).toLong)

      // L1: one exploded aggregation.
      val l1 = rows.flatMap(_.toSeq).groupBy($"value").count()
        .where($"count" >= minCount)
        .as[(String, Long)].collect().sortBy(_._1)
      val dict: Map[String, Int] = l1.map(_._1).zipWithIndex.toMap
      val names: Array[String] = l1.map(_._1)

      val all = mutable.ArrayBuffer[Itemset]()
      all ++= l1.map { case (t, c) => Itemset(Vector(t), c) }

      // Rows interned to sorted arrays of frequent-token ids.
      val dictB = binned.sparkSession.sparkContext.broadcast(dict)
      val coded: Dataset[Array[Int]] = rows.map { toks =>
        val d = dictB.value
        toks.iterator.flatMap(d.get).toArray.sorted
      }
      coded.cache().count()

      var level: Array[Array[Int]] = l1.indices.map(Array(_)).toArray
      var k = 2
      while (k <= p.maxItemsetSize && level.length > 1) {
        val candidates = genCandidates(level)
        if (candidates.isEmpty) { level = Array.empty }
        else {
          val counts = countCandidates(coded, candidates, names.length)
          val next = mutable.ArrayBuffer[Array[Int]]()
          candidates.indices.foreach { i =>
            if (counts(i) >= minCount) {
              next += candidates(i)
              all += Itemset(candidates(i).toVector.map(names), counts(i))
            }
          }
          level = next.toArray
        }
        k += 1
      }
      coded.unpersist()
      dictB.destroy()
      Frequents(all.toSeq, n)
    } finally rows.unpersist()
  }

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
  def mine(binned: DataFrame, cols: Seq[String], p: Params = Params()): Seq[Rule] =
    rulesFrom(frequentItemsets(binned, cols, p), p)

  /** Count arbitrary candidate itemsets (tokens need not be frequent) over
    * the *full* binned table — used by the DuckDB oracle tests and by the
    * insight-grading oracle. Returns counts keyed by the sorted itemset.
    */
  def countItemsets(binned: DataFrame, cols: Seq[String],
                    candidates: Seq[Seq[String]]): Map[Vector[String], Long] = {
    import binned.sparkSession.implicits._
    if (candidates.isEmpty) return Map.empty
    val canon = candidates.map(_.sorted.toVector).distinct
    val tokens = canon.flatten.distinct.sorted.toArray
    val dict = tokens.zipWithIndex.toMap
    val cands: Array[Array[Int]] = canon.map(_.map(dict).toArray.sorted).toArray
    // Rows as ids of the candidates' tokens; other tokens cannot matter.
    val coded = binned.select(array(cols.map(col): _*).as("toks")).as[Seq[String]]
      .map(_.iterator.flatMap(dict.get).toArray)
    canon.zip(countCandidates(coded, cands, tokens.length)).toMap
  }

  /** Support counting, one pass: for each candidate (sorted token ids), the
    * number of rows (token ids in `[0, nTokens)`) that contain all of it.
    * The candidates are broadcast and each partition accumulates a local
    * count vector over a per-row bitset of present tokens.
    */
  private def countCandidates(rows: Dataset[Array[Int]], cands: Array[Array[Int]],
                              nTokens: Int): Array[Long] = {
    import rows.sparkSession.implicits._
    val candB = rows.sparkSession.sparkContext.broadcast(cands)
    try rows.mapPartitions { it =>
      val cs = candB.value
      val local = new Array[Long](cs.length)
      val present = new java.util.BitSet(nTokens)
      it.foreach { row =>
        present.clear()
        row.foreach(present.set)
        var i = 0
        while (i < cs.length) {
          val c = cs(i)
          var j = 0; var ok = true
          while (ok && j < c.length) { ok = present.get(c(j)); j += 1 }
          if (ok) local(i) += 1
          i += 1
        }
      }
      Iterator.single(local)
    }.reduce { (a, b) => var i = 0; while (i < a.length) { a(i) += b(i); i += 1 }; a }
    finally candB.destroy()
  }
}
