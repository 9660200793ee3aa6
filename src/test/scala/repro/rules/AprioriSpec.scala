package repro.rules

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.{LongType, StringType, StructField, StructType}
import org.scalacheck.{Gen, Prop}
import repro.core.{BinnedMatrix, Binning, Tables}
import repro.{Oracle, PropSupport, SparkSpec}

import scala.util.Random

class AprioriSpec extends SparkSpec with PropSupport {

  val cols = Seq("x", "y", "z")

  def tok(c: String, v: String): String = Binning.token(c, v)

  /** Small binned table with a planted co-occurrence {x=a, y=a, z=a}. */
  lazy val planted: DataFrame = {
    import spark.implicits._
    val rng = new Random(7)
    val rows = (0L until 200L).map { rid =>
      if (rid < 60) (rid, tok("x", "a"), tok("y", "a"), tok("z", "a"))
      else (rid, tok("x", "v" + rng.nextInt(3)), tok("y", "w" + rng.nextInt(3)),
        tok("z", "u" + rng.nextInt(3)))
    }
    rows.toDF((Tables.Rid +: cols): _*)
  }

  /** Driver-side brute-force frequent itemsets for verification. */
  def bruteForce(df: DataFrame, minSupport: Double, maxLen: Int,
                 cs: Seq[String] = cols): Map[Vector[String], Long] = {
    val rows = df.select(cs.map(org.apache.spark.sql.functions.col): _*)
      .collect().map(r => cs.indices.map(r.getString).toSet)
    val n = rows.length
    val minCount = math.ceil(minSupport * n).toLong
    val allTokens = rows.flatten.distinct.toSeq.sorted
    (1 to maxLen).flatMap { k =>
      allTokens.combinations(k).map { c =>
        c.toVector -> rows.count(r => c.forall(r.contains)).toLong
      }.filter(_._2 >= minCount)
    }.toMap
  }

  test("frequent itemsets match brute force") {
    val p = Apriori.Params(minSupport = 0.2, maxItemsetSize = 3)
    val freq = Apriori.frequentItemsets(planted, cols, p)
    val expected = bruteForce(planted, 0.2, 3)
    val got = freq.itemsets.map(s => s.items -> s.count).toMap
    assert(got == expected)
    assert(freq.nRows == 200L)
  }

  test("the planted triple is found with correct count") {
    val p = Apriori.Params(minSupport = 0.2, maxItemsetSize = 3)
    val freq = Apriori.frequentItemsets(planted, cols, p)
    val triple = Vector(tok("x", "a"), tok("y", "a"), tok("z", "a")).sorted
    assert(freq.countOf.get(triple).contains(60L))
  }

  test("support is anti-monotone: subsets count at least as much") {
    val p = Apriori.Params(minSupport = 0.1, maxItemsetSize = 3)
    val freq = Apriori.frequentItemsets(planted, cols, p)
    val counts = freq.countOf
    for ((items, c) <- counts if items.size > 1; d <- items.indices) {
      val sub = items.patch(d, Nil, 1)
      assert(counts(sub) >= c, s"anti-monotonicity violated: $sub < $items")
    }
  }

  test("itemset support counts match DuckDB (oracle)") {
    val p = Apriori.Params(minSupport = 0.2, maxItemsetSize = 3)
    val freq = Apriori.frequentItemsets(planted, cols, p)
    val triple = Vector(tok("x", "a"), tok("y", "a"), tok("z", "a")).sorted
    import spark.implicits._
    val sparkCount = Seq(freq.countOf(triple)).toDF("n")
      .select(org.apache.spark.sql.functions.col("n").cast("long").as("n"))
    Oracle.assertEquivalent(sparkCount,
      s"SELECT CAST(COUNT(*) AS BIGINT) AS n FROM t " +
        s"WHERE x = '${tok("x", "a")}' AND y = '${tok("y", "a")}' AND z = '${tok("z", "a")}'",
      "t" -> planted.drop(Tables.Rid))
  }

  test("countItemsets agrees with frequentItemsets on frequent sets") {
    val p = Apriori.Params(minSupport = 0.2, maxItemsetSize = 3)
    val freq = Apriori.frequentItemsets(planted, cols, p)
    val counts = SparkItemsetCount.countItemsets(planted, cols, freq.itemsets.map(_.items))
    freq.itemsets.foreach { is =>
      assert(counts(is.items) == is.count, s"mismatch on ${is.items}")
    }
  }

  test("countItemsets counts infrequent and unseen itemsets too") {
    val counts = SparkItemsetCount.countItemsets(planted, cols,
      Seq(Seq(tok("x", "nope")), Seq(tok("x", "a"), tok("y", "w0"))))
    assert(counts(Vector(tok("x", "nope"))) == 0L)
    assert(counts(Vector(tok("x", "a"), tok("y", "w0")).sorted) == 0L)
  }

  test("rule generation: confidence and sizes are correct") {
    val p = Apriori.Params(minSupport = 0.2, minConfidence = 0.5,
      minRuleSize = 3, maxItemsetSize = 3)
    val rules = Apriori.mine(planted, cols, p)
    assert(rules.nonEmpty)
    rules.foreach { r =>
      assert(r.size >= 3)
      assert(r.lhs.nonEmpty && r.rhs.nonEmpty)
      assert(r.confidence >= 0.5 && r.confidence <= 1.0 + 1e-12)
      assert(r.support >= 0.2 - 1e-12)
    }
    // The planted triple yields rules like {x=a, y=a} -> {z=a} with conf 1.0.
    val perfect = rules.find(r =>
      r.lhs.toSet == Set(tok("x", "a"), tok("y", "a")) && r.rhs == Seq(tok("z", "a")))
    assert(perfect.nonEmpty)
    assert(math.abs(perfect.get.confidence - 1.0) < 1e-9)
    assert(math.abs(perfect.get.support - 0.3) < 1e-9)
  }

  test("confidence filters out weak directions") {
    // {z=u0} -> {x=a...} style rules have low confidence and must be absent.
    val p = Apriori.Params(minSupport = 0.2, minConfidence = 0.9,
      minRuleSize = 3, maxItemsetSize = 3)
    val rules = Apriori.mine(planted, cols, p)
    rules.foreach(r => assert(r.confidence >= 0.9))
  }

  test("minRuleSize excludes small itemsets from rule generation") {
    // Only 3 columns -> no itemset of size 4 exists -> no rules.
    val p = Apriori.Params(minSupport = 0.2, minConfidence = 0.0,
      minRuleSize = 4, maxItemsetSize = 4)
    assert(Apriori.mine(planted, cols, p).isEmpty)
    // With minRuleSize 3 the same table does produce rules.
    val p3 = p.copy(minRuleSize = 3, maxItemsetSize = 3)
    assert(Apriori.mine(planted, cols, p3).nonEmpty)
  }

  /** A random binned table: n rows, m columns, column j drawing from
    * `values(j)` values; deterministic in `seed`.
    */
  def randomBinned(n: Int, values: Seq[Int], seed: Long): (DataFrame, Seq[String]) = {
    val rng = new Random(seed)
    val cs = values.indices.map(j => s"c$j")
    val rows = (0 until n).map { rid =>
      Row.fromSeq(rid.toLong +: cs.zip(values).map { case (c, v) => tok(c, "v" + rng.nextInt(v)) })
    }
    val schema = StructType(StructField(Tables.Rid, LongType) +: cs.map(StructField(_, StringType)))
    (spark.createDataFrame(spark.sparkContext.parallelize(rows, 2), schema), cs)
  }

  test("matrix miner equals brute force and Spark counting on random tables") {
    val cases = for {
      n <- Gen.chooseNum(0, 60)
      values <- Gen.chooseNum(2, 5).flatMap(m => Gen.listOfN(m, Gen.chooseNum(1, 4)))
      minSupport <- Gen.chooseNum(0.05, 0.5)
      maxLen <- Gen.chooseNum(1, 4)
      seed <- Gen.chooseNum(0L, 1000000L)
    } yield (n, values, minSupport, maxLen, seed)
    checkProp(Prop.forAllNoShrink(cases) { case (n, values, minSupport, maxLen, seed) =>
      val (df, cs) = randomBinned(n, values, seed)
      val p = Apriori.Params(minSupport = minSupport, minRuleSize = 1, maxItemsetSize = maxLen)
      val freq = Apriori.frequentItemsets(BinnedMatrix.collect(df, cs), p)
      val got = freq.itemsets.map(s => s.items -> s.count)
      val counted = SparkItemsetCount.countItemsets(df, cs, freq.itemsets.map(_.items))
      val sizes = freq.itemsets.map(_.items.size)
      val l1 = freq.itemsets.takeWhile(_.items.size == 1).map(_.items.head)
      Prop.propBoolean(got.toMap == bruteForce(df, minSupport, maxLen, cs) &&
        got.size == got.toMap.size &&
        got.forall { case (items, c) => counted(items) == c && items == items.sorted } &&
        l1 == l1.sorted && sizes.zip(sizes.drop(1)).forall { case (a, b) => a <= b } &&
        freq.nRows == n &&
        Apriori.frequentItemsets(df.repartition(3), cs, p) == freq) :|
        s"n=$n values=$values minSupport=$minSupport maxLen=$maxLen seed=$seed"
    })
  }

  test("genCandidates joins on shared prefix and prunes") {
    // L2 = {01, 02, 12, 13}: join gives 012 (kept: all subsets frequent)
    // and 123 (pruned: 23 missing).
    val level = Array(Array(0, 1), Array(0, 2), Array(1, 2), Array(1, 3))
    val cands = Apriori.genCandidates(level).map(_.toSeq)
    assert(cands.toSet == Set(Seq(0, 1, 2)))
  }

  test("genCandidates on singletons yields all pairs") {
    val level = Array(Array(0), Array(1), Array(2))
    val cands = Apriori.genCandidates(level).map(_.toSeq).toSet
    assert(cands == Set(Seq(0, 1), Seq(0, 2), Seq(1, 2)))
  }

  test("params are validated") {
    intercept[IllegalArgumentException] { Apriori.Params(minSupport = 0.0) }
    intercept[IllegalArgumentException] { Apriori.Params(minConfidence = 1.5) }
    intercept[IllegalArgumentException] {
      Apriori.Params(minRuleSize = 3, maxItemsetSize = 2)
    }
  }
}
