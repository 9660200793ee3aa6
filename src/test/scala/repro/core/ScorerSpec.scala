package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.SparkSpec
import repro.rules.Rule
import repro.select.Greedy

import scala.util.Random

/** The driver-side Scorer must agree exactly with the distributed Metrics —
  * they are independent implementations of Def. 3.6/3.7.
  */
class ScorerSpec extends SparkSpec {

  import ScorerSpec.cols

  def randomCase(seed: Int): (DataFrame, Seq[(Long, Seq[String])], Seq[Rule]) =
    ScorerSpec.randomCase(spark, seed)

  test("scorer cellCov/diversity/combined equal distributed Metrics on random cases") {
    (1 to 5).foreach { seed =>
      val (df, rows, rules) = randomCase(seed)
      val scorer = new Scorer(BinnedMatrix.collect(df, cols), rules)
      val rng = new Random(seed + 100)
      (1 to 8).foreach { _ =>
        val k = 1 + rng.nextInt(5)
        val l = 1 + rng.nextInt(4)
        val rowIdxs = rng.shuffle(rows.indices.toList).take(k).sorted.toArray
        val colIdxs = rng.shuffle(cols.indices.toList).take(l).sorted.toArray
        val sub = scorer.toSubTable(rowIdxs, colIdxs)
        val expected = Metrics.scores(df, cols, rules, sub)
        assert(math.abs(scorer.cellCov(rowIdxs, colIdxs) - expected.cellCov) < 1e-12,
          s"cellCov mismatch seed=$seed sub=$sub")
        assert(math.abs(scorer.diversity(rowIdxs, colIdxs) - expected.divers) < 1e-12,
          s"diversity mismatch seed=$seed sub=$sub")
        assert(math.abs(scorer.combined(rowIdxs, colIdxs) - expected.combined) < 1e-12,
          s"combined mismatch seed=$seed sub=$sub")
      }
    }
  }

  /** A random sub-table: rids in random order with one of them repeated,
    * columns in random order.
    */
  def randomSub(rows: Seq[(Long, Seq[String])], rng: Random): SubTable = {
    val rids = rng.shuffle(rows.map(_._1)).take(1 + rng.nextInt(5))
    SubTable(rng.shuffle(rids :+ rids(rng.nextInt(rids.size))),
      rng.shuffle(cols).take(1 + rng.nextInt(4)))
  }

  test("Scorer.scores equals Metrics.scores under == on random cases and repartitioned frames") {
    (1 to 5).foreach { seed =>
      val (df, rows, rules) = randomCase(seed)
      val rng = new Random(seed + 500)
      Seq(df, df.repartition(3)).foreach { in =>
        val mat = BinnedMatrix.collect(in, cols)
        val scorer = new Scorer(mat, rules)
        val scorer3 = new Scorer(mat, rules, alpha = 0.3)
        (1 to 8).foreach { _ =>
          val sub = randomSub(rows, rng)
          assert(scorer.scores(sub) == Metrics.scores(in, cols, rules, sub), s"seed=$seed sub=$sub")
          assert(scorer3.scores(sub) == Metrics.scores(in, cols, rules, sub, 0.3), s"seed=$seed sub=$sub")
        }
      }
    }
  }

  test("the matrix token reader equals Metrics.subTableTokens") {
    (1 to 5).foreach { seed =>
      val (df, rows, _) = randomCase(seed)
      val rng = new Random(seed + 600)
      Seq(df, df.repartition(3)).foreach { in =>
        val mat = BinnedMatrix.collect(in, cols)
        val rids = rows.map(_._1)
        val subs = Seq(
          SubTable(rids.take(4).reverse, cols),               // reversed rids
          SubTable(rids.slice(2, 5), Seq("d", "a", "c")),     // columns out of table order
          SubTable(Seq(rids(3), rids(1), rids(3)), Seq("b")), // a repeated rid
          SubTable(Nil, cols)) ++ Seq.fill(5)(randomSub(rows, rng))
        subs.foreach { sub =>
          assert(mat.subTableTokens(sub) == Metrics.subTableTokens(in, sub), s"seed=$seed sub=$sub")
        }
      }
    }
  }

  test("an unknown rid fails with a message that names it") {
    val (df, rows, rules) = randomCase(2)
    val scorer = new Scorer(BinnedMatrix.collect(df, cols), rules)
    Seq[() => Any](() => scorer.rowIndices(Seq(rows(0)._1, 999L)),
      () => scorer.scores(SubTable(Seq(999L), cols)),
      () => scorer.mat.subTableTokens(SubTable(Seq(999L), cols))).foreach { call =>
      val e = intercept[IllegalArgumentException](call())
      assert(e.getMessage.contains("rid 999"), e.getMessage)
    }
  }

  /** A random case whose R* holds every valid lhs/rhs split of each of a few
    * random itemsets, shuffled, and the same R* cut to one rule per itemset.
    */
  def allSplitsCase(seed: Int): (DataFrame, Seq[(Long, Seq[String])], Seq[Rule], Seq[Rule]) = {
    val (df, rows, _) = randomCase(seed)
    val rng = new Random(seed + 200)
    val itemsets = Seq.fill(6) {
      val rcols = rng.shuffle(cols).take(2 + rng.nextInt(3))
      // Half the items come from one existing row, so most itemsets hold somewhere.
      val row = rows(rng.nextInt(rows.size))._2
      rcols.map(c =>
        if (rng.nextBoolean()) row(cols.indexOf(c)) else Binning.token(c, "v" + rng.nextInt(3)))
    }.distinctBy(_.toSet)
    val allSplits = itemsets.flatMap { items =>
      (1 until (1 << items.size) - 1).map { mask =>
        val (lhs, rhs) = items.indices.partition(i => (mask & (1 << i)) != 0)
        Rule(lhs.map(items), rhs.map(items), 0.1, 0.6)
      }
    }
    val shuffled = rng.shuffle(allSplits)
    (df, rows, shuffled, shuffled.distinctBy(_.items))
  }

  /** Cells (row index, column) described by the rules, taken rule by rule. */
  def naiveCells(rows: Seq[(Long, Seq[String])], rules: Seq[Rule]): Set[(Int, String)] =
    rules.flatMap { r =>
      rows.indices.filter(i => r.holdsFor(rows(i)._2.toSet)).flatMap(i => r.columns.map(i -> _))
    }.toSet

  test("coverage over every split of each itemset equals one rule per itemset and a rule-by-rule reference") {
    var partial = 0
    (1 to 4).foreach { seed =>
      val (df, rows, allSplits, onePer) = allSplitsCase(seed)
      assert(allSplits.size > onePer.size)
      val mat = BinnedMatrix.collect(df, cols)
      val sAll = new Scorer(mat, allSplits)
      val sOne = new Scorer(mat, onePer)
      assert(sAll.itemsets.map(_.items).toSeq == onePer.map(_.items))
      val up = naiveCells(rows, allSplits).size.toLong
      assert(sAll.upcov == up && sOne.upcov == up, s"seed=$seed")
      assert(Metrics.describedCellCount(df, cols, allSplits) == up)
      assert(Metrics.describedCellCount(df, cols, onePer) == up)
      val rng = new Random(seed + 300)
      (1 to 4).foreach { _ =>
        val rowIdxs = rng.shuffle(rows.indices.toList).take(1 + rng.nextInt(5)).sorted.toArray
        val colIdxs = rng.shuffle(cols.indices.toList).take(2 + rng.nextInt(3)).sorted.toArray
        val sub = sAll.toSubTable(rowIdxs, colIdxs)
        val subRows = rowIdxs.toSeq.map(i => rows(i)._2.toSet)
        val covered = allSplits.filter(r =>
          r.columns.subsetOf(sub.cols.toSet) && subRows.exists(r.holdsFor))
        val cov = if (up == 0L) 1.0 else naiveCells(rows, covered).size.toDouble / up
        if (cov > 0 && cov < 1) partial += 1
        assert(sAll.cellCov(rowIdxs, colIdxs) == cov, s"seed=$seed sub=$sub")
        assert(sOne.cellCov(rowIdxs, colIdxs) == cov, s"seed=$seed sub=$sub")
        assert(sAll.combined(rowIdxs, colIdxs) == sOne.combined(rowIdxs, colIdxs))
        val exact = Metrics.scores(df, cols, allSplits, sub)
        assert(exact == Metrics.scores(df, cols, onePer, sub), s"seed=$seed sub=$sub")
        assert(exact.cellCov == cov, s"seed=$seed sub=$sub")
        assert(math.abs(exact.combined - sAll.combined(rowIdxs, colIdxs)) < 1e-12)
      }
      assert(Greedy.run(sAll, k = 2, l = 3, exhaustive = true).sub ==
        Greedy.run(sOne, k = 2, l = 3, exhaustive = true).sub, s"seed=$seed")
    }
    assert(partial > 0, "no sub-table had coverage strictly between 0 and 1")
  }

  test("upcov equals distributed describedCellCount") {
    (1 to 5).foreach { seed =>
      val (df, _, rules) = randomCase(seed)
      val scorer = new Scorer(BinnedMatrix.collect(df, cols), rules)
      assert(scorer.upcov == Metrics.describedCellCount(df, cols, rules))
    }
  }

  test("rules that reference unseen tokens match no rows") {
    val (df, _, _) = randomCase(1)
    val ghost = Rule(Seq(Binning.token("a", "zz"), Binning.token("b", "v0")),
      Seq(Binning.token("c", "v0")), 0.1, 0.6)
    val scorer = new Scorer(BinnedMatrix.collect(df, cols), Seq(ghost))
    assert(scorer.itemsets.head.matchRows.isEmpty)
    assert(scorer.upcov == 0L)
    assert(scorer.cellCov(Array(0), Array(0, 1, 2)) == 1.0) // vacuous
  }

  test("row/col index translation round-trips") {
    val (df, rows, rules) = randomCase(2)
    val scorer = new Scorer(BinnedMatrix.collect(df, cols), rules)
    val rids = Seq(rows(3)._1, rows(7)._1)
    assert(scorer.rowIndices(rids).toSeq == Seq(3, 7))
    assert(scorer.colIndices(Seq("c", "a")).toSeq == Seq(2, 0))
    val sub = scorer.toSubTable(Array(3, 7), Array(0, 2))
    assert(sub.rowIds == rids && sub.cols == Seq("a", "c"))
  }

  test("matchRows are exactly the rows the rule holds for") {
    val (df, rows, rules) = randomCase(3)
    val scorer = new Scorer(BinnedMatrix.collect(df, cols), rules)
    scorer.itemsets.foreach { cr =>
      val expected = rows.zipWithIndex.collect {
        case ((_, vs), i) if cr.items.forall(vs.toSet) => i
      }
      assert(cr.matchRows.toSeq == expected, s"itemset ${cr.items}")
    }
  }

  test("BinnedMatrix.collect preserves rid order and shape") {
    val (df, rows, _) = randomCase(4)
    val first = BinnedMatrix.collect(df, cols)
    // A repartitioned frame delivers its rows out of rid order.
    Seq(df, df.repartition(3)).foreach { in =>
      val mat = BinnedMatrix.collect(in, cols)
      assert(mat.n == rows.size && mat.m == 4)
      assert(mat.rids.toSeq == rows.map(_._1))
      assert(mat.codes(5).map(mat.tokens).toSeq == rows(5)._2)
      assert(mat.tokens.toSeq == first.tokens.toSeq)
    }
  }

  test("BinnedMatrix codes decode to the cells and rowsOf lists exactly the rows holding each token") {
    (1 to 5).foreach { seed =>
      val (df, rows, _) = randomCase(seed)
      val mat = BinnedMatrix.collect(df, cols)
      rows.indices.foreach { i =>
        cols.indices.foreach(j => assert(mat.tokens(mat.codes(i)(j)) == rows(i)._2(j), s"seed=$seed"))
      }
      mat.tokens.indices.foreach { c =>
        val rs = mat.rowsOf(c).toSeq
        assert(rs.zip(rs.drop(1)).forall { case (a, b) => a < b }, s"seed=$seed code=$c")
        assert(rs == rows.indices.filter(i => rows(i)._2.contains(mat.tokens(c))), s"seed=$seed code=$c")
        assert(mat.code(mat.tokens(c)) == c)
      }
      assert(mat.code(Binning.token("a", "zz")) == -1)
    }
  }
}

object ScorerSpec {

  val cols = Seq("a", "b", "c", "d")

  /** Random binned table, rules and sub-tables; deterministic in seed. */
  def randomCase(spark: SparkSession, seed: Int): (DataFrame, Seq[(Long, Seq[String])], Seq[Rule]) = {
    val rng = new Random(seed)
    val n = 20 + rng.nextInt(30)
    val rows = (0L until n).map { rid =>
      rid -> cols.map(c => Binning.token(c, "v" + rng.nextInt(3)))
    }
    import spark.implicits._
    val df = rows.map { case (rid, vs) => (rid, vs(0), vs(1), vs(2), vs(3)) }
      .toDF((Tables.Rid +: cols): _*)
    val rules = (0 until 10).map { _ =>
      val k = 1 + rng.nextInt(3)
      val rcols = rng.shuffle(cols).take(k + 1)
      val items = rcols.map(c => Binning.token(c, "v" + rng.nextInt(3)))
      Rule(items.init, Seq(items.last), 0.1, 0.6)
    }
    (df, rows, rules.distinctBy(_.items))
  }
}
