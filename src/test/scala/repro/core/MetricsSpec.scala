package repro.core

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.rules.Rule

/** Validates the informativeness metrics against the paper's own worked
  * example (Fig. 3/4 and Examples 3.8/3.9): the example table T̂, its rule
  * set (all rules with CANCELLED on the right, >= 2 columns on the left,
  * holding for >= 2 rows), 36 describable cells, coverage 28/26/24 for the
  * three sub-tables, diversities 0.83/0.92 and combined scores 0.80/0.79.
  */
class MetricsSpec extends SparkSpec {

  val cols = Seq("CANCELLED", "DEPTIME", "YEAR", "SCHEDDEP", "DISTANCE")

  // Rows of T̂ (Fig. 3), values already bin names; row ids 1..8.
  val data: Seq[(Long, Seq[String])] = Seq(
    1L -> Seq("1", "NaN", "2015", "afternoon", "short"),
    2L -> Seq("1", "NaN", "2015", "afternoon", "medium"),
    3L -> Seq("1", "NaN", "2015", "morning", "medium"),
    4L -> Seq("1", "NaN", "2015", "morning", "short"),
    5L -> Seq("0", "morning", "2016", "morning", "medium"),
    6L -> Seq("0", "morning", "2015", "morning", "medium"),
    7L -> Seq("0", "evening", "2015", "evening", "long"),
    8L -> Seq("0", "evening", "2015", "afternoon", "long"),
  )

  def tok(c: String, v: String): String = Binning.token(c, v)

  lazy val binned: DataFrame = {
    import spark.implicits._
    data.map { case (rid, vs) =>
      (rid, tok(cols(0), vs(0)), tok(cols(1), vs(1)), tok(cols(2), vs(2)),
        tok(cols(3), vs(3)), tok(cols(4), vs(4)))
    }.toDF((Tables.Rid +: cols): _*)
  }

  /** Brute-force R̂: every rule {(c1,v1),(c2,v2),...} -> {CANCELLED=v} with
    * >= 2 lhs columns, holding for >= 2 rows of T̂.
    */
  lazy val rules: Seq[Rule] = {
    val nonTarget = cols.tail
    val byRow: Seq[Map[String, String]] =
      data.map { case (_, vs) => cols.zip(vs).toMap }
    val out = for {
      row <- byRow
      k <- 2 to nonTarget.size
      sub <- nonTarget.combinations(k)
      lhs = sub.map(c => tok(c, row(c)))
      rhs = Seq(tok("CANCELLED", row("CANCELLED")))
      holds = byRow.count(r => sub.forall(c => r(c) == row(c)) &&
        r("CANCELLED") == row("CANCELLED"))
      if holds >= 2
    } yield Rule(lhs, rhs, holds / 8.0, 1.0)
    out.distinctBy(_.items)
  }

  def sub(rows: Seq[Long], cs: Seq[String]): SubTable = SubTable(rows, cs)

  val t1 = sub(Seq(1L, 5L, 7L), Seq("CANCELLED", "DEPTIME", "YEAR", "DISTANCE"))
  val t2 = sub(Seq(1L, 5L, 7L), Seq("CANCELLED", "DEPTIME", "YEAR", "SCHEDDEP"))
  val t3 = sub(Seq(1L, 5L, 7L), Seq("CANCELLED", "DEPTIME", "SCHEDDEP", "DISTANCE"))

  test("the example rule set describes exactly 36 cells (upcov)") {
    assert(Metrics.describedCellCount(binned, cols, rules) == 36L)
  }

  test("T̂(1) covers 28 cells") {
    val subRows = Metrics.subTableTokens(binned, t1).map(_.toSet)
    val covered = Metrics.coveredRules(rules, subRows, t1.cols.toSet)
    assert(Metrics.describedCellCount(binned, cols, covered) == 28L)
  }

  test("T̂(2) covers 26 cells") {
    val subRows = Metrics.subTableTokens(binned, t2).map(_.toSet)
    val covered = Metrics.coveredRules(rules, subRows, t2.cols.toSet)
    assert(Metrics.describedCellCount(binned, cols, covered) == 26L)
  }

  test("T̂(3) covers 24 cells") {
    val subRows = Metrics.subTableTokens(binned, t3).map(_.toSet)
    val covered = Metrics.coveredRules(rules, subRows, t3.cols.toSet)
    assert(Metrics.describedCellCount(binned, cols, covered) == 24L)
  }

  test("cellCoverage normalizes by upcov: 28/36 and 24/36") {
    assert(math.abs(Metrics.scores(binned, cols, rules, t1).cellCov - 28.0 / 36) < 1e-9)
    assert(math.abs(Metrics.scores(binned, cols, rules, t3).cellCov - 24.0 / 36) < 1e-9)
  }

  test("diversity of T̂(1) is 0.83 (Example 3.8)") {
    val d = Metrics.scores(binned, cols, rules, t1).divers
    assert(math.abs(d - (1.0 - (0.25 + 0.0 + 0.25) / 3)) < 1e-9)
    assert(math.abs(d - 0.8333) < 0.001)
  }

  test("diversity of T̂(3) is 0.92 (Example 3.8)") {
    val d = Metrics.scores(binned, cols, rules, t3).divers
    assert(math.abs(d - (1.0 - 0.25 / 3)) < 1e-9)
    assert(math.abs(d - 0.9167) < 0.001)
  }

  test("combined scores are 0.80 for T̂(1) and 0.79 for T̂(3) (Example 3.9)") {
    val s1 = Metrics.scores(binned, cols, rules, t1).combined
    val s3 = Metrics.scores(binned, cols, rules, t3).combined
    assert(math.abs(s1 - (0.5 * 28 / 36 + 0.5 * 0.83333)) < 1e-3)
    assert(math.abs(s3 - (0.5 * 24 / 36 + 0.5 * 0.91667)) < 1e-3)
    assert(s1 > s3) // T̂(1) is the optimal sub-table in the example
  }

  test("jaccard counts same-bin cells") {
    assert(Metrics.jaccard(Seq("a", "b", "c", "d"), Seq("a", "x", "c", "y")) == 0.5)
    assert(Metrics.jaccard(Seq.empty, Seq.empty) == 0.0)
  }

  test("jaccard requires aligned rows") {
    intercept[IllegalArgumentException] { Metrics.jaccard(Seq("a"), Seq("a", "b")) }
  }

  test("diversity of a single row is 1.0") {
    assert(Metrics.diversity(Seq(Seq("a", "b"))) == 1.0)
  }

  test("diversity of identical rows is 0.0") {
    assert(Metrics.diversity(Seq(Seq("a", "b"), Seq("a", "b"), Seq("a", "b"))) == 0.0)
  }

  test("describedCellCount of no rules is 0, coverage vacuously 1") {
    assert(Metrics.describedCellCount(binned, cols, Nil) == 0L)
    assert(Metrics.scores(binned, cols, Nil, t1).cellCov == 1.0)
  }

  test("coveredRules requires both column containment and a matching row") {
    val r = Rule(Seq(tok("DEPTIME", "NaN"), tok("YEAR", "2015")),
      Seq(tok("CANCELLED", "1")), 0.5, 1.0)
    // columns present, matching row present (row 1)
    val rows1 = Metrics.subTableTokens(binned, t1).map(_.toSet)
    assert(Metrics.coveredRules(Seq(r), rows1, t1.cols.toSet) == Seq(r))
    // columns present but no matching row (rows 5,7 only)
    val t1b = sub(Seq(5L, 7L), t1.cols)
    val rows2 = Metrics.subTableTokens(binned, t1b).map(_.toSet)
    assert(Metrics.coveredRules(Seq(r), rows2, t1b.cols.toSet).isEmpty)
    // matching row but missing column (drop YEAR)
    val t1c = sub(Seq(1L), Seq("CANCELLED", "DEPTIME", "DISTANCE"))
    val rows3 = Metrics.subTableTokens(binned, t1c).map(_.toSet)
    assert(Metrics.coveredRules(Seq(r), rows3, t1c.cols.toSet).isEmpty)
  }

  test("subTableTokens returns rows in rid order projected on sub columns") {
    val tks = Metrics.subTableTokens(binned, t1)
    assert(tks.size == 3)
    assert(tks.head == t1.cols.map(c => tok(c, data.head._2(cols.indexOf(c)))))
  }

  test("scores bundles the three metrics consistently") {
    val s = Metrics.scores(binned, cols, rules, t1)
    assert(math.abs(s.combined - (0.5 * s.cellCov + 0.5 * s.divers)) < 1e-12)
  }

  test("scores, cellCoverage and describedCellCount each run one Spark job") {
    val cached = binned.repartition(3).cache()
    cached.count()
    Seq(binned, cached).foreach { df =>
      assert(jobs(Metrics.scores(df, cols, rules, t1)) == 1)
      assert(jobs(Metrics.scores(df, cols, rules, t3).cellCov) == 1)
      assert(jobs(Metrics.describedCellCount(df, cols, rules)) == 1)
    }
    cached.unpersist()
  }

  test("a sub-table column outside the scored columns is rejected by name") {
    val bad = sub(Seq(1L, 5L), Seq("CANCELLED", "ARRTIME"))
    Seq[() => Any](() => Metrics.scores(binned, cols, rules, bad),
      () => Metrics.scores(binned, cols.take(3), Nil, t1)).foreach { call =>
      val e = intercept[IllegalArgumentException](call())
      assert(e.getMessage.contains("sub-table column"), e.getMessage)
    }
    assert(intercept[IllegalArgumentException](Metrics.scores(binned, cols, rules, bad))
      .getMessage.contains("'ARRTIME'"))
  }

  test("target filter keeps only rules touching target columns") {
    val kept = Rule.targetFilter(rules, Set("DISTANCE"))
    assert(kept.nonEmpty && kept.forall(_.columns.contains("DISTANCE")))
    assert(Rule.targetFilter(rules, Set.empty) == rules)
  }
}
