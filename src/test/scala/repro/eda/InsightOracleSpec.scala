package repro.eda

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, when}
import repro.SparkSpec
import repro.core.{BinnedMatrix, Binning, ScorerSpec, Tables}
import repro.rules.SparkItemsetCount

import scala.util.Random

class InsightOracleSpec extends SparkSpec {

  val cols = Seq("a", "b", "c")
  def tok(c: String, v: String): String = Binning.token(c, v)

  /** Full binned table: a=1 and b=1 co-occur strongly (lift >> 1); c noise. */
  lazy val binned = {
    import spark.implicits._
    val rng = new Random(23)
    (0L until 500L).map { i =>
      if (i < 150) (i, tok("a", "1"), tok("b", "1"), tok("c", "x" + rng.nextInt(4)))
      else (i, tok("a", (2 + rng.nextInt(3)).toString),
        tok("b", (2 + rng.nextInt(3)).toString), tok("c", "x" + rng.nextInt(4)))
    }.toDF((Tables.Rid +: cols): _*)
  }
  lazy val mat: BinnedMatrix = BinnedMatrix.collect(binned, cols)

  /** Grading as it was done with Spark: counts from the distributed
    * reference counter, n from a count of the frame.
    */
  def sparkGrade(df: DataFrame, cs: Seq[String], insights: Seq[InsightOracle.Insight],
                 p: InsightOracle.Params = InsightOracle.Params()): Seq[Boolean] = {
    if (insights.isEmpty) return Seq.empty
    val singles = insights.flatMap(_.items).distinct.map(Vector(_))
    val counts = SparkItemsetCount.countItemsets(df, cs, singles ++ insights.map(_.items))
    val n = df.count().toDouble
    insights.map { ins =>
      val nAB = counts.getOrElse(ins.items.sorted, 0L).toDouble
      val nA = counts.getOrElse(Vector(ins.items(0)), 0L).toDouble
      val nB = counts.getOrElse(Vector(ins.items(1)), 0L).toDouble
      val lift = if (nA == 0 || nB == 0) 0.0 else nAB * n / (nA * nB)
      nAB / n >= p.minSupport && lift >= p.minLift
    }
  }

  test("analyst reports pairs repeated in at least two sub-table rows") {
    val subRows = Seq(
      Seq(tok("a", "1"), tok("b", "1"), tok("c", "x0")),
      Seq(tok("a", "1"), tok("b", "1"), tok("c", "x1")),
      Seq(tok("a", "2"), tok("b", "3"), tok("c", "x2")))
    val ins = InsightOracle.analyst(cols, subRows, maxInsights = 5, userSeed = 1)
    assert(ins.map(_.items).contains(Vector(tok("a", "1"), tok("b", "1")).sorted))
    // the a=2/b=3 pair appears once only -> not reported
    assert(!ins.map(_.items).contains(Vector(tok("a", "2"), tok("b", "3")).sorted))
  }

  test("analyst never reports a jointly-missing pair") {
    val nul = Binning.NullLabel
    val subRows = Seq(
      Seq(tok("a", nul), tok("b", nul), tok("c", "x0")),
      Seq(tok("a", nul), tok("b", nul), tok("c", "x0")))
    val ins = InsightOracle.analyst(cols, subRows, 5, userSeed = 2)
    ins.foreach { i =>
      assert(!i.items.forall(_.endsWith(Binning.Sep + nul)), s"null-null insight $i")
    }
    // but value-with-∅ is reportable
    assert(ins.exists(_.items.contains(tok("c", "x0"))))
  }

  test("maxInsights caps the report") {
    val subRows = (0 until 6).map(i => cols.map(c => tok(c, "same")))
    val ins = InsightOracle.analyst(cols, subRows, maxInsights = 2, userSeed = 3)
    assert(ins.size <= 2)
  }

  test("grading: genuine co-occurrence is correct, chance pair is not") {
    val genuine = InsightOracle.Insight(Vector(tok("a", "1"), tok("b", "1")).sorted)
    val chance = InsightOracle.Insight(Vector(tok("a", "2"), tok("c", "x0")).sorted)
    val graded = InsightOracle.grade(mat, Seq(genuine, chance))
    assert(graded == Seq(true, false))
  }

  test("grading an unseen pair is incorrect (zero support)") {
    val ghost = InsightOracle.Insight(Vector(tok("a", "1"), tok("b", "2")).sorted)
    assert(InsightOracle.grade(mat, Seq(ghost)) == Seq(false))
  }

  test("simulateUser counts written and correct insights") {
    val subRows = Seq(
      Seq(tok("a", "1"), tok("b", "1"), tok("c", "x0")),
      Seq(tok("a", "1"), tok("b", "1"), tok("c", "x1")),
      Seq(tok("a", "2"), tok("b", "2"), tok("c", "x2")),
      Seq(tok("a", "2"), tok("b", "2"), tok("c", "x3")))
    val r = InsightOracle.simulateUser(mat, cols, subRows, userSeed = 4)
    assert(r.written >= 1)
    assert(r.correct >= 1) // a=1 & b=1 is genuinely correlated
    assert(r.correct <= r.written)
    assert(r.hasInsight)
  }

  test("different users notice different tie-broken insights") {
    // 6 equally-frequent pairs, cap at 2 -> different seeds may differ
    val subRows = Seq(
      Seq(tok("a", "1"), tok("b", "1"), tok("c", "x0")),
      Seq(tok("a", "1"), tok("b", "1"), tok("c", "x0")))
    val picks = (1 to 10).map(s =>
      InsightOracle.analyst(cols, subRows, 1, userSeed = s).map(_.items).toSet)
    assert(picks.distinct.size > 1, "tie-breaking did not vary across users")
  }

  test("grade of empty insight list is empty") {
    assert(InsightOracle.grade(mat, Nil).isEmpty)
  }

  test("highlight-aware analyst reads pairs off the covered rules") {
    val rule = repro.rules.Rule(
      Seq(tok("a", "1")), Seq(tok("b", "1")), support = 0.3, confidence = 0.9)
    val subRows = Seq(
      Seq(tok("a", "4"), tok("b", "4"), tok("c", "x0")),
      Seq(tok("a", "3"), tok("b", "2"), tok("c", "x1")))
    val ins = InsightOracle.analystWithHighlights(cols, subRows, Seq(rule), 5, userSeed = 7)
    assert(ins.map(_.items).contains(Vector(tok("a", "1"), tok("b", "1")).sorted))
  }

  test("highlight-aware analyst skips trivial near-universal rules") {
    val trivial = repro.rules.Rule(
      Seq(tok("a", "1")), Seq(tok("b", "1")), support = 0.95, confidence = 1.0)
    val subRows = Seq(Seq(tok("a", "2"), tok("b", "2"), tok("c", "x0")))
    val ins = InsightOracle.analystWithHighlights(cols, subRows, Seq(trivial), 5, userSeed = 8)
    assert(!ins.map(_.items).contains(Vector(tok("a", "1"), tok("b", "1")).sorted))
  }

  test("simulateUser with highlights grades rule-derived insights correct") {
    val rule = repro.rules.Rule(
      Seq(tok("a", "1")), Seq(tok("b", "1")), support = 0.3, confidence = 0.9)
    val subRows = Seq(
      Seq(tok("a", "1"), tok("b", "1"), tok("c", "x0")),
      Seq(tok("a", "2"), tok("b", "3"), tok("c", "x1")))
    val r = InsightOracle.simulateUser(mat, cols, subRows,
      userSeed = 9, highlighted = Seq(rule))
    assert(r.correct >= 1) // the highlighted (a=1, b=1) pair is genuine
  }

  test("matrix grading equals grading through the Spark reference counter") {
    val nul = Binning.NullLabel
    (1 to 5).foreach { seed =>
      val (df0, rows, _) = ScorerSpec.randomCase(spark, seed)
      val cs = ScorerSpec.cols
      // Blank one column on a few rows, so that some pairs hold a ∅ token.
      val df = df0.withColumn("d", when(col(Tables.Rid) % 4 === 0, tok("d", nul)).otherwise(col("d")))
      val toks = (cs.flatMap(c => (0 until 3).map(v => tok(c, "v" + v))) :+ tok("d", nul)).distinct
      val rng = new Random(seed + 400)
      val pairs = Seq.fill(30) {
        val Seq(c1, c2) = rng.shuffle(cs).take(2)
        val pick = (c: String) => rng.shuffle(toks.filter(Binning.tokenCol(_) == c)).head
        Vector(pick(c1), pick(c2)).sorted
      } ++ Seq(
        Vector(tok("a", "zz"), tok("b", "v0")).sorted, // an unseen token
        Vector(tok("a", "zz"), tok("b", "yy")).sorted,
        rows.head._2.take(2).toVector.sorted)          // a pair that holds
      val insights = pairs.distinct.map(InsightOracle.Insight(_))
      // Thresholds low enough that some pairs pass and some fail.
      val p = InsightOracle.Params(minSupport = 0.02, minLift = 1.1)
      Seq(df, df.repartition(3)).foreach { in =>
        val got = InsightOracle.grade(BinnedMatrix.collect(in, cs), insights, p)
        assert(got == sparkGrade(in, cs, insights, p), s"seed=$seed")
        assert(got.contains(true) && got.contains(false), s"seed=$seed")
        assert(InsightOracle.grade(BinnedMatrix.collect(in, cs), insights) ==
          sparkGrade(in, cs, insights), s"seed=$seed")
      }
    }
  }

  test("matrix grading equals the Spark reference on the co-occurrence table") {
    val genuine = InsightOracle.Insight(Vector(tok("a", "1"), tok("b", "1")).sorted)
    val chance = InsightOracle.Insight(Vector(tok("a", "2"), tok("c", "x0")).sorted)
    val ghost = InsightOracle.Insight(Vector(tok("a", "1"), tok("b", "2")).sorted)
    val ins = Seq(genuine, chance, ghost)
    assert(InsightOracle.grade(mat, ins) == sparkGrade(binned, cols, ins))
  }
}
