package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, udf}
import org.scalacheck.{Gen, Prop}
import repro.{PropSupport, SparkSpec}
import repro.data.Datasets
import repro.rules.{Apriori, Rule}

import scala.util.Random

/** `Metrics`' one-pass scores against the two-action reference they
  * replaced ([[TwoActionMetrics]]): `==`-equal `Scores` and equal upcov, on
  * random binned tables and on seeded sub-tables of the FL-like table, each
  * held as the binned frame `binnedAs` makes of it.
  */
abstract class OnePassMetricsChecks(binnedAs: OnePassMetricsChecks.Kind)
    extends SparkSpec with PropSupport {

  /** The one-pass scores of `sub`, after checking them against the reference. */
  def same(binned: DataFrame, cols: Seq[String], rules: Seq[Rule], sub: SubTable,
           alpha: Double = 0.5): Metrics.Scores = {
    val one = Metrics.scores(binned, cols, rules, sub, alpha)
    val two = TwoActionMetrics.scores(binned, cols, rules, sub, alpha)
    assert(one == two, s"sub = $sub, alpha = $alpha")
    one
  }

  def upcov(binned: DataFrame, cols: Seq[String], rules: Seq[Rule]): Long = {
    val one = Metrics.describedCellCount(binned, cols, rules)
    assert(one == TwoActionMetrics.cellCounts(binned, cols, rules.map(_.items).distinct, Set.empty)._1)
    one
  }

  def partitioned(df: DataFrame): Seq[DataFrame] = Seq(df, df.repartition(1), df.repartition(7))

  /** [[ScorerSpec.randomCase]] with its binned frame held as `binnedAs`. */
  def randomCase(seed: Int): (DataFrame, Seq[(Long, Seq[String])], Seq[Rule]) = {
    val (df, rows, rules) = ScorerSpec.randomCase(spark, seed)
    (binnedAs.hold(df), rows, rules)
  }

  test("one pass equals the reference on random binned tables") {
    checkProp(Prop.forAll(Gen.choose(1, 1000000)) { seed =>
      val (df, rows, rules) = randomCase(seed)
      val rng = new Random(seed)
      val binned = partitioned(df)(rng.nextInt(3))
      val cols = ScorerSpec.cols
      upcov(binned, cols, rules)
      (1 to 4).foreach { _ =>
        val k = 1 + rng.nextInt(6)
        // Now and then a rid the table does not hold.
        val rids = rng.shuffle(rows.map(_._1)).take(k) ++ Seq(1000L).filter(_ => rng.nextInt(4) == 0)
        val l = 1 + rng.nextInt(cols.size)
        same(binned, cols, rules, SubTable(rids, rng.shuffle(cols).take(l)), rng.nextDouble())
      }
      true
    }, minSuccessful = 20)
  }

  test("no rules: coverage 1, on one pass") {
    val (df, rows, _) = randomCase(3)
    val sub = SubTable(rows.take(3).map(_._1), ScorerSpec.cols.take(2))
    assert(upcov(df, ScorerSpec.cols, Nil) == 0L)
    assert(same(df, ScorerSpec.cols, Nil, sub).cellCov == 1.0)
  }

  test("a sub-table whose rows satisfy no itemset covers nothing") {
    val found = (1 to 20).iterator.map(randomCase).collectFirst {
      case (df, rows, rules) if rows.exists { case (_, toks) => !rules.exists(_.holdsFor(toks.toSet)) } =>
        val bare = rows.filter { case (_, toks) => !rules.exists(_.holdsFor(toks.toSet)) }.take(3)
        val s = same(df, ScorerSpec.cols, rules, SubTable(bare.map(_._1), ScorerSpec.cols))
        assert(upcov(df, ScorerSpec.cols, rules) > 0L)
        assert(s.cellCov == 0.0)
    }
    assert(found.nonEmpty)
  }

  test("a single-row sub-table has diversity 1") {
    val (df, rows, rules) = randomCase(5)
    rows.take(4).foreach { case (rid, _) =>
      assert(same(df, ScorerSpec.cols, rules, SubTable(Seq(rid), ScorerSpec.cols.take(3))).divers == 1.0)
    }
  }

  /** The FL-like table binned with the default 5 bins, and its R*. */
  lazy val fl: (DataFrame, Seq[String], Seq[Rule], Seq[String], Seq[Long]) = {
    val (df, meta) = Datasets.flights(spark, 0.0)
    val binModel = Binning.fit(df, SubTab.Params().nBins)
    val binned = binnedAs.bin(binModel, df)
    val mat = BinnedMatrix.collect(binned, binModel.cols)
    val rules = Rule.targetFilter(Apriori.mine(mat, Apriori.Params()), meta.targets.toSet)
    (binned, binModel.cols, rules, meta.targets, mat.rids.toSeq)
  }

  /** A seeded sub-table shaped like the benchmark's evaluate rounds: 8–12
    * rows and max(|targets| + 1, 5–10) columns, targets included.
    */
  def flSub(rnd: Random): SubTable = {
    val (_, cols, _, targets, rids) = fl
    val k = 8 + rnd.nextInt(5)
    val l = math.max(targets.size + 1, 5 + rnd.nextInt(6))
    val picked = (targets ++ rnd.shuffle(cols.filterNot(targets.contains)).take(l - targets.size)).toSet
    SubTable(rnd.shuffle(rids).take(k).sorted, cols.filter(picked))
  }

  test("one pass equals the reference on 50 seeded sub-tables of the FL-like table") {
    val (binned, cols, rules, _, _) = fl
    assert(rules.map(_.items).distinct.size > 1000)
    upcov(binned, cols, rules)
    val rnd = new Random(10101)
    val covs = (1 to 50).map(_ => same(binned, cols, rules, flSub(rnd)).cellCov)
    assert(covs.distinct.size > 10 && covs.forall(_ > 0.0))
  }

  test("FL-like edge shapes: targets only, l = m, one row, no rules") {
    val (binned, cols, rules, targets, rids) = fl
    val rnd = new Random(7)
    val rows = rnd.shuffle(rids).take(10).sorted
    same(binned, cols, rules, SubTable(rows, targets))
    same(binned, cols, rules, SubTable(rows, cols))
    assert(same(binned, cols, rules, SubTable(rows.take(1), cols)).divers == 1.0)
    assert(same(binned, cols, Nil, SubTable(rows, cols)).cellCov == 1.0)
  }

  test("the FL-like frame repartitioned to 1 and to 7 partitions gives the same scores") {
    val (binned, cols, rules, _, _) = fl
    val rnd = new Random(20202)
    val subs = Seq.fill(5)(flSub(rnd))
    val base = subs.map(Metrics.scores(binned, cols, rules, _))
    val up = upcov(binned, cols, rules)
    partitioned(binned).tail.foreach { df =>
      assert(upcov(df, cols, rules) == up)
      assert(subs.map(same(df, cols, rules, _)) == base)
    }
  }
}

object OnePassMetricsChecks {

  /** A way to hold a binned frame. */
  trait Kind {
    /** `binned`, a binned frame, held this way. */
    def hold(binned: DataFrame): DataFrame
    /** `df` binned by `m` and held this way. */
    def bin(m: Binning.BinModel, df: DataFrame): DataFrame
  }

  /** Stored rows with the lineage cut, as `transform` returns them. */
  object Checkpointed extends Kind {
    def hold(binned: DataFrame): DataFrame = binned.localCheckpoint(eager = true, Binning.Storage)
    def bin(m: Binning.BinModel, df: DataFrame): DataFrame = m.transform(df)
  }

  /** A cached lazy UDF projection, as `transform` used to return it. */
  object CachedProjection extends Kind {
    def hold(binned: DataFrame): DataFrame = {
      val same = udf((t: String) => t)
      binned.select(col(Tables.Rid) +: Tables.dataCols(binned).map(c => same(col(c)).as(c)): _*).cache()
    }
    def bin(m: Binning.BinModel, df: DataFrame): DataFrame = LazyBinning.transform(m, df).cache()
  }

  /** The rows collected into a local relation. */
  object Local extends Kind {
    def hold(binned: DataFrame): DataFrame =
      binned.sparkSession.createDataFrame(java.util.Arrays.asList(binned.collect(): _*), binned.schema)
    def bin(m: Binning.BinModel, df: DataFrame): DataFrame = {
      val stored = m.transform(df)
      try hold(stored) finally Binning.release(stored)
    }
  }
}

class OnePassMetricsSpec extends OnePassMetricsChecks(OnePassMetricsChecks.Checkpointed)

class OnePassMetricsCachedProjectionSpec extends OnePassMetricsChecks(OnePassMetricsChecks.CachedProjection)

class OnePassMetricsLocalFrameSpec extends OnePassMetricsChecks(OnePassMetricsChecks.Local)
