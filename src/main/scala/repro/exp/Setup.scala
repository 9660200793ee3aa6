package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.data.Datasets
import repro.embed.EmbDI
import repro.rules.{Apriori, Rule}
import repro.select.{MAB, NaiveClustering, RandomBaseline}

/** Shared experiment context: a dataset, its SubTab pre-processing, the
  * mined evaluation rules (target-filtered, as the paper's metric
  * prescribes) and the driver-side scorer over the model's matrix, which
  * the iterative baselines search with and the exhibits score with.
  */
final case class Ctx(
    name: String,
    meta: Datasets.Meta,
    model: SubTab.Model,
    rules: Seq[Rule],      // R* — target-filtered
    scorer: Scorer,
    prepMillis: Long,      // SubTab pre-processing time (binning + embedding)
) {
  def cols: Seq[String] = model.cols
}

object Ctx {

  /** Bench-scale SubTab parameters: Word2Vec with a narrower window and
    * fewer epochs so that a full bench pass over six datasets stays
    * interactive. Training is single-partition, as always
    * ([[repro.embed.CellEmbedding.train]]), so bench sub-tables are
    * reproducible.
    */
  val BenchSubTab: SubTab.Params = SubTab.Params(
    embed = repro.embed.CellEmbedding.Params(windowSize = 20, maxIter = 2))

  def timed[A](body: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1000000L)
  }

  /** Prepare a context. `miningParams` defaults to the paper's setup
    * (support 0.1, confidence 0.6, min rule size 3).
    */
  def prepare(spark: SparkSession, dfMeta: (DataFrame, Datasets.Meta),
              subTabParams: SubTab.Params = SubTab.Params(),
              mining: Apriori.Params = Apriori.Params()): Ctx = {
    val (df, meta) = dfMeta
    val (model, prepMs) = timed(SubTab.preprocess(df, subTabParams))
    val rulesAll = Apriori.mine(model.matrix, mining)
    val rules = Rule.targetFilter(rulesAll, meta.targets.toSet)
    val scorer = new Scorer(model.matrix, rules)
    Ctx(meta.name, meta, model, rules, scorer, prepMs)
  }
}

/** The interactive algorithms compared throughout §6, dispatched by the
  * paper's names.
  */
object Algos {

  val Interactive: Seq[String] = Seq("SubTab", "RAN", "NC")

  /** RAN's search budget. The paper iterates "for one minute" in Python,
    * where one combined-score evaluation recomputes rule matches and cell
    * unions over the full table — minutes per evaluation at FL scale
    * (6M × 31 with ~10^4 rules), i.e. a handful of evaluations per run;
    * the paper's own characterization of RAN ("extremely low cell
    * coverage", Fig. 8) pins the effective budget at that order. Our
    * driver-side scorer evaluates in microseconds, so an uncapped minute
    * would hand RAN orders of magnitude more search than the paper's
    * setup had; the iteration cap keeps the comparison faithful (recorded
    * in EXPERIMENTS.md).
    */
  final case class RanBudget(millis: Long = 60000, iters: Int = 5)

  def run(ctx: Ctx, algo: String, k: Int, l: Int,
          ranBudget: RanBudget = RanBudget(), seed: Long = 101): SubTable = algo match {
    case "SubTab" =>
      SubTab.select(ctx.model, k, l, ctx.meta.targets)
    case "NC" =>
      NaiveClustering.run(ctx.model.original, ctx.cols,
        k, l, ctx.meta.targets, seed = seed)
    case "RAN" =>
      RandomBaseline.run(ctx.scorer, k, l, ctx.meta.targets,
        budgetMillis = ranBudget.millis, maxIters = ranBudget.iters, seed = seed).sub
    case other => sys.error(s"unknown algorithm $other")
  }

  /** The slow baselines of Fig. 7 (budgeted). */
  def runGreedy(ctx: Ctx, k: Int, l: Int, budgetMillis: Long, seed: Long = 103): repro.select.Greedy.Result =
    repro.select.Greedy.run(ctx.scorer, k, l, ctx.meta.targets,
      budgetMillis = budgetMillis, seed = seed)

  def runMab(ctx: Ctx, k: Int, l: Int, budgetMillis: Long, seed: Long = 107): MAB.Result =
    MAB.run(ctx.scorer, k, l, ctx.meta.targets, budgetMillis = budgetMillis, seed = seed)

  /** EmbDI: heavyweight embedding pre-processing, then the same centroid
    * selection as SubTab but over the EmbDI vectors. Returns the sub-table
    * and the total wall time (pre-processing + selection).
    */
  def runEmbDI(ctx: Ctx, k: Int, l: Int,
               p: EmbDI.Params = EmbDI.Params()): (SubTable, Long) = {
    val (sub, totalMs) = Ctx.timed {
      val vecs = EmbDI.train(ctx.model.matrix, p)
      val model = new SubTab.Model(ctx.model.original, ctx.model.binModel,
        ctx.model.binned, ctx.cols, vecs, ctx.model.params, ctx.model.matrix)
      SubTab.select(model, k, l, ctx.meta.targets)
    }
    (sub, totalMs)
  }
}
