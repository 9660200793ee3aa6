package subtabbench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.core._
import repro.embed.{CellEmbedding, TabularCorpus}
import repro.rules.{Apriori, Rule}

/** The public calls the benchmark times, re-composed from their layers in
  * the order the program composes them, with a span around each layer. The
  * traced run checks every composed result against the public call's
  * result, so a change to the program's composition makes the trace fail
  * instead of reporting a wrong breakdown.
  */
final class Composed(tr: Tracer) {

  /** `SubTab.preprocess`. */
  def preprocess(df0: DataFrame, p: SubTab.Params, request: String): SubTab.Model =
    tr.span("subtab.preprocess", request) {
      val df = tr.span("tables.cache") { val d = Tables.withRid(df0).cache(); d.count(); d }
      val binModel = tr.span("binning.fit") { Binning.fit(df, p.nBins) }
      val binned = tr.span("binning.transform") {
        val b = binModel.transform(df).cache(); b.count(); b
      }
      val cols = binModel.cols
      val corpus = tr.span("corpus.build") {
        TabularCorpus.build(binned, cols, p.corpusCap, p.corpusSeed)
      }
      val vecs = tr.span("embedding.train") { CellEmbedding.train(corpus, p.embed) }
      new SubTab.Model(df, binModel, binned, cols, vecs, p)
    }

  /** `SubTab.select` over the full table (`query` = None) or a query result. */
  def select(model: SubTab.Model, query: Option[DataFrame => DataFrame], k: Int, l: Int,
             targets: Seq[String], request: String): SubTable =
    tr.span("subtab.select", request) {
      val (binnedQ, qCols) = tr.span("subtab.query_view") {
        query match {
          case None => (model.binned, model.cols)
          case Some(f) =>
            val q = f(model.original)
            val qCols = Tables.dataCols(q).filter(model.cols.contains)
            (model.binned.join(q.select(Tables.Rid), Seq(Tables.Rid), "left_semi")
              .select((Tables.Rid +: qCols).map(col): _*), qCols)
        }
      }
      require(targets.forall(qCols.contains), s"targets $targets must survive the query")
      require(targets.size <= l, s"more targets (${targets.size}) than columns ($l)")
      val rows = tr.span("subtab.rows") { SubTab.rowsByCentroids(model, binnedQ, qCols, k) }
      val cols = tr.span("subtab.cols") {
        val free = qCols.filterNot(targets.contains)
        val want = l - targets.size
        if (want <= 0) targets
        else if (free.size <= want) (targets ++ free).distinct
        else {
          val colVecs = tr.span("subtab.column_vectors") { SubTab.columnVectors(model, binnedQ, free) }
          val picked = tr.span("centroid.select_named") {
            CentroidSelect.selectNamed(model.spark, colVecs, want, model.params.kmeansSeed + 1)
          }
          val chosen = (targets ++ picked).toSet
          qCols.filter(chosen.contains)
        }
      }
      SubTable(rows, cols)
    }

  /** `Apriori.mine` followed by the target filter that gives R*. */
  def rules(binned: DataFrame, cols: Seq[String], targets: Seq[String],
            p: Apriori.Params): (Apriori.Frequents, Seq[Rule]) = {
    val freq = tr.span("apriori.frequent") { Apriori.frequentItemsets(binned, cols, p) }
    val all = tr.span("apriori.rules") { Apriori.rulesFrom(freq, p) }
    (freq, Rule.targetFilter(all, targets.toSet))
  }

  def scorer(binned: DataFrame, cols: Seq[String], rules: Seq[Rule]): Scorer = {
    val mat = tr.span("matrix.collect") { BinnedMatrix.collect(binned, cols) }
    tr.span("scorer.build") { new Scorer(mat, rules) }
  }

  /** `Metrics.scores`. */
  def scores(binned: DataFrame, cols: Seq[String], rules: Seq[Rule], sub: SubTable,
             request: String, alpha: Double = 0.5): Metrics.Scores =
    tr.span("metrics.scores", request) {
      val up = tr.span("metrics.described_cells") { Metrics.describedCellCount(binned, cols, rules) }
      val cc =
        if (up == 0L) 1.0
        else {
          val subRows = tr.span("metrics.sub_table_tokens") { Metrics.subTableTokens(binned, sub) }
          val cov = Metrics.coveredRules(rules, subRows.map(_.toSet), sub.cols.toSet)
          tr.span("metrics.covered_cells") { Metrics.describedCellCount(binned, cols, cov) }.toDouble / up
        }
      val dv = Metrics.diversity(tr.span("metrics.sub_table_tokens") { Metrics.subTableTokens(binned, sub) })
      Metrics.Scores(cc, dv, alpha * cc + (1 - alpha) * dv)
    }
}
