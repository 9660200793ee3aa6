package repro.core

import org.apache.spark.ml.linalg.{Vector, Vectors}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.embed.{CellEmbedding, TabularCorpus}

/** SubTab (paper Algorithm 2): embedding-based sub-table selection.
  *
  * Pre-processing (once per table): normalize + bin, build the tabular
  * corpus, train the cell embedding M : token -> R^gamma.
  *
  * Selection (per display / per query): row-vectors = average of the row's
  * cell vectors; k-means into k clusters, take the row nearest each center.
  * Column-vectors = average over rows of the column's cell vectors; k-means
  * into l − |U*| clusters, take nearest columns, then add the target
  * columns U*. Both clusterings run on the driver ([[CentroidSelect]]):
  * rows are collected once (up to a fixed cap; larger inputs are fitted on a
  * seeded sample and assigned in one Spark pass), columns need no Spark job.
  * Selection only touches the cached cell vectors, so query results get
  * sub-tables without re-training — the paper's headline interactivity
  * property.
  */
object SubTab {

  final case class Params(
      nBins: Int = 5,
      corpusCap: Int = 100000,
      corpusSeed: Long = 11,
      embed: CellEmbedding.Params = CellEmbedding.Params(),
      kmeansSeed: Long = 17,
  )

  /** Pre-processed state for a loaded table. `binned` is cached. */
  final class Model(
      val original: DataFrame,
      val binModel: Binning.BinModel,
      val binned: DataFrame,
      val cols: Seq[String],
      val cellVecs: CellEmbedding.Model,
      val params: Params,
  ) {
    def spark: org.apache.spark.sql.SparkSession = original.sparkSession
    def unpersist(): Unit = { binned.unpersist(); original.unpersist(); () }
  }

  /** Pre-processing phase (Alg. 2 lines 1-5). `df` must carry `__rid` (use
    * [[Tables.withRid]] otherwise).
    */
  def preprocess(df0: DataFrame, p: Params = Params()): Model = {
    val df = Tables.withRid(df0).cache()
    df.count()
    val (binModel, binnedRaw) = Binning.bin(df, p.nBins)
    val binned = binnedRaw.cache()
    binned.count()
    val cols = binModel.cols
    val corpus = TabularCorpus.build(binned, cols, p.corpusCap, p.corpusSeed)
    val cellVecs = CellEmbedding.train(corpus, p.embed)
    new Model(df, binModel, binned, cols, cellVecs, p)
  }

  /** Centroid-based selection (Alg. 2 lines 6-19) over the full table. */
  def select(model: Model, k: Int, l: Int, targets: Seq[String] = Nil): SubTable =
    select(model, None, k, l, targets)

  /** Centroid-based selection over a query result. The query runs on the
    * *original* table (it may filter on raw values and project columns);
    * selection then reuses the pre-computed cell vectors for exactly the
    * surviving rows and columns.
    */
  def select(model: Model, query: Option[DataFrame => DataFrame],
             k: Int, l: Int, targets: Seq[String]): SubTable = {
    val (binnedQ, qCols) = queryView(model, query)
    require(targets.forall(qCols.contains),
      s"target columns $targets must survive the query (have: $qCols)")
    require(targets.size <= l, s"more targets (${targets.size}) than columns ($l)")

    val rows = rowsByCentroids(model, binnedQ, qCols, k)
    val cols = colsByCentroids(model, binnedQ, qCols, l, targets)
    SubTable(rows, cols)
  }

  /** Binned view of the query result plus its surviving data columns. */
  private[repro] def queryView(model: Model,
                               query: Option[DataFrame => DataFrame]): (DataFrame, Seq[String]) =
    query match {
      case None => (model.binned, model.cols)
      case Some(f) =>
        val q = f(model.original)
        require(q.columns.contains(Tables.Rid), "query must preserve __rid")
        val qCols = Tables.dataCols(q).filter(model.cols.contains)
        val view = model.binned
          .join(q.select(Tables.Rid), Seq(Tables.Rid), "left_semi")
          .select((Tables.Rid +: qCols).map(col): _*)
        (view, qCols)
    }

  /** Row-vectors (avg of cell vectors) -> k-means -> nearest-row centroids.
    * Public because row selection is independent of the column count l, so
    * harnesses sweeping sub-table widths reuse one row selection.
    */
  def rowsByCentroids(model: Model, binnedQ: DataFrame,
                      qCols: Seq[String], k: Int): Seq[Long] = {
    val spark = model.spark
    import spark.implicits._
    val dim = model.cellVecs.vectorSize
    val vecsB = spark.sparkContext.broadcast(model.cellVecs)
    val rowVecs = binnedQ
      .select(col(Tables.Rid), array(qCols.map(col): _*).as("toks"))
      .as[(Long, Seq[String])]
      .map { case (rid, toks) =>
        val m = vecsB.value
        val acc = new Array[Double](dim)
        toks.foreach { t =>
          val v = m(t)
          var i = 0
          while (i < dim) { acc(i) += v(i); i += 1 }
        }
        var i = 0
        while (i < dim) { acc(i) /= math.max(1, toks.size); i += 1 }
        (rid, Vectors.dense(acc))
      }
      .toDF(Tables.Rid, "features")
    try CentroidSelect.selectRows(rowVecs, k, model.params.kmeansSeed)
    finally vecsB.destroy()
  }

  /** Column-vectors (avg over rows of the column's cell vectors, i.e. the
    * token-frequency-weighted mean) -> k-means into l − |U*| -> nearest
    * columns, plus the targets.
    */
  def colsByCentroids(model: Model, binnedQ: DataFrame,
                      qCols: Seq[String], l: Int,
                      targets: Seq[String]): Seq[String] = {
    val free = qCols.filterNot(targets.contains)
    val want = l - targets.size
    if (want <= 0) return targets
    if (free.size <= want) return (targets ++ free).distinct
    val colVecs = columnVectors(model, binnedQ, free)
    val picked = CentroidSelect.selectNamed(model.spark, colVecs, want,
      model.params.kmeansSeed + 1)
    // Preserve the original column order in the output schema.
    val chosen = (targets ++ picked).toSet
    qCols.filter(chosen.contains)
  }

  /** Column-vectors: token-frequency-weighted mean of the column's cell
    * vectors (Alg. 2 line 14, computed from one (position, token)-frequency
    * pass instead of a per-column scan). Each column's tokens are summed in
    * token order, so the vectors do not depend on the frame's partitioning.
    */
  def columnVectors(model: Model, binnedQ: DataFrame,
                    cols: Seq[String]): Seq[(String, Array[Float])] = {
    val freqs = binnedQ
      .select(posexplode(array(cols.map(col): _*)).as(Seq("pos", "tok")))
      .groupBy("pos", "tok").count()
      .collect()
      .groupBy(_.getInt(0))
      .view.mapValues(_.map(r => (r.getString(1), r.getLong(2))).sortBy(_._1)).toMap
    val dim = model.cellVecs.vectorSize
    cols.indices.map { i =>
      val acc = new Array[Double](dim)
      var total = 0L
      freqs.getOrElse(i, Array.empty[(String, Long)]).foreach { case (tok, cnt) =>
        val v = model.cellVecs(tok)
        var d = 0
        while (d < dim) { acc(d) += v(d) * cnt; d += 1 }
        total += cnt
      }
      val out = new Array[Float](dim)
      if (total > 0) { var d = 0; while (d < dim) { out(d) = (acc(d) / total).toFloat; d += 1 } }
      // L2-normalize: column similarity in embedding space is directional
      // (spherical k-means, the standard for word-embedding clustering);
      // without it, near-duplicate columns (e.g. FL's jointly-null delay
      // breakdown) differ by magnitude and get split across clusters.
      var norm = 0.0
      locally { var d = 0; while (d < dim) { norm += out(d) * out(d); d += 1 } }
      if (norm > 0) {
        val inv = (1.0 / math.sqrt(norm)).toFloat
        var d = 0; while (d < dim) { out(d) *= inv; d += 1 }
      }
      cols(i) -> out
    }
  }
}
