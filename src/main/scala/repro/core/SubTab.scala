package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.embed.{CellEmbedding, TabularCorpus}

/** SubTab (paper Algorithm 2): embedding-based sub-table selection.
  *
  * Pre-processing (once per table): normalize + bin, build the tabular
  * corpus, train the cell embedding M : token -> R^gamma, and collect the
  * binned table into the model's [[BinnedMatrix]] (failing fast, before
  * binning, when it would not fit the driver heap, see
  * [[BinnedMatrix.requireFits]]).
  *
  * Selection (per display / per query) runs on the driver, over the
  * matrix's codes: row-vectors = average of the row's cell vectors; k-means
  * into k clusters, take the row nearest each center. Column-vectors =
  * average over rows of the column's cell vectors; k-means into l − |U*|
  * clusters, take nearest columns, then add the target columns U*. Both
  * clusterings run in [[CentroidSelect]]. A query runs on the model's
  * driver-local copy of the original table, over which Catalyst evaluates
  * filters and projections while it plans the collect of the surviving
  * `__rid`s; so a full-table select, and a select on a filter or projection
  * query, runs no Spark job (a query Catalyst cannot fold, such as a join or
  * an aggregate, runs as a job over the local table). Selection only touches
  * the cached cell vectors and matrix, so query results get sub-tables
  * without re-training — the paper's headline interactivity property.
  */
object SubTab {

  final case class Params(
      nBins: Int = 5,
      corpusCap: Int = 100000,
      corpusSeed: Long = 11,
      embed: CellEmbedding.Params = CellEmbedding.Params(),
      kmeansSeed: Long = 17,
  )

  /** Pre-processed state for a loaded table. `binned` is the binned table
    * as [[Binning.BinModel.transform]] stored it; `matrix` is the same
    * binned table collected to the driver, and `local` the original table
    * collected into a local relation.
    */
  final class Model(
      val original: DataFrame,
      val binModel: Binning.BinModel,
      val binned: DataFrame,
      val cols: Seq[String],
      val cellVecs: CellEmbedding.Model,
      val params: Params,
      val matrix: BinnedMatrix,
  ) {
    /** Collects `binned` into the matrix. */
    def this(original: DataFrame, binModel: Binning.BinModel, binned: DataFrame,
             cols: Seq[String], cellVecs: CellEmbedding.Model, params: Params) =
      this(original, binModel, binned, cols, cellVecs, params, BinnedMatrix.collect(binned, cols))

    def spark: org.apache.spark.sql.SparkSession = original.sparkSession
    def unpersist(): Unit = { Binning.release(binned); original.unpersist(); () }

    /** `original` as a `LocalRelation` (one collect), which [[select]] runs
      * its query on. [[preprocess]] builds it; a model made by the
      * auxiliary constructor builds it on its first query select.
      */
    private[core] lazy val local: DataFrame =
      spark.createDataFrame(java.util.Arrays.asList(original.collect(): _*), original.schema)

    private[core] lazy val colIdx: Map[String, Int] = matrix.cols.zipWithIndex.toMap
    /** The cell vector of each matrix code. */
    private[core] lazy val codeVecs: Array[Array[Float]] = matrix.tokens.map(cellVecs(_))
    /** Matrix codes in token-string order. */
    private[core] lazy val codesByToken: Array[Int] = matrix.tokens.indices.sortBy(matrix.tokens(_)).toArray
  }

  /** Pre-processing phase (Alg. 2 lines 1-5). `df` must carry `__rid` (use
    * [[Tables.withRid]] otherwise).
    */
  def preprocess(df0: DataFrame, p: Params = Params()): Model =
    preprocess(df0, p, Runtime.getRuntime.maxMemory)

  /** [[preprocess]] against a driver heap of `heapBytes`. */
  private[core] def preprocess(df0: DataFrame, p: Params, heapBytes: Long): Model = {
    val df = Tables.withRid(df0).cache()
    BinnedMatrix.requireFits(df.count(), Tables.dataCols(df).size, heapBytes)
    val (binModel, binned) = Binning.bin(df, p.nBins)
    val cols = binModel.cols
    val matrix = BinnedMatrix.collect(binned, cols)
    val corpus = TabularCorpus.build(binned, cols, p.corpusCap, p.corpusSeed)
    val cellVecs = CellEmbedding.train(corpus, p.embed)
    val model = new Model(df, binModel, binned, cols, cellVecs, p, matrix)
    model.local
    model
  }

  /** Centroid-based selection (Alg. 2 lines 6-19) over the full table. */
  def select(model: Model, k: Int, l: Int, targets: Seq[String] = Nil): SubTable =
    select(model, None, k, l, targets)

  /** Centroid-based selection over a query result. The query runs on the
    * *original* table's local copy (it may filter on raw values and project
    * columns); selection then reuses the pre-computed cell vectors for
    * exactly the surviving rows and columns.
    */
  def select(model: Model, query: Option[DataFrame => DataFrame],
             k: Int, l: Int, targets: Seq[String]): SubTable = {
    val (rows, qCols) = queryRows(model, query)
    require(targets.forall(qCols.contains),
      s"target columns $targets must survive the query (have: $qCols)")
    require(targets.size <= l, s"more targets (${targets.size}) than columns ($l)")
    SubTable(selectRows(model, rows, qCols, k), selectCols(model, rows, qCols, l, targets))
  }

  /** Matrix rows of the query result on the model's local copy (ascending,
    * each once) and its surviving data columns; the whole matrix for no
    * query.
    */
  private[repro] def queryRows(model: Model,
                               query: Option[DataFrame => DataFrame]): (Array[Int], Seq[String]) =
    query match {
      case None => (model.matrix.rids.indices.toArray, model.cols)
      case Some(f) =>
        val (q, qCols) = runQuery(model.local, model.cols, f)
        (matrixRows(model, q), qCols)
    }

  /** Binned view of the query result plus its surviving data columns, as a
    * left-semi join of the binned table (Fig. 6 samples RAN's search table
    * from it; [[select]] maps the query's rids to matrix rows instead).
    */
  private[repro] def queryView(model: Model,
                               query: Option[DataFrame => DataFrame]): (DataFrame, Seq[String]) =
    query match {
      case None => (model.binned, model.cols)
      case Some(f) =>
        val (q, qCols) = runQuery(model.original, model.cols, f)
        val view = model.binned
          .join(q.select(Tables.Rid), Seq(Tables.Rid), "left_semi")
          .select((Tables.Rid +: qCols).map(col): _*)
        (view, qCols)
    }

  /** The query's result on `table` (the original table or its local copy)
    * and its surviving data columns among `cols`.
    */
  private def runQuery(table: DataFrame, cols: Seq[String],
                       f: DataFrame => DataFrame): (DataFrame, Seq[String]) = {
    val q = f(table)
    require(q.columns.contains(Tables.Rid), "query must preserve __rid")
    (q, Tables.dataCols(q).filter(cols.contains))
  }

  /** Matrix rows of the rids in `df` (one collect), ascending and without
    * duplicates; a rid that is no row of the matrix fails by name.
    */
  private def matrixRows(model: Model, df: DataFrame): Array[Int] =
    model.matrix.rowsOfRids(df.select(Tables.Rid).collect().map(_.getLong(0)))

  /** Row-vectors (avg of cell vectors) -> k-means -> nearest-row centroids,
    * over the rows of a binned view (`binnedQ` must carry `__rid`; its rids
    * are collected in one Spark job). Public, with [[columnVectors]], so
    * that a select can be timed layer by layer.
    */
  def rowsByCentroids(model: Model, binnedQ: DataFrame,
                      qCols: Seq[String], k: Int): Seq[Long] =
    selectRows(model, matrixRows(model, binnedQ), qCols, k)

  /** Column-vectors of `cols` over the rows of a binned view; see
    * [[columnVectorsOf]].
    */
  def columnVectors(model: Model, binnedQ: DataFrame,
                    cols: Seq[String]): Seq[(String, Array[Float])] =
    columnVectorsOf(model, matrixRows(model, binnedQ), cols)

  /** Row selection over matrix rows `rows` (ascending). A row vector adds
    * its cells' vectors in `qCols` order into a `Double` accumulator and
    * divides by the number of columns.
    */
  private def selectRows(model: Model, rows: Array[Int], qCols: Seq[String], k: Int): Seq[Long] = {
    val codes = model.matrix.codes
    val vecs = model.codeVecs
    val js = qCols.map(model.colIdx).toArray
    val dim = model.cellVecs.vectorSize
    val rowVec = (i: Int) => {
      val row = codes(rows(i))
      val acc = new Array[Double](dim)
      var j = 0
      while (j < js.length) {
        val v = vecs(row(js(j)))
        var d = 0
        while (d < dim) { acc(d) += v(d); d += 1 }
        j += 1
      }
      var d = 0
      while (d < dim) { acc(d) /= math.max(1, js.length); d += 1 }
      acc
    }
    CentroidSelect.rowSelection(rows.map(model.matrix.rids), rowVec, k,
      model.params.kmeansSeed, CentroidSelect.DriverRowCap).rids
  }

  /** Column selection over matrix rows `rows`: the targets plus the picked
    * free columns, in the query's column order.
    */
  private def selectCols(model: Model, rows: => Array[Int], qCols: Seq[String], l: Int,
                         targets: Seq[String]): Seq[String] = {
    val free = qCols.filterNot(targets.contains)
    val want = l - targets.size
    if (want <= 0) return targets
    if (free.size <= want) return (targets ++ free).distinct
    val picked = CentroidSelect.selectNamed(model.spark, columnVectorsOf(model, rows, free), want,
      model.params.kmeansSeed + 1)
    // Preserve the original column order in the output schema.
    val chosen = (targets ++ picked).toSet
    qCols.filter(chosen.contains)
  }

  /** Column-vectors: token-frequency-weighted mean of the column's cell
    * vectors over matrix rows `rows` (Alg. 2 line 14), from per-code counts.
    * Each column's codes are summed in token-string order, `Float` vector
    * times `Long` count, then L2-normalized.
    */
  private def columnVectorsOf(model: Model, rows: Array[Int],
                              cols: Seq[String]): Seq[(String, Array[Float])] = {
    val codes = model.matrix.codes
    val dim = model.cellVecs.vectorSize
    val counts = new Array[Long](model.matrix.tokens.length)
    cols.map { c =>
      val j = model.colIdx(c)
      java.util.Arrays.fill(counts, 0L)
      rows.foreach(i => counts(codes(i)(j)) += 1)
      val acc = new Array[Double](dim)
      var total = 0L
      model.codesByToken.foreach { code =>
        val cnt = counts(code)
        if (cnt > 0) {
          val v = model.codeVecs(code)
          var d = 0
          while (d < dim) { acc(d) += v(d) * cnt; d += 1 }
          total += cnt
        }
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
      c -> out
    }
  }
}
