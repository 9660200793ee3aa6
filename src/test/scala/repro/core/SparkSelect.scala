package repro.core

import org.apache.spark.ml.linalg.{Vector, Vectors}
import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** The Spark selection path that [[SubTab.select]]'s driver path replaced,
  * kept as the reference it is checked against:
  *   - the query result as a left-semi join of the binned table
  *     ([[SubTab.queryView]]);
  *   - row vectors from a typed `map` over that view, with the cell
  *     embedding broadcast;
  *   - column vectors from one `posexplode`/`groupBy` pass;
  *   - row selection from one bounded collect; above the cap, a fit on a
  *     Spark `xxhash64` sample, then a UDF assigning every row and `min_by`
  *     keeping the nearest real row per center.
  * The clusterer itself ([[CentroidSelect.fit]]) is shared.
  */
object SparkSelect {

  def select(model: SubTab.Model, query: Option[DataFrame => DataFrame],
             k: Int, l: Int, targets: Seq[String]): SubTable = {
    val (binnedQ, qCols) = SubTab.queryView(model, query)
    require(targets.forall(qCols.contains), s"targets $targets must survive the query")
    require(targets.size <= l, s"more targets (${targets.size}) than columns ($l)")
    val rows = rowSelection(rowVectors(model, binnedQ, qCols), k, model.params.kmeansSeed,
      CentroidSelect.DriverRowCap).rids
    SubTable(rows, colsByCentroids(model, binnedQ, qCols, l, targets))
  }

  /** (`__rid`, `features`): the average of each row's cell vectors. */
  def rowVectors(model: SubTab.Model, binnedQ: DataFrame, qCols: Seq[String]): DataFrame = {
    val spark = model.spark
    import spark.implicits._
    val dim = model.cellVecs.vectorSize
    val vecsB = spark.sparkContext.broadcast(model.cellVecs)
    binnedQ
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
  }

  def rowSelection(vecs: DataFrame, k: Int, seed: Long, cap: Int): CentroidSelect.RowSelection = {
    if (k <= 0) return CentroidSelect.RowSelection(Seq.empty, Array.empty)
    val feats = vecs.select(col(Tables.Rid), col("features"))
    val head = feats.limit(cap + 1).collect()
    if (head.length <= cap) {
      val rows = head.map(r => (r.getLong(0), r.getAs[Vector](1).toArray)).sortBy(_._1)
      val rids = rows.map(_._1)
      val points = rows.map(_._2)
      if (rows.length <= k) return CentroidSelect.RowSelection(rids.toSeq, points)
      val centers = CentroidSelect.fit(points, k, seed)
      val best = Array.fill(centers.length)(-1)
      val bestDist = Array.fill(centers.length)(Double.PositiveInfinity)
      points.indices.foreach { i =>
        val (c, d) = CentroidSelect.nearestCenter(centers, points(i))
        if (d < bestDist(c)) { best(c) = i; bestDist(c) = d }
      }
      val picked = best.filter(_ >= 0).map(rids(_)).toSeq
      CentroidSelect.RowSelection(pad(picked, rids.iterator, k).sorted, centers)
    } else {
      val centers = CentroidSelect.fit(hashSample(feats, seed, cap), k, seed)
      val nearest = udf { (v: Vector) => CentroidSelect.nearestCenter(centers, v.toArray) }
      val picked = feats.withColumn("near", nearest(col("features")))
        .groupBy(col("near._1"))
        .agg(min_by(col(Tables.Rid), struct(col("near._2"), col(Tables.Rid))))
        .collect().map(_.getLong(1)).toSeq
      val lowest =
        if (picked.size >= k) Iterator.empty
        else feats.select(Tables.Rid).orderBy(Tables.Rid).limit(k).collect().iterator.map(_.getLong(0))
      CentroidSelect.RowSelection(pad(picked, lowest, k).sorted, centers)
    }
  }

  /** Spark's `pmod(xxhash64(rid, seed), 2^30)`. */
  def ridHash(rid: Column, seed: Long): Column = pmod(xxhash64(rid, lit(seed)), lit(1L << 30))

  private def hashSample(feats: DataFrame, seed: Long, cap: Int): Array[Array[Double]] = {
    val keep = math.ceil(math.min(1.0, 2.0 * cap / feats.count()) * (1L << 30)).toLong
    feats.withColumn("h", ridHash(col(Tables.Rid), seed))
      .where(col("h") < keep)
      .orderBy(col("h"), col(Tables.Rid)).limit(cap)
      .collect().map(r => (r.getLong(0), r.getAs[Vector](1).toArray))
      .sortBy(_._1).map(_._2)
  }

  private def pad[A](picked: Seq[A], candidates: Iterator[A], k: Int): Seq[A] =
    if (picked.size >= k) picked
    else {
      val have = picked.toSet
      picked ++ candidates.filterNot(have).take(k - picked.size)
    }

  def colsByCentroids(model: SubTab.Model, binnedQ: DataFrame, qCols: Seq[String], l: Int,
                      targets: Seq[String]): Seq[String] = {
    val free = qCols.filterNot(targets.contains)
    val want = l - targets.size
    if (want <= 0) return targets
    if (free.size <= want) return (targets ++ free).distinct
    val picked = CentroidSelect.selectNamed(model.spark, columnVectors(model, binnedQ, free), want,
      model.params.kmeansSeed + 1)
    val chosen = (targets ++ picked).toSet
    qCols.filter(chosen.contains)
  }

  def columnVectors(model: SubTab.Model, binnedQ: DataFrame,
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
