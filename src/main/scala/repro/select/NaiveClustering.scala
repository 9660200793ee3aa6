package repro.select

import org.apache.spark.ml.linalg.Vectors
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.NumericType
import repro.core.{CentroidSelect, SubTable, Tables}

/** NC baseline (paper §6.1 baseline 2): cluster directly on the RAW table,
  * "one-hot encoding categorical and textual columns to be continuous",
  * with no embedding, binning or scaling. Numeric columns keep their raw
  * magnitudes, so k-means distances are dominated by large-scale columns
  * (e.g. DISTANCE ~ thousands vs rates ~ [0,1]) — which is exactly why the
  * paper finds NC's sub-tables unrepresentative. Rows are clustered into k;
  * columns are clustered "analogously": each column is represented by its
  * raw value vector over a fixed row sample (categoricals label-encoded)
  * and k-means-clustered into l − |U*| (the same driver-side clusterer as
  * SubTab, [[CentroidSelect]]).
  *
  * Row and column selection are exposed separately (row selection does not
  * depend on the width l, which the Fig. 6 width sweep exploits).
  */
object NaiveClustering {

  /** Sample size for the column-as-vector representation. */
  private val ColSampleRows = 256

  /** Raw one-hot row vectors -> k-means(k) -> nearest-row centroids.
    * `df` is the ORIGINAL table (with `__rid`), not the binned one.
    */
  def selectRows(df: DataFrame, cols: Seq[String], k: Int, seed: Long = 29): Seq[Long] = {
    val spark = df.sparkSession
    import spark.implicits._
    val schema = df.schema
    val numeric = cols.filter(c => schema(c).dataType.isInstanceOf[NumericType])
    val categorical = cols.filterNot(numeric.contains)
    // Dictionary of categorical values -> one-hot dimension.
    val catDims: Map[(String, String), Int] = {
      val pairs = categorical.flatMap { c =>
        df.select(col(c).cast("string")).where(col(c).isNotNull)
          .distinct().collect().map(r => (c, r.getString(0)))
      }
      pairs.sorted.zipWithIndex.map { case (p, i) => p -> (numeric.size + i) }.toMap
    }
    val dim = numeric.size + catDims.size
    val numIdx = numeric.zipWithIndex
    val catCols = categorical
    val catDimsB = spark.sparkContext.broadcast(catDims)

    val projected = df.select(
      col(Tables.Rid) +:
        (numeric.map(c => col(c).cast("double").as("num_" + c)) ++
          catCols.map(c => col(c).cast("string").as("cat_" + c))): _*)
    val rowVecs = projected.map { r =>
      val acc = new Array[Double](dim)
      numIdx.foreach { case (_, i) =>
        val v = r.get(1 + i)
        acc(i) = if (v == null) 0.0 else v.asInstanceOf[Double]
      }
      catCols.zipWithIndex.foreach { case (c, j) =>
        val v = r.get(1 + numeric.size + j)
        if (v != null)
          catDimsB.value.get((c, v.asInstanceOf[String])).foreach(acc(_) = 1.0)
      }
      (r.getLong(0), Vectors.dense(acc))
    }.toDF(Tables.Rid, "features")
    CentroidSelect.selectRows(rowVecs, k, seed)
  }

  /** Columns as raw value vectors over a row sample -> k-means(l − |U*|). */
  def selectCols(df: DataFrame, cols: Seq[String], l: Int,
                 targets: Seq[String] = Nil, seed: Long = 29): Seq[String] = {
    val spark = df.sparkSession
    require(targets.size <= l, s"more targets (${targets.size}) than columns ($l)")
    val free = cols.filterNot(targets.contains)
    val want = l - targets.size
    if (want <= 0) targets
    else if (free.size <= want) targets ++ free
    else {
      val schema = df.schema
      val sample: Array[Row] = df
        .orderBy(col(free.head).asc_nulls_last, col(Tables.Rid)) // rid breaks ties
        .select(free.map(col): _*)
        .limit(ColSampleRows).collect()
      val colVecs: Seq[(String, Array[Float])] = free.zipWithIndex.map { case (c, j) =>
        val isNum = schema(c).dataType.isInstanceOf[NumericType]
        // Label-encode categoricals by first-seen order (naive on purpose).
        val labels = scala.collection.mutable.HashMap[String, Int]()
        val v = sample.map { r =>
          val x = r.get(j)
          if (x == null) 0.0f
          else if (isNum) x.toString.toFloat
          else labels.getOrElseUpdate(x.toString, labels.size + 1).toFloat
        }
        c -> (if (v.length < ColSampleRows) v ++ Array.fill(ColSampleRows - v.length)(0.0f) else v)
      }
      val picked = CentroidSelect.selectNamed(spark, colVecs, want, seed + 1)
      val chosen = (targets ++ picked).toSet
      cols.filter(chosen.contains)
    }
  }

  def run(df: DataFrame, cols: Seq[String], k: Int, l: Int,
          targets: Seq[String] = Nil, seed: Long = 29): SubTable =
    SubTable(
      selectRows(df, cols, k, seed),
      selectCols(df, cols, l, targets, seed))
}
