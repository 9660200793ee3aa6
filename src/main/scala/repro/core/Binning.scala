package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.LogicalRDD
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import org.apache.spark.storage.StorageLevel

/** Binning substrate (paper Def. 3.2).
  *
  * The paper bins continuous columns with a KDE-based method (SciPy) so that
  * every column has a small set of meaningful bins; categorical columns use
  * their categories, with large domains grouped. We substitute *equi-depth
  * quantile binning* for KDE (see DESIGN.md §3): both produce a handful of
  * frequency-meaningful bins, which is all the downstream machinery (rule
  * mining, Jaccard diversity, embedding) relies on.
  *
  * Every cell of the binned table is a *token* `"col=binLabel"`; nulls and
  * NaNs map to the dedicated token `"col=∅"`. Tokens are globally unique
  * across columns (the column name is part of the token), which is what the
  * embedding vocabulary and the rule items range over.
  */
object Binning {

  /** Null/NaN bin label. */
  val NullLabel = "∅"

  /** Marker separating column name from bin label inside a token. */
  val Sep = "="

  /** Column of `token` -> column name. Tokens are `"col=label"`; column
    * names in this repo never contain '='.
    */
  def tokenCol(token: String): String = token.substring(0, token.indexOf(Sep))

  /** Column of `token` -> bin label. */
  def tokenLabel(token: String): String = token.substring(token.indexOf(Sep) + 1)

  def token(col: String, label: String): String = col + Sep + label

  /** Per-column binning rule. */
  sealed trait ColBins extends Serializable {
    def col: String
    /** All tokens this column can emit (used for vocabulary / one-hot). */
    def tokens: Seq[String]
    /** Map a raw cell (already stringified for categorical / boxed numeric)
      * to its bin label.
      */
    def label(v: Any): String
  }

  /** Continuous column: equi-depth bins from interior quantile edges.
    * `edges` are strictly increasing interior cut points; a value v falls in
    * bin i = #edges ≤ v (labels "b0".."b{edges.length}").
    */
  final case class ContinuousBins(col: String, edges: Array[Double]) extends ColBins {
    def nBins: Int = edges.length + 1
    def tokens: Seq[String] =
      (0 until nBins).map(i => token(col, "b" + i)) :+ token(col, NullLabel)
    def label(v: Any): String = v match {
      case null => NullLabel
      case d: Double if d.isNaN => NullLabel
      case f: Float if f.isNaN => NullLabel
      case n: Number =>
        val d = n.doubleValue()
        var i = 0
        while (i < edges.length && d > edges(i)) i += 1
        "b" + i
      case other => sys.error(s"non-numeric value $other in continuous column $col")
    }
  }

  /** Categorical column: top categories keep their own bin; the rest share
    * "OTHER". `kept` is the set of category values with dedicated bins.
    */
  final case class CategoricalBins(col: String, kept: Set[String], hasOther: Boolean)
      extends ColBins {
    def tokens: Seq[String] = {
      val base = kept.toSeq.sorted.map(v => token(col, v))
      val oth  = if (hasOther) Seq(token(col, "OTHER")) else Nil
      base ++ oth :+ token(col, NullLabel)
    }
    def label(v: Any): String = v match {
      case null => NullLabel
      case x =>
        val s = x.toString
        if (kept.contains(s)) s else "OTHER"
    }
  }

  /** Fitted binning model for a table. */
  final case class BinModel(bins: Seq[ColBins]) extends Serializable {
    def cols: Seq[String] = bins.map(_.col)
    private lazy val byCol: Map[String, ColBins] = bins.map(b => b.col -> b).toMap
    def apply(c: String): ColBins = byCol(c)

    /** Full token vocabulary across all columns. */
    def vocabulary: Seq[String] = bins.flatMap(_.tokens).distinct

    /** Binned table: same `__rid`, each data column replaced by its token.
      * Per-column deterministic UDFs keep the projection's plan small even
      * for 298-column tables (USF). The projection is materialized once, by
      * an eager local checkpoint at [[Storage]] (one Spark job), and the
      * returned frame scans the stored rows: later jobs over it ship neither
      * `df`'s lineage nor the UDFs. Its rows, their order and their
      * partitioning are the projection's. The stored blocks live on the
      * executors (the driver's block manager in local mode) and cannot be
      * recomputed, so losing an executor loses them; [[release]] frees them.
      */
    def transform(df: DataFrame): DataFrame = {
      val fields = df.schema.fields.map(f => f.name -> f.dataType).toMap
      val outCols = org.apache.spark.sql.functions.col(Tables.Rid) +: cols.map { c =>
        val b = byCol(c)
        fields(c) match {
          case _: NumericType =>
            val f = udf((v: java.lang.Double) => token(c, b.label(v)))
            f(col(c).cast(DoubleType)).as(c)
          case _ =>
            val f = udf((v: String) => token(c, b.label(v)))
            f(col(c).cast(StringType)).as(c)
        }
      }
      df.select(outCols: _*).localCheckpoint(eager = true, Storage)
    }
  }

  /** Storage level of [[BinModel.transform]]'s checkpoint (DESIGN.md §2
    * records the measurement behind the choice).
    */
  val Storage: StorageLevel = StorageLevel.MEMORY_AND_DISK

  /** Free what [[BinModel.transform]] stored for `binned`, and `binned`'s
    * own cache if it has one. For any other frame this is `unpersist()`.
    */
  def release(binned: DataFrame): Unit = {
    binned.unpersist()
    binned.queryExecution.logical match {
      case r: LogicalRDD => r.rdd.unpersist()
      case _ =>
    }
    ()
  }

  /** Decide continuous-vs-categorical from the schema: numeric types are
    * continuous (unless their observed distinct count is at most `nBins`,
    * in which case each value is its own bin); everything else is
    * categorical.
    */
  def fit(df: DataFrame, nBins: Int = 5): BinModel = {
    require(nBins >= 2, s"need at least 2 bins, got $nBins")
    val dataCols = Tables.dataCols(df)
    val numeric = dataCols.filter(c => df.schema(c).dataType.isInstanceOf[NumericType])
    val categorical = dataCols.filterNot(numeric.contains)

    // One pass of interior quantiles for all numeric columns. NaNs/nulls are
    // ignored by approxQuantile, which is what we want (they get the ∅ bin).
    val probs = (1 until nBins).map(_.toDouble / nBins).toArray
    val quantiles: Map[String, Array[Double]] =
      if (numeric.isEmpty) Map.empty
      else {
        // approxQuantile requires DoubleType-compatible columns; cast once.
        val casted = df.select(numeric.map(c => col(c).cast(DoubleType).as(c)): _*)
        numeric.zip(casted.stat.approxQuantile(numeric.toArray, probs, 0.001))
          .map { case (c, qs) => c -> qs }.toMap
      }

    val numericBins: Seq[ColBins] = numeric.map { c =>
      val edges = quantiles(c).distinct.sorted
      ContinuousBins(c, edges)
    }

    // Top-(nBins-1) categories of every categorical column in one grouped
    // pass: count each (column, value) pair and rank the values of a column
    // by count, ties by value (Spark's UTF-8 binary order). Keep one extra
    // rank so we can tell "exactly nBins categories" (no OTHER needed) apart
    // from "more than nBins" (group the tail).
    val top: Map[Int, Seq[String]] =
      if (categorical.isEmpty) Map.empty
      else {
        val pairs = array(categorical.zipWithIndex.map { case (c, i) =>
          struct(lit(i).as("c"), col(c).cast(StringType).as("v"))
        }: _*)
        val byCount = Window.partitionBy("c").orderBy(desc("count"), asc("v"))
        df.select(explode(pairs).as("p")).select("p.c", "p.v")
          .where(col("v").isNotNull)
          .groupBy("c", "v").count()
          .withColumn("rank", row_number().over(byCount))
          .where(col("rank") <= nBins + 1)
          .select("c", "v", "rank")
          .collect()
          .groupBy(_.getInt(0))
          .map { case (c, rs) => c -> rs.sortBy(_.getInt(2)).map(_.getString(1)).toSeq }
      }
    val catBins: Seq[ColBins] = categorical.zipWithIndex.map { case (c, i) =>
      val values = top.getOrElse(i, Nil)
      if (values.size <= nBins) CategoricalBins(c, values.toSet, hasOther = false)
      else CategoricalBins(c, values.take(nBins - 1).toSet, hasOther = true)
    }

    // Preserve original column order.
    val byName = (numericBins ++ catBins).map(b => b.col -> b).toMap
    BinModel(dataCols.map(byName))
  }

  /** Convenience: fit + transform. */
  def bin(df: DataFrame, nBins: Int = 5): (BinModel, DataFrame) = {
    val m = fit(df, nBins)
    (m, m.transform(df))
  }
}
