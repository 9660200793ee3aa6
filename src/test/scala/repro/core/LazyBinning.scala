package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** The binned table as [[Binning.BinModel.transform]] built it before it
  * materialized its result: the same per-column UDF projection, returned
  * lazily, so every job over it re-runs `df`'s plan and the UDFs. Kept as
  * the reference `transform` is checked against.
  */
object LazyBinning {

  def transform(m: Binning.BinModel, df: DataFrame): DataFrame = {
    val fields = df.schema.fields.map(f => f.name -> f.dataType).toMap
    val outCols = col(Tables.Rid) +: m.cols.map { c =>
      val b = m(c)
      fields(c) match {
        case _: NumericType =>
          val f = udf((v: java.lang.Double) => Binning.token(c, b.label(v)))
          f(col(c).cast(DoubleType)).as(c)
        case _ =>
          val f = udf((v: String) => Binning.token(c, b.label(v)))
          f(col(c).cast(StringType)).as(c)
      }
    }
    df.select(outCols: _*)
  }
}
