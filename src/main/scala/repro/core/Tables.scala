package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** A selected sub-table: `k` row ids and `l` column names of the parent table.
  *
  * Row ids refer to the stable `__rid` column that every dataset in this
  * repo carries (see [[Tables.withRid]]). The sub-table is a *view
  * recipe*, not a copy; [[BinnedMatrix.subTableTokens]] reads its binned cells.
  */
final case class SubTable(rowIds: Seq[Long], cols: Seq[String]) {
  def k: Int = rowIds.size
  def l: Int = cols.size
}

/** Helpers for tables carrying a stable row-id column. */
object Tables {

  /** Name of the stable row-id column threaded through every transform. */
  val Rid = "__rid"

  /** Attach a stable, deterministic row id. Callers in this repo generate
    * data from `spark.range`, so the range id itself is the natural rid;
    * this helper exists for externally-loaded tables.
    */
  def withRid(df: DataFrame): DataFrame =
    if (df.columns.contains(Rid)) df
    else df.withColumn(Rid, monotonically_increasing_id())

  /** Data columns of `df`, i.e. everything except the rid. */
  def dataCols(df: DataFrame): Seq[String] =
    df.columns.toSeq.filterNot(_ == Rid)
}
