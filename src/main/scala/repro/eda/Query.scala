package repro.eda

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.core.{Binning, Tables}

/** Selection-projection / group-by query model for EDA sessions (paper
  * §6.2.2: sessions contain select, project, group-by and sort operations).
  *
  * Queries run against the *original* table (raw values); fragments — the
  * units the simulation study counts — are expressed at the bin level so
  * that "the sub-table contains the fragment" means a cell in the same bin,
  * exactly as the diversity/coverage machinery treats similarity.
  */
sealed trait Predicate {
  def col: String
  /** Binned token this predicate corresponds to (the fragment's identity). */
  def token: String
  def toColumn: Column
}

/** Equality on a categorical value. */
final case class CatEq(col: String, value: String, token: String) extends Predicate {
  def toColumn: Column = org.apache.spark.sql.functions.col(col) === lit(value)
}

/** A categorical column's grouped `OTHER` bin: a non-null value outside the
  * kept categories (nulls bin to `∅`). Values are compared as strings, as
  * binning compares them.
  */
final case class CatNotIn(col: String, kept: Set[String], token: String) extends Predicate {
  def toColumn: Column = {
    val c = org.apache.spark.sql.functions.col(col).cast("string")
    c.isNotNull && !c.isin(kept.toSeq.sorted: _*)
  }
}

/** Range selection on a continuous column: lo < v <= hi — exactly the bin
  * membership rule of [[Binning.ContinuousBins]] (bin i is the half-open
  * interval (edges(i-1), edges(i)], unbounded at the extremes).
  */
final case class NumRange(col: String, lo: Double, hi: Double, token: String) extends Predicate {
  def toColumn: Column = {
    val c = org.apache.spark.sql.functions.col(col)
    val lower = if (lo.isNegInfinity) lit(true) else c > lit(lo)
    val upper = if (hi.isPosInfinity) lit(true) else c <= lit(hi)
    lower && upper
  }
}

/** Select null cells (NaN-cluster exploration, e.g. cancelled flights). */
final case class IsNull(col: String) extends Predicate {
  def token: String = Binning.token(col, Binning.NullLabel)
  def toColumn: Column = org.apache.spark.sql.functions.col(col).isNull
}

/** A query fragment as counted by the simulation study. */
sealed trait Fragment
final case class ColFragment(col: String) extends Fragment
final case class ValueFragment(col: String, token: String) extends Fragment

final case class Query(predicates: Seq[Predicate],
                       project: Option[Seq[String]] = None,
                       groupBy: Option[String] = None) {

  /** Execute against the original table; keeps `__rid`, applies filters and
    * the projection. Group-by is an *intent* fragment (the session study
    * counts its column), not a transformation of the displayed result —
    * displaying a grouped aggregate is out of sub-table scope.
    */
  def apply(df: DataFrame): DataFrame = {
    val filtered = predicates.foldLeft(df)((d, p) => d.where(p.toColumn))
    project match {
      case None => filtered
      case Some(cols) => filtered.select((Tables.Rid +: cols).map(col): _*)
    }
  }

  /** Fragments of this query: one column + one value fragment per
    * predicate, plus the group-by column if any.
    */
  def fragments: Seq[Fragment] =
    predicates.flatMap(p => Seq(ColFragment(p.col), ValueFragment(p.col, p.token))) ++
      groupBy.map(ColFragment).toSeq

  /** Columns this query needs to exist (for projection sanity). */
  def columnsUsed: Seq[String] =
    (predicates.map(_.col) ++ groupBy.toSeq ++ project.getOrElse(Nil)).distinct
}

object Query {

  /** Build the executable predicate for a binned token against the model
    * that produced it: categorical kept values -> equality; OTHER -> not-in;
    * continuous bin -> range from the bin edges; ∅ -> isNull.
    */
  def predicateFor(model: Binning.BinModel, tok: String): Predicate = {
    val c = Binning.tokenCol(tok)
    val label = Binning.tokenLabel(tok)
    if (label == Binning.NullLabel) IsNull(c)
    else model(c) match {
      case Binning.ContinuousBins(_, edges) =>
        val i = label.stripPrefix("b").toInt
        val lo = if (i == 0) Double.NegativeInfinity else edges(i - 1)
        val hi = if (i >= edges.length) Double.PositiveInfinity else edges(i)
        NumRange(c, lo, hi, tok)
      case Binning.CategoricalBins(_, kept, _) =>
        if (kept.contains(label)) CatEq(c, label, tok)
        else CatNotIn(c, kept, tok)
    }
  }
}
