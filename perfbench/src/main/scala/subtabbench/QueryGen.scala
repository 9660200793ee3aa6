package subtabbench

import org.apache.spark.sql.{Column, DataFrame, Row, functions}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{NumericType, StringType}
import repro.core.Tables

import scala.util.Random

/** A predicate over the raw (unbinned) values of the original table. */
sealed trait Pred {
  def column: Column
  def holds(v: Any): Boolean
  def col: String
}

final case class Eq(col: String, value: String) extends Pred {
  def column: Column = functions.col(col).cast(StringType) === lit(value)
  def holds(v: Any): Boolean = v != null && v.toString == value
}

/** lo <= v <= hi on a numeric column; null and NaN never match. */
final case class Range(col: String, lo: Double, hi: Double) extends Pred {
  def column: Column = {
    val c = functions.col(col)
    !isnan(c) && c >= lit(lo) && c <= lit(hi)
  }
  def holds(v: Any): Boolean = QueryGen.num(v).exists(d => d >= lo && d <= hi)
}

/** Null test; on numeric columns NaN counts as null, as binning treats it. */
final case class NullTest(col: String, isNull: Boolean, numeric: Boolean) extends Pred {
  def column: Column = {
    val c = functions.col(col)
    val missing = if (numeric) c.isNull || isnan(c) else c.isNull
    if (isNull) missing else !missing
  }
  def holds(v: Any): Boolean = QueryGen.missing(v) == isNull
}

/** A generated exploration query: a conjunction of raw-value predicates and
  * an optional projection. It keeps `__rid`, as `SubTab.select` requires.
  */
final case class GenQuery(kind: String, preds: Seq[Pred], project: Option[Seq[String]]) {
  def apply(df: DataFrame): DataFrame = {
    val filtered = preds.foldLeft(df)((d, p) => d.where(p.column))
    project.fold(filtered)(cs => filtered.select((Tables.Rid +: cs).map(functions.col): _*))
  }
  def describe: String =
    s"$kind: " + preds.mkString(" AND ") + project.fold("")(cs => s" PROJECT ${cs.size} cols")
}

/** Seeded query generator. Predicates are drawn from the raw values of the
  * table with a fixed selectivity mix: two broad queries (about 20-60% of
  * the rows), two narrow ones (about 2-8%) and two whose result has fewer
  * rows than the smallest k the session asks for. It deliberately does not
  * use `Query.predicateFor`, whose OTHER-bin predicate matches no row: the
  * workload's result sizes must not jump when that is fixed.
  */
object QueryGen {

  private[subtabbench] def num(v: Any): Option[Double] = v match {
    case n: Number if !n.doubleValue().isNaN => Some(n.doubleValue())
    case _ => None
  }
  private[subtabbench] def missing(v: Any): Boolean = v match {
    case null => true
    case n: Number => n.doubleValue().isNaN
    case _ => false
  }

  /** Six queries (two per kind, kinds interleaved) over `df`, whose rows are given collected
    * as `rows`. Tiny queries match between 1 and `maxTiny` rows.
    */
  def pool(df: DataFrame, rows: Array[Row], targets: Seq[String], seed: Long,
           maxTiny: Int): Seq[GenQuery] = {
    val rnd = new Random(seed)
    val cols = Tables.dataCols(df)
    val idx = df.columns.zipWithIndex.toMap
    val numeric = cols.filter(c => df.schema(c).dataType.isInstanceOf[NumericType])
    val categorical = cols.filterNot(numeric.contains)
    def values(c: String): Array[Any] = rows.map(_.get(idx(c)))
    def share(ps: Seq[Pred]): Double =
      rows.count(r => ps.forall(p => p.holds(r.get(idx(p.col))))).toDouble / rows.length
    val nullShare: Map[String, Double] =
      cols.map(c => c -> values(c).count(missing).toDouble / rows.length).toMap
    // Columns with at least one value to compare against.
    val eqCols = categorical.filter(c => nullShare(c) < 1.0)
    val rangeCols = numeric.filter(c => nullShare(c) < 1.0)

    // A range over a run of `frac` of the column's sorted values.
    def range(c: String, frac: Double): Range = {
      val vs = values(c).flatMap(num).sorted
      val width = math.max(1, (frac * vs.length).toInt)
      val start = rnd.nextInt(math.max(1, vs.length - width))
      Range(c, vs(start), vs(math.min(vs.length - 1, start + width - 1)))
    }
    def pick[A](xs: Seq[A]): A = xs(rnd.nextInt(xs.size))
    // A non-null value of categorical column `c`, drawn by frequency.
    def present(c: String): String = String.valueOf(pick(values(c).filterNot(missing).toSeq))
    // Draw candidates until one falls in the band (bounded tries; the last
    // draw is kept so the pool always has its six queries).
    def within(lo: Double, hi: Double)(draw: => Seq[Pred]): Seq[Pred] = {
      var ps = draw
      var tries = 1
      while (tries < 50 && { val s = share(ps); s < lo || s > hi }) { ps = draw; tries += 1 }
      ps
    }
    def broad(): Seq[Pred] = within(0.2, 0.6) {
      val nullable = cols.filter(c => nullShare(c) >= 0.2 && nullShare(c) <= 0.8)
      rnd.nextInt(3) match {
        case 0 if nullable.nonEmpty =>
          val c = pick(nullable)
          Seq(NullTest(c, rnd.nextBoolean(), numeric.contains(c)))
        case 1 if eqCols.nonEmpty =>
          val c = pick(eqCols)
          Seq(Eq(c, present(c)))
        case _ => Seq(range(pick(rangeCols), 0.2 + 0.4 * rnd.nextDouble()))
      }
    }
    def narrow(): Seq[Pred] = within(0.02, 0.08) {
      if (rnd.nextBoolean() || eqCols.isEmpty) Seq(range(pick(rangeCols), 0.02 + 0.06 * rnd.nextDouble()))
      else {
        val c = pick(eqCols)
        Seq(Eq(c, present(c)),
          range(pick(rangeCols), 0.1 + 0.2 * rnd.nextDouble()))
      }
    }
    // Exact-value predicates taken from one row: that row always matches;
    // add columns until fewer than `maxTiny` + 1 rows do.
    def tiny(): Seq[Pred] = {
      val r = rows(rnd.nextInt(rows.length))
      val order = rnd.shuffle(numeric.filter(c => num(r.get(idx(c))).isDefined) ++ categorical)
      var chosen = Seq.empty[Pred]
      val it = order.iterator
      while (it.hasNext && (chosen.isEmpty || share(chosen) * rows.length > maxTiny)) {
        val c = it.next()
        val v = r.get(idx(c))
        chosen :+= (if (numeric.contains(c)) { val d = num(v).get; Range(c, d, d) }
                    else if (v == null) NullTest(c, isNull = true, numeric = false)
                    else Eq(c, v.toString))
      }
      chosen
    }
    // Half the queries project to a random half of the columns (targets kept).
    def projection(): Option[Seq[String]] =
      if (rnd.nextBoolean()) None
      else {
        val keep = (targets ++ rnd.shuffle(cols.filterNot(targets.contains)).take(cols.size / 2)).toSet
        Some(cols.filter(keep.contains))
      }
    // Kinds interleaved, so a short session still meets each of them.
    Seq.fill(2)(Seq("broad" -> (() => broad()), "narrow" -> (() => narrow()), "tiny" -> (() => tiny())))
      .flatten.map { case (kind, draw) => GenQuery(kind, draw(), projection()) }
  }
}
