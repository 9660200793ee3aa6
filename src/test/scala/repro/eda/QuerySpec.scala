package repro.eda

import org.apache.spark.sql.functions._
import repro.core.{Binning, Tables}
import repro.data.Datasets
import repro.{Oracle, SparkSpec}

class QuerySpec extends SparkSpec {

  lazy val (df, _) = Datasets.spotify(spark, 0.05)
  lazy val (model, binned) = Binning.bin(df, 5)

  test("predicateFor on a continuous bin selects exactly that bin's rows") {
    val toks = binned.select("tempo").distinct().collect().map(_.getString(0))
      .filter(Binning.tokenLabel(_) != Binning.NullLabel)
    toks.foreach { tok =>
      val pred = Query.predicateFor(model, tok)
      val byPredicate = df.where(pred.toColumn).select(Tables.Rid)
        .collect().map(_.getLong(0)).toSet
      val byBin = binned.where(col("tempo") === tok).select(Tables.Rid)
        .collect().map(_.getLong(0)).toSet
      assert(byPredicate == byBin, s"mismatch for $tok")
    }
  }

  test("predicateFor on a categorical value selects exactly its rows") {
    val tok = Binning.token("genre", "pop")
    val pred = Query.predicateFor(model, tok)
    val byPredicate = df.where(pred.toColumn).count()
    val byBin = binned.where(col("genre") === tok).count()
    assert(byPredicate == byBin && byPredicate > 0)
  }

  test("predicateFor on an OTHER token selects exactly the rows binned to OTHER") {
    val genre = model("genre").asInstanceOf[Binning.CategoricalBins]
    assert(genre.hasOther)
    val tok = Binning.token("genre", "OTHER")
    val pred = Query.predicateFor(model, tok)
    assert(pred.token == tok)
    val byPredicate = df.where(pred.toColumn).select(Tables.Rid)
      .collect().map(_.getLong(0)).toSet
    val byBin = binned.where(col("genre") === tok).select(Tables.Rid)
      .collect().map(_.getLong(0)).toSet
    assert(byPredicate == byBin && byBin.nonEmpty)
  }

  test("predicateFor on the ∅ bin selects null rows") {
    val (fl, _) = Datasets.flights(spark, 0.0003)
    val (m2, b2) = Binning.bin(fl, 5)
    val tok = Binning.token("DEPARTURE_TIME", Binning.NullLabel)
    val pred = Query.predicateFor(m2, tok)
    assert(pred.isInstanceOf[IsNull])
    val byPredicate = fl.where(pred.toColumn).count()
    val byBin = b2.where(col("DEPARTURE_TIME") === tok).count()
    assert(byPredicate == byBin && byPredicate > 0)
  }

  test("query result matches DuckDB (oracle) for a range selection") {
    val edges = model("tempo").asInstanceOf[Binning.ContinuousBins].edges
    val pred = NumRange("tempo", edges(0), edges(1), Binning.token("tempo", "b1"))
    val q = Query(Seq(pred))
    val got = q(df).select(col(Tables.Rid).cast("long").as(Tables.Rid))
    Oracle.assertEquivalent(got,
      s"SELECT CAST(${Tables.Rid} AS BIGINT) AS ${Tables.Rid} FROM sp " +
        s"WHERE CAST(tempo AS DOUBLE) > ${edges(0)} AND CAST(tempo AS DOUBLE) <= ${edges(1)}",
      "sp" -> df.select(col(Tables.Rid), col("tempo")))
  }

  test("query keeps __rid and applies projections") {
    val q = Query(Seq(CatEq("genre", "pop", Binning.token("genre", "pop"))),
      project = Some(Seq("genre", "tempo")))
    val out = q(df)
    assert(out.columns.toSeq == Seq(Tables.Rid, "genre", "tempo"))
    assert(out.count() > 0)
  }

  test("fragments cover predicates and group-by") {
    val tok = Binning.token("genre", "pop")
    val q = Query(Seq(CatEq("genre", "pop", tok)), groupBy = Some("tempo"))
    val fs = q.fragments
    assert(fs.contains(ColFragment("genre")))
    assert(fs.contains(ValueFragment("genre", tok)))
    assert(fs.contains(ColFragment("tempo")))
    assert(fs.size == 3)
  }

  test("columnsUsed lists every referenced column once") {
    val q = Query(
      Seq(CatEq("genre", "pop", "genre=pop")),
      project = Some(Seq("genre", "tempo")), groupBy = Some("mode"))
    assert(q.columnsUsed.toSet == Set("genre", "tempo", "mode"))
  }

  test("bottom and top bins are unbounded on the open side") {
    val edges = model("tempo").asInstanceOf[Binning.ContinuousBins].edges
    val p0 = Query.predicateFor(model, Binning.token("tempo", "b0"))
      .asInstanceOf[NumRange]
    assert(p0.lo.isNegInfinity && p0.hi == edges(0))
    val pTop = Query.predicateFor(model, Binning.token("tempo", s"b${edges.length}"))
      .asInstanceOf[NumRange]
    assert(pTop.hi.isPosInfinity && pTop.lo == edges.last)
  }
}
