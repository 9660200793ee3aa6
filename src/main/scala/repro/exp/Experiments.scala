package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.Datasets
import repro.eda._
import repro.embed.EmbDI
import repro.rules.{Apriori, Rule}
import repro.select.RandomBaseline

import scala.util.Random
import scala.util.hashing.MurmurHash3

/** One harness per table/figure of the evaluation section (§6). Each
  * returns structured rows plus a rendered text table; bench suites assert
  * the paper's qualitative shape on the rows, jobs print the table.
  * Scales default to container-size (DESIGN.md §3, "Time limits").
  */
object Experiments {

  /** Default sub-table size used throughout §6 examples (Fig. 2 is 10×10). */
  val K = 10
  val L = 10

  /** Width must stay small relative to m for the metric to discriminate
    * (at l ≈ m every algorithm covers every rule's columns): cap at half
    * the columns, as the paper's sub-tables do for its narrower datasets.
    */
  def widthFor(m: Int): Int = math.min(L, math.max(3, m / 2))

  // ------------------------------------------------------------- Table 1 --
  final case class T1Row(algo: String, avgCorrect: Double, pctCorrect: Double,
                         pctUsersNoInsight: Double, avgTotal: Double)

  /** Simulated user study over SP-, FL- and BL-like data (§6.2.1). */
  def table1(spark: SparkSession, scale: Double = 1.0,
             usersPerAlgo: Int = 5): (Seq[T1Row], String) = {
    val datasets = Seq(
      Datasets.spotify(spark, 0.25 * scale),
      Datasets.flights(spark, 0.004 * scale),
      Datasets.bankloans(spark, 0.08 * scale),
    )
    val ctxs = datasets.map(Ctx.prepare(spark, _, Ctx.BenchSubTab))

    val rows = Algos.Interactive.map { algo =>
      var correctSum = 0; var writtenSum = 0; var runs = 0; var zeroRuns = 0
      ctxs.foreach { ctx =>
        val sub = Algos.run(ctx, algo, K, widthFor(ctx.cols.size))
        val subRows = ctx.model.matrix.subTableTokens(sub)
        // The study's UI highlights the rules the sub-table captures
        // (computed identically for every baseline, §6.2.1).
        val highlighted = Metrics.coveredRules(ctx.rules,
          subRows.map(_.toSet), sub.cols.toSet)
        (0 until usersPerAlgo).foreach { u =>
          val seed = MurmurHash3.stringHash(s"$algo/${ctx.name}/$u").toLong
          val r = InsightOracle.simulateUser(ctx.model.matrix,
            sub.cols, subRows, seed, highlighted = highlighted)
          correctSum += r.correct; writtenSum += r.written; runs += 1
          if (!r.hasInsight) zeroRuns += 1
        }
      }
      T1Row(algo,
        avgCorrect = correctSum.toDouble / runs,
        pctCorrect = if (writtenSum == 0) 0.0 else correctSum.toDouble / writtenSum,
        pctUsersNoInsight = zeroRuns.toDouble / runs,
        avgTotal = writtenSum.toDouble / runs)
    }
    ctxs.foreach(_.model.unpersist())
    val txt = TextTable.render("Table 1: simulated user study",
      Seq("Metric") ++ rows.map(_.algo),
      Seq(
        "# correct insights" +: rows.map(r => f"${r.avgCorrect}%.1f (${TextTable.pct(r.pctCorrect)})"),
        "% of users with no insights" +: rows.map(r => TextTable.pct(r.pctUsersNoInsight)),
        "# Total insights" +: rows.map(r => f"${r.avgTotal}%.2f"),
      ))
    (rows, txt)
  }

  // -------------------------------------------------------------- Fig. 6 --
  final case class F6Row(width: Int, algo: String, captured: Int, total: Int) {
    def pct: Double = if (total == 0) 0.0 else captured.toDouble / total
  }

  /** Simulation-based study on CY (§6.2.2): replay sessions, build a
    * sub-table per query result, count next-query fragments captured.
    */
  def fig6(spark: SparkSession, cySf: Double = 0.5,
           widths: Seq[Int] = 3 to 7,
           sessionParams: Sessions.Params = Sessions.Params(nSessions = 10, queriesPerSession = 4),
           minResultRows: Int = 20): (Seq[F6Row], String) = {
    val ctx = Ctx.prepare(spark, Datasets.cyber(spark, cySf), Ctx.BenchSubTab)
    val sessions = Sessions.generate(ctx.model.binModel, ctx.rules, sessionParams)
    val acc = scala.collection.mutable.Map[(Int, String), (Int, Int)]()
      .withDefaultValue((0, 0))
    val rng = new Random(109)

    sessions.foreach { s =>
      s.queries.sliding(2).foreach {
        case Seq(q, qNext) =>
          val (rows, qCols) = SubTab.queryRows(ctx.model, Some(q.apply))
          val n = rows.length
          if (n >= minResultRows) {
            val frags = qNext.fragments
            val rawView = q.apply(ctx.model.original) // NC clusters raw data
            // NC's row selection is width-independent — compute once per query.
            val ncRows = repro.select.NaiveClustering.selectRows(rawView, qCols, K)
            // Small scorer over (a sample of) the result for RAN's best-of:
            // the result's rows of the model's matrix, or a Spark sample of
            // the cached query view. Spark samples each partition of the
            // cached view, so which rows it keeps depends on the cache's
            // partitioning.
            val scorer =
              if (n <= 3000) new Scorer(ctx.model.matrix.slice(rows, qCols), ctx.rules)
              else {
                val cached = SubTab.queryView(ctx.model, Some(q.apply))._1.cache()
                val sample = cached.sample(withReplacement = false, 3000.0 / n, 113)
                try new Scorer(BinnedMatrix.collect(sample, qCols), ctx.rules)
                finally cached.unpersist()
              }
            // SubTab's row selection is width-independent too.
            val stSubs = SubTab.select(ctx.model, rows, qCols, K, widths, Nil)
            widths.zip(stSubs).foreach { case (w, stSub) =>
              val ncCols = repro.select.NaiveClustering.selectCols(rawView, qCols, w)
              val ran = RandomBaseline.run(scorer, K, w,
                budgetMillis = 10000, maxIters = Algos.RanBudget().iters,
                seed = rng.nextLong()).sub
              val subs = Seq(
                "SubTab" -> stSub,
                "NC" -> SubTable(ncRows, ncCols),
                "RAN" -> ran)
              subs.foreach { case (algo, sub) =>
                val tok = ctx.model.matrix.subTableTokens(sub)
                val got = frags.count(Sessions.captured(_, sub.cols, tok))
                val (c, t) = acc((w, algo))
                acc((w, algo)) = (c + got, t + frags.size)
              }
            }
          }
        case _ => ()
      }
    }
    ctx.model.unpersist()
    val rows = for (w <- widths; a <- Algos.Interactive)
      yield { val (c, t) = acc((w, a)); F6Row(w, a, c, t) }
    val txt = TextTable.render("Fig. 6: % next-query fragments captured (CY)",
      "width" +: Algos.Interactive,
      widths.map(w => w.toString +: Algos.Interactive.map(a =>
        TextTable.pct(rows.find(r => r.width == w && r.algo == a).get.pct))))
    (rows.toSeq, txt)
  }

  // -------------------------------------------------------------- Fig. 7 --
  final case class F7Row(algo: String, cellCov: Double, divers: Double,
                         combined: Double, timeMillis: Long)

  /** Quality vs running time against the slow baselines on FL (§6.2.3).
    * Budgets are container-scale: the paper ran Greedy for 48h and MAB >24h;
    * the *ordering* of cost and quality is what we reproduce.
    */
  def fig7(spark: SparkSession, flSf: Double = 0.004,
           mabBudgetMillis: Long = 60000, greedyBudgetMillis: Long = 60000,
           embdi: EmbDI.Params = EmbDI.Params(walksPerRow = 5, walkLength = 20))
      : (Seq[F7Row], String) = {
    val ctx = Ctx.prepare(spark, Datasets.flights(spark, flSf), Ctx.BenchSubTab)
    def row(algo: String, sub: SubTable, millis: Long): F7Row = {
      val s = ctx.scorer.scores(sub)
      F7Row(algo, s.cellCov, s.divers, s.combined, millis)
    }

    val (stSub, stSelMs) = Ctx.timed(SubTab.select(ctx.model, K, L, ctx.meta.targets))
    val stRow = row("SubTab", stSub, ctx.prepMillis + stSelMs)
    val (emSub, emTotalMs) = Algos.runEmbDI(ctx, K, L, embdi)
    val emRow = row("EmbDI", emSub, emTotalMs)
    val (mab, mabMs) = Ctx.timed(Algos.runMab(ctx, K, L, mabBudgetMillis))
    val mabRow = row("MAB", mab.sub, mabMs)
    val (greedy, greedyMs) = Ctx.timed(Algos.runGreedy(ctx, K, L, greedyBudgetMillis))
    val gRow = row("Greedy", greedy.sub, greedyMs)

    ctx.model.unpersist()
    val rows = Seq(stRow, emRow, mabRow, gRow)
    val txt = TextTable.render("Fig. 7: quality vs total running time (FL)",
      Seq("algo", "cellCov", "divers", "combined", "time"),
      rows.map(r => Seq(r.algo, TextTable.f(r.cellCov), TextTable.f(r.divers),
        TextTable.f(r.combined), TextTable.secs(r.timeMillis))))
    (rows, txt)
  }

  // -------------------------------------------------------------- Fig. 8 --
  final case class F8Row(dataset: String, algo: String, cellCov: Double,
                         divers: Double, combined: Double)

  /** Intrinsic quality of the interactive algorithms on FL, SP, CY. */
  def fig8(spark: SparkSession, scale: Double = 1.0): (Seq[F8Row], String) = {
    val datasets = Seq(
      Datasets.flights(spark, 0.004 * scale),
      Datasets.spotify(spark, 0.4 * scale),
      Datasets.cyber(spark, 0.5 * scale),
    )
    val rows = datasets.flatMap { dm =>
      val ctx = Ctx.prepare(spark, dm, Ctx.BenchSubTab)
      val out = Algos.Interactive.map { algo =>
        val sub = Algos.run(ctx, algo, K, widthFor(ctx.cols.size))
        val s = ctx.scorer.scores(sub)
        F8Row(ctx.name, algo, s.cellCov, s.divers, s.combined)
      }
      ctx.model.unpersist()
      out
    }
    val txt = TextTable.render("Fig. 8: quality metrics per dataset",
      Seq("dataset", "algo", "cellCov", "divers", "combined"),
      rows.map(r => Seq(r.dataset, r.algo, TextTable.f(r.cellCov),
        TextTable.f(r.divers), TextTable.f(r.combined))))
    (rows, txt)
  }

  // -------------------------------------------------------------- Fig. 9 --
  final case class F9Row(dataset: String, nRows: Long, nCols: Int,
                         prepMillis: Long, selectMillis: Long, querySelectMillis: Long)

  /** Pre-processing vs selection running time for all six datasets (§6.3).
    * No rule mining here — Fig. 9 measures the online pipeline only.
    */
  def fig9(spark: SparkSession, scale: Double = 1.0): (Seq[F9Row], String) = {
    val rows = Datasets.all(spark, scale).map { case (df, meta) =>
      val (model, prepMs) = Ctx.timed(SubTab.preprocess(df, Ctx.BenchSubTab))
      val mat = model.matrix
      val (_, selMs) = Ctx.timed(SubTab.select(model, K, L, meta.targets))
      // A representative SP query: filter on the first target (or first)
      // column's most frequent bin, ties to the smallest token.
      val qCol = meta.targets.headOption.getOrElse(model.cols.head)
      val tok = mat.tokens.indices.filter(c => Binning.tokenCol(mat.tokens(c)) == qCol)
        .map(c => (-mat.rowsOf(c).length, mat.tokens(c))).min._2
      val pred = Query.predicateFor(model.binModel, tok)
      val q = Query(Seq(pred))
      val (_, qSelMs) = Ctx.timed(
        SubTab.select(model, Some(q.apply(_)), K, L, Nil))
      val r = F9Row(meta.name, mat.n, model.cols.size, prepMs, selMs, qSelMs)
      model.unpersist()
      r
    }
    val txt = TextTable.render("Fig. 9: SubTab running time per dataset",
      Seq("dataset", "rows", "cols", "pre-process", "select(full)", "select(query)"),
      rows.map(r => Seq(r.dataset, r.nRows.toString, r.nCols.toString,
        TextTable.millis(r.prepMillis), TextTable.millis(r.selectMillis),
        TextTable.millis(r.querySelectMillis))))
    (rows, txt)
  }

  // ------------------------------------------------------------- Fig. 10 --
  final case class F10Row(param: String, value: String, algo: String, cellCov: Double)

  /** Parameter-tuning sweep (§6.4): the sub-tables are FIXED (computed at
    * default settings); only the evaluation rule set varies — #bins via
    * re-binning + re-mining, support/confidence via re-deriving rules from
    * the default frequent itemsets. Results averaged over FL and SP.
    */
  def fig10(spark: SparkSession, scale: Double = 1.0,
            bins: Seq[Int] = Seq(3, 5, 7, 10),
            supports: Seq[Double] = Seq(0.1, 0.2, 0.3, 0.4),
            confidences: Seq[Double] = Seq(0.1, 0.3, 0.5, 0.7)): (Seq[F10Row], String) = {
    val datasets = Seq(
      Datasets.flights(spark, 0.004 * scale),
      Datasets.spotify(spark, 0.4 * scale),
    )
    // accumulate cellCov sums per (param, value, algo) across datasets
    val acc = scala.collection.mutable.Map[(String, String, String), Double]()
      .withDefaultValue(0.0)

    datasets.foreach { dm =>
      val ctx = Ctx.prepare(spark, dm, Ctx.BenchSubTab)
      val subs: Seq[(String, SubTable)] =
        Algos.Interactive.map(a => a -> Algos.run(ctx, a, K, widthFor(ctx.cols.size)))

      def score(param: String, value: String, scorer: Scorer): Unit =
        subs.foreach { case (a, sub) => acc((param, value, a)) += scorer.scores(sub).cellCov }
      def targetRules(rules: Seq[Rule]): Seq[Rule] = Rule.targetFilter(rules, ctx.meta.targets.toSet)

      // -- #bins sweep: re-bin + re-mine per bin count --------------------
      bins.foreach { b =>
        val scorer =
          if (b == ctx.model.params.nBins) ctx.scorer
          else {
            val (bm, binnedB) = Binning.bin(ctx.model.original, b)
            val mat = BinnedMatrix.collect(binnedB, bm.cols)
            Binning.release(binnedB)
            new Scorer(mat, targetRules(Apriori.mine(mat, Apriori.Params())))
          }
        score("bins", b.toString, scorer)
      }

      // -- support / confidence sweeps: reuse default frequent itemsets ---
      val freq = Apriori.frequentItemsets(ctx.model.matrix, Apriori.Params())
      supports.foreach { s =>
        val minCount = math.ceil(s * freq.nRows).toLong
        val kept = Apriori.Frequents(freq.itemsets.filter(_.count >= minCount), freq.nRows)
        val rules = targetRules(Apriori.rulesFrom(kept, Apriori.Params(minSupport = s)))
        score("support", s.toString, new Scorer(ctx.model.matrix, rules))
      }
      confidences.foreach { c =>
        val rules = targetRules(Apriori.rulesFrom(freq, Apriori.Params(minConfidence = c)))
        score("confidence", c.toString, new Scorer(ctx.model.matrix, rules))
      }
      ctx.model.unpersist()
    }

    val nd = datasets.size
    val rows =
      (bins.map(b => ("bins", b.toString)) ++
        supports.map(s => ("support", s.toString)) ++
        confidences.map(c => ("confidence", c.toString))).flatMap { case (p, v) =>
        Algos.Interactive.map(a => F10Row(p, v, a, acc((p, v, a)) / nd))
      }
    val txt = TextTable.render("Fig. 10: cell coverage vs rule parameters (avg FL+SP)",
      Seq("param", "value") ++ Algos.Interactive,
      rows.groupBy(r => (r.param, r.value)).toSeq
        .sortBy { case ((p, v), _) => (p, v.toDouble) }
        .map { case ((p, v), rs) =>
          Seq(p, v) ++ Algos.Interactive.map(a =>
            TextTable.f(rs.find(_.algo == a).get.cellCov))
        })
    (rows, txt)
  }
}
