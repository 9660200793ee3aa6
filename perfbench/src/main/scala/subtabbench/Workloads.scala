package subtabbench

import java.lang.management.ManagementFactory

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core._
import repro.data.Datasets
import repro.exp.Ctx
import repro.rules.{Apriori, Rule}

import scala.collection.mutable
import scala.util.Random
import scala.util.control.NonFatal

/** Name, unit and direction of one reported metric. */
final case class MetricDef(name: String, unit: String, better: String)

object MetricDefs {
  private def lower(n: String, u: String) = MetricDef(n, u, "lower")
  private def higher(n: String, u: String) = MetricDef(n, u, "higher")

  /** Reported by every untraced run, on every workload. An "answer" is what
    * the analyst waits for: a sub-table from `SubTab.select` on the explore
    * workloads, a scored sub-table (budgeted search plus exact scoring) on
    * evaluate-flights. "Prepare" is the one-time work before the first
    * answer.
    */
  val EndToEnd: Seq[MetricDef] = Seq(
    lower("setup_s", "s"),
    lower("prepare_s", "s"),
    lower("answer_p50_ms", "ms"),
    lower("answer_tail_ms", "ms"),
    lower("driver_heap_mb", "MB"),
    higher("quality_combined", "score"),
  )

  /** Reported by every traced run; a layer a workload never calls reads 0. */
  val PerLayer: Seq[MetricDef] = Seq(
    lower("binning.fit_ms", "ms"), lower("binning.transform_ms", "ms"),
    lower("binning.vocab_tokens", "count"),
    lower("corpus.build_ms", "ms"), lower("corpus.sentences", "count"),
    lower("corpus.tokens", "count"), lower("corpus.kept_ratio", "ratio"),
    lower("embedding.train_ms", "ms"), lower("embedding.vocab", "count"),
    higher("embedding.core_util", "ratio"),
    lower("select.full_p50_ms", "ms"), lower("select.query_p50_ms", "ms"),
    lower("subtab.query_view_ms", "ms"),
    lower("subtab.rows_ms", "ms"), lower("subtab.column_vectors_ms", "ms"),
    lower("subtab.cols_ms", "ms"), lower("centroid.select_named_ms", "ms"),
    lower("select.spark_jobs", "count"), lower("select.spark_tasks", "count"),
    higher("select.useful_task_ratio", "ratio"),
    lower("apriori.frequent_ms", "ms"), lower("apriori.rules_ms", "ms"),
    lower("apriori.itemsets", "count"), lower("apriori.rstar_rules", "count"),
    lower("apriori.rstar_itemsets", "count"), higher("apriori.useful_ratio", "ratio"),
    lower("matrix.collect_ms", "ms"), lower("scorer.build_ms", "ms"),
    lower("scorer.eval_us", "us"),
    lower("metrics.described_cells_ms", "ms"), lower("metrics.sub_table_tokens_ms", "ms"),
    lower("metrics.scores_ms", "ms"),
    lower("spark.jobs", "count"), lower("spark.stages", "count"),
    lower("spark.tasks", "count"), lower("spark.task_ms", "ms"), lower("jvm.gc_ms", "ms"),
    higher("trace.coverage", "ratio"), lower("trace.overhead", "ratio"),
  )
}

/** Output checks of one operation; any failed check fails the operation. */
final class Checks {
  val problems: mutable.ArrayBuffer[String] = mutable.ArrayBuffer()
  def apply(ok: Boolean, what: => String): Unit = if (!ok) problems += what
}

/** State of one benchmark run: operation counts, failures with their cause,
  * metrics, and the facts the run record reports.
  */
final class Run(val spark: SparkSession, val seed: Long, val seconds: Int,
                val tracer: Option[Tracer]) {
  val jvmStartMs: Long = ManagementFactory.getRuntimeMXBean.getStartTime
  var attempted = 0
  var failed = 0
  val failures: mutable.ArrayBuffer[String] = mutable.ArrayBuffer()
  val metrics: mutable.LinkedHashMap[String, Double] = mutable.LinkedHashMap()
  val notes: mutable.LinkedHashMap[String, Any] = mutable.LinkedHashMap()
  val table: mutable.LinkedHashMap[String, Any] = mutable.LinkedHashMap()
  val ops: mutable.ArrayBuffer[Json.Obj] = mutable.ArrayBuffer()
  /** Public-call and composed (traced) wall times of the timed calls. */
  val overhead: mutable.ArrayBuffer[(Double, Double)] = mutable.ArrayBuffer()

  val composed: Option[Composed] = tracer.map(new Composed(_))
  def traced: Boolean = tracer.isDefined

  /** Run one operation. It counts as attempted, and as failed when it
    * throws or a check fails; the cause is kept. A throw yields None.
    */
  def op[A](what: String)(body: Checks => A): Option[A] = {
    attempted += 1
    val c = new Checks
    try {
      val a = body(c)
      if (c.problems.nonEmpty) { failed += 1; failures ++= c.problems.map(p => s"$what: $p") }
      Some(a)
    } catch {
      case NonFatal(e) =>
        failed += 1
        failures += s"$what: threw $e"
        None
    }
  }

  /** Wall time of each phase of the run, for the result file. */
  val phases: mutable.LinkedHashMap[String, Double] = mutable.LinkedHashMap()
  def phase[A](name: String)(body: => A): A = {
    val t0 = System.nanoTime()
    try body finally phases(name) = (System.nanoTime() - t0) / 1e9
  }

  /** Run `body` under a root span when traced. */
  def span[A](name: String, request: String)(body: => A): A =
    tracer.fold(body)(_.span(name, request)(body))
}

object Workloads {

  def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e6)
  }

  /** A generated table: the named generator's output, cut down to a seeded
    * subset of exactly `rows` rows. The subset keeps every workload inside
    * the benchmark's time budget (see METRICS.md).
    */
  final case class TableSpec(label: String, make: SparkSession => (DataFrame, Datasets.Meta),
                             rows: Int)

  /** FL-like: 31 columns, NaN-heavy, target CANCELLED; 1,500 of the
    * generator's 2,000-row floor.
    */
  val Flights: TableSpec = TableSpec("FL", s => Datasets.flights(s, 0.0), 1500)

  val Names: Seq[String] = Seq("explore-flights", "evaluate-flights")

  def run(name: String, r: Run): Unit = name match {
    case "explore-flights" => explore(r, Flights)
    case "evaluate-flights" => evaluate(r, Flights)
    case other => throw new IllegalArgumentException(s"unknown workload $other")
  }

  /** Deterministic row subset: rows whose seeded rid hash falls under `frac`. */
  def slice(df: DataFrame, frac: Double, seed: Long): DataFrame =
    df.where(pmod(xxhash64(col(Tables.Rid), lit(seed)), lit(1000000L)) < lit((frac * 1e6).toLong))

  /** Deterministic subset of exactly `n` rows: the `n` lowest seeded rid
    * hashes. A filter, so the table keeps the generator's partitioning.
    */
  def sample(df: DataFrame, n: Int, seed: Long): DataFrame = {
    val h = xxhash64(col(Tables.Rid), lit(seed))
    val cut = df.select(h).collect().map(_.getLong(0)).sorted.apply(n - 1)
    df.where(h <= lit(cut))
  }

  /** Generate, subset and cache the table `SetupReps` times (set-up is timed
    * as the median of the repetitions); the last copy is kept.
    */
  private val SetupReps = 3

  private def setupTable(r: Run, spec: TableSpec): (DataFrame, Datasets.Meta, Double) = {
    var kept: (DataFrame, Datasets.Meta) = null
    val times = r.phase("tables")((1 to SetupReps).map { _ =>
      if (kept != null) kept._1.unpersist(blocking = true)
      val (t, ms) = timed {
        val (full, meta) = spec.make(r.spark)
        val df = sample(full, spec.rows, r.seed).cache()
        df.count()
        (df, meta)
      }
      kept = t
      ms
    })
    val (df, meta) = kept
    r.notes("table_setup_ms") = times
    r.table ++= Seq("name" -> spec.label, "rows" -> df.count(), "cols" -> Tables.dataCols(df).size)
    (df, meta, Stats.median(times))
  }

  /** setup_s: JVM start to Spark ready, the median table set-up, then
    * `restNs` of input generation and warm-up.
    */
  private def setupSeconds(r: Run, sparkReadyMs: Long, tableMs: Double, restNs: Long): Double = {
    r.phases("spark") = (sparkReadyMs - r.jvmStartMs) / 1e3
    r.phases("spark") + tableMs / 1e3 + restNs / 1e9
  }

  private def heapMb(): Double = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }

  /** Answer latencies -> answer_p50_ms and answer_tail_ms (with its percentile). */
  private def answerMetrics(r: Run, ms: Seq[Double]): Unit = {
    val (p, tail) = Stats.tail(ms)
    r.metrics("answer_p50_ms") = Stats.median(ms)
    r.metrics("answer_tail_ms") = tail
    r.notes ++= Seq("answers" -> ms.size, "answer_tail_percentile" -> p)
  }

  private def distinctItemsets(rules: Seq[Rule]): Int = rules.map(_.items).distinct.size

  // ------------------------------------------------------------ explore ----

  final case class Op(index: Int, query: Option[Int], k: Int, l: Int)

  /** (k, l) of the full-table selects; (10, 10) is the paper's default. */
  val FullShapes: Seq[(Int, Int)] = Seq((10, 10), (12, 8), (8, 6), (10, 5))

  /** An exploration session: pre-process the table once, then a closed loop
    * of seeded selections that alternate between the full table and the
    * results of generated queries, for `seconds`. The first two full-table
    * selections are scored afterwards (Eq. 3 over R*), in an untimed
    * verification phase.
    */
  def explore(r: Run, spec: TableSpec): Unit = {
    val sparkReady = System.currentTimeMillis()
    val (df, meta, tableMs) = setupTable(r, spec)
    val setupRest = System.nanoTime()
    val targets = meta.targets
    val rows = df.collect()
    val ridIdx = df.columns.indexOf(Tables.Rid)
    val allRids = rows.map(_.getLong(ridIdx)).toSet
    val queries = r.phase("queries")(QueryGen.pool(df, rows, targets, r.seed, maxTiny = 3))
    val results = r.phase("query_results") {
      queries.map(q => q(df).select(Tables.Rid).collect().map(_.getLong(0)).toSet)
    }
    r.notes("queries") = queries.zip(results).map { case (q, res) => s"${q.describe} -> ${res.size} rows" }
    val rnd = new Random(r.seed * 31 + 7)
    // Full-table selects cycle through fixed shapes in a fixed order, so
    // every run times and scores the same mix; query selects draw k in
    // 8..12 and l in 5..10. Even ops select over the full table, odd ops
    // over a query result.
    val ops = LazyList.from(0).map { i =>
      if (i % 2 == 0) { val (k, l) = FullShapes((i / 2) % FullShapes.size); Op(i, None, k, l) }
      else Op(i, Some((i / 2) % queries.size), 8 + rnd.nextInt(5), 5 + rnd.nextInt(6))
    }
    def queryFn(q: Int): Option[DataFrame => DataFrame] = Some((d: DataFrame) => queries(q)(d))
    val inputsNs = System.nanoTime() - setupRest

    // Timed: pre-processing.
    val model = r.phase("prepare")(r.op("preprocess") { c =>
      val (m, ms) = timed(SubTab.preprocess(df, Ctx.BenchSubTab))
      r.metrics("prepare_s") = ms / 1e3
      r.composed.foreach { comp =>
        val tokens = m.binned.orderBy(Tables.Rid).collect().toSeq
        m.binned.unpersist(blocking = true)
        val (cm, cms) = timed(comp.preprocess(df, Ctx.BenchSubTab, "preprocess"))
        r.overhead += ((ms, cms))
        c(cm.binned.orderBy(Tables.Rid).collect().toSeq == tokens, "composed binned tokens differ")
        c(cm.cellVecs.vectors.keySet == m.cellVecs.vectors.keySet &&
          cm.cellVecs.vectors.forall { case (t, v) => v.sameElements(m.cellVecs(t)) },
          "composed cell vectors differ")
        r.metrics("binning.vocab_tokens") = cm.binModel.vocabulary.size.toDouble
        layerFacts(r, cm)
      }
      m
    }).getOrElse(throw new IllegalStateException("pre-processing failed: " + r.failures.mkString("; ")))
    r.table("vocab") = model.binModel.vocabulary.size

    def qCols(op: Op): Seq[String] =
      op.query.flatMap(q => queries(q).project).getOrElse(model.cols).filter(model.cols.contains)
    def select(op: Op): SubTable = SubTab.select(model, op.query.flatMap(queryFn), op.k, op.l, targets)
    def check(c: Checks, op: Op, sub: SubTable): Unit = {
      val res = op.query.map(results).getOrElse(allRids)
      val cols = qCols(op)
      c(sub.rowIds.distinct.size == sub.rowIds.size, "duplicate rids")
      c(sub.rowIds.size == math.min(op.k, res.size), s"${sub.rowIds.size} rows for k=${op.k}, n=${res.size}")
      c(sub.rowIds.forall(res.contains), "a rid outside the query result")
      c(sub.cols.distinct.size == sub.cols.size, "duplicate columns")
      c(sub.cols.size == math.min(op.l, cols.size), s"${sub.cols.size} columns for l=${op.l}, m=${cols.size}")
      c(sub.cols.forall(cols.contains), "a column outside the query result")
      c(targets.forall(sub.cols.contains), "a target column is missing")
    }
    // Untimed warm-up (JIT, Spark code generation), counted in setup_s: the
    // session's first full-table and first query select. The loop repeats
    // both, which checks that the same seed gives the same sub-table.
    val warmStart = System.nanoTime()
    val warmed = r.phase("warmup")(ops.take(2).map(op => op.index -> select(op)).toMap)
    r.metrics("setup_s") = setupSeconds(r, sparkReady, tableMs, inputsNs + System.nanoTime() - warmStart)

    // Timed: the closed-loop session.
    val done = mutable.ArrayBuffer[(Op, SubTable, Double)]()
    val deadline = System.nanoTime() + r.seconds * 1000000000L
    var i = 0
    // At least two full-table selects and one query select, however short
    // the run.
    r.phase("loop")(while (i < 3 || System.nanoTime() < deadline) {
      val op = ops(i)
      r.op(s"select-$i") { c =>
        val (sub, ms) = timed(select(op))
        check(c, op, sub)
        warmed.get(i).foreach(w => c(w == sub, s"repeated select returned $sub, first $w"))
        r.composed.foreach { comp =>
          val (csub, cms) = timed(comp.select(model, op.query.flatMap(queryFn), op.k, op.l, targets, s"select-$i"))
          r.overhead += ((ms, cms))
          c(csub == sub, s"composed select returned $csub, public $sub")
        }
        done += ((op, sub, ms))
        r.ops += Json.obj("op" -> i, "kind" -> (if (op.query.isEmpty) "full" else queries(op.query.get).kind),
          "k" -> op.k, "l" -> op.l, "ms" -> ms)
      }
      i += 1
    })
    answerMetrics(r, done.map(_._3).toSeq)
    val (full, query) = done.partition(_._1.query.isEmpty)
    r.metrics("select.full_p50_ms") = Stats.median(full.map(_._3).toSeq)
    r.metrics("select.query_p50_ms") = if (query.isEmpty) 0.0 else Stats.median(query.map(_._3).toSeq)

    // Untimed verification: quality over R*.
    r.phase("verify")(r.span("verify", "verify") {
      val (rules, scorer) = rulesAndScorer(r, model.binned, model.cols, targets)
      // Quality is scored on the first two full-table selects, whose shapes
      // are the same in every run.
      val scored = full.take(2).map { case (op, sub, _) =>
        val (q, ms) = timed(scorer.combined(scorer.rowIndices(sub.rowIds), scorer.colIndices(sub.cols)))
        (op, sub, q, ms)
      }.toSeq
      r.metrics("quality_combined") = Stats.mean(scored.map(_._3))
      r.metrics("scorer.eval_us") = Stats.median(scored.map(_._4 * 1e3))
      r.metrics("driver_heap_mb") = heapMb()
      // Keep the model and scorer reachable through the heap reading.
      r.table ++= Seq("rstar_rules" -> rules.size, "rstar_itemsets" -> distinctItemsets(rules),
        "scorer_cells" -> scorer.n * scorer.m, "model_cols" -> model.cols.size)
      // Traced runs also score the selections exactly, which times the
      // Metrics layer that this workload's answers never call.
      r.composed.foreach { comp =>
        scored.foreach { case (op, sub, fast, _) =>
          r.op(s"exact-${op.index}") { c =>
            val exact = repro.core.Metrics.scores(model.binned, model.cols, rules, sub)
            val cexact = comp.scores(model.binned, model.cols, rules, sub, s"exact-${op.index}")
            c(math.abs(exact.combined - fast) <= 1e-9, s"Scorer.combined $fast vs Metrics.scores ${exact.combined}")
            c(cexact == exact, s"composed scores $cexact, public $exact")
          }
        }
      }
    })
  }

  /** Corpus and embedding sizes for the traced breakdown (outside any span). */
  private def layerFacts(r: Run, m: SubTab.Model): Unit = {
    val p = m.params
    val corpus = repro.embed.TabularCorpus.build(m.binned, m.cols, p.corpusCap, p.corpusSeed)
    val sizes = corpus.select(size(col("sentence"))).collect().map(_.getInt(0).toLong)
    val n = m.binned.count()
    val len = repro.embed.TabularCorpus.MaxSentenceLen
    val before = n + m.cols.size * ((math.min(n, 2L * len) + len - 1) / len)
    r.metrics ++= Seq(
      "corpus.sentences" -> sizes.length.toDouble,
      "corpus.tokens" -> sizes.sum.toDouble,
      "corpus.kept_ratio" -> sizes.length.toDouble / before,
      "embedding.vocab" -> m.cellVecs.vectors.size.toDouble)
  }

  /** R* and its driver-side scorer; traced runs also compose them from their
    * layers and check the two agree.
    */
  private def rulesAndScorer(r: Run, binned: DataFrame, cols: Seq[String],
                             targets: Seq[String]): (Seq[Rule], Scorer) = {
    val p = Apriori.Params()
    val rules = Rule.targetFilter(Apriori.mine(binned, cols, p), targets.toSet)
    val scorer = new Scorer(BinnedMatrix.collect(binned, cols), rules)
    r.composed.foreach { comp =>
      r.op("composed-rules") { c =>
        val (freq, crules) = comp.rules(binned, cols, targets, p)
        val cscorer = comp.scorer(binned, cols, crules)
        c(crules == rules, s"composed R* has ${crules.size} rules, public ${rules.size}")
        c(cscorer.upcov == scorer.upcov, "composed scorer upcov differs")
        rulesFacts(r, freq, rules)
      }
    }
    (rules, scorer)
  }

  /** Rule-mining sizes for the traced breakdown. */
  private def rulesFacts(r: Run, freq: Apriori.Frequents, rules: Seq[Rule]): Unit =
    r.metrics ++= Seq("apriori.itemsets" -> freq.itemsets.size.toDouble,
      "apriori.rstar_rules" -> rules.size.toDouble,
      "apriori.rstar_itemsets" -> distinctItemsets(rules).toDouble,
      "apriori.useful_ratio" ->
        (if (rules.isEmpty) 0.0 else distinctItemsets(rules).toDouble / rules.size))

  // ----------------------------------------------------------- evaluate ----

  /** Candidates a round scores on the driver before it scores the best one
    * exactly: a fixed count, never a wall-clock budget.
    */
  val RoundCandidates = 200
  private val PrepareReps = 2

  final case class Prepared(binModel: Binning.BinModel, binned: DataFrame, cols: Seq[String],
                            rules: Seq[Rule], scorer: Scorer)

  /** Bin, mine, target-filter, collect and build the scorer. */
  private def prepareEval(df: DataFrame, targets: Seq[String]): Prepared = {
    val (binModel, raw) = Binning.bin(df, SubTab.Params().nBins)
    val binned = raw.cache()
    binned.count()
    val cols = binModel.cols
    val rules = Rule.targetFilter(Apriori.mine(binned, cols, Apriori.Params()), targets.toSet)
    Prepared(binModel, binned, cols, rules, new Scorer(BinnedMatrix.collect(binned, cols), rules))
  }

  /** Seeded candidate sub-tables: k rows and l columns (targets included). */
  private def candidates(rnd: Random, s: Scorer, targets: Seq[String]): (Int, Int, Seq[(Array[Int], Array[Int])]) = {
    val k = 8 + rnd.nextInt(5)
    val l = math.max(targets.size + 1, 5 + rnd.nextInt(6))
    val tIdx = s.colIndices(targets)
    val free = (0 until s.m).filterNot(tIdx.contains)
    val cands = Seq.fill(RoundCandidates) {
      (rnd.shuffle((0 until s.n).toVector).take(k).sorted.toArray,
        (tIdx ++ rnd.shuffle(free).take(l - tIdx.length)).sorted)
    }
    (k, l, cands)
  }

  /** The scoring inner loop of the exhibits: a budgeted search over seeded
    * candidate sub-tables with the driver-side `Scorer` (what RAN, MAB and
    * Greedy iterate), then exact distributed `Metrics.scores` of the winner,
    * as each cell of Figs. 7, 8 and 10 does. No embedding, no clustering.
    */
  def evaluate(r: Run, spec: TableSpec): Unit = {
    val sparkReady = System.currentTimeMillis()
    val (df, meta, tableMs) = setupTable(r, spec)
    val setupRest = System.nanoTime()
    val targets = meta.targets
    val rnd = new Random(r.seed * 31 + 11)

    // Untimed warm-up on a quarter of the rows.
    r.phase("warmup") {
      val w = prepareEval(slice(df, 0.25, r.seed + 1).cache(), targets)
      val (_, _, cands) = candidates(new Random(r.seed), w.scorer, targets)
      val best = cands.maxBy { case (rs, cs) => w.scorer.combined(rs, cs) }
      repro.core.Metrics.scores(w.binned, w.cols, w.rules, w.scorer.toSubTable(best._1, best._2))
      w.binned.unpersist()
    }
    r.metrics("setup_s") = setupSeconds(r, sparkReady, tableMs, System.nanoTime() - setupRest)

    // Timed: preparation, repeated; the median is reported, the last kept.
    var prep: Prepared = null
    val prepMs = r.phase("prepare")((1 to PrepareReps).flatMap { rep =>
      if (prep != null) prep.binned.unpersist(blocking = true)
      r.op(s"prepare-$rep") { c =>
        val (p, ms) = timed(prepareEval(df, targets))
        prep = p
        c(p.rules.nonEmpty, "R* is empty")
        r.composed.filter(_ => rep == PrepareReps).foreach { comp =>
          val tokens = p.binned.orderBy(Tables.Rid).collect().toSeq
          p.binned.unpersist(blocking = true)
          val (cp, cms) = timed(r.tracer.get.span("eval.prepare", "prepare") {
            val binModel = r.tracer.get.span("binning.fit") { Binning.fit(df, SubTab.Params().nBins) }
            val binned = r.tracer.get.span("binning.transform") {
              val b = binModel.transform(df).cache(); b.count(); b
            }
            val (freq, rules) = comp.rules(binned, binModel.cols, targets, Apriori.Params())
            r.metrics("binning.vocab_tokens") = binModel.vocabulary.size.toDouble
            rulesFacts(r, freq, rules)
            Prepared(binModel, binned, binModel.cols, rules, comp.scorer(binned, binModel.cols, rules))
          })
          r.overhead += ((ms, cms))
          c(cp.binned.orderBy(Tables.Rid).collect().toSeq == tokens, "composed binned tokens differ")
          c(cp.rules == p.rules, s"composed R* has ${cp.rules.size} rules, public ${p.rules.size}")
          c(cp.scorer.upcov == p.scorer.upcov, "composed scorer upcov differs")
        }
        ms
      }
    })
    if (prep == null) throw new IllegalStateException("preparation failed: " + r.failures.mkString("; "))
    r.metrics("prepare_s") = Stats.median(prepMs) / 1e3
    val Prepared(binModel, binned, cols, rules, scorer) = prep
    r.table ++= Seq("rstar_rules" -> rules.size, "rstar_itemsets" -> distinctItemsets(rules),
      "vocab" -> binModel.vocabulary.size)

    // Timed: closed-loop rounds for `seconds`.
    val roundMs = mutable.ArrayBuffer[Double]()
    val evalNs = mutable.ArrayBuffer[Double]()
    val quality = mutable.ArrayBuffer[Double]()
    val deadline = System.nanoTime() + r.seconds * 1000000000L
    var i = 0
    r.phase("loop")(while (i == 0 || System.nanoTime() < deadline) {
      val (k, l, cands) = candidates(rnd, scorer, targets)
      r.op(s"round-$i") { c =>
        val t0 = System.nanoTime()
        val best = cands.maxBy { case (rs, cs) => scorer.combined(rs, cs) }
        val t1 = System.nanoTime()
        val sub = scorer.toSubTable(best._1, best._2)
        val exact = repro.core.Metrics.scores(binned, cols, rules, sub)
        val ms = (System.nanoTime() - t0) / 1e6
        val fast = scorer.combined(best._1, best._2)
        c(math.abs(exact.combined - fast) <= 1e-9, s"Scorer.combined $fast vs Metrics.scores ${exact.combined}")
        c(sub.rowIds.size == k && sub.cols.size == l && targets.forall(sub.cols.contains),
          s"malformed candidate $sub")
        r.composed.foreach { comp =>
          val (cexact, cms) = timed(r.tracer.get.span("eval.round", s"round-$i") {
            r.tracer.get.span("scorer.evals") { cands.maxBy { case (rs, cs) => scorer.combined(rs, cs) } }
            comp.scores(binned, cols, rules, sub, s"round-$i")
          })
          r.overhead += ((ms, cms))
          c(cexact == exact, s"composed scores $cexact, public $exact")
        }
        roundMs += ms
        evalNs += (t1 - t0).toDouble / cands.size
        quality += exact.combined
        r.ops += Json.obj("op" -> i, "k" -> k, "l" -> l, "ms" -> ms, "combined" -> exact.combined)
      }
      i += 1
    })
    answerMetrics(r, roundMs.toSeq)
    r.metrics("scorer.eval_us") = Stats.median(evalNs.toSeq) / 1e3
    r.metrics("quality_combined") = Stats.mean(quality.toSeq)
    r.metrics("driver_heap_mb") = heapMb()
    r.table("scorer_cells") = scorer.n * scorer.m

    // Traced runs also time the SubTab layers that this workload's answers
    // never call: pre-processing a quarter of the rows, then one full-table
    // and one query select on it. The end-to-end metrics exclude this.
    r.composed.foreach { comp =>
      r.phase("probe")(r.span("probe", "probe") {
        val part = slice(df, 0.25, r.seed + 2).cache()
        val m = SubTab.preprocess(part, Ctx.BenchSubTab)
        m.binned.unpersist(blocking = true)
        val cm = comp.preprocess(part, Ctx.BenchSubTab, "probe")
        layerFacts(r, cm)
        val q = QueryGen.pool(part, part.collect(), targets, r.seed, maxTiny = 3).head
        for ((kind, query) <- Seq("full" -> None, "query" -> Some((d: DataFrame) => q(d)))) {
          r.op(s"probe-$kind") { c =>
            val (sub, ms) = timed(SubTab.select(m, query, 8, 6, targets))
            val csub = comp.select(cm, query, 8, 6, targets, s"probe-$kind")
            c(csub == sub, s"composed select returned $csub, public $sub")
            r.metrics(s"select.${kind}_p50_ms") = ms
          }
        }
        cm.unpersist()
      })
    }
  }
}
