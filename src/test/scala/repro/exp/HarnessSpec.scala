package repro.exp

import repro.SparkSpec
import repro.core.{Metrics, SubTab}
import repro.data.Datasets

/** Experiment-harness plumbing: context preparation, algorithm dispatch and
  * table rendering. Full-scale experiment shapes are exercised in bench/.
  */
class HarnessSpec extends SparkSpec {

  test("TextTable renders aligned rows") {
    val t = TextTable.render("T", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("33", "4")))
    val lines = t.split("\n")
    assert(lines.head == "== T ==")
    assert(lines.drop(1).map(_.length).distinct.size == 1, "misaligned table")
    assert(t.contains("| 33 | 4  |"))
  }

  test("formatting helpers") {
    assert(TextTable.f(0.12345) == "0.123")
    assert(TextTable.pct(0.5) == "50.0%")
    assert(TextTable.secs(1500) == "1.5s")
    assert(TextTable.millis(1500) == "1500 ms")
  }

  test("Ctx.prepare wires model, rules, scorer and upcov together") {
    val ctx = Ctx.prepare(spark, Datasets.cyber(spark, 0.05))
    assert(ctx.name == "CY")
    assert(ctx.rules.nonEmpty)
    assert(ctx.scorer.n == ctx.model.original.count())
    assert(ctx.prepMillis > 0)

    // the three interactive algorithms all produce valid sub-tables
    Algos.Interactive.foreach { a =>
      val sub = Algos.run(ctx, a, k = 6, l = 5,
        ranBudget = Algos.RanBudget(millis = 2000, iters = 5))
      assert(sub.rowIds.size == 6, s"$a rows")
      assert(sub.cols.size == 5, s"$a cols")
    }

    // the scorer's exact scores equal the distributed pass's (same rule
    // set, full table)
    val sub = Algos.run(ctx, "SubTab", 6, 5)
    val exact = ctx.scorer.scores(sub)
    assert(exact == Metrics.scores(ctx.model.binned, ctx.cols, ctx.rules, sub))
    val viaScorer = ctx.scorer.combined(
      ctx.scorer.rowIndices(sub.rowIds), ctx.scorer.colIndices(sub.cols))
    assert(math.abs(exact.combined - viaScorer) < 1e-9)
    ctx.model.unpersist()
  }

  test("widthFor caps at L and at half the columns") {
    assert(Experiments.widthFor(31) == 10)
    assert(Experiments.widthFor(15) == 7)
    assert(Experiments.widthFor(6) == 3)
    assert(Experiments.widthFor(4) == 3)
  }

  test("unknown algorithm name is rejected") {
    val ctx = Ctx.prepare(spark, Datasets.cyber(spark, 0.01))
    intercept[RuntimeException] { Algos.run(ctx, "nope", 3, 3) }
    ctx.model.unpersist()
  }
}
