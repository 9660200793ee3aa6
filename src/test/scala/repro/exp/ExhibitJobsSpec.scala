package repro.exp

import org.apache.spark.TestBus
import repro.SparkSpec
import repro.core.Metrics
import repro.data.Datasets
import repro.eda.{InsightOracle, Sessions}

/** After `Ctx.prepare`, the exhibits score, grade and read sub-tables on the
  * model's matrix: none of that starts a Spark job.
  */
class ExhibitJobsSpec extends SparkSpec {

  test("the scorer's scores, the token reader and simulateUser start no Spark job") {
    val ctx = Ctx.prepare(spark, Datasets.cyber(spark, 0.05), Ctx.BenchSubTab)
    val mat = ctx.model.matrix
    Algos.Interactive.foreach { a =>
      val sub = Algos.run(ctx, a, 6, 5, ranBudget = Algos.RanBudget(millis = 2000, iters = 5))
      val rows = mat.subTableTokens(sub)
      assert(jobs(mat.subTableTokens(sub)) == 0, a)
      assert(jobs(ctx.scorer.scores(sub)) == 0, a)
      val highlighted = Metrics.coveredRules(ctx.rules, rows.map(_.toSet), sub.cols.toSet)
      assert(jobs(InsightOracle.simulateUser(mat, sub.cols, rows, 1L, highlighted = highlighted)) == 0, a)
    }
    ctx.model.unpersist()
  }

  test("Table 1, Fig. 6 and Fig. 10 start no job in Metrics or Apriori") {
    var f6: Seq[Experiments.F6Row] = Nil
    val sites = TestBus.jobSites(spark.sparkContext) {
      Experiments.table1(spark, scale = 0.01, usersPerAlgo = 1)
      f6 = Experiments.fig6(spark, cySf = 0.01, widths = Seq(3),
        sessionParams = Sessions.Params(nSessions = 3, queriesPerSession = 3))._1
      // One bin count other than the default 5: re-binned, mined and scored.
      Experiments.fig10(spark, scale = 0.01, bins = Seq(3), supports = Seq(0.2),
        confidences = Seq(0.6))
    }
    assert(f6.exists(_.total > 0), "no Fig. 6 query result was scored")
    assert(sites.nonEmpty)
    val offending = sites.filter(s => s.contains("Metrics.scala") || s.contains("Apriori.scala"))
    assert(offending.isEmpty, offending)
  }
}
