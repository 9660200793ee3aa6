package repro.jobs

import repro.core._
import repro.data.Datasets
import repro.exp.{Algos, Ctx, Experiments}

/** Development diagnostics: rule-set shape (rules and their distinct
  * itemsets), upcov, per-algorithm chosen columns and covered rules. Not
  * part of the reproduced exhibits.
  */
object DebugQuality {
  def main(args: Array[String]): Unit = {
    val spark = JobSpark.session("DebugQuality")
    val which = args.headOption.getOrElse("FL")
    val sf = args.lift(3).map(_.toDouble)
    val bench = args.lift(4).contains("bench")
    val dm = which match {
      case "FL" => Datasets.flights(spark, sf.getOrElse(0.0005))
      case "SP" => Datasets.spotify(spark, sf.getOrElse(0.05))
      case "CY" => Datasets.cyber(spark, sf.getOrElse(0.07))
      case other => sys.error(s"unknown $other")
    }
    val ctx = Ctx.prepare(spark, dm,
      if (bench) Ctx.BenchSubTab else repro.core.SubTab.Params())
    val n = ctx.model.matrix.n
    println(s"dataset=${ctx.name} n=$n m=${ctx.cols.size} " +
      s"rules=${ctx.rules.size} -> ${ctx.scorer.itemsets.length} distinct itemsets " +
      s"upcov=${ctx.scorer.upcov} (total cells=${n * ctx.cols.size})")
    val ruleCols = ctx.rules.flatMap(_.columns).distinct.sorted
    println(s"columns used by rules (${ruleCols.size}): ${ruleCols.mkString(", ")}")
    println("top rules by support:")
    ctx.rules.sortBy(-_.support).take(10).foreach(r => println(s"  $r"))

    // Column-vector geometry: cosine similarity of every column to the
    // most-null-heavy ones (to see whether redundant columns cluster).
    val cvs = SubTab.columnVectors(ctx.model, ctx.model.binned, ctx.cols)
    def cos(a: Array[Float], b: Array[Float]): Double = {
      var d = 0.0; var na = 0.0; var nb = 0.0
      a.indices.foreach { i => d += a(i) * b(i); na += a(i) * a(i); nb += b(i) * b(i) }
      if (na == 0 || nb == 0) 0.0 else d / math.sqrt(na * nb)
    }
    val byName = cvs.toMap
    val probes = ctx.cols.filter(c => Seq("AIRLINE_DELAY", "WEATHER_DELAY",
      "CANCELLATION_REASON", "DEPARTURE_TIME", "DISTANCE").contains(c))
    probes.foreach { p =>
      val sims = cvs.map { case (c, v) => c -> cos(byName(p), v) }
        .sortBy(-_._2).slice(1, 6)
      println(s"colvec sims of $p: " + sims.map { case (c, s) => f"$c=$s%.2f" }.mkString(", "))
    }

    val k = args.lift(1).map(_.toInt).getOrElse(Experiments.K)
    val l = args.lift(2).map(_.toInt).getOrElse(Experiments.L)
    Algos.Interactive.foreach { algo =>
      val sub = Algos.run(ctx, algo, k, l)
      val subRows = ctx.model.matrix.subTableTokens(sub)
      val covered = Metrics.coveredRules(ctx.rules, subRows.map(_.toSet), sub.cols.toSet)
      val s = ctx.scorer.scores(sub)
      println(f"\n-- $algo: cellCov=${s.cellCov}%.3f divers=${s.divers}%.3f " +
        f"combined=${s.combined}%.3f coveredRules=${covered.size}/${ctx.rules.size}")
      println(s"   cols: ${sub.cols.mkString(", ")}")
      subRows.foreach(r => println(s"   row: ${r.mkString(" | ")}"))
    }
    spark.stop()
  }
}
