package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.Experiments

/** spark-submit entrypoints, one per paper table/figure. Each prints the
  * same rows the paper reports, at container scale. Optional first arg: a
  * scale multiplier (default 1.0).
  *
  * Example:
  *   spark-submit --class repro.jobs.T1UserStudy target/scala-2.13/repro_2.13-0.1.0-SNAPSHOT.jar 0.5
  */
object JobSpark {
  def session(name: String): SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions",
        sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR") // keep job stdout readable
    s
  }

  def scaleArg(args: Array[String]): Double =
    args.headOption.map(_.toDouble).getOrElse(1.0)

  /** Print the table that `exhibit` renders in a session named `name`. */
  def run(name: String)(exhibit: SparkSession => String): Unit = {
    val spark = session(name)
    println(exhibit(spark))
    spark.stop()
  }
}

/** Table 1: simulated user study (SubTab vs RAN vs NC). */
object T1UserStudy {
  def main(args: Array[String]): Unit =
    JobSpark.run("T1UserStudy")(Experiments.table1(_, JobSpark.scaleArg(args))._2)
}

/** Fig. 6: simulation-based study on CY — next-query fragment capture. */
object F6Simulation {
  def main(args: Array[String]): Unit =
    JobSpark.run("F6Simulation")(s => Experiments.fig6(s, cySf = 0.5 * JobSpark.scaleArg(args))._2)
}

/** Fig. 7: quality vs time against the slow baselines (EmbDI, MAB, Greedy). */
object F7SlowBaselines {
  def main(args: Array[String]): Unit =
    JobSpark.run("F7SlowBaselines")(s => Experiments.fig7(s, flSf = 0.004 * JobSpark.scaleArg(args))._2)
}

/** Fig. 8: intrinsic quality metrics per dataset and algorithm. */
object F8Quality {
  def main(args: Array[String]): Unit =
    JobSpark.run("F8Quality")(Experiments.fig8(_, JobSpark.scaleArg(args))._2)
}

/** Fig. 9: SubTab pre-processing vs selection time on all six datasets. */
object F9Runtime {
  def main(args: Array[String]): Unit =
    JobSpark.run("F9Runtime")(Experiments.fig9(_, JobSpark.scaleArg(args))._2)
}

/** Fig. 10: cell coverage under varying rule-mining parameters. */
object F10ParamTuning {
  def main(args: Array[String]): Unit =
    JobSpark.run("F10ParamTuning")(Experiments.fig10(_, JobSpark.scaleArg(args))._2)
}
