package repro.rules

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions._

/** Reference itemset counter: one distributed pass over a binned frame,
  * independent of the driver-side miner and of the matrix's row lists that
  * `InsightOracle.grade` counts with.
  */
object SparkItemsetCount {

  /** Count arbitrary candidate itemsets (tokens need not be frequent) over
    * the *full* binned table. Returns counts keyed by the sorted itemset.
    */
  def countItemsets(binned: DataFrame, cols: Seq[String],
                    candidates: Seq[Seq[String]]): Map[Vector[String], Long] = {
    import binned.sparkSession.implicits._
    if (candidates.isEmpty) return Map.empty
    val canon = candidates.map(_.sorted.toVector).distinct
    val tokens = canon.flatten.distinct.sorted.toArray
    val dict = tokens.zipWithIndex.toMap
    val cands: Array[Array[Int]] = canon.map(_.map(dict).toArray.sorted).toArray
    // Rows as ids of the candidates' tokens; other tokens cannot matter.
    val coded = binned.select(array(cols.map(col): _*).as("toks")).as[Seq[String]]
      .map(_.iterator.flatMap(dict.get).toArray)
    canon.zip(countCandidates(coded, cands, tokens.length)).toMap
  }

  /** Support counting, one pass: for each candidate (sorted token ids), the
    * number of rows (token ids in `[0, nTokens)`) that contain all of it.
    * The candidates are broadcast and each partition accumulates a local
    * count vector over a per-row bitset of present tokens.
    */
  private def countCandidates(rows: Dataset[Array[Int]], cands: Array[Array[Int]],
                              nTokens: Int): Array[Long] = {
    import rows.sparkSession.implicits._
    val candB = rows.sparkSession.sparkContext.broadcast(cands)
    try rows.mapPartitions { it =>
      val cs = candB.value
      val local = new Array[Long](cs.length)
      val present = new java.util.BitSet(nTokens)
      it.foreach { row =>
        present.clear()
        row.foreach(present.set)
        var i = 0
        while (i < cs.length) {
          val c = cs(i)
          var j = 0; var ok = true
          while (ok && j < c.length) { ok = present.get(c(j)); j += 1 }
          if (ok) local(i) += 1
          i += 1
        }
      }
      Iterator.single(local)
    }.reduce { (a, b) => var i = 0; while (i < a.length) { a(i) += b(i); i += 1 }; a }
    finally candB.destroy()
  }
}
