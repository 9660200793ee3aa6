package repro.embed

import org.apache.spark.sql.SparkSession
import repro.core.BinnedMatrix

import scala.collection.mutable
import scala.util.Random

/** EmbDI-style baseline embedding [Cappuzzo et al., SIGMOD'20], rebuilt from
  * its core mechanism (DESIGN.md §3): the binned table becomes a tripartite
  * graph with row nodes (`R#rid`), token nodes and column nodes (`C#name`);
  * truncated random walks over the graph form the corpus; Word2Vec over the
  * walks yields token vectors usable by the same centroid selection as
  * SubTab.
  *
  * The walks are generated on the driver over the
  * [[repro.core.BinnedMatrix]] (its codes and token -> rows index) —
  * deliberately the heavyweight comparator, matching the paper's finding
  * that EmbDI pre-processing is an order of magnitude slower than SubTab's
  * (40 min vs 90 s there).
  */
object EmbDI {

  final case class Params(
      walksPerRow: Int = 2,
      walkLength: Int = 8,
      embed: CellEmbedding.Params = CellEmbedding.Params(),
      seed: Long = 41,
  )

  /** Train token vectors via graph random walks over the binned table
    * `mat`. Returns the cell-to-vector model restricted to *token* nodes
    * (row/column nodes are training scaffolding, as in EmbDI).
    */
  def train(mat: BinnedMatrix, p: Params = Params()): CellEmbedding.Model = {
    val spark = SparkSession.active
    import spark.implicits._
    // The graph on the driver: row i holds tokens codes(i), and token c
    // links to the rows rowsOf(c) and, via its column node, to the distinct
    // tokens of that column (in first-occurrence order).
    val n = mat.n
    val m = mat.m
    val tokensByCol: Array[Array[Int]] =
      Array.tabulate(m)(j => mat.codes.iterator.map(_(j)).distinct.toArray)

    val rng = new Random(p.seed)
    val walks = mutable.ArrayBuffer[Array[String]]()
    var i = 0
    while (i < n) {
      var w = 0
      while (w < p.walksPerRow) {
        val walk = new Array[String](p.walkLength)
        var row = i
        var s = 0
        while (s < p.walkLength) {
          // row node -> random token of the row
          val colPick = rng.nextInt(m)
          val tok = mat.codes(row)(colPick)
          walk(s) = mat.tokens(tok)
          // token node -> either another row containing it, or via its
          // column node to a sibling token (EmbDI's structural hop).
          if (rng.nextBoolean()) {
            val rs = mat.rowsOf(tok)
            row = rs(rng.nextInt(rs.length))
          } else {
            val sibs = tokensByCol(colPick)
            val sib = sibs(rng.nextInt(sibs.length))
            val rs = mat.rowsOf(sib)
            row = rs(rng.nextInt(rs.length))
          }
          s += 1
        }
        walks += walk
        w += 1
      }
      i += 1
    }

    CellEmbedding.train(walks.toSeq.toDF("sentence"), p.embed)
  }
}
