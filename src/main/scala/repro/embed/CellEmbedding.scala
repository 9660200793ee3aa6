package repro.embed

import org.apache.spark.ml.feature.Word2Vec
import org.apache.spark.sql.DataFrame

/** Cell-to-vector model M : token -> R^gamma (paper Alg. 2, line 4).
  *
  * A thin, deterministic wrapper around MLlib's Word2Vec (skip-gram with
  * negative-sampling-free hierarchical softmax, same objective family as the
  * paper's gensim). The vocabulary is tiny — one word per (column, bin) —
  * so we collect the learned vectors into a plain map. Selection indexes it
  * by the codes of the model's [[repro.core.BinnedMatrix]] and builds the
  * row/column vectors of query results on the driver, without touching the
  * corpus again (the paper's key pre-processing reuse).
  */
object CellEmbedding {

  /** The paper sets windowSize = max{n,m} (whole-sentence context). MLlib
    * training cost is linear in the window; a window of 40 spans a full
    * tuple-sentence for every schema except USF (298 columns), preserving
    * the whole-row co-occurrence that drives rule capture.
    */
  final case class Params(
      vectorSize: Int = 64,
      windowSize: Int = 40,
      maxIter: Int = 3,
      seed: Long = 13,
  )

  /** Learned embedding: token -> vector. Missing tokens (never sampled into
    * the corpus) fall back to the zero vector.
    */
  final case class Model(vectorSize: Int, vectors: Map[String, Array[Float]])
      extends Serializable {
    private val zero = new Array[Float](vectorSize)
    def apply(token: String): Array[Float] = vectors.getOrElse(token, zero)
    def contains(token: String): Boolean = vectors.contains(token)
  }

  /** Train on a corpus DataFrame with a `sentence` array<string> column. */
  def train(corpus: DataFrame, p: Params = Params()): Model = {
    val w2v = new Word2Vec()
      .setInputCol("sentence")
      .setOutputCol("vec")
      .setVectorSize(p.vectorSize)
      .setWindowSize(p.windowSize)
      .setMinCount(1) // every token gets a vector
      .setMaxIter(p.maxIter)
      .setSeed(p.seed)
      .setNumPartitions(1) // the only setting in which MLlib Word2Vec is deterministic
    val model = w2v.fit(corpus)
    val vecs = model.getVectors.collect().map { r =>
      r.getString(0) -> r.getAs[org.apache.spark.ml.linalg.Vector](1)
        .toArray.map(_.toFloat)
    }.toMap
    Model(p.vectorSize, vecs)
  }
}
