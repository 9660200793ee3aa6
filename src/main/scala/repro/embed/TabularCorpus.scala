package repro.embed

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.Tables

/** Tabular-sentence corpus for cell embedding (paper §5.1).
  *
  * Two sentence families, exactly as in the paper:
  *   - *tuple-sentences*: the tokens of each row;
  *   - *column-sentences*: the tokens of each column across rows. The paper
  *     feeds one giant sentence per column to gensim with
  *     `windowSize = max{n,m}`; MLlib's Word2Vec caps sentences at 1000
  *     tokens (and would silently chunk), so we pre-chunk column-sentences
  *     per partition into runs of at most [[TabularCorpus.MaxSentenceLen]] —
  *     co-occurrence within a window is preserved.
  *
  * The corpus is capped (default 100K sentences, paper §5.1) by uniform
  * sampling, deterministic in the seed.
  */
object TabularCorpus {

  val MaxSentenceLen = 256

  /** Token budget: beyond the paper's 100K-sentence cap we also bound total
    * tokens, so very wide tables (USF: 298 columns) keep Word2Vec training
    * interactive. With the paper's 31-column FL, 3M tokens ≈ the paper's
    * own cap (100K sentences × ~31 tokens).
    */
  val MaxTokens = 3000000L

  /** Build the corpus as a DataFrame with a single `sentence` column
    * (array<string>), ready for MLlib Word2Vec.
    */
  def build(binned: DataFrame, cols: Seq[String],
            maxSentences: Int = 100000, seed: Long = 11): DataFrame = {
    import binned.sparkSession.implicits._

    val tupleSentences = binned
      .select(array(cols.map(col): _*).as("sentence"))

    // Column-sentences: the paper emits ONE (n-token) sentence per column —
    // m sentences among ~n, i.e. a small share of the corpus. We keep that
    // weighting by sampling a bounded number of token-runs per column
    // (2 chunks of MaxSentenceLen each); flooding the corpus with all n×m
    // column tokens would drown the cross-column co-occurrence signal that
    // rule capture depends on.
    val sampleRows = binned
      .select(array(cols.map(col): _*).as("toks"))
      .as[Seq[String]]
      .take(2 * MaxSentenceLen)
    val colSentences: Seq[Array[String]] = cols.indices.flatMap { j =>
      sampleRows.iterator.map(_(j)).grouped(MaxSentenceLen).map(_.toArray)
    }
    val colDf = colSentences.toDF("sentence")

    val all = tupleSentences.union(colDf)
    val tokenCap = math.max(1000L, MaxTokens / math.max(1, cols.size)).toInt
    capped(all, math.min(maxSentences, tokenCap), seed)
  }

  /** Uniformly sample the corpus down to ~`maxSentences` sentences. */
  private[embed] def capped(corpus: DataFrame, maxSentences: Int, seed: Long): DataFrame = {
    val n = corpus.count()
    if (n <= maxSentences) corpus
    else {
      // Slight over-sample then hard limit, so the cap is respected exactly.
      val frac = math.min(1.0, maxSentences.toDouble / n * 1.1)
      corpus.sample(withReplacement = false, frac, seed).limit(maxSentences)
    }
  }
}
