package repro.embed

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.{BinnedMatrix, Binning, Tables}

import scala.util.Random

class EmbeddingSpec extends SparkSpec {

  val cols = Seq("p", "q", "r")
  def tok(c: String, v: String): String = Binning.token(c, v)

  /** Binned table where p=a strongly co-occurs with q=a (120 of 200 rows). */
  lazy val binned = {
    import spark.implicits._
    val rng = new Random(3)
    (0L until 200L).map { i =>
      if (i < 120) (i, tok("p", "a"), tok("q", "a"), tok("r", "x" + rng.nextInt(4)))
      else (i, tok("p", "b" + rng.nextInt(2)), tok("q", "c" + rng.nextInt(2)),
        tok("r", "x" + rng.nextInt(4)))
    }.toDF((Tables.Rid +: cols): _*)
  }

  test("corpus contains tuple-sentences of width m plus short column runs") {
    val corpus = TabularCorpus.build(binned, cols, maxSentences = 100000)
    val lens = corpus.select(size(col("sentence")).as("n")).collect().map(_.getInt(0))
    assert(lens.count(_ == cols.size) == 200) // one tuple-sentence per row
    assert(lens.exists(_ > cols.size))        // plus column-sentence chunks
    assert(lens.forall(_ <= TabularCorpus.MaxSentenceLen))
  }

  test("corpus cap limits the sentence count") {
    val corpus = TabularCorpus.build(binned, cols, maxSentences = 50, seed = 1)
    assert(corpus.count() <= 50)
  }

  test("word2vec learns vectors for every token in the corpus") {
    val corpus = TabularCorpus.build(binned, cols)
    val model = CellEmbedding.train(corpus, CellEmbedding.Params(vectorSize = 16))
    assert(model.vectorSize == 16)
    val tokens = binned.drop(Tables.Rid).collect()
      .flatMap(r => cols.indices.map(r.getString)).distinct
    tokens.foreach { t =>
      assert(model.contains(t), s"no vector for $t")
      assert(model(t).length == 16)
    }
  }

  test("unknown tokens fall back to the zero vector") {
    val model = CellEmbedding.Model(4, Map("known" -> Array(1f, 2f, 3f, 4f)))
    assert(model("unknown").toSeq == Seq(0f, 0f, 0f, 0f))
    assert(!model.contains("unknown"))
  }

  test("training is deterministic for a fixed seed (single partition)") {
    val corpus = TabularCorpus.build(binned, cols)
    val p = CellEmbedding.Params(vectorSize = 8, seed = 99)
    val a = CellEmbedding.train(corpus, p)
    val b = CellEmbedding.train(corpus, p)
    assert(a.vectors.keySet == b.vectors.keySet)
    a.vectors.foreach { case (t, v) => assert(v.toSeq == b(t).toSeq, s"token $t") }
  }

  test("co-occurring tokens embed closer than unrelated ones") {
    val corpus = TabularCorpus.build(binned, cols)
    val model = CellEmbedding.train(corpus,
      CellEmbedding.Params(vectorSize = 24, maxIter = 3))
    def cos(a: Array[Float], b: Array[Float]): Double = {
      var d = 0.0; var na = 0.0; var nb = 0.0
      a.indices.foreach { i => d += a(i) * b(i); na += a(i) * a(i); nb += b(i) * b(i) }
      d / math.sqrt(na * nb)
    }
    val pa = model(tok("p", "a")); val qa = model(tok("q", "a"))
    val qc = model(tok("q", "c0"))
    assert(cos(pa, qa) > cos(pa, qc),
      s"expected co-occurring pair closer: ${cos(pa, qa)} vs ${cos(pa, qc)}")
  }

  test("EmbDI produces vectors for all tokens via graph walks") {
    val model = EmbDI.train(BinnedMatrix.collect(binned, cols),
      EmbDI.Params(walksPerRow = 2, walkLength = 6,
        embed = CellEmbedding.Params(vectorSize = 12)))
    val tokens = binned.drop(Tables.Rid).collect()
      .flatMap(r => cols.indices.map(r.getString)).distinct
    val missing = tokens.filterNot(model.contains)
    // Walks visit tokens proportionally to frequency; all tokens here are
    // frequent enough to be visited.
    assert(missing.isEmpty, s"missing vectors for $missing")
  }

  test("EmbDI gives equal vectors on two runs with a fixed seed") {
    val p = EmbDI.Params(walksPerRow = 2, walkLength = 6,
      embed = CellEmbedding.Params(vectorSize = 8), seed = 5)
    val a = EmbDI.train(BinnedMatrix.collect(binned, cols), p)
    val b = EmbDI.train(BinnedMatrix.collect(binned.repartition(3), cols), p)
    assert(a.vectors.keySet == b.vectors.keySet)
    a.vectors.foreach { case (t, v) => assert(v.toSeq == b(t).toSeq, s"token $t") }
  }
}
