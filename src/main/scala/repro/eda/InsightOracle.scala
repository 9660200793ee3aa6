package repro.eda

import repro.core.{BinnedMatrix, Binning}

import scala.util.Random
import scala.util.hashing.MurmurHash3

/** Simulated user study (paper §6.2.1, Table 1). See DESIGN.md §3.
  *
  * A seeded "analyst" reads a k×l sub-table the way the study's
  * participants did: it generalizes *repeated co-occurrences* — a pair of
  * cells (in two different columns) whose bins co-occur in at least two of
  * the displayed rows — into candidate insights ("rows with X also have
  * Y"), and writes down the most apparent ones. The grading oracle then
  * does what the authors did manually: it checks each insight against the
  * FULL table and marks it statistically incorrect when the claimed
  * co-occurrence is rare or no stronger than independence (lift ≈ 1).
  *
  * The mechanism reproduces the paper's finding directly: random sub-tables
  * are full of chance co-occurrences (written but wrong), one-hot-cluster
  * sub-tables are mode-heavy (few repeats at all), while SubTab's centroid
  * rows repeat exactly the prominent patterns.
  */
object InsightOracle {

  /** An insight is a claimed co-occurrence of binned cells. */
  final case class Insight(items: Vector[String]) {
    override def toString: String = items.mkString(" & ")
  }

  final case class Params(
      maxInsightsPerUser: Int = 5,
      minSupport: Double = 0.03,
      minLift: Double = 1.25,
  )

  /** The analyst with the paper's rule-highlighting UI (§6.2.1: "we also
    * colored the patterns (association rules) that were captured in the
    * sub-table for all the baselines"): insights are read primarily off the
    * highlighted covered rules, topped up with self-generalized repeated
    * co-occurrences. A baseline that covers no rules leaves the analyst
    * with raw repetitions only — which is how the paper's RAN/NC users
    * ended up with spurious conclusions.
    */
  def analystWithHighlights(subCols: Seq[String], subRows: Seq[Seq[String]],
                            highlighted: Seq[repro.rules.Rule],
                            maxInsights: Int, userSeed: Long): Seq[Insight] = {
    val rng = new Random(userSeed)
    // Users read the *interesting* highlights: near-universal rules
    // ("2015 flights are not diverted") are trivial and were discarded as
    // irrelevant by the paper's graders, so the analyst skips them; among
    // the non-trivial covered rules, the strongest (highest-confidence)
    // stand out. A per-user shuffle models differing attention.
    val interesting = highlighted.filter(_.support < 0.5)
      .sortBy(r => (-r.confidence, r.toString)).take(20)
    val hlPairs = rng.shuffle(interesting)
      .take(maxInsights * 2)
      .flatMap { r =>
        val items = rng.shuffle(r.items)
        items.combinations(2).collectFirst {
          case Vector(a, b) if Binning.tokenCol(a) != Binning.tokenCol(b) =>
            Insight(Vector(a, b).sorted)
        }
      }
      .distinct
      .take(math.max(1, maxInsights - 2)) // leave room for own observations
    val self = analyst(subCols, subRows, maxInsights, userSeed)
    (hlPairs ++ self).distinct.take(maxInsights)
  }

  /** The unaided analyst: candidate insights are cross-column token pairs
    * repeated in >= 2 sub-table rows, ranked by how often they repeat (ties
    * broken by a user-specific hash — different users notice different
    * things).
    */
  def analyst(subCols: Seq[String], subRows: Seq[Seq[String]],
              maxInsights: Int, userSeed: Long): Seq[Insight] = {
    val counts = scala.collection.mutable.HashMap[Vector[String], Int]()
    subRows.foreach { row =>
      var i = 0
      while (i < subCols.size) {
        var j = i + 1
        while (j < subCols.size) {
          // Two jointly-missing cells are "no data", not a reportable
          // insight; a value co-occurring with a missing cell is (e.g.
          // CANCELLED=1 with DEPARTURE_TIME=∅ in FL).
          val nullTok1 = Binning.tokenLabel(row(i)) == Binning.NullLabel
          val nullTok2 = Binning.tokenLabel(row(j)) == Binning.NullLabel
          if (!(nullTok1 && nullTok2)) {
            val pair = Vector(row(i), row(j)).sorted
            counts(pair) = counts.getOrElse(pair, 0) + 1
          }
          j += 1
        }
        i += 1
      }
    }
    val rng = new Random(userSeed)
    val salt = rng.nextInt()
    counts.toSeq
      .filter(_._2 >= 2)
      .sortBy { case (pair, c) => (-c, MurmurHash3.stringHash(pair.mkString("|"), salt)) }
      .take(maxInsights)
      .map { case (pair, _) => Insight(pair) }
  }

  /** Grade insights against the full binned table: correct iff the
    * co-occurrence has non-trivial support AND lift over independence. A
    * token's count is the length of its row list in the matrix, a pair's the
    * size of the intersection of its two row lists.
    */
  def grade(mat: BinnedMatrix, insights: Seq[Insight], p: Params = Params()): Seq[Boolean] = {
    def rows(token: String): Array[Int] = {
      val c = mat.code(token)
      if (c < 0) Array.emptyIntArray else mat.rowsOf(c)
    }
    val n = mat.n.toDouble
    insights.map { ins =>
      val (a, b) = (rows(ins.items(0)), rows(ins.items(1)))
      val nAB = a.intersect(b).length.toDouble
      val lift = if (a.isEmpty || b.isEmpty) 0.0 else nAB * n / (a.length.toDouble * b.length)
      nAB / n >= p.minSupport && lift >= p.minLift
    }
  }

  final case class UserResult(written: Int, correct: Int) {
    def hasInsight: Boolean = correct > 0
  }

  /** One simulated user examining one sub-table (with the rule-highlight
    * UI when `highlighted` is non-empty).
    */
  def simulateUser(mat: BinnedMatrix, subCols: Seq[String], subRows: Seq[Seq[String]],
                   userSeed: Long, p: Params = Params(),
                   highlighted: Seq[repro.rules.Rule] = Nil): UserResult = {
    val ins =
      if (highlighted.isEmpty) analyst(subCols, subRows, p.maxInsightsPerUser, userSeed)
      else analystWithHighlights(subCols, subRows, highlighted, p.maxInsightsPerUser, userSeed)
    val graded = grade(mat, ins, p)
    UserResult(written = ins.size, correct = graded.count(identity))
  }
}
