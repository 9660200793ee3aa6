package subtabbench

object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  def mean(xs: Seq[Double]): Double = { require(xs.nonEmpty, "mean of no samples"); xs.sum / xs.size }

  /** Nearest-rank percentile, p in (0, 100]. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    val s = xs.sorted
    s(math.max(0, math.ceil(p / 100 * s.size).toInt - 1))
  }

  /** The tail latency the benchmark reports: the highest of p75, p90, p95
    * and p99 that leaves at least ten samples beyond it. Below 40 samples
    * none does, and the maximum (p100) is reported instead.
    * Returns (percentile, value).
    */
  def tail(xs: Seq[Double]): (Double, Double) = {
    val n = xs.size
    Seq(99.0, 95.0, 90.0, 75.0)
      .find(p => n - math.ceil(p / 100 * n) >= 10)
      .map(p => (p, percentile(xs, p)))
      .getOrElse((100.0, xs.max))
  }
}
