package repro.exp

/** Plain-text table rendering for experiment harnesses — every bench/job
  * prints the same rows the paper's table/figure reports.
  */
object TextTable {
  def render(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def line(r: Seq[String]): String =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (s"== $title ==" +: line(header) +: sep +: rows.map(line)).mkString("\n")
  }

  def f(d: Double): String = f"$d%.3f"
  def pct(d: Double): String = f"${d * 100}%.1f%%"
  def secs(ms: Long): String = f"${ms / 1000.0}%.1fs"
  def millis(ms: Long): String = s"$ms ms"
}
