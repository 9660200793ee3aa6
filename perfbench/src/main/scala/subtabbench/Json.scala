package subtabbench

/** Minimal JSON writer for result and span files. Objects keep field order. */
object Json {
  final case class Obj(fields: Seq[(String, Any)])
  def obj(fields: (String, Any)*): Obj = Obj(fields)

  def render(v: Any): String = v match {
    case null => "null"
    case s: String => quote(s)
    case b: Boolean => b.toString
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int => n.toString
    case n: Long => n.toString
    case Obj(fs) => fs.map { case (k, x) => quote(k) + ":" + render(x) }.mkString("{", ",", "}")
    case s: Iterable[_] => s.map(render).mkString("[", ",", "]")
    case other => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case '\r' => b ++= "\\r"
      case '\t' => b ++= "\\t"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    (b += '"').toString
  }
}
