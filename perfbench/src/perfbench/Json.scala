package perfbench

/** Minimal JSON text builder for the result and span records. Values are
  * passed as already-encoded JSON text.
  */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case '\n' => "\\n"
      case '\t' => "\\t"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""

  /** Full-precision number; non-finite values become null. */
  def num(x: Double): String = if (x.isNaN || x.isInfinite) "null" else x.toString

  def arr(xs: Seq[String]): String = xs.mkString("[", ", ", "]")

  def obj(kvs: (String, String)*): String = kvs.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
