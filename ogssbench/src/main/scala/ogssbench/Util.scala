package ogssbench

object Stats {
  /** Median (mean of the middle two for an even count). */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    val k = s.size / 2
    if (s.size % 2 == 1) s(k) else (s(k - 1) + s(k)) / 2
  }

  def seconds[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** |a − b| ≤ tol·max(|a|, |b|). */
  def close(a: Double, b: Double, tol: Double = 1e-9): Boolean =
    math.abs(a - b) <= tol * math.max(math.abs(a), math.abs(b))
}

/** Just enough JSON for result lines, spans and references: writing flat
  * objects and reading them back with [[Json.parse]].
  */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""

  def num(d: Double): String = {
    require(!d.isNaN && !d.isInfinite, s"non-finite value $d")
    java.lang.Double.toString(d)
  }

  def obj(fields: (String, String)*): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")

  def arr(items: Seq[String]): String = items.mkString("[", ", ", "]")

  /** Minimal parser: objects, arrays, strings, numbers, booleans, null. */
  def parse(text: String): Any = new Parser(text).value()

  private final class Parser(s: String) {
    private var i = 0
    private def ws(): Unit = while (i < s.length && s(i).isWhitespace) i += 1
    private def expect(c: Char): Unit = {
      ws(); require(i < s.length && s(i) == c, s"JSON: expected '$c' at $i"); i += 1
    }
    def value(): Any = {
      ws()
      s(i) match {
        case '{' =>
          i += 1; ws()
          val m = scala.collection.mutable.LinkedHashMap.empty[String, Any]
          if (s(i) == '}') i += 1
          else {
            var more = true
            while (more) {
              ws(); val k = string(); expect(':'); m(k) = value(); ws()
              if (s(i) == ',') i += 1 else { expect('}'); more = false }
            }
          }
          m.toMap
        case '[' =>
          i += 1; ws()
          val b = scala.collection.mutable.ArrayBuffer.empty[Any]
          if (s(i) == ']') i += 1
          else {
            var more = true
            while (more) {
              b += value(); ws()
              if (s(i) == ',') i += 1 else { expect(']'); more = false }
            }
          }
          b.toSeq
        case '"' => string()
        case 't' => i += 4; true
        case 'f' => i += 5; false
        case 'n' => i += 4; null
        case _ =>
          val j = i
          while (i < s.length && "+-0123456789.eE".indexOf(s(i)) >= 0) i += 1
          s.substring(j, i).toDouble
      }
    }
    private def string(): String = {
      expect('"')
      val b = new StringBuilder
      while (s(i) != '"') {
        if (s(i) == '\\') {
          i += 1
          s(i) match {
            case 'u' => b += Integer.parseInt(s.substring(i + 1, i + 5), 16).toChar; i += 4
            case 'n' => b += '\n'
            case 't' => b += '\t'
            case c => b += c
          }
        } else b += s(i)
        i += 1
      }
      i += 1
      b.toString
    }
  }
}

/** Fixed CPU-and-memory loop that calls no program code, so a change to the
  * program cannot move it: its time tracks only the host's speed. Each
  * thread walks its own 256 KB table with dependent random reads and writes
  * and a floating-point recurrence. The table stays in the core's caches: a
  * 16 MB table made the probe swing by ±15% between rounds seconds apart,
  * with main-memory bandwidth shared with other tenants.
  */
object HostProbe {
  private val Words = 1 << 16
  private val Steps = 30000000
  private def loop(a: Array[Int], seed: Int): Long = {
    var x = seed.toLong | 1L
    var acc = 0L
    var f = 1.0
    var k = 0
    while (k < Steps) {
      x = x * 6364136223846793005L + 1442695040888963407L
      val j = ((x >>> 33).toInt ^ acc.toInt) & (Words - 1)
      acc += a(j)
      a(j) = (acc ^ k).toInt
      f = f * 1.0000001 + (k & 7)
      k += 1
    }
    acc + f.toLong
  }

  /** Wall seconds of `reps` rounds, after one untimed warm-up round. In a
    * round each of `threads` threads runs the loop once, released together.
    */
  def rounds(threads: Int, reps: Int = 3): Seq[Double] = {
    val tables = Array.tabulate(threads)(t => Array.tabulate(Words)(i => i * 31 + t))
    val pool = java.util.concurrent.Executors.newFixedThreadPool(threads)
    try {
      def round(r: Int): Double = {
        val t0 = System.nanoTime()
        val fs = (0 until threads).map(t => pool.submit(() => loop(tables(t), r * threads + t + 1)))
        val sink = fs.map(_.get()).sum
        require(sink != 42L) // keeps the loops' results live
        (System.nanoTime() - t0) / 1e9
      }
      round(0)
      (1 to reps).map(round)
    } finally pool.shutdown()
  }

  /** Host speed around a measured interval: the median round of probes
    * taken just before and just after `body`.
    */
  def around[A](threads: Int)(body: => A): (A, Double) = {
    val before = rounds(threads)
    val a = body
    (a, Stats.median(before ++ rounds(threads)))
  }
}
