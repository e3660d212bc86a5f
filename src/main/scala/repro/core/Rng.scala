package repro.core

/** Deterministic, seedable randomness for Spark pipelines.
  *
  * Spark re-executes partitions on retry, so any randomness used inside a
  * UDF/map must be a pure function of row values. Everything here is
  * derived from a 64-bit key via SplitMix64, so a row like
  * ``(seed, day, slot, cell)`` always draws the same Poisson count and the
  * same jitter, on any executor, in any run.
  */
object Rng {

  /** SplitMix64 finalizer: a high-quality 64-bit mix. */
  def mix64(z0: Long): Long = {
    var z = z0 + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** The key of no parts: where every [[key]] chain starts. */
  final val KeySeed = 0x632be59bd9b4e019L

  /** The key of `h`'s parts followed by `part`: `key(p1, …, pk, part) ==
    * extend(key(p1, …, pk), part)`. Loops that share a key prefix carry it
    * and extend it by one part per level.
    */
  def extend(h: Long, part: Long): Long = mix64(h ^ part)

  /** Combine key parts into one 64-bit seed (order-sensitive). */
  def key(parts: Long*): Long = parts.foldLeft(KeySeed)(extend)

  /** Uniform double in [0, 1) from a key, stream index `i` for multiple draws. */
  def uniform(k: Long, i: Long = 0): Double =
    (mix64(k ^ (i * 0x9e3779b97f4a7c15L)) >>> 11) * (1.0 / (1L << 53))

  /** Standard normal via Box–Muller on two keyed uniforms. */
  def gaussian(k: Long, i: Long = 0): Double = {
    val u1 = math.max(uniform(k, 2 * i), 1e-300)
    val u2 = uniform(k, 2 * i + 1)
    math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.Pi * u2)
  }

  /** Poisson(mu) sample keyed by `k`.
    *
    * Knuth's product method below mu=64 (exact); above that a rounded
    * normal approximation, whose relative moment error is < 1% — fine for
    * a data generator (the analysis layer never samples, it integrates).
    * Knuth's product stops at 0 when the first uniform is ≤ e^{−mu}; since
    * e^{−mu} > 1 − mu, a first uniform ≤ 1 − mu − 1e-9 (the margin covers
    * both roundings) returns 0 without the `exp`, the same draw; otherwise
    * the product goes on from that uniform.
    */
  def poisson(mu: Double, k: Long): Int = {
    if (mu <= 0.0) 0
    else if (mu < 64.0) {
      var p = uniform(k, 0)
      if (p <= 1.0 - mu - 1e-9) return 0
      val l = math.exp(-mu)
      var n = 0
      var i = 1L
      while (p > l) { n += 1; p *= uniform(k, i); i += 1 }
      n
    } else {
      math.max(0L, math.round(mu + math.sqrt(mu) * gaussian(k))).toInt
    }
  }
}
