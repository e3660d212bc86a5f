package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col

import java.util.concurrent.ConcurrentHashMap
import java.util.stream.IntStream

/** Expression error of a HGrid (paper §III-B).
  *
  * With λ_ij ~ Pois(a) (a = α_ij) and the rest of the MGrid
  * λ_{i,≠j} ~ Pois(b) (b = Σ_{g≠j} α_ig), the expression error is
  *
  *   E_e = E | λ_ij − (λ_ij + λ_{i,≠j})/m |
  *       = (1/m) Σ_{k_h} Σ_{k_m} |(m−1)k_h − k_m| · P_a(k_h) · P_b(k_m)
  *
  * (Eq. 7). Three implementations:
  *  - [[naive]]  — paper Algorithm 1, O(mK²) total work;
  *  - [[fast]]   — paper Algorithm 2, O(mK), via incremental prefix sums
  *                 of the Pois(b) mass (Eq. 16–19);
  *  - [[auto]]   — production variant: [[fast]]'s prefix-sum sweep, but
  *                 iterating only the ±12σ windows of both Poissons, each
  *                 pmf seeded once in log space at its mode and filled
  *                 outward by the ratio recurrence. A literal
  *                 double-precision Alg. 1/2 starts at e^{−b}, which is 0
  *                 for b ≳ 745 (a busy MGrid at small n), and silently
  *                 returns 0; [[auto]] does not.
  */
object ExpressionError {

  /** Lanczos log-gamma (g=7, n=9); |err| < 1e-13 for x > 0. */
  def lgamma(x: Double): Double = {
    val g = 7.0
    val c = Array(
      0.99999999999980993, 676.5203681218851, -1259.1392167224028,
      771.32342877765313, -176.61502916214059, 12.507343278686905,
      -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7)
    if (x < 0.5) {
      math.log(math.Pi / math.sin(math.Pi * x)) - lgamma(1.0 - x)
    } else {
      val xx = x - 1.0
      var a = c(0)
      val t = xx + g + 0.5
      var i = 1
      while (i < 9) { a += c(i) / (xx + i); i += 1 }
      0.5 * math.log(2 * math.Pi) + (xx + 0.5) * math.log(t) - t + math.log(a)
    }
  }

  /** log Pois(mu) pmf at k. For k > 15 this is Loader's saddle-point form
    * −stirlerr(k) − bd0(k, mu) − ½·log(2πk), whose terms stay O(1) near the
    * mode; the direct −mu + k·log mu − lgamma(k+1) cancels terms of size
    * mu and loses ~1e-11 relative at mu = 1e4.
    */
  def logPoisPmf(mu: Double, k: Long): Double =
    if (k <= 15) -mu + k * math.log(mu) - lgamma(k + 1.0)
    else -stirlerr(k) - bd0(k.toDouble, mu) - 0.5 * math.log(2 * math.Pi * k)

  /** log k! − ((k+½)·log k − k + ½·log 2π) for k > 15: Stirling's series. */
  private def stirlerr(k: Long): Double = {
    val kk = k.toDouble * k
    (1.0 / 12 - (1.0 / 360 - (1.0 / 1260 - (1.0 / 1680 - 1.0 / (1188 * kk)) / kk) / kk) / kk) / k
  }

  /** x·log(x/mu) + mu − x, by its series in v = (x−mu)/(x+mu) when x ≈ mu. */
  private def bd0(x: Double, mu: Double): Double =
    if (math.abs(x - mu) < 0.1 * (x + mu)) {
      val v = (x - mu) / (x + mu)
      val v2 = v * v
      var s = (x - mu) * v
      var ej = 2 * x * v
      var j = 1
      var done = false
      while (!done) {
        ej *= v2
        val s1 = s + ej / (2 * j + 1)
        done = s1 == s
        s = s1
        j += 1
      }
      s
    } else x * math.log(x / mu) + mu - x

  /** Algorithm 1 (verbatim intent): double sum truncated at k_h ≤ K,
    * k_m ≤ (m−1)K, pmfs by the O(1) recurrence of Eq. 14.
    */
  def naive(a: Double, b: Double, m: Int, K: Int): Double = {
    require(m >= 1 && K >= 0 && a >= 0 && b >= 0)
    if (m == 1) return 0.0
    val kmMax = (m - 1) * K
    var e = 0.0
    var p1 = math.exp(-a) // P_a(k_h)
    var kh = 0
    while (kh <= K) {
      var p2 = math.exp(-b) // P_b(k_m)
      var km = 0
      while (km <= kmMax) {
        e += math.abs(((m - 1).toDouble * kh - km) / m) * p1 * p2
        p2 = p2 * b / (km + 1)
        km += 1
      }
      p1 = p1 * a / (kh + 1)
      kh += 1
    }
    e
  }

  /** Algorithm 2: O(mK). Rewrites the |·| via the sign indicator at the
    * threshold t = (m−1)k_h (Eq. 16) so each k_h needs only the prefix
    * sums C0(t−1) = Σ_{k_m<t} P_b and C1(t−1) = Σ_{k_m<t} k_m P_b, which
    * advance monotonically with k_h (Eq. 19):
    *
    *   E_e ≈ (1/m) Σ_{k_h≤K} P_a(k_h) ·
    *         [ (m−1)k_h (2C0(t−1) − C0(Km)) − (2C1(t−1) − C1(Km)) ]
    */
  def fast(a: Double, b: Double, m: Int, K: Int): Double = {
    require(m >= 1 && K >= 0 && a >= 0 && b >= 0)
    if (m == 1) return 0.0
    sweep(recurrencePmf(a, K), 0L, recurrencePmf(b, (m - 1) * K), 0L, m)
  }

  /** Pois(mu) pmf over [0, kMax] by Eq. 14's recurrence from e^{−mu}. */
  private def recurrencePmf(mu: Double, kMax: Int): Array[Double] = {
    val p = new Array[Double](kMax + 1)
    p(0) = math.exp(-mu)
    var k = 0
    while (k < kMax) { p(k + 1) = p(k) * mu / (k + 1); k += 1 }
    p
  }

  // window half-width in σ; the mass left outside is ≤ 1.5e-27 (measured
  // over mu ∈ [1e-4, 2e5], largest near mu ≈ 11)
  private final val Z = 12.0

  /** First point of Pois(mu)'s ±Zσ mass window. */
  private[core] def windowLo(mu: Double): Long =
    math.max(0L, math.floor(mu - Z * math.sqrt(mu + 1) - 10).toLong)

  /** Pois(mu) pmf over [windowLo(mu), mu + Z·√(mu+1) + 10] (just k = 0 when
    * mu = 0): one exp(logPoisPmf) at the mode, then the ratio recurrence
    * p(k+1) = p(k)·mu/(k+1) upward and p(k−1) = p(k)·k/mu downward. Seeding
    * at the mode rather than at e^{−mu} keeps mu > 745 from underflowing.
    */
  private[core] def poisWindow(mu: Double): Array[Double] = {
    if (mu == 0.0) return Array(1.0)
    val lo = windowLo(mu)
    val p = new Array[Double]((math.ceil(mu + Z * math.sqrt(mu + 1) + 10).toLong - lo + 1).toInt)
    val mode = (math.floor(mu).toLong - lo).toInt
    p(mode) = math.exp(logPoisPmf(mu, lo + mode))
    var i = mode
    while (i + 1 < p.length) { p(i + 1) = p(i) * mu / (lo + i + 1); i += 1 }
    i = mode
    while (i > 0) { p(i - 1) = p(i) * (lo + i) / mu; i -= 1 }
    p
  }

  /** Production expression error: Alg. 2's scheme over the mass windows of
    * both Poissons, each pmf filled by [[poisWindow]]'s recurrence from its
    * mode. Truncation error < 1e-12 relative.
    */
  def auto(a: Double, b: Double, m: Int): Double = auto(a, b, m, poisWindow)

  /** [[auto]] with the Pois(a) window taken from `windowOf`, so that callers
    * with many keys of one α fill it once.
    */
  private def auto(a: Double, b: Double, m: Int, windowOf: Double => Array[Double]): Double = {
    require(m >= 1 && a >= 0 && b >= 0)
    if (m == 1) return 0.0
    if (a == 0.0) return b / m // exact: E|Y/m| = b/m for empty HGrid
    sweep(windowOf(a), windowLo(a), poisWindow(b), windowLo(b), m)
  }

  /** Alg. 2's prefix-sum sweep (Eq. 16–19): `pa` is the Pois(a) pmf from
    * k_h = aLo, `pb` the Pois(b) pmf from k_m = bLo. The totals C0, C1 run
    * over `pb`; the prefix pointer u over k_m advances with k_h.
    */
  private def sweep(pa: Array[Double], aLo: Long, pb: Array[Double], bLo: Long, m: Int): Double = {
    val bHi = bLo + pb.length - 1
    var i = 0
    var c0Tot = 0.0
    var c1Tot = 0.0
    while (i < pb.length) {
      c0Tot += pb(i); c1Tot += (bLo + i) * pb(i)
      i += 1
    }
    var u = bLo
    var c0 = 0.0
    var c1 = 0.0
    var e = 0.0
    i = 0
    while (i < pa.length) {
      val kh = aLo + i
      val t = (m - 1).toLong * kh
      while (u < t && u <= bHi) {
        val p = pb((u - bLo).toInt)
        c0 += p; c1 += u * p
        u += 1
      }
      e += pa(i) * ((m - 1).toDouble * kh * (2 * c0 - c0Tot) - (2 * c1 - c1Tot))
      i += 1
    }
    e / m
  }

  /** [[auto]] values keyed on their exact arguments (α, A − α, m), and the
    * Pois(α) window of each α that missed; safe to share between threads.
    */
  final class Memo {
    private val values = new ConcurrentHashMap[Memo.Key, java.lang.Double]
    private val windows = new ConcurrentHashMap[java.lang.Double, Array[Double]]
    private val window: Double => Array[Double] = a => windows.computeIfAbsent(a, _ => poisWindow(a))
    def apply(a: Double, b: Double, m: Int): Double =
      values.computeIfAbsent(new Memo.Key(a, b, m), _ => auto(a, b, m, window))
    /** Distinct keys computed so far: the memo's misses. */
    def size: Int = values.size
  }
  object Memo {
    /** Arguments compared by their bits, so equal keys are equal
      * arguments; the hash is a multiply-xor of the same bits.
      */
    private final class Key(a: Double, b: Double, val m: Int) {
      val aBits: Long = java.lang.Double.doubleToLongBits(a)
      val bBits: Long = java.lang.Double.doubleToLongBits(b)
      override def hashCode: Int = {
        val h = (aBits * 0x9e3779b97f4a7c15L + bBits) * 0xbf58476d1ce4e5b9L + m
        (h ^ (h >>> 32)).toInt
      }
      override def equals(o: Any): Boolean = o match {
        case k: Key => k.aBits == aBits && k.bBits == bBits && k.m == m
        case _ => false
      }
    }
  }

  /** Total expression error of one MGrid with present-HGrid means
    * `alphas` (absent HGrids are implicit zeros): Σ_j E_e(α_j, A−α_j, m)
    * plus the exact A/m term for each of the (m − |alphas|) empty HGrids,
    * summed term by term in order. The reference for [[slotTotal]]'s
    * per-MGrid sums.
    */
  def mgridTotal(alphas: Array[Double], m: Int, memo: Memo = new Memo): Double = {
    require(alphas.length <= m, s"${alphas.length} HGrid means for m=$m")
    var total = 0.0
    alphas.foreach(a => total += a)
    var e = 0.0
    alphas.foreach(a => e += memo(a, total - a, m))
    e + (m - alphas.length) * (if (m == 1) 0.0 else total / m)
  }

  /** Expression error Σ_i Σ_j E_e(i,j) of one slot: `a` is the slot's dense
    * α surface on the `spec.hSide` lattice (index cx·hSide + cy), where 0
    * means an empty HGrid. MGrids are summed in id order, each one's
    * HGrids in HGrid order, so each MGrid's sum is [[mgridTotal]]'s bit for
    * bit. HGrids of one MGrid with equal α share the key (α, A − α, m), and
    * α = count / days takes few values, so each distinct α of an MGrid goes
    * to `memo` once: an open-addressed table, at most half full, maps α's
    * bits (0 marks a free slot; a present α is never ±0) to its value.
    */
  def slotTotal(a: Array[Double], spec: GridSpec, memo: Memo): Double = {
    require(a.length == spec.totalHGrids, s"${a.length} α values for ${spec.totalHGrids} HGrids")
    val byM = spec.hgridsByM
    val start = spec.mStart
    val cellsPerM = spec.cellsPerM
    val present = new Array[Double](spec.maxM)
    val keys = new Array[Long](Integer.highestOneBit(spec.maxM) << 2)
    val values = new Array[Double](keys.length)
    var e = 0.0
    var i = 0
    while (i < spec.n) {
      val m = cellsPerM(i)
      var len = 0
      var total = 0.0
      var k = start(i)
      while (k < start(i + 1)) {
        val v = a(byM(k))
        if (v != 0.0) { present(len) = v; total += v; len += 1 }
        k += 1
      }
      val size = Integer.highestOneBit(len) << 2
      val shift = 64 - Integer.numberOfTrailingZeros(size)
      java.util.Arrays.fill(keys, 0, size, 0L)
      var em = 0.0
      var j = 0
      while (j < len) {
        val x = present(j)
        val key = java.lang.Double.doubleToLongBits(x)
        var h = ((key * 0x9e3779b97f4a7c15L) >>> shift).toInt
        while (keys(h) != 0L && keys(h) != key) h = (h + 1) & (size - 1)
        if (keys(h) == 0L) { keys(h) = key; values(h) = memo(x, total - x, m) }
        em += values(h)
        j += 1
      }
      e += em + (m - len) * (if (m == 1) 0.0 else total / m)
      i += 1
    }
    e
  }

  /** Per-slot totals ([[slotTotal]] of each `alpha(s)`). Slots run in
    * parallel on the JDK's common pool and share one [[Memo]].
    */
  def totalPerSlot(alpha: Array[Array[Double]], spec: GridSpec): Array[Double] = {
    val memo = new Memo
    val out = new Array[Double](alpha.length)
    IntStream.range(0, alpha.length).parallel().forEach(s => out(s) = slotTotal(alpha(s), spec, memo))
    out
  }

  /** [[totalPerSlot]] over a sparse (slot, cx, cy, alpha) DataFrame: one row
    * (slot, exprErr) per slot that has α rows.
    */
  def totalPerSlot(spark: SparkSession, alphaDf: DataFrame, spec: GridSpec): DataFrame = {
    import spark.implicits._
    val bySlot = alphaDf
      .select(col("slot").cast("int"), col("cx").cast("int"), col("cy").cast("int"), col("alpha").cast("double"))
      .as[(Int, Int, Int, Double)]
      .collect()
      .groupBy(_._1)
      .toSeq
      .sortBy(_._1)
    val dense = bySlot.map { case (_, rows) =>
      val a = new Array[Double](spec.totalHGrids)
      rows.foreach { case (s, cx, cy, v) =>
        require(cx >= 0 && cx < spec.hSide && cy >= 0 && cy < spec.hSide,
          s"α row of slot $s at cell ($cx, $cy), outside the ${spec.hSide}² lattice")
        a(spec.hgridId(cx, cy)) = v
      }
      a
    }
    bySlot.map(_._1).zip(totalPerSlot(dense.toArray, spec)).toDF("slot", "exprErr")
  }

  /** Lemma III.1 upper bound on the truncated double sum:
    * (1 − 2/m)·α_ij + (Σ_g α_ig)/m.
    */
  def lemmaBound(a: Double, b: Double, m: Int): Double =
    (1.0 - 2.0 / m) * a + (a + b) / m
}
