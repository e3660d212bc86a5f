package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col

import java.util.stream.IntStream
import scala.collection.mutable

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
  *  - [[auto]]   — production variant: same prefix-sum scheme but
  *                 iterating only the ±12σ windows of both Poissons, with
  *                 log-space pmf evaluation. A literal double-precision
  *                 Alg. 1/2 computes e^{−b} = 0 for b ≳ 745 (a busy MGrid
  *                 at small n) and silently returns 0; [[auto]] does not.
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

  /** log Pois(mu) pmf at k. */
  def logPoisPmf(mu: Double, k: Long): Double =
    -mu + k * math.log(mu) - lgamma(k + 1.0)

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
    val kmMax = (m - 1) * K
    // totals C0(Km), C1(Km)
    var p2 = math.exp(-b)
    var c0Tot = 0.0
    var c1Tot = 0.0
    var km = 0
    while (km <= kmMax) {
      c0Tot += p2; c1Tot += km * p2
      p2 = p2 * b / (km + 1)
      km += 1
    }
    // sweep k_h, advancing the prefix pointer u over k_m
    var p1 = math.exp(-a)
    var pU = math.exp(-b) // P_b(u)
    var u = 0
    var c0 = 0.0
    var c1 = 0.0
    var e = 0.0
    var kh = 0
    while (kh <= K) {
      val t = (m - 1).toLong * kh
      while (u < t && u <= kmMax) {
        c0 += pU; c1 += u * pU
        pU = pU * b / (u + 1)
        u += 1
      }
      e += p1 * ((m - 1).toDouble * kh * (2 * c0 - c0Tot) - (2 * c1 - c1Tot))
      p1 = p1 * a / (kh + 1)
      kh += 1
    }
    e / m
  }

  private final val Z = 12.0 // window half-width in σ, tail mass < 1e-30

  /** Production expression error: Alg. 2's scheme over the mass windows of
    * both Poissons, pmfs in log space. Truncation error < 1e-12 relative.
    */
  def auto(a: Double, b: Double, m: Int): Double = {
    require(m >= 1 && a >= 0 && b >= 0)
    if (m == 1) return 0.0
    if (a == 0.0) return b / m // exact: E|Y/m| = b/m for empty HGrid
    val aHi = math.ceil(a + Z * math.sqrt(a + 1) + 10).toLong
    val bLo = if (b == 0.0) 0L else math.max(0L, math.floor(b - Z * math.sqrt(b + 1) - 10).toLong)
    val bHi = if (b == 0.0) 0L else math.ceil(b + Z * math.sqrt(b + 1) + 10).toLong
    val len = (bHi - bLo + 1).toInt
    val pb = new Array[Double](len)
    var i = 0
    var c0Tot = 0.0
    var c1Tot = 0.0
    while (i < len) {
      val k = bLo + i
      pb(i) = if (b == 0.0) { if (k == 0) 1.0 else 0.0 } else math.exp(logPoisPmf(b, k))
      c0Tot += pb(i); c1Tot += k * pb(i)
      i += 1
    }
    var u = bLo
    var c0 = 0.0
    var c1 = 0.0
    var e = 0.0
    var kh = 0L
    val logA = math.log(a)
    var logPa = -a // log P_a(0)
    while (kh <= aHi) {
      val t = (m - 1).toLong * kh
      while (u < t && u <= bHi) {
        val p = pb((u - bLo).toInt)
        c0 += p; c1 += u * p
        u += 1
      }
      val pa = math.exp(logPa)
      if (pa > 0) {
        val cc0 = if (t > bHi) c0Tot else c0
        val cc1 = if (t > bHi) c1Tot else c1
        e += pa * ((m - 1).toDouble * kh * (2 * cc0 - c0Tot) - (2 * cc1 - c1Tot))
      }
      kh += 1
      logPa += logA - math.log(kh.toDouble)
    }
    e / m
  }

  /** Total expression error of one MGrid with present-HGrid means
    * `alphas` (absent HGrids are implicit zeros): Σ_j E_e(α_j, A−α_j, m)
    * plus the exact A/m term for each of the (m − |alphas|) empty HGrids.
    * Within one MGrid E_e depends on α_j alone (A and m are shared), and
    * α = count / days takes few distinct values, so each is computed once.
    */
  def mgridTotal(alphas: Array[Double], m: Int): Double = {
    require(alphas.length <= m, s"${alphas.length} HGrid means for m=$m")
    val total = alphas.sum
    val byAlpha = mutable.HashMap.empty[Double, Double]
    var e = 0.0
    var j = 0
    while (j < alphas.length) {
      val a = alphas(j)
      e += byAlpha.getOrElseUpdate(a, auto(a, total - a, m))
      j += 1
    }
    e + (m - alphas.length) * (if (m == 1) 0.0 else total / m)
  }

  /** Per-slot totals Σ_i Σ_j E_e(i,j): `alpha(s)` is slot s's dense α
    * surface on the `spec.hSide` lattice (index cx·hSide + cy), where 0
    * means an empty HGrid. Slots run in parallel on the JDK's common pool.
    */
  def totalPerSlot(alpha: Array[Array[Double]], spec: GridSpec): Array[Double] = {
    val mOf = Array.tabulate(spec.hSide)(spec.mOfH)
    val cellsPerM = spec.cellsPerM
    val out = new Array[Double](alpha.length)
    IntStream.range(0, alpha.length).parallel().forEach { s =>
      val a = alpha(s)
      require(a.length == spec.totalHGrids,
        s"slot $s has ${a.length} α values for ${spec.totalHGrids} HGrids")
      val present = Array.fill(spec.n)(new mutable.ArrayBuilder.ofDouble)
      for (hx <- 0 until spec.hSide; hy <- 0 until spec.hSide) {
        val v = a(hx * spec.hSide + hy)
        if (v != 0.0) present(mOf(hx) * spec.nSide + mOf(hy)) += v
      }
      var e = 0.0
      var i = 0
      while (i < spec.n) { e += mgridTotal(present(i).result(), cellsPerM(i)); i += 1 }
      out(s) = e
    }
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
