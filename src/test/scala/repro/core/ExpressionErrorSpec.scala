package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropChecks

/** Unit tests for the expression-error kernels (paper §III-B, Alg. 1/2). */
class ExpressionErrorSpec extends AnyFunSuite with PropChecks {

  import ExpressionError._

  private val K = 60

  // Monte-Carlo estimate of E|X − (X+Y)/m|, X~Pois(a), Y~Pois(b).
  private def mc(a: Double, b: Double, m: Int, n: Int = 400000, seed: Long = 11): Double = {
    var s = 0.0
    var i = 0
    while (i < n) {
      val x = Rng.poisson(a, Rng.key(seed, i, 0))
      val y = Rng.poisson(b, Rng.key(seed, i, 1))
      s += math.abs(x - (x + y).toDouble / m)
      i += 1
    }
    s / n
  }

  test("lgamma matches known factorials") {
    for (n <- 1 to 20) {
      val exact = (1 until n).map(i => math.log(i.toDouble)).sum // log (n-1)!
      assert(math.abs(lgamma(n.toDouble) - exact) < 1e-9, s"lgamma($n)")
    }
  }

  test("lgamma half-integer value: Γ(0.5) = √π") {
    assert(math.abs(lgamma(0.5) - 0.5 * math.log(math.Pi)) < 1e-10)
  }

  test("logPoisPmf sums to ~1 over the support") {
    for (mu <- Seq(0.3, 1.0, 5.0, 20.0)) {
      val s = (0L to (mu + 15 * math.sqrt(mu) + 15).toLong).map(k => math.exp(logPoisPmf(mu, k))).sum
      assert(math.abs(s - 1.0) < 1e-9, s"mu=$mu sum=$s")
    }
  }

  test("m=1 gives zero expression error in all variants") {
    assert(naive(3.0, 0.0, 1, K) == 0.0)
    assert(fast(3.0, 0.0, 1, K) == 0.0)
    assert(auto(3.0, 0.0, 1) == 0.0)
  }

  test("empty HGrid in busy MGrid: E_e = b/m exactly") {
    for ((b, m) <- Seq((4.0, 4), (10.0, 16), (300.0, 64))) {
      assert(math.abs(auto(0.0, b, m) - b / m) < 1e-9)
    }
  }

  test("solo busy HGrid (b=0): E_e = (1−1/m)·a") {
    for ((a, m) <- Seq((2.0, 4), (5.0, 9), (1.5, 25))) {
      val expect = (1.0 - 1.0 / m) * a
      assert(math.abs(auto(a, 0.0, m) - expect) < 1e-6, s"a=$a m=$m got=${auto(a, 0.0, m)}")
      assert(math.abs(fast(a, 0.0, m, 80) - expect) < 1e-6)
    }
  }

  test("naive and fast agree (Alg. 1 ≡ Alg. 2)") {
    val cases = Seq((0.5, 2.0, 4), (1.0, 7.0, 8), (2.5, 10.0, 9), (0.1, 0.4, 16), (4.0, 4.0, 2))
    for ((a, b, m) <- cases) {
      val n = naive(a, b, m, K)
      val f = fast(a, b, m, K)
      assert(math.abs(n - f) < 1e-9, s"a=$a b=$b m=$m naive=$n fast=$f")
    }
  }

  /** Alg. 2 as a self-contained loop, before it shared [[ExpressionError]]'s
    * sweep with `auto`: the reference for the shared sweep's bits.
    */
  private def fastLoop(a: Double, b: Double, m: Int, K: Int): Double = {
    if (m == 1) return 0.0
    val kmMax = (m - 1) * K
    var p2 = math.exp(-b)
    var c0Tot = 0.0
    var c1Tot = 0.0
    var km = 0
    while (km <= kmMax) {
      c0Tot += p2; c1Tot += km * p2
      p2 = p2 * b / (km + 1)
      km += 1
    }
    var p1 = math.exp(-a)
    var pU = math.exp(-b)
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

  /** The windowed kernel as a self-contained loop, before it shared its
    * sweep with Alg. 2.
    */
  private def autoLoop(a: Double, b: Double, m: Int): Double = {
    if (m == 1) return 0.0
    if (a == 0.0) return b / m
    val pb = poisWindow(b)
    val bLo = windowLo(b)
    val bHi = bLo + pb.length - 1
    var i = 0
    var c0Tot = 0.0
    var c1Tot = 0.0
    while (i < pb.length) {
      c0Tot += pb(i); c1Tot += (bLo + i) * pb(i)
      i += 1
    }
    val pa = poisWindow(a)
    val aLo = windowLo(a)
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

  test("fast and auto share one sweep and keep the bits of their separate loops") {
    def bits(x: Double) = java.lang.Double.doubleToRawLongBits(x)
    val as = Seq(0.0, 0.5, 2.0, 30.0)
    val ms = Seq(1, 2, 64)
    val bs = Seq(0.0, 3.0, 126.0, 600.0, 800.0)
    for (k <- Seq(0, 1, 40, 250); m <- ms; b <- bs; a <- as) {
      val (got, want) = (fast(a, b, m, k), fastLoop(a, b, m, k))
      assert(bits(got) == bits(want), s"fast($a, $b, $m, $k): $got vs $want")
    }
    // e^{−800} underflows, and the literal Alg. 2 still reads 0 there
    assert(fast(2.0, 800.0, 64, 40) == 0.0)
    for (m <- ms; b <- bs; a <- as) {
      val (got, want) = (auto(a, b, m), autoLoop(a, b, m))
      assert(bits(got) == bits(want), s"auto($a, $b, $m): $got vs $want")
    }
  }

  test("auto agrees with fast on moderate parameters") {
    val cases = Seq((0.5, 2.0, 4), (1.0, 7.0, 8), (2.5, 10.0, 9), (0.1, 0.4, 16), (3.0, 30.0, 36))
    for ((a, b, m) <- cases) {
      val f = fast(a, b, m, 120)
      val w = auto(a, b, m)
      assert(math.abs(f - w) < 1e-6, s"a=$a b=$b m=$m fast=$f auto=$w")
    }
  }

  test("property: naive ≡ fast ≡ auto on random parameters") {
    val gen = for {
      a <- Gen.choose(0.0, 5.0)
      b <- Gen.choose(0.0, 20.0)
      m <- Gen.choose(2, 25)
    } yield (a, b, m)
    checkProp(Prop.forAll(gen) { case (a, b, m) =>
      val n = naive(a, b, m, K)
      val f = fast(a, b, m, K)
      val w = auto(a, b, m)
      math.abs(n - f) < 1e-8 && math.abs(f - w) < 1e-4
    }, min = 40)
  }

  test("auto survives large MGrid totals where doubles underflow (b > 745)") {
    val e = auto(5.0, 1200.0, 64)
    assert(e.isFinite && e > 0.0)
    // literal Alg. 2 underflows e^-b to 0 here and returns garbage ~0 or NaN
    val broken = fast(5.0, 1200.0, 64, 40)
    assert(broken < 1e-6 || broken.isNaN, "expected the literal algorithm to underflow")
    // sanity against the normal approximation of |(m-1)X - Y|/m
    val m = 64; val a = 5.0; val b = 1200.0
    val mu = (m - 1.0) * a - b
    val sd = math.sqrt((m - 1.0) * (m - 1.0) * a + b)
    val phi = math.exp(-mu * mu / (2 * sd * sd)) / math.sqrt(2 * math.Pi)
    val cdf = 0.5 * (1.0 + erf(mu / (sd * math.sqrt(2))))
    val approx = (sd * 2 * phi + mu * (2 * cdf - 1.0)) / m
    assert(math.abs(e - approx) / approx < 0.05, s"auto=$e normalApprox=$approx")
  }

  test("auto seeds P_a at its mode: large α (a = 1000, b = 4000) matches log-space Eq. 7") {
    val (a, b, m) = (1000.0, 4000.0, 16)
    val e = auto(a, b, m)
    assert(e.isFinite && e > 0.0 && e <= lemmaBound(a, b, m), s"auto=$e")
    // Eq. 7 term by term, each pmf point from logPoisPmf, over auto's windows
    val (aLo, bLo) = (windowLo(a), windowLo(b))
    val (aHi, bHi) = (aLo + poisWindow(a).length - 1, bLo + poisWindow(b).length - 1)
    val logPb = (bLo to bHi).map(k => logPoisPmf(b, k)).toArray
    var ref = 0.0
    for (kh <- aLo to aHi) {
      val logPa = logPoisPmf(a, kh)
      var km = bLo
      while (km <= bHi) {
        ref += math.abs((m - 1.0) * kh - km) * math.exp(logPa + logPb((km - bLo).toInt))
        km += 1
      }
    }
    ref /= m
    assert(math.abs(e - ref) <= 1e-12 * ref, s"auto=$e logSpace=$ref")
  }

  test("poisWindow: recurrence from the mode keeps the window's mass and every point") {
    for (mu <- Seq(1e-3, 0.05, 1.0, 10.0, 100.0, 745.0, 1e4)) {
      val w = poisWindow(mu)
      val lo = windowLo(mu)
      assert(math.abs(w.sum - 1.0) <= 1e-14, s"mu=$mu mass=${w.sum}")
      for (i <- w.indices) {
        val ref = math.exp(logPoisPmf(mu, lo + i))
        assert(math.abs(w(i) - ref) <= 1e-12 * ref, s"mu=$mu k=${lo + i} recurrence=${w(i)} exp(logPoisPmf)=$ref")
      }
      // the mass left outside the ±12σ window (largest near mu ≈ 11)
      val outside = (lo - 1 to 0 by -1).map(k => math.exp(logPoisPmf(mu, k))).sum +
        (lo + w.length to lo + w.length + 200).map(k => math.exp(logPoisPmf(mu, k))).sum
      assert(outside < 1e-26, s"mu=$mu tail mass $outside")
    }
  }

  private def erf(x: Double): Double = {
    // Abramowitz–Stegun 7.1.26, |err| < 1.5e-7
    val t = 1.0 / (1.0 + 0.3275911 * math.abs(x))
    val y = 1.0 - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t + 0.254829592) * t * math.exp(-x * x)
    if (x >= 0) y else -y
  }

  test("Monte-Carlo agreement: auto ≈ E|X − (X+Y)/m|") {
    val cases = Seq((1.0, 3.0, 4), (2.0, 14.0, 16), (0.3, 0.9, 4), (5.0, 5.0, 2))
    for ((a, b, m) <- cases) {
      val est = mc(a, b, m)
      val ex = auto(a, b, m)
      assert(math.abs(est - ex) < 0.02 * (1 + ex), s"a=$a b=$b m=$m mc=$est exact=$ex")
    }
  }

  test("convergence in K (Theorem III.2): K=60 within 1e-6 of K=120") {
    for ((a, b, m) <- Seq((1.0, 5.0, 8), (3.0, 9.0, 4))) {
      assert(math.abs(fast(a, b, m, 60) - fast(a, b, m, 120)) < 1e-6)
    }
  }

  test("truncated sums increase monotonically in K toward the limit") {
    val (a, b, m) = (2.0, 6.0, 4)
    val vals = Seq(2, 5, 10, 20, 40).map(k => naive(a, b, m, k))
    assert(vals.zip(vals.tail).forall { case (x, y) => y >= x - 1e-12 })
    assert(math.abs(vals.last - auto(a, b, m)) < 1e-3)
  }

  test("Lemma III.1: every truncated sum is below (1−2/m)α + Σα/m") {
    val gen = for {
      a <- Gen.choose(0.1, 6.0)
      b <- Gen.choose(0.0, 25.0)
      m <- Gen.choose(3, 20)
      k <- Gen.choose(5, 80)
    } yield (a, b, m, k)
    checkProp(Prop.forAll(gen) { case (a, b, m, k) =>
      naive(a, b, m, k) <= lemmaBound(a, b, m) + 1e-9
    }, min = 40)
  }

  test("expression error increases with α beyond the fair share b/(m−1)") {
    // E_e(a) dips at the fair-share point a = b/(m−1) (the uniform split is
    // then correct in expectation) and grows past it; Lemma III.1's *bound*
    // is monotone in α everywhere.
    val m = 8
    val b = 10.0
    val fair = b / (m - 1)
    val es = Seq(1.0, 2.0, 4.0, 8.0).map(a => auto(fair * a, b, m))
    assert(es.zip(es.tail).forall { case (x, y) => y > x }, es.toString)
    val bounds = Seq(0.5, 1.0, 2.0, 4.0).map(a => lemmaBound(a, b, m))
    assert(bounds.zip(bounds.tail).forall { case (x, y) => y > x })
  }

  test("mgridTotal: uniform MGrid matches m × single-cell error") {
    val m = 9
    val alphas = Array.fill(m)(2.0)
    val single = auto(2.0, 16.0, m)
    assert(math.abs(mgridTotal(alphas, m) - m * single) < 1e-9)
  }

  test("mgridTotal accounts for absent (zero-α) HGrids exactly") {
    val m = 16
    val present = Array(3.0, 1.0)
    val full = present ++ Array.fill(m - 2)(0.0)
    val viaSparse = mgridTotal(present, m)
    val viaDense = full.map(a => auto(a, full.sum - a, m)).sum
    assert(math.abs(viaSparse - viaDense) < 1e-9)
  }

  test("mgridTotal with repeated α equals the term-by-term sum bit for bit") {
    val m = 64
    val alphas = Array.tabulate(40)(j => (j % 5 + 1) / 28.0)
    val total = alphas.sum
    var direct = 0.0
    alphas.foreach(a => direct += auto(a, total - a, m))
    assert(mgridTotal(alphas, m) == direct + (m - alphas.length) * total / m)
  }

  test("totalPerSlot's shared memo changes no bit of Σ_i mgridTotal") {
    val hSide = 64
    // integer counts ÷ 28, so α repeats within and across MGrids
    val alpha = Array.tabulate(3, hSide * hSide) { (s, h) =>
      Rng.poisson(0.5 + 3.0 * ((h / hSide + s) % 5), Rng.key(5, s, h)) / 28.0
    }
    for (nSide <- Seq(1, 3, 16, 32)) {
      val spec = GridSpec(nSide, hSide)
      val members = (for (hx <- 0 until hSide; hy <- 0 until hSide)
        yield spec.mgridId(hx, hy) -> spec.hgridId(hx, hy)).groupMap(_._1)(_._2)
      val want = alpha.map { a =>
        var e = 0.0
        for (i <- 0 until spec.n) {
          val present = members(i).map(a).filter(_ != 0.0).toArray
          e += mgridTotal(present, spec.cellsPerM(i)) // a fresh memo per MGrid
        }
        e
      }
      assert(totalPerSlot(alpha, spec).sameElements(want), s"nSide=$nSide")
    }
  }

  test("slotTotal of one MGrid with repeated α and empty HGrids equals mgridTotal bit for bit") {
    // one MGrid of 1024 HGrids: 400 distinct α, each repeated, with empty
    // HGrids in between; then 1023 distinct α, the most the per-MGrid
    // table ever holds for its size (just under half full)
    val spec = GridSpec(1, 32)
    val repeated = Array.tabulate(spec.totalHGrids)(h => if (h % 7 == 3) 0.0 else (h * 37 % 400 + 1) / 28.0)
    val distinct = Array.tabulate(spec.totalHGrids)(h => if (h == 5) 0.0 else (h * 37 % 1024 + 1) / 28.0)
    for (a <- Seq(repeated, distinct)) {
      val want = mgridTotal(a.filter(_ != 0.0), spec.totalHGrids)
      assert(slotTotal(a, spec, new Memo) == want)
      assert(totalPerSlot(Array(a, a.reverse), spec)(0) == want)
    }
  }

  test("Memo equals auto bit for bit over keys that share α, with a = 0 and m = 1") {
    val memo = new Memo
    val keys = for {
      a <- Seq(0.0, 1 / 28.0, 5 / 28.0, 2.5, 40.0)
      b <- Seq(0.0, 0.3, 12.0, 900.0)
      m <- Seq(1, 2, 16, 4096)
    } yield (a, b, m)
    // twice: the first pass fills each α's window, the second hits
    for (_ <- 1 to 2; (a, b, m) <- keys)
      assert(memo(a, b, m) == auto(a, b, m), s"a=$a b=$b m=$m")
    assert(memo.size == keys.size)
  }

  test("mgridTotal on an empty MGrid is zero") {
    assert(mgridTotal(Array.empty[Double], 4) == 0.0)
    assert(mgridTotal(Array(0.0, 0.0), 4) == 0.0)
  }

  test("mgridTotal rejects more HGrids than m") {
    assertThrows[IllegalArgumentException](mgridTotal(Array(1.0, 2.0, 3.0), 2))
  }

  test("total expression error bound: Σ E_e ≤ 2(1−1/m) Σ α") {
    val m = 9
    val alphas = Array(5.0, 2.0, 1.0, 0.5, 0.2)
    val tot = mgridTotal(alphas, m)
    assert(tot <= 2 * (1.0 - 1.0 / m) * alphas.sum + 1e-9)
  }

  test("more even split ⇒ smaller per-MGrid expression error") {
    val m = 4
    val even = mgridTotal(Array(2.5, 2.5, 2.5, 2.5), m)
    val uneven = mgridTotal(Array(8.0, 1.0, 0.5, 0.5), m)
    assert(uneven > even, s"uneven=$uneven even=$even")
  }
}
