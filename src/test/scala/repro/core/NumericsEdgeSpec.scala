package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropChecks

/** Edge cases and extra numeric properties of the core kernels. */
class NumericsEdgeSpec extends AnyFunSuite with PropChecks {

  import ExpressionError._

  test("K = 0 truncation keeps only the (0,0) term") {
    // k_h = 0, k_m = 0: |(m−1)·0 − 0|/m = 0 ⇒ sum is 0
    assert(naive(2.0, 3.0, 4, 0) == 0.0)
    assert(fast(2.0, 3.0, 4, 0) == 0.0)
  }

  test("K = 1 truncation agrees between naive and fast") {
    for ((a, b, m) <- Seq((0.5, 1.0, 3), (2.0, 2.0, 5)))
      assert(math.abs(naive(a, b, m, 1) - fast(a, b, m, 1)) < 1e-12)
  }

  test("auto ≈ fast just below the double-precision underflow edge (b = 600)") {
    val a = 3.0
    val b = 600.0
    val m = 64
    val f = fast(a, b, m, 40) // e^-600 ≈ 2e-261: still representable
    val w = auto(a, b, m)
    assert(math.abs(f - w) / w < 1e-6, s"fast=$f auto=$w")
  }

  test("logPoisPmf mass is 1 for a large mean (windowed sum, mu = 10⁴)") {
    val mu = 10000.0
    val lo = (mu - 12 * math.sqrt(mu)).toLong
    val hi = (mu + 12 * math.sqrt(mu)).toLong
    val s = (lo to hi).map(k => math.exp(logPoisPmf(mu, k))).sum
    assert(math.abs(s - 1.0) < 1e-8, s"sum=$s")
  }

  test("expression error is symmetric in the other cells only through their sum") {
    // E_e depends on (a, b, m) with b = Σ_{g≠j} α — verify via mgridTotal
    val m = 9
    val e1 = mgridTotal(Array(2.0, 1.0, 3.0), m)
    val e2 = mgridTotal(Array(2.0, 3.0, 1.0), m)
    assert(math.abs(e1 - e2) < 1e-12)
  }

  test("property: lemma bound is positive whenever any α is positive") {
    val gen = for {
      a <- Gen.choose(0.01, 10.0)
      b <- Gen.choose(0.0, 50.0)
      m <- Gen.choose(3, 30)
    } yield (a, b, m)
    checkProp(Prop.forAll(gen) { case (a, b, m) => lemmaBound(a, b, m) > 0.0 })
  }

  test("property: E_e never exceeds the Lemma III.1 bound (limit form)") {
    val gen = for {
      a <- Gen.choose(0.0, 8.0)
      b <- Gen.choose(0.0, 40.0)
      m <- Gen.choose(2, 40)
    } yield (a, b, m)
    checkProp(Prop.forAll(gen) { case (a, b, m) =>
      auto(a, b, m) <= lemmaBound(a, b, m) + 1e-9 || (a == 0.0 && b == 0.0)
    })
  }

  test("ternary evaluation count is logarithmic, never linear") {
    for (hi <- Seq(32, 64, 256, 1024)) {
      val r = Search.ternary(x => math.abs(x - hi / 3).toDouble, 1, hi)
      val bound = 2 * math.ceil(math.log(hi) / math.log(1.5)).toInt + 4
      assert(r.evals <= bound, s"hi=$hi evals=${r.evals} bound=$bound")
    }
  }

  test("iterative never returns a point worse than its start") {
    val gen = for { opt <- Gen.choose(1, 64); s <- Gen.long } yield (opt, s)
    checkProp(Prop.forAll(gen) { case (opt, s) =>
      val f: Int => Double = x => math.abs(x - opt) + 0.5 * Rng.uniform(Rng.key(s, x))
      val r = Search.iterative(f, p0 = 16, b = 4, lo = 1, hi = 64)
      f(r.nSide) <= f(16) + 1e-12
    })
  }

  test("brute force returns the smallest argmin on ties") {
    val r = Search.bruteForce(x => (x % 3).toDouble, 1, 10)
    assert(r.nSide == 3) // first x with f = 0
  }

  test("SlotEval.upper is per-model") {
    val s = SlotEval(0, 10.0, Map("a" -> 1.0, "b" -> 2.0), Map("a" -> 0.0, "b" -> 0.0))
    assert(s.upper("a") == 11.0 && s.upper("b") == 12.0)
  }

  test("GridSpec per-MGrid m matches N/n on average") {
    for (spec <- Seq(GridSpec(5, 64), GridSpec(13, 64), GridSpec(32, 64))) {
      val mean = spec.cellsPerM.map(_.toDouble).sum / spec.n
      assert(math.abs(mean - spec.totalHGrids.toDouble / spec.n) < 1e-9)
    }
  }
}
