package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropChecks

import scala.collection.mutable

class SearchSpec extends AnyFunSuite with PropChecks {

  /** Wrap f to count raw calls (beyond Search's internal memo). */
  private def counted(f: Int => Double): (Int => Double, () => Int) = {
    val calls = mutable.Map.empty[Int, Int]
    (x => { calls(x) = calls.getOrElse(x, 0) + 1; f(x) }, () => calls.values.sum)
  }

  private def unimodal(opt: Int)(x: Int): Double = math.abs(x - opt) * 2.0 + 5.0

  test("bruteForce finds the exact minimum and evaluates everything") {
    val r = Search.bruteForce(unimodal(17), 1, 64)
    assert(r.nSide == 17)
    assert(r.evals == 64)
  }

  test("ternary finds the minimum of unimodal objectives") {
    for (opt <- Seq(1, 2, 13, 16, 23, 40, 63, 64)) {
      val r = Search.ternary(unimodal(opt), 1, 64)
      assert(r.nSide == opt, s"opt=$opt got=${r.nSide}")
    }
  }

  test("ternary uses O(log) evaluations") {
    val r = Search.ternary(unimodal(23), 1, 64)
    assert(r.evals <= 24, s"evals=${r.evals}") // vs 64 for brute force
  }

  test("ternary memoizes: no point evaluated twice") {
    val (f, calls) = counted(unimodal(30))
    val r = Search.ternary(f, 1, 64)
    assert(calls() == r.evals)
  }

  test("ternary terminates on flat objectives") {
    val r = Search.ternary(_ => 1.0, 1, 64)
    assert(r.nSide >= 1 && r.nSide <= 64)
  }

  test("ternary on width-2 and width-1 domains") {
    assert(Search.ternary(unimodal(2), 1, 3).nSide == 2)
    assert(Search.ternary(unimodal(1), 1, 2).nSide == 1)
    assert(Search.ternary(unimodal(5), 5, 5).nSide == 5)
  }

  test("property: ternary is exact on strictly unimodal sequences") {
    val gen = for {
      lo <- Gen.choose(1, 10)
      width <- Gen.choose(2, 80)
      opt <- Gen.choose(lo, lo + width)
      slopeL <- Gen.choose(1, 5)
      slopeR <- Gen.choose(1, 5)
    } yield (lo, lo + width, opt, slopeL, slopeR)
    checkProp(Prop.forAll(gen) { case (lo, hi, opt, sl, sr) =>
      val f: Int => Double = x => if (x < opt) (opt - x).toDouble * sl else (x - opt).toDouble * sr
      Search.ternary(f, lo, hi).nSide == opt
    })
  }

  /** Ternary Search as its loop read when it clamped the third points
    * inside (l, r) on every round: the reference for the visit order.
    */
  private def clampedTernary(f: Int => Double, lo: Int, hi: Int): Search.Result = {
    val cache = mutable.Map.empty[Int, Double]
    def memo(x: Int): Double = cache.getOrElseUpdate(x, f(x))
    var l = lo
    var r = hi
    while (r - l > 1) {
      var ml = l + (r - l) / 3
      var mr = r - (r - l) / 3
      if (ml <= l) ml = l + 1
      if (mr >= r) mr = r - 1
      if (mr <= ml) mr = ml + (if (ml < r - 1) 1 else 0)
      if (mr == ml) {
        if (memo(l) > memo(r)) l = ml else r = ml
      } else if (memo(ml) > memo(mr)) l = ml
      else r = mr
    }
    val best = if (memo(l) > memo(r)) r else l
    Search.Result(best, cache.size)
  }

  test("ternary visits the same points in the same order as the clamped loop") {
    val rnd = new scala.util.Random(20221)
    for (_ <- 1 to 20000) {
      val lo = 1 + rnd.nextInt(10)
      val hi = lo + rnd.nextInt(41) // widths 0–40
      // half of the objectives take few distinct values, so probes often tie
      val ties = rnd.nextBoolean()
      val values = Array.fill(hi + 1)(if (ties) rnd.nextInt(6).toDouble else rnd.nextDouble())
      def visits(search: (Int => Double) => Search.Result): (Search.Result, Seq[Int]) = {
        val seen = mutable.ArrayBuffer.empty[Int]
        val r = search { x => seen += x; values(x) }
        (r, seen.toSeq)
      }
      val want = visits(clampedTernary(_, lo, hi))
      assert(visits(Search.ternary(_, lo, hi)) == want, s"[$lo, $hi] ${values.drop(lo).mkString(",")}")
    }
  }

  test("iterative finds the minimum from the default start") {
    for (opt <- Seq(12, 16, 20, 23)) {
      val r = Search.iterative(unimodal(opt), p0 = 16, b = 4, lo = 1, hi = 64)
      assert(r.nSide == opt, s"opt=$opt got=${r.nSide}")
    }
  }

  test("iterative reaches far optima on unimodal objectives") {
    val r = Search.iterative(unimodal(50), p0 = 16, b = 4, lo = 1, hi = 64)
    assert(r.nSide == 50)
  }

  test("iterative stops at a local minimum within its boundary b") {
    // two basins: local min at 10, global at 40, separated by a wall wider than b
    val f: Int => Double = x =>
      math.min(math.abs(x - 10) * 2.0, math.abs(x - 40) * 2.0 - 5.0)
    val r = Search.iterative(f, p0 = 12, b = 4, lo = 1, hi = 64)
    assert(r.nSide == 10, s"got ${r.nSide}") // cannot see across the wall
    val r2 = Search.iterative(f, p0 = 12, b = 30, lo = 1, hi = 64)
    assert(r2.nSide == 40) // a larger boundary escapes (paper App. E)
  }

  test("iterative respects domain bounds") {
    val r = Search.iterative(unimodal(1), p0 = 16, b = 4, lo = 1, hi = 64)
    assert(r.nSide == 1)
    val r2 = Search.iterative(unimodal(64), p0 = 60, b = 4, lo = 1, hi = 64)
    assert(r2.nSide == 64)
  }

  test("iterative with clamped start outside [lo, hi]") {
    val r = Search.iterative(unimodal(5), p0 = 100, b = 4, lo = 1, hi = 8)
    assert(r.nSide == 5)
  }

  test("iterative on constant objective keeps the start point") {
    val r = Search.iterative(_ => 3.0, p0 = 16, b = 4, lo = 1, hi = 64)
    assert(r.nSide == 16)
  }

  test("iterative uses fewer evaluations than brute force") {
    val (f, calls) = counted(unimodal(18))
    Search.iterative(f, p0 = 16, b = 4, lo = 1, hi = 64)
    assert(calls() < 30, s"calls=${calls()}")
  }

  test("property: iterative result is a local minimum within ±b") {
    val gen = for {
      opt <- Gen.choose(5, 60)
      noiseSeed <- Gen.long
    } yield (opt, noiseSeed)
    checkProp(Prop.forAll(gen) { case (opt, seed) =>
      val f: Int => Double =
        x => math.abs(x - opt) * 3.0 + Rng.uniform(Rng.key(seed, x)) // bumpy
      val r = Search.iterative(f, p0 = 16, b = 4, lo = 1, hi = 64)
      val v = f(r.nSide)
      (1 to 4).forall { i =>
        (r.nSide + i > 64 || f(r.nSide + i) >= v) &&
        (r.nSide - i < 1 || f(r.nSide - i) >= v)
      }
    }, min = 30)
  }

  test("out-of-domain evaluation is rejected by the memo") {
    assertThrows[IllegalArgumentException] {
      Search.bruteForce(unimodal(3), 5, 4) // empty/inverted range
    }
  }
}
