package bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{ExpressionError, GridSpec, Rng}
import repro.data.CityConfig
import repro.exp.Experiments

/** Appendix D (Fig. 16): cost of computing one HGrid's expression error as
  * K grows — straightforward double sum (Alg. 1, O(mK²)) vs the fast
  * prefix-sum variant (Alg. 2, O(mK)) vs the windowed production kernel —
  * and of the production per-slot totals over a whole city.
  */
class ExprPerfBench extends AnyFunSuite {

  private val m = 64
  private val a = 2.0
  private val b = 126.0

  private def time[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e6)
  }

  private def med(body: => Double): (Double, Double) = {
    val runs = (1 to 5).map(_ => time(body))
    (runs.head._1, runs.map(_._2).sorted.apply(2))
  }

  private lazy val table: Seq[(Int, Double, Double, Double, Double)] = {
    val ref = ExpressionError.auto(a, b, m)
    val ks = Seq(10, 25, 50, 100, 250)
    val rows = ks.map { k =>
      val (vNaive, tNaive) = med(ExpressionError.naive(a, b, m, k))
      val (_, tFast) = med(ExpressionError.fast(a, b, m, k))
      val (_, tAuto) = med(ExpressionError.auto(a, b, m))
      (k, tNaive, tFast, tAuto, math.abs(vNaive - ref))
    }
    println("EXPRPERF | K | Alg1 naive (ms) | Alg2 fast (ms) | auto (ms) | |err| vs converged")
    rows.foreach { case (k, tn, tf, ta, err) =>
      println(f"EXPRPERF | $k%3d | $tn%10.3f | $tf%10.3f | $ta%10.3f | $err%.2e")
    }
    rows
  }

  /** Xi'an's α surface without Spark: each cell's 28-day count is one
    * Pois(28·μ) draw (a sum of daily Poisson counts), divided by 28.
    */
  private lazy val xianAlpha: Array[Array[Double]] = {
    val city = CityConfig.xian
    val days = Experiments.TrainWindow
    Array.tabulate(CityConfig.Slots, city.genSide * city.genSide) { (s, c) =>
      Rng.poisson(days * city.mu(s, c), Rng.key(city.seed, s, c)) / days.toDouble
    }
  }

  private lazy val cityRows: Seq[(Int, Double, Double)] = {
    val rows = Seq(1, 16).map { nSide =>
      val spec = GridSpec(nSide, CityConfig.xian.genSide)
      val (totals, ms) = med(ExpressionError.totalPerSlot(xianAlpha, spec).sum)
      (nSide, ms, totals)
    }
    println("EXPRPERF | xian alpha surface, 48 slots | nSide | totalPerSlot (ms) | sum of expression error")
    rows.foreach { case (n, ms, e) => println(f"EXPRPERF | totalPerSlot | $n%3d | $ms%10.3f | $e%.6e") }
    rows
  }

  test("whole-city totalPerSlot: expression error falls from n = 1 to n = 16") {
    val Seq((_, _, e1), (_, _, e16)) = cityRows
    assert(e1.isFinite && e16 > 0.0 && e16 < e1, s"n=1: $e1, n=16: $e16")
  }

  test("Alg. 2 is asymptotically cheaper than Alg. 1 (paper Fig. 16)") {
    val k250 = table.find(_._1 == 250).get
    assert(k250._3 < k250._2, s"fast=${k250._3}ms naive=${k250._2}ms")
  }

  test("Alg. 1's cost grows superlinearly in K, Alg. 2's roughly linearly") {
    val t10 = table.find(_._1 == 10).get
    val t250 = table.find(_._1 == 250).get
    val naiveGrowth = t250._2 / math.max(1e-6, t10._2)
    val fastGrowth = t250._3 / math.max(1e-6, t10._3)
    assert(naiveGrowth > fastGrowth, s"naive x$naiveGrowth fast x$fastGrowth")
  }

  test("truncation error vanishes as K grows (Theorem III.2)") {
    val errs = table.map(_._5)
    assert(errs.last < 1e-9, s"err at K=250: ${errs.last}")
    assert(errs.last <= errs.head + 1e-12)
  }

  test("the windowed kernel stays fast regardless of K") {
    assert(table.map(_._4).max < 50.0, "auto kernel should stay in the ms range")
  }
}
