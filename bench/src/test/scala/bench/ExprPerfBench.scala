package bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{ExpressionError, GridSpec, Rng}
import repro.data.{CityConfig, TestData}
import repro.exp.Experiments

import java.util.concurrent.{Callable, ForkJoinPool}

import ExprPerfBench.{CityRounds, CityRow}

/** Appendix D (Fig. 16): cost of computing one HGrid's expression error as
  * K grows — straightforward double sum (Alg. 1, O(mK²)) vs the fast
  * prefix-sum variant (Alg. 2, O(mK)) vs the windowed production kernel —
  * and of the production per-slot totals over a whole city, with the
  * kernel calls, memo lookups and memo misses behind them.
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
    // warm the JIT on every (variant, K) first, so no row is timed while it compiles
    for (_ <- 1 to 3; k <- ks) {
      ExpressionError.naive(a, b, m, k); ExpressionError.fast(a, b, m, k); ExpressionError.auto(a, b, m)
    }
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

  /** Xi'an's α surface without Spark, at `volume` of the preset's daily
    * orders: each cell's 28-day count is one Pois(28·μ) draw (a sum of
    * daily Poisson counts), divided by 28.
    */
  private def xianAlpha(volume: Double): Array[Array[Double]] = {
    val city = CityConfig.xian.copy(dailyOrders = CityConfig.xian.dailyOrders * volume)
    val days = Experiments.TrainWindow
    Array.tabulate(CityConfig.Slots, city.genSide * city.genSide) { (s, c) =>
      Rng.poisson(days * TestData.mu(city, s, c), Rng.key(city.seed, s, c)) / days.toDouble
    }
  }

  private lazy val cityRows: Seq[CityRow] = {
    val cases = for {
      volume <- Seq(1.0, 0.1)
      alpha = xianAlpha(volume)
      nSide <- Seq(1, 2, 4, 8, 16, 32)
    } yield (volume, alpha, GridSpec(nSide, CityConfig.xian.genSide))
    // totalPerSlot's parallel stream runs on the pool that calls it, so a
    // one-thread pool times every row on one thread
    val pool = new ForkJoinPool(1)
    def run(alpha: Array[Array[Double]], spec: GridSpec): (Double, Double) =
      pool.submit(new Callable[(Double, Double)] {
        def call(): (Double, Double) = time(ExpressionError.totalPerSlot(alpha, spec).sum)
      }).get()
    val rounds = try {
      // warm the JIT on every case first, so no case is timed while it compiles
      for (_ <- 1 to 3; (_, alpha, spec) <- cases) run(alpha, spec)
      // each round times every case once, so a slow spell of the host
      // spreads over all rows instead of landing on one
      Seq.fill(CityRounds)(cases.map { case (_, alpha, spec) => run(alpha, spec) })
    } finally pool.shutdown()
    val rows = cases.zipWithIndex.map { case ((volume, alpha, spec), c) =>
      val calls = alpha.iterator.map(_.count(_ != 0.0).toLong).sum
      val lookups = alpha.iterator.map { a =>
        a.indices.iterator.filter(a(_) != 0.0).map(h => (spec.mgridOf(h), a(h))).toSet.size.toLong
      }.sum
      val memo = new ExpressionError.Memo
      alpha.foreach(ExpressionError.slotTotal(_, spec, memo))
      val ms = rounds.map(_(c)._2).sorted.apply(CityRounds / 2)
      CityRow(volume, spec.nSide, calls, lookups, memo.size, ms, rounds.head(c)._1)
    }
    println(s"EXPRPERF | xian alpha surface, 48 slots, one thread, median of $CityRounds interleaved rounds | " +
      "volume | nSide | calls | lookups | misses | totalPerSlot (ms) | sum of expression error")
    rows.foreach { r =>
      println(f"EXPRPERF | totalPerSlot | ${r.volume}%4.1f | ${r.nSide}%3d | ${r.calls}%7d | ${r.lookups}%7d | " +
        f"${r.misses}%6d | ${r.ms}%10.3f | ${r.total}%.6e")
    }
    rows
  }

  test("whole-city totalPerSlot: expression error falls from n = 1 to n = 16") {
    val full = cityRows.filter(_.volume == 1.0)
    val e1 = full.find(_.nSide == 1).get.total
    val e16 = full.find(_.nSide == 16).get.total
    assert(e1.isFinite && e16 > 0.0 && e16 < e1, s"n=1: $e1, n=16: $e16")
  }

  test("whole-city totalPerSlot: memo misses ≤ lookups ≤ kernel calls") {
    for (r <- cityRows)
      assert(r.misses <= r.lookups && r.lookups <= r.calls, r.toString)
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

object ExprPerfBench {
  /** Interleaved rounds behind each city row's median time. */
  val CityRounds = 11

  /** One evaluation's kernel work at one (volume, nSide): `calls` present
    * HGrids, `lookups` distinct α per (slot, MGrid) — what `slotTotal`
    * asks the memo — and `misses` distinct keys the memo computed.
    */
  final case class CityRow(volume: Double, nSide: Int, calls: Long, lookups: Long, misses: Int,
      ms: Double, total: Double)
}
