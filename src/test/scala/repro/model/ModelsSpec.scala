package repro.model

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{GridSpec, Rng}
import repro.data.{CityConfig, CountCube}

import scala.collection.mutable

class ModelsSpec extends AnyFunSuite {

  private lazy val toy = CityConfig.toy // 12 days, 600 orders/day
  private lazy val cube = CountCube.generate(toy, 16)

  test("three tiers with strictly increasing history window") {
    val ks = Models.all.map(_.k)
    assert(ks == Seq(1, 4, 28))
    assert(Models.all.map(_.name) == Seq("lastday", "ha4", "ha28"))
  }

  test("byName resolves and rejects unknowns") {
    assert(Models.byName("ha4") == Models.ha4)
    assertThrows[NoSuchElementException](Models.byName("deepst"))
  }

  test("invalid window rejected") {
    assertThrows[IllegalArgumentException](ModelTier("bad", 0))
  }

  test("accuracy ladder: MAE of HA(k) on Poisson data decreases with k") {
    // simulate: alpha=6, predict day t as mean of previous k days
    val alpha = 6.0
    val days = 40
    val trials = 4000
    def mae(k: Int): Double = {
      var s = 0.0
      for (t <- 0 until trials) {
        val draws = Array.tabulate(days)(d => Rng.poisson(alpha, Rng.key(77, t, d)).toDouble)
        val pred = draws.slice(days - 1 - k, days - 1).sum / k
        s += math.abs(pred - draws(days - 1))
      }
      s / trials
    }
    val maes = Seq(1, 4, 28).map(mae)
    assert(maes(0) > maes(1) && maes(1) > maes(2), maes.toString)
  }

  test("predict: dense arrays with the right shape and mass") {
    val spec = GridSpec(4, cube.side)
    val ha8 = ModelTier("ha8", 8)
    val preds = (0 until CityConfig.Slots).map(s => ha8.predict((from, until) => cube.windowSums(spec, from, until, s), 11))
    assert(preds.nonEmpty)
    assert(preds.forall(_.length == 16))
    assert(preds.forall(_.forall(_ >= 0.0)))
    val total = preds.map(_.sum).sum
    val expect = toy.dailyOrders
    assert(math.abs(total - expect) / expect < 0.2, s"pred mass=$total")
  }

  test("predict is the k-day mean of the block sums, and a window before day 0 fails loudly") {
    for (n <- Seq(1, 3, 4); s <- Seq(0, 17, 37); k <- Seq(1, 3, 8); day <- Seq(k, 11)) {
      val spec = GridSpec(n, cube.side)
      // every window predict reads, with a copy of what it was given
      val read = mutable.ArrayBuffer.empty[((Int, Int), Array[Long], Array[Long])]
      val window = (from: Int, until: Int) => {
        val sums = cube.windowSums(spec, from, until, s)
        read += (((from, until), sums, sums.clone()))
        sums
      }
      val got = ModelTier(s"ha$k", k).predict(window, day)
      assert(read.map(_._1) == Seq((day - k, day)), s"HA($k) of day $day read ${read.map(_._1)}")
      // the window's HGrid counts, summed per MGrid straight from the cube
      val want = Array.tabulate(spec.n) { i =>
        (day - k until day).map { d =>
          (0 until spec.totalHGrids).filter(spec.mgridOf(_) == i).map(h => cube(d, s, h).toLong).sum
        }.sum.toDouble / k
      }
      assert(got.sameElements(want), s"n=$n slot $s HA($k) of day $day")
      assert(read.forall { case (_, sums, before) => sums.sameElements(before) }, "predict changed its input")
    }
    for (k <- Seq(1, 8); day <- Seq(0, k - 1)) {
      val e = intercept[IllegalArgumentException] {
        ModelTier(s"ha$k", k).predict((from, until) => cube.windowSums(GridSpec(4, cube.side), from, until, 0), day)
      }
      assert(e.getMessage.contains(s"day $day"), e.getMessage)
    }
  }
}
