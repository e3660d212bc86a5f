package repro.data

import org.scalatest.funsuite.AnyFunSuite

/** Daily hotspot jitter — the substitution that makes fine grids hard to
  * predict (DESIGN.md §3.1).
  */
class CityJitterSpec extends AnyFunSuite {

  private val base = CityConfig.toy.copy(jitterStd = 0.02, weightJitter = 0.2)

  test("jitter is deterministic per (seed, day)") {
    assert(base.hotspotsForDay(3) == base.hotspotsForDay(3))
    assert(base.sharesForDay(5).toSeq == base.sharesForDay(5).toSeq)
  }

  test("different days realize different hotspots") {
    assert(base.hotspotsForDay(0) != base.hotspotsForDay(1))
  }

  test("different seeds realize different jitter") {
    val other = base.copy(seed = base.seed + 1)
    assert(base.hotspotsForDay(2) != other.hotspotsForDay(2))
  }

  test("zero jitter short-circuits to the time-averaged surface") {
    val cfg = CityConfig.toy
    assert(cfg.jitterStd == 0.0 && cfg.weightJitter == 0.0)
    assert(cfg.hotspotsForDay(4) eq cfg.hotspots)
    assert(cfg.sharesForDay(4) eq cfg.cellShares)
  }

  test("per-day shares remain a probability distribution") {
    for (d <- 0 until 5) {
      val s = base.sharesForDay(d)
      assert(math.abs(s.sum - 1.0) < 1e-9)
      assert(s.forall(_ > 0.0))
    }
  }

  test("daily per-day mu still integrates to dailyOrders") {
    val shares = base.sharesForDay(2)
    val total = (0 until CityConfig.Slots).map { slot =>
      shares.map(base.dailyOrders * base.slotProfile(slot) * _).sum
    }.sum
    assert(math.abs(total - base.dailyOrders) < 1e-6)
  }

  test("jitter moves hotspot centers on the configured scale") {
    val moved = base.hotspotsForDay(7)
    val shifts = base.hotspots.zip(moved).map { case ((x0, y0, _, _), (x1, y1, _, _)) =>
      math.hypot(x1 - x0, y1 - y0)
    }
    assert(shifts.forall(_ > 0.0))
    assert(shifts.max < 10 * base.jitterStd) // no wild outliers
  }

  test("sigma is preserved; only centers and weights jitter") {
    val moved = base.hotspotsForDay(9)
    base.hotspots.zip(moved).foreach { case ((_, _, s0, w0), (_, _, s1, w1)) =>
      assert(s0 == s1)
      assert(w1 > 0 && w1 != w0)
    }
  }

  test("fine-cell day-to-day variation exceeds the coarse-aggregate variation") {
    // the core property: jitter hurts fine grids more than coarse ones.
    // Weight jitter scales all cells of a hotspot alike, so isolate the
    // center shifts with a narrow hotspot.
    val cfg = CityConfig.toy.copy(
      hotspots = Seq((0.4, 0.4, 0.05, 2.0)), jitterStd = 0.03, weightJitter = 0.0)
    val g = cfg.genSide
    val days = 8
    val shares = (0 until days).map(cfg.sharesForDay)
    def relVar(agg: Array[Double] => Double): Double = {
      val vals = shares.map(agg)
      val m = vals.sum / days
      math.sqrt(vals.map(v => (v - m) * (v - m)).sum / days) / m
    }
    // hottest fine cell vs the city quadrant containing it
    val hot = cfg.cellShares.zipWithIndex.maxBy(_._1)._2
    val (hx, hy) = (hot / g, hot % g)
    val fine = relVar(s => s(hot))
    val quadrant = relVar { s =>
      var t = 0.0
      for (x <- (hx / (g / 2)) * (g / 2) until (hx / (g / 2) + 1) * (g / 2);
           y <- (hy / (g / 2)) * (g / 2) until (hy / (g / 2) + 1) * (g / 2))
        t += s(x * g + y)
      t
    }
    assert(fine > 2 * quadrant, s"fine=$fine quadrant=$quadrant")
  }
}
