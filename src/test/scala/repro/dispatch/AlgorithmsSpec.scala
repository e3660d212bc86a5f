package repro.dispatch

import org.scalatest.funsuite.AnyFunSuite
import repro.core.GridSpec
import repro.data.CityConfig

class AlgorithmsSpec extends AnyFunSuite {

  test("the three case-study algorithms match their papers' semantics") {
    assert(Algorithms.Polar == Algorithms.Spec("POLAR", 1, false))
    assert(Algorithms.Ls == Algorithms.Spec("LS", 1, true))
    assert(Algorithms.Daif == Algorithms.Spec("DAIF", 2, false))
  }

  test("fleet size is 80% of mean per-slot demand") {
    val c = CityConfig.toy
    assert(Algorithms.fleetSize(c) == 0.8 * c.dailyOrders / CityConfig.Slots)
  }

  test("simConfig wires city geometry and algorithm spec") {
    val c = CityConfig.toy
    val cfg = Algorithms.simConfig(c, Algorithms.Daif, GridSpec(8, 16))
    assert(cfg.grid == GridSpec(8, 16))
    assert(cfg.capacity == 2 && !cfg.farePriority)
    assert(math.abs(cfg.cellKm - 0.5 * (c.widthKm + c.heightKm) / 16) < 1e-12)
    assert(cfg.workers == Algorithms.fleetSize(c))
  }

  test("LS flips only the fare priority relative to POLAR") {
    val c = CityConfig.toy
    val p = Algorithms.simConfig(c, Algorithms.Polar, GridSpec(4, 16))
    val l = Algorithms.simConfig(c, Algorithms.Ls, GridSpec(4, 16))
    assert(p.copy(farePriority = true) == l)
  }

  test("runSlots sums slot results and tolerates missing slots") {
    val c = CityConfig.toy
    val grid = GridSpec(2, 4)
    val orders = Map(0 -> Array((0, 10.0), (1, 12.0)))
    val preds = Map(0 -> Array(1.0, 0.0, 0.0, 0.0), 1 -> Array(0.0, 1.0, 0.0, 0.0))
    val both = Algorithms.runSlots(Algorithms.Polar, c, grid, orders, preds, Seq(0, 1))
    val one = Algorithms.runSlots(Algorithms.Polar, c, grid, orders, preds, Seq(0))
    assert(both == one) // slot 1 has no orders: contributes zeros
    assert(both.demand == 2.0)
    // a slot without a prediction is a caller bug, not an all-zero forecast
    val missing = intercept[IllegalArgumentException] {
      Algorithms.runSlots(Algorithms.Polar, c, grid, orders, preds, Seq(0, 2))
    }
    assert(missing.getMessage.contains("slot 2"), missing.getMessage)
  }
}
