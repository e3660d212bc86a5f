package repro.dispatch

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{GridSpec, Rng}

import scala.collection.mutable.ArrayBuffer

class DispatchSimSpec extends AnyFunSuite {

  private val F = 8

  private def cfg(
      nSide: Int,
      workers: Double,
      cap: Int = 1,
      farePriority: Boolean = false) =
    SimConfig(GridSpec(nSide, F), workers = workers, capacity = cap,
      farePriority = farePriority, cellKm = 0.5)

  private def ordersAt(cells: Seq[Int], fare: Double = 10.0): Array[(Int, Double)] =
    cells.map(c => (c, fare)).toArray

  private def uniformPreds(nSide: Int): Array[Double] = Array.fill(nSide * nSide)(1.0)

  /** Reference: the earlier two-pass simulation, kept verbatim as the oracle
    * for the closed form. Pass 1 serves min(demand, seats) per cell; with
    * capacity > 1, pass 2 serves the rest from the extra seats as shared
    * rides, both advancing a fractional pointer into each cell's queue.
    */
  private def twoPassRun(orders: Array[(Int, Double)], preds: Array[Double], cfg: SimConfig): SimResult = {
    val g = cfg.grid
    val cells = g.totalHGrids
    require(preds.length == g.n, "preds must be per-MGrid")

    val queues = Array.fill(cells)(new ArrayBuffer[Double]())
    orders.foreach { case (c, fare) => queues(c) += fare }
    if (cfg.farePriority) queues.foreach(q => q.sortInPlace()(Ordering.Double.TotalOrdering.reverse))
    val demandRes = queues.map(_.length.toDouble)
    val servedPos = new Array[Double](cells)

    val totalPred = preds.sum
    val supply = Array.tabulate(cells) { c =>
      val m = g.mgridOf(c)
      val share = if (totalPred > 0) preds(m) / totalPred else 1.0 / g.n
      cfg.workers * share / g.cellsPerM(m)
    }

    var served = 0.0
    var revenue = 0.0
    var travel = 0.0
    var shared = 0.0
    val demand0 = demandRes.sum

    def serveFrom(c: Int, q: Double): Unit = {
      val fares = queues(c)
      var left = q
      var pos = servedPos(c)
      while (left > 1e-12 && pos < fares.length) {
        val i = pos.toInt
        val cap = (i + 1) - pos
        val take = math.min(cap, left)
        revenue += take * fares(i)
        pos += take
        left -= take
      }
      servedPos(c) = pos
    }

    def matchPass(seats: Array[Double], sharedPass: Boolean): Unit = {
      var c = 0
      while (c < cells) {
        if (demandRes(c) > 1e-12 && seats(c) > 1e-12) {
          val q = math.min(demandRes(c), seats(c))
          demandRes(c) -= q
          served += q
          travel += q * 0.5 * cfg.cellKm
          if (sharedPass) shared += q
          serveFrom(c, q)
        }
        c += 1
      }
    }

    matchPass(supply, sharedPass = false)
    if (cfg.capacity > 1) matchPass(supply.map(_ * (cfg.capacity - 1)), sharedPass = true)

    SimResult(demand0, served, revenue, travel, shared, demand0 - served)
  }

  test("closed form equals the two-pass simulation on random slots") {
    def close(a: Double, b: Double): Boolean =
      math.abs(a - b) <= 1e-9 * math.max(1.0, math.max(math.abs(a), math.abs(b)))
    var checked = 0
    for (seed <- 0 until 3) {
      // squaring the uniform crowds orders into the low cells, several per cell
      val orders = Array.tabulate(150) { i =>
        val u = Rng.uniform(Rng.key(seed, i))
        ((u * u * F * F).toInt, 5.0 + 45.0 * Rng.uniform(Rng.key(seed, i), 1))
      }
      assert(orders.map(_._1).groupBy(identity).values.exists(_.length >= 5))
      for (nSide <- Seq(1, 2, 3, 8)) {
        // some MGrids predicted empty, so their cells get no seats
        val random = Array.tabulate(nSide * nSide) { m =>
          val u = Rng.uniform(Rng.key(seed, 1000 + m))
          if (u < 0.2) 0.0 else u
        }
        for (preds <- Seq(random, Array.fill(nSide * nSide)(0.0));
             cap <- Seq(1, 2); farePriority <- Seq(false, true);
             workers <- Seq(0.7, 13.3, 61.9, 150.25, 517.0)) {
          val c = cfg(nSide, workers, cap, farePriority)
          val got = DispatchSim.run(orders, preds, c)
          val exp = twoPassRun(orders, preds, c)
          got.productElementNames.zip(got.productIterator.zip(exp.productIterator)).foreach {
            case (field, (a: Double, b: Double)) =>
              assert(close(a, b), s"$field: $a vs $b (nSide=$nSide cap=$cap fare=$farePriority workers=$workers)")
          }
          checked += 1
        }
      }
    }
    assert(checked == 3 * 4 * 2 * 2 * 2 * 5)
  }

  test("no workers ⇒ nothing served") {
    val r = DispatchSim.run(ordersAt(Seq(0, 1, 2)), uniformPreds(2), cfg(2, workers = 0))
    assert(r.served == 0.0 && r.revenue == 0.0 && r.unserved == 3.0 && r.demand == 3.0)
  }

  test("no orders ⇒ zero everything") {
    val r = DispatchSim.run(Array.empty, uniformPreds(2), cfg(2, workers = 10))
    assert(r.demand == 0.0 && r.served == 0.0 && r.travelKm == 0.0)
  }

  test("conservation: served + unserved = demand; served ≤ workers·capacity") {
    val orders = ordersAt((0 until 40).map(i => (i * 7) % (F * F)))
    for (cap <- Seq(1, 2); w <- Seq(5.0, 20.0, 100.0)) {
      val r = DispatchSim.run(orders, uniformPreds(4), cfg(4, w, cap))
      assert(math.abs(r.served + r.unserved - r.demand) < 1e-9)
      assert(r.served <= w * cap + 1e-9)
      assert(r.served <= r.demand + 1e-9)
    }
  }

  test("perfect colocated supply serves everything with minimal travel") {
    // all demand in fine cell (0,0); predictions put all mass in MGrid (0,0)
    val preds = Array(1.0, 0.0, 0.0, 0.0)
    val orders = ordersAt(Seq.fill(8)(0))
    // nSide=2 over F=8 ⇒ MGrid(0,0) covers 16 fine cells; workers spread over them
    val r = DispatchSim.run(orders, preds, cfg(2, workers = 160))
    assert(math.abs(r.served - 8.0) < 1e-9)
    // supply in cell(0,0) is 10 ⇒ everything served at half-cell travel
    assert(math.abs(r.travelKm - 8 * 0.5 * 0.5) < 1e-9)
  }

  test("non-dividing nSide: workers spread over the MGrid's own 3×3 cells") {
    // nSide=3 over F=8: axis blocks 3, 3, 2, so MGrid 0 is fine cells (0..2)×(0..2)
    val preds = Array.tabulate(9)(i => if (i == 0) 1.0 else 0.0)
    val r = DispatchSim.run(ordersAt(0 until F * F), preds, cfg(3, workers = 9))
    assert(r.served == 9.0, s"served=${r.served}") // one worker in each of the 9 cells
    assert(math.abs(r.travelKm - 9 * 0.5 * 0.5) < 1e-12)
  }

  test("a grid finer than the lattice is rejected") {
    assertThrows[IllegalArgumentException] {
      SimConfig(GridSpec(32, 16), workers = 1)
    }
  }

  test("misallocated prediction strands workers and loses matches") {
    // demand in cell (0,0); all predicted mass in the far MGrid
    val nSide = 2
    val preds = Array(0.0, 0.0, 0.0, 1.0)
    val orders = ordersAt(Seq.fill(10)(0))
    val far = DispatchSim.run(orders, preds, cfg(nSide, workers = 10))
    val near = DispatchSim.run(orders, Array(1.0, 0.0, 0.0, 0.0), cfg(nSide, workers = 10))
    assert(near.served > far.served, s"near=${near.served} far=${far.served}")
  }

  test("fare priority serves the expensive orders first") {
    // one cell with mixed fares, capacity for half of them
    val orders = Array((0, 5.0), (0, 50.0), (0, 20.0), (0, 1.0))
    val preds = Array(1.0, 0.0, 0.0, 0.0)
    val w = 2.0 * 16 // 2 workers land in cell 0 (MGrid 0 has 16 fine cells)
    val hi = DispatchSim.run(orders, preds, cfg(2, workers = w, farePriority = true))
    val fifo = DispatchSim.run(orders, preds, cfg(2, workers = w, farePriority = false))
    assert(math.abs(hi.served - 2.0) < 1e-9 && math.abs(fifo.served - 2.0) < 1e-9)
    assert(math.abs(hi.revenue - 70.0) < 1e-9, s"rev=${hi.revenue}")
    assert(math.abs(fifo.revenue - 55.0) < 1e-9, s"rev=${fifo.revenue}")
  }

  test("fractional supply serves fractional orders with proportional revenue") {
    val orders = Array((0, 10.0), (0, 30.0))
    val preds = Array(1.0, 0.0, 0.0, 0.0)
    val r = DispatchSim.run(orders, preds, cfg(2, workers = 1.5 * 16))
    assert(math.abs(r.served - 1.5) < 1e-9)
    assert(math.abs(r.revenue - (10.0 + 0.5 * 30.0)) < 1e-9)
  }

  test("capacity 2 doubles the effective seats and flags shared rides") {
    val orders = ordersAt(Seq.fill(10)(0))
    val preds = Array(1.0, 0.0, 0.0, 0.0)
    val c1 = DispatchSim.run(orders, preds, cfg(2, workers = 4 * 16, cap = 1))
    val c2 = DispatchSim.run(orders, preds, cfg(2, workers = 4 * 16, cap = 2))
    assert(math.abs(c1.served - 4.0) < 1e-9 && c1.shared == 0.0)
    assert(math.abs(c2.served - 8.0) < 1e-9 && math.abs(c2.shared - 4.0) < 1e-9)
  }

  test("determinism: identical inputs give identical results") {
    val orders = Array.tabulate(50)(i => ((i * 13) % (F * F), 5.0 + (i % 7)))
    val preds = Array.tabulate(16)(i => Rng.uniform(Rng.key(3, i)))
    val a = DispatchSim.run(orders, preds, cfg(4, workers = 30, cap = 2))
    val b = DispatchSim.run(orders, preds, cfg(4, workers = 30, cap = 2))
    assert(a == b)
  }

  test("zero predictions fall back to uniform placement") {
    val orders = ordersAt((0 until F * F))
    val r = DispatchSim.run(orders, Array.fill(4)(0.0), cfg(2, workers = 64.0))
    assert(math.abs(r.served - 64.0) < 1e-9) // one worker per cell, one order per cell
  }

  test("preds length must match nSide²") {
    assertThrows[IllegalArgumentException] {
      DispatchSim.run(ordersAt(Seq(0)), Array(1.0, 2.0), cfg(2, workers = 1))
    }
  }

  test("unified cost decreases when supply matches demand") {
    val orders = ordersAt(Seq.fill(20)(0) ++ Seq.fill(5)(63))
    val good = Array(20.0 / 25, 0.0, 0.0, 5.0 / 25)
    val bad = Array(5.0 / 25, 0.0, 0.0, 20.0 / 25)
    // 400 workers: the good placement puts 20 in cell 0 and 5 in cell 63, so
    // all demand is met; the bad one puts 5 in cell 0, short even at 2 seats
    val rg = DispatchSim.run(orders, good, cfg(2, workers = 400, cap = 2))
    val rb = DispatchSim.run(orders, bad, cfg(2, workers = 400, cap = 2))
    assert(rg.unifiedCost(1.5, 8.0) < rb.unifiedCost(1.5, 8.0))
  }

  test("SimResult addition accumulates componentwise") {
    val a = SimResult(10, 5, 50, 2, 1, 5)
    val b = SimResult(3, 3, 30, 1, 0, 0)
    assert((a + b) == SimResult(13, 8, 80, 3, 1, 5))
  }
}
