package repro.dispatch

import repro.core.GridSpec

/** Outcome of dispatching one time slot.
  *
  * @param demand    total order count
  * @param served    orders matched to workers (fractional fluid tail)
  * @param revenue   summed fares of served orders
  * @param travelKm  pickup travel (a half-cell approach per served order)
  * @param shared    orders served on a shared seat (capacity > 1)
  * @param unserved  demand − served
  */
final case class SimResult(
    demand: Double,
    served: Double,
    revenue: Double,
    travelKm: Double,
    shared: Double,
    unserved: Double,
) {
  def +(o: SimResult): SimResult =
    SimResult(demand + o.demand, served + o.served, revenue + o.revenue,
      travelKm + o.travelKm, shared + o.shared, unserved + o.unserved)

  /** DAIF-style unified cost per request: travel + detour-free share is
    * already inside travelKm; unserved requests pay a penalty.
    */
  def unifiedCost(detourKm: Double, penaltyKm: Double): Double =
    if (demand <= 0) 0.0
    else (travelKm + detourKm * shared + penaltyKm * unserved) / demand
}

/** Simulator parameters.
  *
  * @param grid         MGrids of the demand prediction in use over the fixed
  *                     HGrid lattice where orders land (independent of n)
  * @param workers      fleet size for the slot
  * @param capacity     riders per worker (1 = taxi, 2 = ride-sharing)
  * @param farePriority serve highest-fare orders first within a cell
  *                     (LS's revenue objective) instead of arrival order
  * @param cellKm       physical size of a fine cell
  */
final case class SimConfig(
    grid: GridSpec,
    workers: Double,
    capacity: Int = 1,
    farePriority: Boolean = false,
    cellKm: Double = 0.4,
)

/** Deterministic prediction-guided dispatch simulator (substitution for
  * the paper's POLAR / LS / DAIF systems — DESIGN.md §3).
  *
  * Workers are pre-positioned proportionally to the predicted demand of each
  * MGrid ([[GridSpec.mgridOf]]), split uniformly across its fine cells —
  * exactly the uniformity assumption whose cost the paper calls expression
  * error. Each worker serves only the fine cell it was placed in (POLAR's
  * stage-1 commitment: commit to a grid, then match), so the slot has a
  * closed form per cell: a cell with `d` orders and `s` seats serves
  * `min(d, capacity·s)` of its queue (arrival order, or highest fare first),
  * the last one by its fraction, at 0.5·cellKm of pickup travel each. Of
  * those, `min(d, capacity·s) − min(d, s)` ride a shared seat, flagged so
  * the caller can charge a detour.
  *
  * Mis-positioned supply — from expression error (coarse n) or model
  * error (fine n) — strands workers away from demand and loses matches,
  * which is the mechanism behind the paper's Figures 6–9.
  */
object DispatchSim {

  def run(orders: Array[(Int, Double)], preds: Array[Double], cfg: SimConfig): SimResult = {
    val g = cfg.grid
    require(preds.length == g.n, "preds must be per-MGrid")

    // demand queues per fine cell: cell c's fares, in arrival order, are
    // fares(start(c) until start(c + 1)) (a counting sort on cell)
    val start = new Array[Int](g.totalHGrids + 1)
    orders.foreach { case (cell, _) => start(cell + 1) += 1 }
    var c = 0
    while (c < g.totalHGrids) { start(c + 1) += start(c); c += 1 }
    val next = start.clone()
    val fares = new Array[Double](orders.length)
    orders.foreach { case (cell, fare) => fares(next(cell)) = fare; next(cell) += 1 }

    val totalPred = preds.sum
    var served = 0.0
    var revenue = 0.0
    var shared = 0.0
    c = 0
    while (c < g.totalHGrids) {
      val lo = start(c)
      val d = start(c + 1) - lo
      if (d > 0) {
        if (cfg.farePriority) sortDescending(fares, lo, lo + d)
        // seats: the MGrid's predicted share of the workers, uniform over its fine cells
        val m = g.mgridOf(c)
        val share = if (totalPred > 0) preds(m) / totalPred else 1.0 / g.n
        val seats = cfg.workers * share / g.cellsPerM(m)
        val q = math.min(d, cfg.capacity * seats)
        served += q
        shared += q - math.min(d, seats)
        val whole = q.toInt
        var i = 0
        while (i < whole) { revenue += fares(lo + i); i += 1 }
        if (whole < d) revenue += (q - whole) * fares(lo + whole)
      }
      c += 1
    }

    val demand = orders.length.toDouble
    SimResult(demand, served, revenue, served * 0.5 * cfg.cellKm, shared, demand - served)
  }

  /** Sorts `a(from until to)` in place, highest first. */
  private def sortDescending(a: Array[Double], from: Int, to: Int): Unit = {
    java.util.Arrays.sort(a, from, to)
    var i = from
    var j = to - 1
    while (i < j) { val t = a(i); a(i) = a(j); a(j) = t; i += 1; j -= 1 }
  }
}
