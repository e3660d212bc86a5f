package repro.dispatch

import repro.core.GridSpec

import scala.collection.mutable.ArrayBuffer

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
  * Stage 1 (the part grid size affects): workers are pre-positioned
  * proportionally to the predicted demand of each MGrid ([[GridSpec.mgridOf]]),
  * split uniformly across its fine cells — exactly the uniformity assumption
  * whose cost the paper calls expression error. Stage 2: workers serve the fine
  * cell they were placed in (POLAR's stage-1 commitment: commit to a grid,
  * then match). Each cell, in index order, serves min(orders, seats) of its
  * own orders at 0.5·cellKm of pickup travel each. With capacity > 1 a
  * second pass uses the extra seats (shared rides), flagged so the caller
  * can charge a detour.
  *
  * Mis-positioned supply — from expression error (coarse n) or model
  * error (fine n) — strands workers away from demand and loses matches,
  * which is the mechanism behind the paper's Figures 6–9.
  */
object DispatchSim {

  def run(orders: Array[(Int, Double)], preds: Array[Double], cfg: SimConfig): SimResult = {
    val g = cfg.grid
    val cells = g.totalHGrids
    require(preds.length == g.n, "preds must be per-MGrid")

    // demand queues per fine cell
    val queues = Array.fill(cells)(new ArrayBuffer[Double]())
    orders.foreach { case (c, fare) => queues(c) += fare }
    if (cfg.farePriority) queues.foreach(q => q.sortInPlace()(Ordering.Double.TotalOrdering.reverse))
    val demandRes = queues.map(_.length.toDouble)
    val servedPos = new Array[Double](cells) // fractional pointer into queue

    // supply: predicted MGrid share, uniform within the MGrid's fine cells
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

    /** Serve `q` orders from cell `c`'s queue (fare-ordered), fractionally. */
    def serveFrom(c: Int, q: Double): Unit = {
      val fares = queues(c)
      var left = q
      var pos = servedPos(c)
      while (left > 1e-12 && pos < fares.length) {
        val i = pos.toInt
        val cap = (i + 1) - pos // remaining fraction of order i
        val take = math.min(cap, left)
        revenue += take * fares(i)
        pos += take
        left -= take
      }
      servedPos(c) = pos
    }

    /** One matching pass: each cell serves `min(demand, seats)` of its own
      * orders at half-cell travel; `sharedPass` charges them as shared.
      */
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
}
