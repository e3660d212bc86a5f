package repro.dispatch

import repro.core.GridSpec
import repro.data.{CityConfig, EventGen, GridCounts}

import scala.collection.mutable

/** The three prediction-based crowdsourcing algorithms of the paper's case
  * study (§V-D), as configurations of [[DispatchSim]]:
  *
  *  - POLAR [Tong et al., VLDB'17]: two-stage task assignment maximizing
  *    *served order number* — arrival-order matching, capacity 1;
  *  - LS [Cheng et al., TR'21]: queueing-guided dispatching maximizing
  *    *total revenue* — highest-fare-first matching, capacity 1;
  *  - DAIF [Wang et al., VLDB'20]: demand-aware route planning for shared
  *    mobility — capacity-2 vehicles, metrics served requests and
  *    *unified cost* (travel + detour + unserved penalty per request).
  */
object Algorithms {

  final case class Spec(name: String, capacity: Int, farePriority: Boolean)

  val Polar: Spec = Spec("POLAR", capacity = 1, farePriority = false)
  val Ls: Spec = Spec("LS", capacity = 1, farePriority = true)
  val Daif: Spec = Spec("DAIF", capacity = 2, farePriority = false)

  val DetourKm = 1.5
  val PenaltyKm = 8.0

  /** Fleet size: 80% of the mean per-slot demand, so peak slots are
    * supply-constrained (where positioning matters) as in the paper's
    * default settings.
    */
  def fleetSize(city: CityConfig): Double = 0.8 * city.dailyOrders / CityConfig.Slots

  def simConfig(city: CityConfig, spec: Spec, grid: GridSpec): SimConfig =
    SimConfig(
      grid = grid,
      workers = fleetSize(city),
      capacity = spec.capacity,
      farePriority = spec.farePriority,
      cellKm = 0.5 * (city.widthKm + city.heightKm) / grid.hSide,
    )

  /** `day`'s orders per slot on the fine lattice as (cell, fare), drawn
    * straight from the generator ([[EventGen.drawDay]]), in a
    * deterministic order (no intra-slot timestamps exist; ties broken by
    * coordinates). Slots without orders are absent.
    */
  def orders(city: CityConfig, day: Int, fineSide: Int): Map[Int, Array[(Int, Double)]] = {
    val drawn = Array.fill(CityConfig.Slots)(mutable.ArrayBuffer.empty[(Double, Double, Double)])
    EventGen.drawDay(city, day, trips = true)((slot, x, y, km) => drawn(slot) += ((x, y, EventGen.fare(km))))
    drawn.indices.filter(drawn(_).nonEmpty).map { slot =>
      slot -> drawn(slot).sorted.map { case (x, y, fare) =>
        (GridCounts.cellIdx(x, fineSide) * fineSide + GridCounts.cellIdx(y, fineSide), fare)
      }.toArray
    }.toMap
  }

  /** Run one algorithm over the given slots with per-slot predictions;
    * every slot needs a prediction, a slot without orders adds zeros.
    */
  def runSlots(
      spec: Spec,
      city: CityConfig,
      grid: GridSpec,
      orders: Map[Int, Array[(Int, Double)]],
      preds: Map[Int, Array[Double]],
      slots: Seq[Int]): SimResult = {
    val cfg = simConfig(city, spec, grid)
    slots
      .map { s =>
        require(preds.contains(s), s"no demand prediction for slot $s")
        DispatchSim.run(orders.getOrElse(s, Array.empty), preds(s), cfg)
      }
      .foldLeft(SimResult(0, 0, 0, 0, 0, 0))(_ + _)
  }
}
