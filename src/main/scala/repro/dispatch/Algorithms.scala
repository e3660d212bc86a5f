package repro.dispatch

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.data.CityConfig

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

  def simConfig(city: CityConfig, spec: Spec, nSide: Int, fineSide: Int): SimConfig =
    SimConfig(
      fineSide = fineSide,
      nSide = nSide,
      workers = fleetSize(city),
      capacity = spec.capacity,
      farePriority = spec.farePriority,
      cellKm = 0.5 * (city.widthKm + city.heightKm) / fineSide,
    )

  /** Test-day orders per slot on the fine lattice, in a deterministic
    * order (no intra-slot timestamps exist; ties broken by coordinates).
    */
  def ordersBySlot(
      events: DataFrame,
      testDay: Int,
      fineSide: Int): Map[Int, Array[(Int, Double)]] = {
    events
      .where(col("day") === testDay)
      .select(col("slot"), col("x"), col("y"), col("fare"))
      .collect()
      .map { r =>
        val cx = math.min(fineSide - 1, (r.getDouble(1) * fineSide).toInt)
        val cy = math.min(fineSide - 1, (r.getDouble(2) * fineSide).toInt)
        (r.getInt(0), cx * fineSide + cy, r.getDouble(1), r.getDouble(2), r.getDouble(3))
      }
      .groupBy(_._1)
      .map { case (slot, rows) =>
        slot -> rows.sortBy(t => (t._3, t._4, t._5)).map(t => (t._2, t._5))
      }
  }

  /** Run one algorithm over the given slots with per-slot predictions. */
  def runSlots(
      spec: Spec,
      city: CityConfig,
      nSide: Int,
      fineSide: Int,
      orders: Map[Int, Array[(Int, Double)]],
      preds: Map[Int, Array[Double]],
      slots: Seq[Int]): SimResult = {
    val cfg = simConfig(city, spec, nSide, fineSide)
    val empty = Array.fill(nSide * nSide)(0.0)
    slots
      .map { s =>
        DispatchSim.run(orders.getOrElse(s, Array.empty), preds.getOrElse(s, empty), cfg)
      }
      .foldLeft(SimResult(0, 0, 0, 0, 0, 0))(_ + _)
  }
}
