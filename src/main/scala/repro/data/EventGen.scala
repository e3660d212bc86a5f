package repro.data

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import repro.core.Rng

import scala.collection.mutable

/** One spatial event (taxi order): pickup at (x, y) ∈ [0,1)², trip length
  * `km`, fare in currency units.
  */
final case class Event(day: Int, slot: Int, x: Double, y: Double, km: Double, fare: Double)

/** Synthetic spatiotemporal event generator (substitutes the paper's taxi
  * trip datasets — DESIGN.md §3).
  *
  * For every (day, slot, generation cell) the event count is drawn from
  * Poisson(μ) with μ = dailyOrders · slotProfile(slot) · cellShare(cell) —
  * i.e. per-cell counts are exactly Poisson with a day-independent mean,
  * which is the distributional assumption of the paper's §III-B. Events
  * are uniformly jittered inside their generation cell, so the
  * homogeneity assumption holds at N = genSide² by construction.
  *
  * Fully deterministic in the city seed (hash RNG keyed by row identity).
  */
object EventGen {

  val FareBase = 2.5
  val FarePerKm = 1.2

  /** The fare of a trip of `km` kilometres. */
  def fare(km: Double): Double = FareBase + FarePerKm * km

  /** Receives one drawn event: its slot, its position and its trip length
    * in km (NaN when trips are not drawn).
    */
  trait Sink { def apply(slot: Int, x: Double, y: Double, km: Double): Unit }

  /** Draws every event of `city` on `day`: per slot and generation cell a
    * Poisson(μ) count, then per event a uniform position inside the cell
    * and, if `trips`, a lognormal trip length. Feeds each event to `sink`
    * in (slot, cell, event) order.
    *
    * This is the one generation routine: the Spark [[events]],
    * [[CountCube.generate]] and `Algorithms.orders` all call it, so they
    * agree event for event.
    */
  def drawDay(city: CityConfig, day: Int, trips: Boolean)(sink: Sink): Unit = {
    require(day >= 0 && day < city.days, s"day $day is outside ${city.name}'s days 0 until ${city.days}")
    val g = city.genSide
    val shares = city.sharesForDay(day)
    // Rng.key(seed, day, slot, cell[, 7777 + e]), one extend per loop level
    val dayKey = Rng.key(city.seed, day)
    var slot = 0
    while (slot < CityConfig.Slots) {
      val slotKey = Rng.extend(dayKey, slot)
      val slotMu = city.dailyOrders * city.slotProfile(slot)
      var cell = 0
      while (cell < g * g) {
        val cellKey = Rng.extend(slotKey, cell)
        val cnt = Rng.poisson(slotMu * shares(cell), cellKey)
        val cx = cell / g
        val cy = cell % g
        var e = 0
        while (e < cnt) {
          val ek = Rng.extend(cellKey, 7777L + e)
          val km =
            if (!trips) Double.NaN
            else math.min(60.0, math.max(0.4, math.exp(city.logKmMean + city.logKmSigma * Rng.gaussian(ek, 2))))
          sink(slot, (cx + Rng.uniform(ek, 0)) / g, (cy + Rng.uniform(ek, 1)) / g, km)
          e += 1
        }
        cell += 1
      }
      slot += 1
    }
  }

  /** All events of `city` as a Dataset, one row of `range` per day. Only
    * tests and stand-alone layer timings need point events; the
    * experiments, and `D_α`, read counts and orders drawn on the driver.
    */
  def events(spark: SparkSession, city: CityConfig): Dataset[Event] = {
    import spark.implicits._
    spark.range(city.days).flatMap { boxedDay =>
      val day = boxedDay.intValue
      val out = mutable.ArrayBuffer.empty[Event]
      drawDay(city, day, trips = true)((slot, x, y, km) => out += Event(day, slot, x, y, km, fare(km)))
      out
    }
  }

  def eventsDf(spark: SparkSession, city: CityConfig): DataFrame =
    events(spark, city).toDF()
}
