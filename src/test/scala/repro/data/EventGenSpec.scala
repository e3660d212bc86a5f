package repro.data

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.Rng

class EventGenSpec extends SparkSpec {

  private lazy val toy = CityConfig.toy
  private lazy val ev = EventGen.eventsDf(spark, toy).cache()

  /** (events, fold of mix64(h ^ key(day, slot, x, y, km bits))) over every
    * day's drawDay(trips = true) events, in draw order.
    */
  private def drawChecksum(city: CityConfig): (Long, Long) = {
    def bits(v: Double): Long = java.lang.Double.doubleToLongBits(v)
    var n = 0L
    var h = 0L
    for (day <- 0 until city.days)
      EventGen.drawDay(city, day, trips = true) { (slot, x, y, km) =>
        h = Rng.mix64(h ^ Rng.key(day, slot, bits(x), bits(y), bits(km)))
        n += 1
      }
    (n, h)
  }

  test("drawDay's draws are pinned bit for bit") {
    assert(drawChecksum(toy) == ((7090L, -1983611297225937234L)))
    assert(drawChecksum(CityConfig.xian.copy(dailyOrders = 11000)) == ((384723L, -7502689092249372007L)))
  }

  test("generation is deterministic in the city seed") {
    val again = EventGen.eventsDf(spark, toy)
    assert(ev.count() == again.count())
    val h1 = ev.agg(sum(hash(col("day"), col("slot"), col("x"), col("y"), col("fare")))).head().getLong(0)
    val h2 = again.agg(sum(hash(col("day"), col("slot"), col("x"), col("y"), col("fare")))).head().getLong(0)
    assert(h1 == h2)
  }

  test("a different seed produces different events") {
    val other = EventGen.eventsDf(spark, toy.copy(seed = 999L))
    val h1 = ev.agg(sum(hash(col("x"), col("y")))).head().getLong(0)
    val h2 = other.agg(sum(hash(col("x"), col("y")))).head().getLong(0)
    assert(h1 != h2)
  }

  test("total volume ≈ days × dailyOrders") {
    val n = ev.count().toDouble
    val expect = toy.days * toy.dailyOrders
    assert(math.abs(n - expect) / expect < 0.05, s"n=$n expect=$expect")
  }

  test("field domains: day, slot, coordinates, trip length, fare") {
    val r = ev.agg(
      min("day"), max("day"), min("slot"), max("slot"),
      min("x"), max("x"), min("y"), max("y"),
      min("km"), max("km"), min("fare")).head()
    assert(r.getInt(0) >= 0 && r.getInt(1) == toy.days - 1)
    assert(r.getInt(2) >= 0 && r.getInt(3) <= 47)
    assert(r.getDouble(4) >= 0.0 && r.getDouble(5) < 1.0)
    assert(r.getDouble(6) >= 0.0 && r.getDouble(7) < 1.0)
    assert(r.getDouble(8) >= 0.4 && r.getDouble(9) <= 60.0)
    assert(r.getDouble(10) >= EventGen.FareBase + EventGen.FarePerKm * 0.4 - 1e-9)
  }

  test("fare is the deterministic function of trip length") {
    val bad = ev
      .where(abs(col("fare") - (lit(EventGen.FareBase) + lit(EventGen.FarePerKm) * col("km"))) > 1e-9)
      .count()
    assert(bad == 0L)
  }

  test("slot volumes follow the daily profile (evening peak)") {
    val bySlot = ev.groupBy("slot").count().collect().map(r => r.getInt(0) -> r.getLong(1)).toMap
    val peak = (34 to 40).map(bySlot.getOrElse(_, 0L)).max
    val night = (0 to 7).map(bySlot.getOrElse(_, 0L)).max
    assert(peak > 2 * night, s"peak=$peak night=$night")
  }

  test("per-cell counts are Poisson-consistent: mean over days ≈ μ") {
    val g = toy.genSide
    val counts = GridCounts.at(ev, g)
    // busiest generation cell: high μ ⇒ tight relative tolerance
    val hot = counts
      .groupBy("slot", "cx", "cy").agg((sum("cnt") / toy.days).as("mean"))
      .orderBy(desc("mean")).head()
    val (slot, cx, cy, mean) = (hot.getInt(0), hot.getInt(1), hot.getInt(2), hot.getDouble(3))
    val mu = toy.mu(slot, cx * g + cy)
    assert(math.abs(mean - mu) < 4 * math.sqrt(mu / toy.days) + 0.05, s"mean=$mean mu=$mu")
  }

  test("spatial distribution concentrates at the configured hotspot") {
    // toy hotspot at (0.3, 0.3) with σ=0.12 vs empty corner
    val nearHotspot = ev.where(abs(col("x") - 0.3) < 0.1 && abs(col("y") - 0.3) < 0.1).count()
    val corner = ev.where(col("x") > 0.85 && col("y") < 0.15).count()
    assert(nearHotspot > 3 * corner, s"hotspot=$nearHotspot corner=$corner")
  }
}
