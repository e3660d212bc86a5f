package repro.dispatch

import repro.{EventOracle, SparkSpec}
import repro.data.{CityConfig, EventGen}

/** `Algorithms.orders` draws one day's orders on the driver; they must equal
  * the orders collected from the Spark events, slot for slot and in order.
  */
class OrdersSpec extends SparkSpec {

  private def assertSameOrders(city: CityConfig, day: Int, fineSide: Int): Unit = {
    val got = Algorithms.orders(city, day, fineSide)
    val want = EventOracle.ordersBySlot(EventGen.eventsDf(spark, city), day, fineSide)
    assert(got.keySet == want.keySet)
    assert(got.valuesIterator.map(_.length).sum > 0)
    for (s <- want.keys) assert(got(s).toSeq == want(s).toSeq, s"${city.name} slot $s")
  }

  test("the drawn test-day orders equal ordersBySlot over the Spark events, toy city") {
    assertSameOrders(CityConfig.toy, day = 11, fineSide = 16)
    assertSameOrders(CityConfig.toy, day = 3, fineSide = 64)
  }

  test("orders for a day the city does not have are rejected, naming the day and the city") {
    val toy = CityConfig.toy
    for (day <- Seq(toy.days, 34, -1)) {
      val e = intercept[IllegalArgumentException](Algorithms.orders(toy, day, 16))
      assert(e.getMessage.contains(s"day $day") && e.getMessage.contains(toy.name), e.getMessage)
    }
  }

  test("the drawn orders equal ordersBySlot over the Spark events on a reduced preset") {
    val c = CityConfig.chengdu
    assertSameOrders(c.copy(days = 2, dailyOrders = c.dailyOrders * 0.02), day = 1, fineSide = 64)
  }
}
