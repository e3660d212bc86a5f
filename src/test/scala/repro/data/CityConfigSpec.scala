package repro.data

import org.scalatest.funsuite.AnyFunSuite

class CityConfigSpec extends AnyFunSuite {

  test("cell shares form a probability distribution") {
    for (c <- CityConfig.benchCities :+ CityConfig.toy) {
      val s = c.cellShares
      assert(s.length == c.genSide * c.genSide)
      assert(math.abs(s.sum - 1.0) < 1e-9, c.name)
      assert(s.forall(_ > 0.0), c.name)
    }
  }

  test("slot profile has 48 slots summing to 1, evening peak above morning") {
    val p = CityConfig.defaultProfile
    assert(p.length == 48)
    assert(math.abs(p.sum - 1.0) < 1e-12)
    val morning = p.slice(15, 20).max
    val evening = p.slice(34, 41).max
    val night = p.slice(0, 8).min
    assert(evening > morning && morning > night)
  }

  test("mu integrates to the daily volume over all slots and cells") {
    val c = CityConfig.toy
    val total = (0 until CityConfig.Slots).map { s =>
      (0 until c.genSide * c.genSide).map(cell => TestData.mu(c, s, cell)).sum
    }.sum
    assert(math.abs(total - c.dailyOrders) < 1e-6)
  }

  test("unevenness ordering: nyc > chengdu > xian (share dispersion)") {
    def dispersion(c: CityConfig): Double = {
      val mean = 1.0 / c.cellShares.length
      c.cellShares.map(s => math.abs(s - mean)).sum
    }
    val d = CityConfig.benchCities.map(c => c.name -> dispersion(c)).toMap
    assert(d("nyc") > d("chengdu"), d.toString)
    assert(d("chengdu") > d("xian"), d.toString)
  }

  test("volume ordering matches the paper's datasets") {
    assert(CityConfig.nyc.dailyOrders > CityConfig.chengdu.dailyOrders)
    assert(CityConfig.chengdu.dailyOrders > CityConfig.xian.dailyOrders)
    assert(CityConfig.xian.widthKm < CityConfig.nyc.widthKm / 2)
  }

  test("density is hotspot-peaked") {
    val c = CityConfig.nyc
    val atHotspot = c.density(0.36, 0.50)
    val atCorner = c.density(0.98, 0.02)
    assert(atHotspot > 5 * atCorner)
  }

  test("byName resolves every bench city and rejects unknowns, listing the known ones") {
    for (c <- CityConfig.benchCities) assert(CityConfig.byName(c.name) eq c)
    val e = intercept[IllegalArgumentException](CityConfig.byName("toy"))
    assert(e.getMessage.contains("toy"))
    assert(CityConfig.benchCities.forall(c => e.getMessage.contains(c.name)), e.getMessage)
  }

  test("invalid configurations rejected") {
    assertThrows[IllegalArgumentException](CityConfig.toy.copy(days = 1))
    assertThrows[IllegalArgumentException](CityConfig.toy.copy(dailyOrders = 0))
  }
}
