package repro.core

import repro.{EventOracle, NoiseFreeAlpha, Oracle, SparkSpec}
import repro.data.{CityConfig, CountCube, EventGen, GridCounts}
import repro.exp.Experiments

/** D_α(N) (Eq. 2) and Theorem III.1 on dense α surfaces from the count
  * cube and the generator's expectation; only the checks of the Spark
  * oracle start Spark.
  */
class DalphaSpec extends SparkSpec {

  private val toy = CityConfig.toy

  test("perSlot matches DuckDB (including absent zero cells)") {
    val side = 8
    val events = EventGen.eventsDf(spark, toy.copy(days = 4, dailyOrders = 500))
    val alphaDf = GridCounts.alpha(GridCounts.at(events, side), 0, 4).cache()
    val got = EventOracle.dalphaPerSlot(alphaDf, side)
    val n = side * side
    Oracle.assertEquivalent(
      got,
      s"""WITH m AS (
         |  SELECT slot, SUM(CAST(alpha AS DOUBLE)) / $n AS meanAlpha, COUNT(*) AS present
         |  FROM a GROUP BY slot)
         |SELECT a.slot,
         |  SUM(ABS(CAST(a.alpha AS DOUBLE) - m.meanAlpha))
         |    + ($n - MAX(m.present)) * MAX(m.meanAlpha) AS dAlpha
         |FROM a JOIN m ON a.slot = m.slot
         |GROUP BY a.slot""".stripMargin,
      "a" -> alphaDf)
    alphaDf.unpersist()
  }

  test("the cube's D_α equals the Spark oracle at sides 4, 8, 16 and 32 (above genSide)") {
    import spark.implicits._
    val events = EventGen.eventsDf(spark, toy).cache()
    for (side <- Seq(4, 8, 16, 32)) {
      val want = CountCube.generate(toy, side).alpha(0, toy.days).map(Dalpha.of)
      val got = EventOracle
        .dalphaPerSlot(GridCounts.alpha(GridCounts.at(events, side), 0, toy.days), side)
        .as[(Int, Double)].collect().toMap
      assert(got.keySet == want.indices.toSet, s"side $side: oracle slots ${got.keySet}")
      // the sums run in another order, so the two agree to rounding only
      for (s <- want.indices)
        assert(math.abs(got(s) - want(s)) <= 1e-9 * want(s), s"side $side, slot $s: ${got(s)} vs ${want(s)}")
    }
    events.unpersist()
  }

  test("uniform distribution gives D_α = 0") {
    assert(math.abs(Dalpha.of(Array.fill(16)(2.5))) < 1e-9)
  }

  test("Theorem III.1: refining uniform HGrids K× preserves D_α") {
    // uneven 2×2 lattice, each cell refined into 2×2 uniform quarters
    val base = Array(8.0, 2.0, 4.0, 6.0)
    val d1 = Dalpha.of(base)
    val d2 = Dalpha.of(NoiseFreeAlpha.split(base, 2, 2))
    assert(math.abs(d1 - d2) < 1e-9, s"d1=$d1 d2=$d2")
  }

  test("non-uniform refinement strictly increases D_α") {
    val base = Array(8.0, 8.0, 0.0, 0.0) // side 2: cells (0,0) and (0,1)
    // all of each cell's mass concentrated in one quarter: (0,0) and (0,2)
    val refined = Array.tabulate(16)(h => if (h == 0 || h == 2) 8.0 else 0.0)
    assert(Dalpha.of(refined) > Dalpha.of(base) + 1e-9)
  }

  test("D_α grows with N on real uneven data, then plateaus at genSide") {
    val city = toy.copy(days = 4, dailyOrders = 2000)
    val slot = 37 // evening peak
    def dAt(side: Int): Double = Dalpha.of(CountCube.generate(city, side).alpha(0, 4)(slot))
    val d4 = dAt(4); val d8 = dAt(8); val d16 = dAt(16)
    assert(d8 > d4, s"d4=$d4 d8=$d8")
    assert(d16 >= d8, s"d8=$d8 d16=$d16")
    val growthCoarse = (d8 - d4) / d4
    assert(growthCoarse > 0.05, s"growthCoarse=$growthCoarse")
    // the estimate keeps the Poisson noise; the expected α stops growing at
    // genSide = 16, where events are uniform inside each cell
    val truth = NoiseFreeAlpha.of(city, 0, 4)(slot)
    val t8 = Dalpha.of(NoiseFreeAlpha.merge(truth, 16, 8))
    val t16 = Dalpha.of(truth)
    val t32 = Dalpha.of(NoiseFreeAlpha.split(truth, 16, 2))
    assert(t16 > t8, s"t8=$t8 t16=$t16")
    assert(math.abs(t32 - t16) <= 1e-9 * t16, s"t16=$t16 t32=$t32")
  }

  test("Theorem III.1 on each preset's expected α: D_α(64) = D_α(128), non-decreasing from side 8") {
    for (city <- CityConfig.benchCities) {
      val g = city.genSide
      val alpha = NoiseFreeAlpha.of(city, Experiments.TestDay - Experiments.TrainWindow, Experiments.TestDay)
      def total(surface: Array[Double] => Array[Double]): Double = alpha.map(a => Dalpha.of(surface(a))).sum
      val curve = Seq(8, 16, 32).map(s => total(NoiseFreeAlpha.merge(_, g, s))) :+ total(identity)
      val d128 = total(NoiseFreeAlpha.split(_, g, 2))
      assert(math.abs(d128 - curve.last) <= 1e-9 * curve.last, s"${city.name}: D_α(64)=${curve.last} D_α(128)=$d128")
      // merging cells into blocks never raises Σ|α − ᾱ| (triangle inequality);
      // the slack is rounding only
      for ((coarse, fine) <- curve.zip(curve.tail))
        assert(fine >= coarse * (1 - 1e-12), s"${city.name}: D_α over sides 8, 16, 32, 64 = $curve")
    }
  }
}
