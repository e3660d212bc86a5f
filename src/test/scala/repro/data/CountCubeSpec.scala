package repro.data

import repro.{EventOracle, Oracle, SparkSpec}
import repro.core.GridSpec

/** The count cube, built from the generator's draws: its cells, α, MGrid
  * block sums and window sums, result-checked against GridCounts over the
  * Spark events and against DuckDB.
  */
class CountCubeSpec extends SparkSpec {
  import spark.implicits._

  private lazy val toy = CityConfig.toy
  // two days keep the oracle's row-by-row inserts fast
  private lazy val small = toy.copy(days = 2, dailyOrders = 400)
  private lazy val ev = EventGen.eventsDf(spark, small).cache()
  private lazy val cube8 = CountCube.generate(small, 8)
  private lazy val cube16 = CountCube.generate(small, 16)

  /** Asserts that `got` and `want` hold the same count in every cell. */
  private def assertSameCells(got: CountCube, want: CountCube): Unit = {
    assert(got.side == want.side && got.days == want.days)
    for (d <- 0 until got.days; s <- 0 until CityConfig.Slots; c <- 0 until got.cells)
      if (got(d, s, c) != want(d, s, c))
        fail(s"day $d, slot $s, cell $c: ${got(d, s, c)} drawn, ${want(d, s, c)} counted by Spark")
  }

  test("the draws-built cube equals GridCounts.at over the Spark events, toy city, sides 8, 16, 64") {
    val events = EventGen.eventsDf(spark, toy).cache()
    try for (side <- Seq(8, 16, 64)) {
      val cube = CountCube.generate(toy, side)
      assertSameCells(cube, EventOracle.cube(events, side, toy.days))
      assert(cube.total == events.count())
    } finally events.unpersist()
  }

  test("the draws-built cube equals GridCounts.at on each preset at reduced volume, side 64") {
    for (preset <- CityConfig.benchCities) {
      val city = preset.copy(days = 2, dailyOrders = preset.dailyOrders * 0.02)
      val cube = CountCube.generate(city, 64)
      assert(cube.total > 0.9 * city.dailyOrders * city.days, s"${city.name}: ${cube.total} events")
      assertSameCells(cube, EventOracle.cube(EventGen.eventsDf(spark, city), 64, city.days))
    }
  }

  /** Non-zero MGrid block sums of every (day, slot) as count rows. */
  private def blockRows(cube: CountCube, spec: GridSpec): Seq[(Int, Int, Int, Int, Long)] =
    for {
      d <- 0 until cube.days
      s <- 0 until CityConfig.Slots
      (c, i) <- cube.blockSums(spec, d, s).zipWithIndex.toSeq
      if c != 0
    } yield (d, s, i / spec.nSide, i % spec.nSide, c)

  private def atRows(side: Int): Set[(Int, Int, Int, Int, Long)] =
    GridCounts.at(ev, side).select("day", "slot", "cx", "cy", "cnt")
      .as[(Int, Int, Int, Int, Long)].collect().toSet

  test("the cube's non-zero cells are exactly the GridCounts.at rows") {
    val cells = for {
      d <- 0 until 2; s <- 0 until CityConfig.Slots; c <- 0 until cube8.cells
      if cube8(d, s, c) != 0
    } yield (d, s, c / 8, c % 8, cube8(d, s, c).toLong)
    assert(cells.size == cells.toSet.size)
    assert(cells.toSet == atRows(8))
  }

  test("the cube's α equals GridCounts.alpha exactly") {
    for ((from, until) <- Seq((0, 2), (1, 2))) {
      val dense = cube8.alpha(from, until)
      val rows = GridCounts.alpha(GridCounts.at(ev, 8), from, until)
        .select("slot", "cx", "cy", "alpha").as[(Int, Int, Int, Double)].collect()
      rows.foreach { case (s, cx, cy, a) => assert(dense(s)(cx * 8 + cy) == a, s"slot $s ($cx, $cy)") }
      assert(dense.map(_.count(_ != 0.0)).sum == rows.length)
    }
  }

  test("blockSums(): MGrid counts are HGrid sums (λ_i = Σ_j λ_ij, Def. 2)") {
    val got = blockRows(cube8, GridSpec(4, 8)).toDF("day", "slot", "cx", "cy", "cnt")
    Oracle.assertEquivalent(
      got,
      """SELECT CAST(day AS INT) AS day, CAST(slot AS INT) AS slot,
        |  CAST(FLOOR(CAST(cx AS INT) / 2) AS INT) AS cx,
        |  CAST(FLOOR(CAST(cy AS INT) / 2) AS INT) AS cy,
        |  SUM(CAST(cnt AS BIGINT)) AS cnt
        |FROM h GROUP BY 1, 2, 3, 4""".stripMargin,
      "h" -> GridCounts.at(ev, 8))
  }

  test("blockSums() equals counting directly at the coarse lattice") {
    assert(blockRows(cube16, GridSpec(4, 16)).toSet == atRows(4))
  }

  test("blockSums() with a non-dividing MGrid side preserves totals and bounds") {
    val spec = GridSpec(3, 16)
    val sums = for (d <- 0 until 2; s <- 0 until CityConfig.Slots) yield cube16.blockSums(spec, d, s)
    assert(sums.forall(a => a.length == 9 && a.forall(_ >= 0)))
    assert(sums.map(_.sum).sum == ev.count())
  }

  test("blockSums() rejects refinement (MGrid side > cube side)") {
    val cube4 = CountCube.generate(small, 4)
    assertThrows[IllegalArgumentException](cube4.blockSums(GridSpec(8, 8), 0, 0))
    assertThrows[IllegalArgumentException](cube4.blockSums(GridSpec(8, 4), 0, 0))
  }

  test("windowSums() over 1, 3, 8 and all days equals GridCounts.at rows summed by mgridOf and day") {
    val cube = CountCube.generate(toy, 16)
    val rows = GridCounts.at(EventGen.eventsDf(spark, toy), 16)
      .select("day", "slot", "cx", "cy", "cnt").as[(Int, Int, Int, Int, Long)].collect()
    val windows = Seq((0, 1), (5, 6), (11, 12), (0, 3), (2, 5), (9, 12), (0, 8), (4, 12), (0, 12))
    assert(toy.days == 12 && windows.map { case (from, until) => until - from }.toSet == Set(1, 3, 8, 12))
    for (nSide <- Seq(3, 5, 7, 8); (from, until) <- windows) {
      val spec = GridSpec(nSide, 16)
      val want = Array.ofDim[Long](CityConfig.Slots, spec.n)
      for ((d, s, cx, cy, cnt) <- rows if d >= from && d < until) want(s)(spec.mgridOf(cx * 16 + cy)) += cnt
      for (s <- 0 until CityConfig.Slots)
        assert(cube.windowSums(spec, from, until, s).sameElements(want(s)),
          s"nSide $nSide, days $from until $until, slot $s")
    }
  }

  test("windowSums() names the day or slot of a window outside the cube, empty or reversed") {
    def msg(from: Int, until: Int, slot: Int): String =
      intercept[IllegalArgumentException](cube8.windowSums(GridSpec(4, 8), from, until, slot)).getMessage
    assert(msg(-1, 1, 0).contains("day -1"))
    assert(msg(1, 3, 0).contains("day 3"))
    assert(msg(0, 0, 0).contains("day 0"))
    assert(msg(2, 1, 0).contains("day 2"))
    assert(msg(0, 2, 48).contains("slot 48"))
    assert(msg(0, 2, -1).contains("slot -1"))
  }

  test("a count row outside the cube's days, slots or lattice is rejected by value") {
    def msg(row: (Int, Int, Int, Int, Long)): String =
      intercept[IllegalArgumentException](TestData.cubeFromRows(4, 2, Seq(row))).getMessage
    assert(msg((2, 0, 0, 0, 1L)).contains("day 2"))
    assert(msg((-1, 0, 0, 0, 1L)).contains("day -1"))
    assert(msg((0, 48, 0, 0, 1L)).contains("slot 48"))
    assert(msg((0, 0, 4, 0, 1L)).contains("(4, 0)"))
    val cube = TestData.cubeFromRows(4, 2, Seq((1, 47, 3, 3, 5L)))
    assert(cube(1, 47, 15) == 5)
    def readMsg(read: => Any): String = intercept[IllegalArgumentException](read).getMessage
    assert(readMsg(cube(2, 0, 0)).contains("day 2"))
    assert(readMsg(cube(-1, 0, 0)).contains("day -1"))
    assert(readMsg(cube(0, 48, 0)).contains("slot 48"))
    assert(readMsg(cube(0, 0, 16)).contains("cell 16"))
    assert(readMsg(cube(0, 0, -1)).contains("cell -1"))
    assert(readMsg(cube.blockSums(GridSpec(2, 4), 0, 48)).contains("slot 48"))
    assert(readMsg(cube.blockSums(GridSpec(2, 4), 2, 0)).contains("day 2"))
  }

  test("alpha() rejects an empty or out-of-range window") {
    assertThrows[IllegalArgumentException](cube8.alpha(1, 1))
    assertThrows[IllegalArgumentException](cube8.alpha(0, 3))
  }
}
