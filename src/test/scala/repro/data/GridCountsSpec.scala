package repro.data

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

/** Lattice counting ops, result-checked against DuckDB. */
class GridCountsSpec extends SparkSpec {

  private lazy val toy = CityConfig.toy
  // two days keep the oracle's row-by-row inserts fast
  private lazy val ev =
    EventGen.eventsDf(spark, toy.copy(days = 2, dailyOrders = 400)).cache()

  test("at(): counts per (day, slot, cell) match DuckDB") {
    val side = 8
    val got = GridCounts.at(ev, side)
    Oracle.assertEquivalent(
      got,
      s"""SELECT day, slot,
         |  LEAST(${side - 1}, GREATEST(0, CAST(FLOOR(CAST(x AS DOUBLE) * $side) AS INT))) AS cx,
         |  LEAST(${side - 1}, GREATEST(0, CAST(FLOOR(CAST(y AS DOUBLE) * $side) AS INT))) AS cy,
         |  COUNT(*) AS cnt
         |FROM events GROUP BY 1, 2, 3, 4""".stripMargin,
      "events" -> ev)
  }

  test("at(): total of counts equals the number of events") {
    val total = GridCounts.at(ev, 16).agg(sum("cnt")).head().getLong(0)
    assert(total == ev.count())
  }

  test("alpha(): windowed mean matches DuckDB") {
    val counts = GridCounts.at(ev, 8)
    val got = GridCounts.alpha(counts, 0, 2)
    Oracle.assertEquivalent(
      got,
      """SELECT slot, cx, cy, SUM(CAST(cnt AS DOUBLE)) / 2.0 AS alpha
        |FROM counts WHERE CAST(day AS INT) >= 0 AND CAST(day AS INT) < 2
        |GROUP BY 1, 2, 3""".stripMargin,
      "counts" -> counts)
  }

  test("alpha(): window excludes days outside [from, until)") {
    val counts = GridCounts.at(ev, 8)
    val a0 = GridCounts.alpha(counts, 0, 1) // day 0 only
    val direct = counts.where(col("day") === 0)
      .select(col("slot"), col("cx"), col("cy"), col("cnt").cast("double").as("alpha"))
    assert(a0.except(direct).isEmpty && direct.except(a0).isEmpty)
  }

  test("alpha() rejects an empty window") {
    assertThrows[IllegalArgumentException] {
      GridCounts.alpha(GridCounts.at(ev, 8), 3, 3)
    }
  }

  test("cellIdx clamps out-of-range coordinates") {
    import spark.implicits._
    val df = Seq((-0.5, 0.0), (0.0, 0.5), (0.999, 1.5)).toDF("x", "y")
    val r = df.select(
      GridCounts.cellIdx(col("x"), 4).as("cx"),
      GridCounts.cellIdx(col("y"), 4).as("cy")).collect()
    assert(r.map(x => (x.getInt(0), x.getInt(1))).toSeq == Seq((0, 0), (0, 2), (3, 3)))
    val driver = Seq((-0.5, 0.0), (0.0, 0.5), (0.999, 1.5))
      .map { case (x, y) => (GridCounts.cellIdx(x, 4), GridCounts.cellIdx(y, 4)) }
    assert(driver == Seq((0, 0), (0, 2), (3, 3)))
  }

  test("cellIdx on the driver maps [0,1) onto 0..side−1 and clamps edges") {
    assert(GridCounts.cellIdx(0.0, 16) == 0)
    assert(GridCounts.cellIdx(0.999999, 16) == 15)
    assert(GridCounts.cellIdx(1.0, 16) == 15) // clamped
    assert(GridCounts.cellIdx(-0.1, 16) == 0) // clamped
    assert(GridCounts.cellIdx(0.5, 16) == 8)
  }
}
