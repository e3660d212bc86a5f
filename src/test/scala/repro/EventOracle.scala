package repro

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.data.{CountCube, GridCounts, TestData}

/** The Spark twins of the driver-side builders, kept as their oracles: they
  * read the point events that [[repro.data.EventGen.events]] generates, or
  * the α table [[GridCounts.alpha]] makes of them, where
  * `CountCube.generate`, `Algorithms.orders` and `Dalpha.of` read the
  * generator's draws.
  */
object EventOracle {

  /** The count cube of `events` at lattice `side`: [[GridCounts.at]],
    * collected.
    */
  def cube(events: DataFrame, side: Int, days: Int): CountCube = {
    import events.sparkSession.implicits._
    TestData.cubeFromRows(side, days,
      GridCounts.at(events, side)
        .select("day", "slot", "cx", "cy", "cnt")
        .as[(Int, Int, Int, Int, Long)]
        .collect())
  }

  /** Test-day orders per slot on the fine lattice, sorted by (x, y, fare). */
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

  /** D_α per slot (paper Eq. 2) of a sparse α table on a `side` lattice:
    * the twin of `Dalpha.of` over each slot of `CountCube.alpha`.
    *
    * ᾱ = (Σ α)/N with N = side²; absent cells contribute |0 − ᾱ| = ᾱ
    * each, so D_α = Σ_present |α − ᾱ| + (N − present)·ᾱ.
    *
    * @param alphaDf (slot, cx, cy, alpha), sparse
    * @return (slot, dAlpha)
    */
  def dalphaPerSlot(alphaDf: DataFrame, side: Int): DataFrame = {
    val n = side.toLong * side
    val mean = alphaDf
      .groupBy(col("slot"))
      .agg((sum(col("alpha")) / n).as("meanAlpha"), count(lit(1)).as("present"))
    alphaDf
      .join(mean, Seq("slot"))
      .groupBy(col("slot"), col("meanAlpha"), col("present"))
      .agg(sum(abs(col("alpha") - col("meanAlpha"))).as("presentDev"))
      .select(
        col("slot"),
        (col("presentDev") + (lit(n) - col("present")) * col("meanAlpha")).as("dAlpha"))
  }
}
