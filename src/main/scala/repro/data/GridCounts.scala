package repro.data

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Lattice counting over event DataFrames: the test oracle of
  * [[CountCube.generate]] and [[CountCube.alpha]], and the benchmark's
  * layer timing of counting.
  *
  * All schemas:
  *  - events: (day, slot, x, y, km, fare) with x, y ∈ [0,1)
  *  - counts: (day, slot, cx, cy, cnt) at a given lattice side
  *  - alpha:  (slot, cx, cy, alpha)
  *
  * Cells with zero events are *absent* (sparse representation). The
  * grid-size evaluations do not read these DataFrames: they read the
  * dense [[CountCube]], where absent cells are zeros.
  */
object GridCounts {

  /** Axis cell index of normalized coordinate `c` on a `side` lattice. */
  def cellIdx(c: Column, side: Int): Column =
    least(lit(side - 1), greatest(lit(0), floor(c * side).cast("int")))

  /** [[cellIdx]] of one coordinate on the driver, the same arithmetic. */
  def cellIdx(c: Double, side: Int): Int =
    math.min(side - 1, math.max(0, math.floor(c * side).toInt))

  /** Per-(day, slot, cell) counts at lattice `side` (test oracle). */
  def at(events: DataFrame, side: Int): DataFrame =
    events
      .groupBy(
        col("day"), col("slot"),
        cellIdx(col("x"), side).as("cx"),
        cellIdx(col("y"), side).as("cy"))
      .agg(count(lit(1)).cast("long").as("cnt"))

  /** α_ij estimate: mean per-(slot, cell) count over days
    * [dayFrom, dayUntil) — the paper's "same time slot over the previous
    * month". Absent (slot, cell) rows mean α = 0. Test oracle of
    * [[CountCube.alpha]].
    */
  def alpha(counts: DataFrame, dayFrom: Int, dayUntil: Int): DataFrame = {
    require(dayUntil > dayFrom, s"empty train window [$dayFrom, $dayUntil)")
    val nDays = (dayUntil - dayFrom).toDouble
    counts
      .where(col("day") >= dayFrom && col("day") < dayUntil)
      .groupBy(col("slot"), col("cx"), col("cy"))
      .agg((sum(col("cnt")) / nDays).as("alpha"))
  }
}
