package repro.data

import CityConfig.Slots

/** Builders and expectations over the data types that only tests and the
  * bench suites read.
  */
object TestData {

  /** Time-averaged expected events of `city` in generation cell `cell`
    * during `slot` (days are i.i.d. around this, matching the paper's
    * "workdays of the last month").
    */
  def mu(city: CityConfig, slot: Int, cell: Int): Double =
    city.dailyOrders * city.slotProfile(slot) * city.cellShares(cell)

  /** A cube from sparse (day, slot, cx, cy, cnt) rows; absent cells are 0.
    * A row outside the cube is an error, not a dropped count.
    */
  def cubeFromRows(side: Int, days: Int, rows: Iterable[(Int, Int, Int, Int, Long)]): CountCube = {
    require(side >= 1 && days >= 1, s"empty cube: side $side, $days days")
    val counts = new Array[Int](days * Slots * side * side)
    rows.foreach { case (d, s, cx, cy, cnt) =>
      require(d >= 0 && d < days, s"count row on day $d, outside the cube's days 0 until $days")
      require(s >= 0 && s < Slots, s"count row in slot $s, outside slots 0 until $Slots")
      require(cx >= 0 && cx < side && cy >= 0 && cy < side,
        s"count row at cell ($cx, $cy), outside the $side² lattice")
      require(cnt >= 0 && cnt <= Int.MaxValue, s"count $cnt at day $d, slot $s, cell ($cx, $cy)")
      val i = ((d * Slots + s) * side + cx) * side + cy
      counts(i) = Math.addExact(counts(i), cnt.toInt)
    }
    new CountCube(side, days, counts)
  }
}
