package repro.data

import repro.core.GridSpec

import java.util.stream.IntStream

/** One city's per-(day, slot, HGrid) event counts as a dense driver-side
  * array: the n-independent input of every grid-size evaluation.
  *
  * [[CountCube.generate]] counts the generator's draws once per city, with
  * no point events and no Spark job; everything that depends on the grid
  * size (MGrid block sums, HA(k) predictions, the three errors) is plain
  * array arithmetic over this cube. At 35 days × 48 slots × 64² HGrids it
  * holds 6.9 M counts (≈ 27 MB).
  *
  * @param side HGrid lattice side √N; a cell's index is cx·side + cy
  * @param days the cube covers days 0 until `days`
  */
final class CountCube private (val side: Int, val days: Int, private val counts: Array[Int]) {

  val cells: Int = side * side

  private def offset(day: Int, slot: Int): Int = {
    require(day >= 0 && day < days, s"day $day is outside the cube's days 0 until $days")
    require(slot >= 0 && slot < CityConfig.Slots, s"slot $slot is outside slots 0 until ${CityConfig.Slots}")
    (day * CityConfig.Slots + slot) * cells
  }

  /** Events of `day` and `slot` in HGrid `cell`. */
  def apply(day: Int, slot: Int, cell: Int): Int = {
    require(cell >= 0 && cell < cells, s"cell $cell is outside the $side² lattice")
    counts(offset(day, slot) + cell)
  }

  /** Events in the whole cube. */
  def total: Long = counts.foldLeft(0L)(_ + _)

  /** α_ij of every slot and HGrid (`alpha(slot)(cell)`): the count summed
    * over days [dayFrom, dayUntil), then ÷ the number of days, the same
    * arithmetic as [[GridCounts.alpha]]. Slots run in parallel on the
    * JDK's common pool.
    */
  def alpha(dayFrom: Int, dayUntil: Int): Array[Array[Double]] = {
    require(dayFrom >= 0 && dayUntil <= days && dayUntil > dayFrom,
      s"train window [$dayFrom, $dayUntil) is empty or outside days 0 until $days")
    val nDays = (dayUntil - dayFrom).toDouble
    val out = new Array[Array[Double]](CityConfig.Slots)
    IntStream.range(0, CityConfig.Slots).parallel().forEach { s =>
      val sum = new Array[Long](cells)
      for (d <- dayFrom until dayUntil) {
        val o = offset(d, s)
        var c = 0
        while (c < cells) { sum(c) += counts(o + c); c += 1 }
      }
      out(s) = sum.map(_ / nDays)
    }
    out
  }

  /** MGrid counts λ_i = Σ_j λ_ij of one (day, slot): each HGrid's count
    * added to its MGrid ([[GridSpec.mgridOf]]), indexed mx·nSide + my.
    */
  def blockSums(spec: GridSpec, day: Int, slot: Int): Array[Long] = {
    require(spec.hSide == side, s"GridSpec on a ${spec.hSide}² HGrid lattice, the cube's is $side²")
    val mg = spec.mgridOf
    val out = new Array[Long](spec.n)
    val o = offset(day, slot)
    var h = 0
    while (h < cells) { out(mg(h)) += counts(o + h); h += 1 }
    out
  }
}

object CountCube {

  /** `city`'s counts on a `side` lattice, straight from the generator's
    * draws ([[EventGen.drawDay]]), days in parallel on the JDK's common
    * pool. Each event lands in HGrid [[GridCounts.cellIdx]] of its own
    * x and y, so the cube equals counting the Spark events with
    * [[GridCounts.at]], cell for cell, at any side.
    */
  def generate(city: CityConfig, side: Int): CountCube = {
    require(side >= 1, s"empty lattice side $side")
    val cube = new CountCube(side, city.days, new Array[Int](city.days * CityConfig.Slots * side * side))
    IntStream.range(0, city.days).parallel().forEach { day =>
      EventGen.drawDay(city, day, trips = false) { (slot, x, y, _) =>
        cube.counts(cube.offset(day, slot) + GridCounts.cellIdx(x, side) * side + GridCounts.cellIdx(y, side)) += 1
      }
    }
    cube
  }

  /** A cube from sparse (day, slot, cx, cy, cnt) rows; absent cells are 0.
    * A row outside the cube is an error, not a dropped count.
    */
  def fromRows(side: Int, days: Int, rows: Iterable[(Int, Int, Int, Int, Long)]): CountCube = {
    require(side >= 1 && days >= 1, s"empty cube: side $side, $days days")
    val counts = new Array[Int](days * CityConfig.Slots * side * side)
    val cube = new CountCube(side, days, counts)
    rows.foreach { case (d, s, cx, cy, cnt) =>
      require(d >= 0 && d < days, s"count row on day $d, outside the cube's days 0 until $days")
      require(s >= 0 && s < CityConfig.Slots,
        s"count row in slot $s, outside slots 0 until ${CityConfig.Slots}")
      require(cx >= 0 && cx < side && cy >= 0 && cy < side,
        s"count row at cell ($cx, $cy), outside the $side² lattice")
      require(cnt >= 0 && cnt <= Int.MaxValue, s"count $cnt at day $d, slot $s, cell ($cx, $cy)")
      counts(cube.offset(d, s) + cx * side + cy) += cnt.toInt
    }
    cube
  }
}
