package repro.data

import repro.core.GridSpec
import repro.data.CityConfig.Slots

import java.util.stream.IntStream

/** One city's per-(day, slot, HGrid) event counts, held as one summed-volume
  * table per slot: the n-independent input of every grid-size evaluation.
  *
  * Entry P(s, d, x, y) is the count of slot `s` summed over days `< d`,
  * HGrid rows `< x` and columns `< y` (Crow's summed-area table, extended
  * over days). Any box of days × rows × columns is then 8 table reads, so a
  * single count, α over a window, an MGrid's sum over a window of days and
  * an HA(k) window each cost O(1) per output cell, whatever the window's
  * length. Every answer is an integer sum, so it is exact. The table has
  * (days+1) × 48 × (side+1)² `Int`s, slot-major (≈ 29 MB at 35 × 64²); the
  * raw counts are not kept.
  *
  * [[CountCube.generate]] counts the generator's draws once per city, with
  * no point events and no Spark job.
  *
  * @param side   HGrid lattice side √N; a cell's index is cx·side + cy
  * @param days   the cube covers days 0 until `days`
  * @param counts dense day × slot × side² counts, read once to build the table
  */
final class CountCube private[repro] (val side: Int, val days: Int, counts: Array[Int]) {
  require(side >= 1 && days >= 1, s"empty cube: side $side, $days days")

  val cells: Int = side * side

  private val table: Array[Int] = CountCube.sumTable(side, days, counts)

  /** Index of P(slot, day, x, y). */
  private def at(slot: Int, day: Int, x: Int, y: Int): Int = CountCube.index(side, days, slot, day, x, y)

  private def checkSlot(slot: Int): Unit =
    require(slot >= 0 && slot < Slots, s"slot $slot is outside slots 0 until $Slots")

  private def checkWindow(from: Int, until: Int): Unit =
    require(from >= 0 && until <= days && until > from,
      s"the window from day $from until day $until is empty or outside the cube's days 0 until $days")

  /** Σ of `slot`'s counts over days [from, until), rows [x0, x1) and
    * columns [y0, y1): the box's 8 corners, in `Long`.
    */
  private def box(slot: Int, from: Int, until: Int, x0: Int, x1: Int, y0: Int, y1: Int): Long = {
    def face(d: Int): Long =
      table(at(slot, d, x1, y1)).toLong - table(at(slot, d, x0, y1)) -
        table(at(slot, d, x1, y0)) + table(at(slot, d, x0, y0))
    face(until) - face(from)
  }

  /** Events of `day` and `slot` in HGrid `cell`. */
  def apply(day: Int, slot: Int, cell: Int): Int = {
    require(day >= 0 && day < days, s"day $day is outside the cube's days 0 until $days")
    checkSlot(slot)
    require(cell >= 0 && cell < cells, s"cell $cell is outside the $side² lattice")
    val x = cell / side
    val y = cell % side
    box(slot, day, day + 1, x, x + 1, y, y + 1).toInt
  }

  /** Events in the whole cube. */
  def total: Long = (0 until Slots).iterator.map(s => table(at(s, days, side, side)).toLong).sum

  /** α_ij of every slot and HGrid (`alpha(slot)(cell)`): the count summed
    * over days [dayFrom, dayUntil), then ÷ the number of days, the same
    * arithmetic as [[GridCounts.alpha]]. O(cells) per slot, whatever the
    * window's length.
    */
  def alpha(dayFrom: Int, dayUntil: Int): Array[Array[Double]] = {
    checkWindow(dayFrom, dayUntil)
    val nDays = (dayUntil - dayFrom).toDouble
    Array.tabulate(Slots) { s =>
      val out = new Array[Double](cells)
      var x = 0
      while (x < side) {
        var y = 0
        while (y < side) {
          out(x * side + y) = box(s, dayFrom, dayUntil, x, x + 1, y, y + 1) / nDays
          y += 1
        }
        x += 1
      }
      out
    }
  }

  /** MGrid counts λ_i = Σ_j λ_ij of `slot`, summed over days
    * [from, until): each MGrid is the box of HGrid rows and columns
    * [[GridSpec.axisStart]] gives it, indexed mx·nSide + my.
    */
  def windowSums(spec: GridSpec, from: Int, until: Int, slot: Int): Array[Long] = {
    require(spec.hSide == side, s"GridSpec on a ${spec.hSide}² HGrid lattice, the cube's is $side²")
    checkWindow(from, until)
    checkSlot(slot)
    val a = spec.axisStart
    val out = new Array[Long](spec.n)
    var mx = 0
    while (mx < spec.nSide) {
      var my = 0
      while (my < spec.nSide) {
        out(mx * spec.nSide + my) = box(slot, from, until, a(mx), a(mx + 1), a(my), a(my + 1))
        my += 1
      }
      mx += 1
    }
    out
  }

  /** MGrid counts λ_i = Σ_j λ_ij of one (day, slot): [[windowSums]] over
    * that one day.
    */
  def blockSums(spec: GridSpec, day: Int, slot: Int): Array[Long] = windowSums(spec, day, day + 1, slot)
}

object CountCube {

  /** `city`'s counts on a `side` lattice, straight from the generator's
    * draws ([[EventGen.drawDay]]), days in parallel on the JDK's common
    * pool, then its summed-volume table, slots in parallel. Each event
    * lands in HGrid [[GridCounts.cellIdx]] of its own x and y, so the cube
    * equals counting the Spark events with [[GridCounts.at]], cell for
    * cell, at any side.
    */
  def generate(city: CityConfig, side: Int): CountCube = {
    require(side >= 1, s"empty lattice side $side")
    val counts = new Array[Int](city.days * Slots * side * side)
    IntStream.range(0, city.days).parallel().forEach { day =>
      EventGen.drawDay(city, day, trips = false) { (slot, x, y, _) =>
        counts(((day * Slots + slot) * side + GridCounts.cellIdx(x, side)) * side +
          GridCounts.cellIdx(y, side)) += 1
      }
    }
    new CountCube(side, city.days, counts)
  }

  /** Index of P(slot, day, x, y) in a `side`, `days` table. */
  private def index(side: Int, days: Int, slot: Int, day: Int, x: Int, y: Int): Int =
    ((slot * (days + 1) + day) * (side + 1) + x) * (side + 1) + y

  /** The summed-volume table of dense day × slot × side² `counts`, slots
    * in parallel on the JDK's common pool. Along each HGrid row, `row`
    * sums one day's counts up to column y, and
    * P(d, x, y) = P(d−1, x, y) + P(d, x−1, y) − P(d−1, x−1, y) + row.
    */
  private def sumTable(side: Int, days: Int, counts: Array[Int]): Array[Int] = {
    require(counts.length == days * Slots * side * side,
      s"${counts.length} counts for $days days × $Slots slots × $side²")
    val w = side + 1
    val plane = w * w
    val cells = side * side
    val table = new Array[Int]((days + 1) * Slots * plane)
    IntStream.range(0, Slots).parallel().forEach { s =>
      var total = 0L
      var d = 1
      while (d <= days) {
        var x = 1
        while (x <= side) {
          val c0 = ((d - 1) * Slots + s) * cells + (x - 1) * side - 1
          var i = index(side, days, s, d, x, 0)
          var row = 0
          var y = 1
          while (y <= side) {
            val c = counts(c0 + y)
            total += c
            row += c
            i += 1
            table(i) = table(i - plane) + table(i - w) - table(i - plane - w) + row
            y += 1
          }
          x += 1
        }
        d += 1
      }
      require(total <= Int.MaxValue, s"slot $s holds $total events, beyond an Int table")
    }
    table
  }
}
