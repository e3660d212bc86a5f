package repro

import repro.core.GridSpec
import repro.data.CityConfig

/** The generator's expected α, free of Poisson noise, and the two lattice
  * changes Theorem III.1 speaks about: merging cells into blocks and
  * splitting each cell uniformly.
  */
object NoiseFreeAlpha {

  /** Expected α of every slot and generation cell (`alpha(slot)(cell)` on
    * the `city.genSide` lattice): per slot s and cell c, the mean over days
    * [dayFrom, dayUntil) of dailyOrders · slotProfile(s) · sharesForDay(d)(c).
    */
  def of(city: CityConfig, dayFrom: Int, dayUntil: Int): Array[Array[Double]] = {
    val shares = (dayFrom until dayUntil).map(city.sharesForDay)
    Array.tabulate(CityConfig.Slots, city.genSide * city.genSide) { (s, c) =>
      shares.map(sh => city.dailyOrders * city.slotProfile(s) * sh(c)).sum / shares.size
    }
  }

  /** Block sums of a `side`² surface on the `to`² lattice (`to` divides
    * `side`), indexed cx·to + cy like every lattice here.
    */
  def merge(alpha: Array[Double], side: Int, to: Int): Array[Double] = {
    require(side % to == 0, s"$to does not divide $side")
    val mg = GridSpec(to, side).mgridOf
    val out = new Array[Double](to * to)
    for (h <- alpha.indices) out(mg(h)) += alpha(h)
    out
  }

  /** Each cell of a `side`² surface split into k×k uniform cells holding
    * α / k² each: the (side·k)² surface.
    */
  def split(alpha: Array[Double], side: Int, k: Int): Array[Double] = {
    val fine = side * k
    Array.tabulate(fine * fine) { h =>
      alpha((h / fine / k) * side + (h % fine) / k) / (k * k)
    }
  }
}
