package repro.core

/** Unevenness D_α(N) of one slot's α surface (paper Eq. 2).
  *
  * D_α grows with N while HGrids are still heterogeneous and stops growing
  * once they are uniform (Theorem III.1); §III-A picks N at the knee of
  * that curve. The HGrid budget here is fixed at N = 64², the generators'
  * lattice, not chosen by that rule: on α estimated from the cube, D_α
  * keeps rising past 64² from Poisson noise alone, and a 5% knee lands at
  * 16² / 8² / 8² (NYC / Chengdu / Xi'an), where the cities' structure is
  * already resolved (EXPERIMENTS.md, "D_α and the HGrid budget").
  *
  * Callers compute it on the driver, one value per slot:
  * `cube.alpha(from, until).map(Dalpha.of)`.
  */
object Dalpha {

  /** D_α = Σ_c |α_c − ᾱ| with ᾱ = Σ α / N, over a dense lattice of
    * N = `alpha.length` HGrids (empty HGrids are zeros).
    */
  def of(alpha: Array[Double]): Double = {
    require(alpha.nonEmpty, "empty α surface")
    val mean = alpha.sum / alpha.length
    var d = 0.0
    var c = 0
    while (c < alpha.length) { d += math.abs(alpha(c) - mean); c += 1 }
    d
  }
}
