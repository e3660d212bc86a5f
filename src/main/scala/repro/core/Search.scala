package repro.core

import scala.collection.mutable

/** OGSS search algorithms over `e(√n)` (paper §IV).
  *
  * Each takes the objective as `f: Int => Double` mapping a candidate
  * `nSide = √n` to the upper bound `e(√n)`; evaluations are memoized and
  * counted, mirroring the paper's cost accounting (one evaluation = one
  * model training + expression-error pass, the dominant cost).
  */
object Search {

  /** @param nSide  chosen √n
    * @param evals  number of distinct objective evaluations performed
    */
  final case class Result(nSide: Int, evals: Int)

  private final class Memo(f: Int => Double, lo: Int, hi: Int) {
    private val cache = mutable.Map.empty[Int, Double]
    def apply(x: Int): Double = {
      require(x >= lo && x <= hi, s"nSide $x outside [$lo, $hi]")
      cache.getOrElseUpdate(x, f(x))
    }
    def evals: Int = cache.size
  }

  /** Brute-force baseline: traverse every √n in [lo, hi]. */
  def bruteForce(f: Int => Double, lo: Int, hi: Int): Result = {
    require(lo <= hi, s"empty domain [$lo, $hi]")
    val memo = new Memo(f, lo, hi)
    val best = (lo to hi).minBy(memo(_))
    Result(best, memo.evals)
  }

  /** Ternary Search (paper Algorithm 4) on [lo, hi] (paper: l=1, r=√N).
    *
    * While r−l > 2 the third points ml = l+⌊(r−l)/3⌋ and mr = r−⌊(r−l)/3⌋
    * lie strictly inside (l, r), and one third is dropped per round. At
    * r−l = 2 the paper's ⌈⅔r+⅓l⌉ would equal `r` and loop forever, so one
    * explicit step compares the ends and drops the worse one; the better
    * of the last two points is the result.
    */
  def ternary(f: Int => Double, lo: Int, hi: Int): Result = {
    require(lo <= hi, s"empty domain [$lo, $hi]")
    val memo = new Memo(f, lo, hi)
    var l = lo
    var r = hi
    while (r - l > 2) {
      val ml = l + (r - l) / 3
      val mr = r - (r - l) / 3
      if (memo(ml) > memo(mr)) l = ml else r = mr
    }
    if (r - l == 2) { if (memo(l) > memo(r)) l += 1 else r -= 1 }
    val best = if (memo(l) > memo(r)) r else l
    Result(best, memo.evals)
  }

  /** Iterative Method (paper Algorithm 5): local search from `p0` with
    * boundary `b`, probing offsets i = b..1 and jumping to the first
    * strictly better probe; stops when no probe within ±b improves.
    *
    * Note: the paper's line 13 reads `if e(p) < e(p−i) then p ← p−i`,
    * which would move to a *worse* point; we implement the evident intent
    * `e(p) > e(p−i)` (move downhill), matching the algorithm's
    * description in §IV-C.
    */
  def iterative(f: Int => Double, p0: Int = 16, b: Int = 4, lo: Int = 1, hi: Int = Int.MaxValue): Result = {
    require(b >= 1 && lo <= hi, s"bad parameters b=$b domain=[$lo, $hi]")
    val memo = new Memo(f, lo, hi)
    var p = math.max(lo, math.min(hi, p0))
    var improved = true
    while (improved) {
      improved = false
      var i = b
      while (i >= 1 && !improved) {
        val up = math.min(hi, p + i)
        val dn = math.max(lo, p - i)
        if (up != p && memo(p) > memo(up)) { p = up; improved = true }
        else if (dn != p && memo(p) > memo(dn)) { p = dn; improved = true }
        else i -= 1
      }
    }
    Result(p, memo.evals)
  }
}
