package repro.core

/** Geometry of one grid-size configuration on the unit square.
  *
  * The paper fixes a city-wide budget of N homogeneous grids (HGrids) and
  * varies the number n = nSide² of model grids (MGrids); each MGrid is
  * divided into m ≈ N/n HGrids (their ⌈√(N/n)⌉² formula). Because real and
  * expression errors are *compared across n*, they must be measured on the
  * same HGrids for every n — so the HGrid lattice here is always the fixed
  * √N × √N grid, and an MGrid is a spatial block of it: HGrid row `h`
  * belongs to MGrid row `h·nSide / √N`. When nSide ∤ √N, blocks differ by
  * one row/column and `m` varies per MGrid (exposed via [[cellsPerM]]).
  *
  * @param nSide  MGrids per axis (√n), 1 ≤ nSide ≤ √N
  * @param hSide  √N — HGrid lattice side, fixed for every n (paper: 128;
  *               bench: 64)
  */
final case class GridSpec(nSide: Int, hSide: Int) {
  require(nSide >= 1, s"nSide must be >= 1, got $nSide")
  require(hSide >= nSide, s"nSide=$nSide exceeds the HGrid budget side $hSide (needs n ≤ N)")

  /** n — number of MGrids. */
  def n: Int = nSide * nSide
  /** N — number of HGrids. */
  def totalHGrids: Int = hSide * hSide

  /** MGrid axis index owning HGrid axis index `h`. */
  def mOfH(h: Int): Int = math.min(nSide - 1, h * nSide / hSide)
  /** Flattened MGrid id from HGrid axis indices. */
  def mgridId(hx: Int, hy: Int): Int = mOfH(hx) * nSide + mOfH(hy)
  /** Flattened HGrid id. */
  def hgridId(hx: Int, hy: Int): Int = hx * hSide + hy

  /** MGrid id of each HGrid id: the one HGrid → MGrid map, which block sums,
    * the expression-error kernel, real error and dispatch all index.
    */
  lazy val mgridOf: Array[Int] = Array.tabulate(totalHGrids)(h => mgridId(h / hSide, h % hSide))

  /** HGrid rows per MGrid row (axis block sizes; differ by ≤ 1). */
  lazy val axisCells: Array[Int] = {
    val a = new Array[Int](nSide)
    var h = 0
    while (h < hSide) { a(mOfH(h)) += 1; h += 1 }
    a
  }

  /** m of each MGrid (flattened id → its HGrid count). */
  lazy val cellsPerM: Array[Int] =
    Array.tabulate(n)(id => axisCells(id / nSide) * axisCells(id % nSide))

  /** Where each MGrid's group starts in [[hgridsByM]]; `n + 1` entries, the
    * last being N.
    */
  lazy val mStart: Array[Int] = cellsPerM.scanLeft(0)(_ + _)

  /** HGrid ids grouped by MGrid: MGrid i's HGrids, in HGrid order, are
    * `hgridsByM(mStart(i) until mStart(i + 1))`.
    */
  lazy val hgridsByM: Array[Int] = {
    val next = mStart.clone()
    val out = new Array[Int](totalHGrids)
    var h = 0
    while (h < totalHGrids) {
      val i = mgridOf(h)
      out(next(i)) = h
      next(i) += 1
      h += 1
    }
    out
  }

  /** The largest m of any MGrid. */
  lazy val maxM: Int = cellsPerM.max
}
