package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropChecks

class GridSpecSpec extends AnyFunSuite with PropChecks {

  test("HGrid lattice is fixed at √N for every n") {
    assert(GridSpec(16, 128).hSide == 128)
    assert(GridSpec(4, 128).hSide == 128)
    assert(GridSpec(11, 64).hSide == 64)
    assert(GridSpec(64, 64).hSide == 64)
  }

  test("average m matches the paper's N/n") {
    val s = GridSpec(16, 64)
    assert(s.totalHGrids.toDouble / s.n == 16.0)
    assert(s.cellsPerM.forall(_ == 16)) // dividing case: exact blocks
  }

  test("every HGrid belongs to exactly one MGrid and counts add up to N") {
    val gen = for { t <- Gen.choose(2, 96); n <- Gen.choose(1, t) } yield (n, t)
    checkProp(Prop.forAll(gen) { case (n, t) =>
      val s = GridSpec(n, t)
      s.cellsPerM.sum == s.totalHGrids && s.cellsPerM.forall(_ >= 1)
    })
  }

  test("non-dividing nSide: block sizes differ by at most one row/column") {
    for (s <- Seq(GridSpec(3, 64), GridSpec(11, 64), GridSpec(63, 64))) {
      val sizes = s.axisCells
      assert(sizes.sum == s.hSide)
      assert(sizes.max - sizes.min <= 1, s"$s: ${sizes.toSeq}")
    }
  }

  test("cellsPerM agrees with a direct count over the lattice") {
    for (spec <- Seq(GridSpec(3, 8), GridSpec(5, 16), GridSpec(16, 64))) {
      val counts = Array.fill(spec.n)(0)
      for (hx <- 0 until spec.hSide; hy <- 0 until spec.hSide)
        counts(spec.mgridId(hx, hy)) += 1
      assert(counts.toSeq == spec.cellsPerM.toSeq, s"$spec")
      assert(spec.mgridOf.length == spec.totalHGrids)
      for (h <- 0 until spec.totalHGrids)
        assert(spec.mgridOf(h) == spec.mgridId(h / spec.hSide, h % spec.hSide), s"$spec HGrid $h")
    }
  }

  test("mOfH is monotone and onto 0..nSide−1") {
    for (spec <- Seq(GridSpec(3, 8), GridSpec(7, 64), GridSpec(64, 64))) {
      val ms = (0 until spec.hSide).map(spec.mOfH)
      assert(ms.head == 0 && ms.last == spec.nSide - 1)
      assert(ms.zip(ms.tail).forall { case (a, b) => b >= a && b - a <= 1 })
      assert(ms.distinct.size == spec.nSide)
    }
  }

  test("hgridId is a bijection on the lattice") {
    val s = GridSpec(5, 16)
    val ids = for (hx <- 0 until s.hSide; hy <- 0 until s.hSide) yield s.hgridId(hx, hy)
    assert(ids.distinct.size == s.totalHGrids)
    assert(ids.min == 0 && ids.max == s.totalHGrids - 1)
  }

  test("hgridsByM lists each MGrid's HGrids in HGrid order, from mStart") {
    for (nSide <- Seq(1, 3, 5, 16)) {
      val s = GridSpec(nSide, 16)
      assert(s.mStart.length == s.n + 1 && s.mStart(s.n) == s.totalHGrids)
      for (i <- 0 until s.n)
        assert(s.hgridsByM.slice(s.mStart(i), s.mStart(i + 1)).toSeq ==
          (0 until s.totalHGrids).filter(s.mgridOf(_) == i), s"nSide=$nSide, MGrid $i")
      assert(s.maxM == s.cellsPerM.max)
    }
  }

  test("degenerate sizes rejected") {
    assertThrows[IllegalArgumentException](GridSpec(0, 16))
    assertThrows[IllegalArgumentException](GridSpec(17, 16)) // n > N
  }

  test("nSide = √N gives m = 1 (MGrid = HGrid)") {
    val s = GridSpec(64, 64)
    assert(s.cellsPerM.forall(_ == 1))
  }
}
