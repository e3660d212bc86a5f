package repro.core

import repro.SparkSpec

/** The DataFrame adapter of the expression-error totals vs a driver-side
  * reference.
  */
class ExpressionErrorSparkSpec extends SparkSpec {
  import spark.implicits._

  test("totalPerSlot equals the local computation on a hand-built lattice") {
    val spec = GridSpec(2, 4) // 2×2 MGrids, mSide=2, hSide=4, m=4
    val rows = Seq(
      // slot 0: MGrid(0,0) has cells (0,0)=3,(0,1)=1; MGrid(1,1) has (2,2)=2
      (0, 0, 0, 3.0), (0, 0, 1, 1.0), (0, 2, 2, 2.0),
      // slot 1: single busy MGrid
      (1, 3, 3, 5.0))
    val alphaDf = rows.toDF("slot", "cx", "cy", "alpha")
    val got = ExpressionError
      .totalPerSlot(spark, alphaDf, spec)
      .collect()
      .map(r => r.getInt(0) -> r.getDouble(1))
      .toMap

    val slot0 =
      ExpressionError.mgridTotal(Array(3.0, 1.0), 4) + ExpressionError.mgridTotal(Array(2.0), 4)
    val slot1 = ExpressionError.mgridTotal(Array(5.0), 4)
    assert(math.abs(got(0) - slot0) < 1e-9, s"got=${got(0)} want=$slot0")
    assert(math.abs(got(1) - slot1) < 1e-9)
  }

  test("totalPerSlot groups cells into the right MGrids") {
    val spec = GridSpec(2, 4)
    // two cells in the SAME MGrid vs two cells in DIFFERENT MGrids:
    // same-MGrid uneven split has higher expression error
    val same = Seq((0, 0, 0, 6.0), (0, 1, 1, 0.5)).toDF("slot", "cx", "cy", "alpha")
    val diff = Seq((0, 0, 0, 6.0), (0, 3, 3, 0.5)).toDF("slot", "cx", "cy", "alpha")
    val eSame = ExpressionError.totalPerSlot(spark, same, spec).head().getDouble(1)
    val eDiff = ExpressionError.totalPerSlot(spark, diff, spec).head().getDouble(1)
    val wantSame = ExpressionError.mgridTotal(Array(6.0, 0.5), 4)
    val wantDiff = ExpressionError.mgridTotal(Array(6.0), 4) + ExpressionError.mgridTotal(Array(0.5), 4)
    assert(math.abs(eSame - wantSame) < 1e-9)
    assert(math.abs(eDiff - wantDiff) < 1e-9)
    assert(math.abs(eSame - eDiff) > 1e-6) // grouping genuinely changes the total
  }

  test("m = 1 lattice yields zero expression error") {
    val spec = GridSpec(4, 4)
    val alphaDf = Seq((0, 0, 0, 3.0), (0, 1, 2, 9.0)).toDF("slot", "cx", "cy", "alpha")
    val tot = ExpressionError.totalPerSlot(spark, alphaDf, spec).head().getDouble(1)
    assert(tot == 0.0)
  }
}
