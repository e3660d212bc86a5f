package repro.core

import repro.{EventOracle, Oracle, SparkSpec}
import repro.data.{CityConfig, CountCube, EventGen, GridCounts}
import repro.model.{ModelTier, Models}

import java.util.concurrent.{Callable, ForkJoinPool}

/** Integration tests of the Algorithm-3 evaluator on the toy city. */
class EvaluatorSpec extends SparkSpec {

  private lazy val toy = CityConfig.toy // 12 days, 600 orders/day, genSide 16
  private lazy val events = EventGen.eventsDf(spark, toy).cache()
  private lazy val cube = EventOracle.cube(events, 16, toy.days)
  /** HGrid counts as the SQL references' input table. */
  private lazy val hCounts = GridCounts.at(events, 16)

  private val tiers =
    Seq(ModelTier("lastday", 1), ModelTier("ha3", 3), ModelTier("ha8", 8))

  private def mkEval(computeReal: Boolean = true) =
    new Evaluator(cube,
      EvalConfig(models = tiers, testDay = 11,
        valDays = Seq(9, 10), trainWindow = 8, computeReal = computeReal))

  private lazy val ev = mkEval()
  private lazy val e2 = ev(2)
  private lazy val e4 = ev(4)
  private lazy val e8 = ev(8)
  private lazy val e16 = ev(16)

  private def total(r: Map[Int, SlotEval])(f: SlotEval => Double): Double =
    r.values.map(f).sum

  test("memoization: repeated evaluation costs nothing") {
    val before = ev.evalCount
    ev(4); ev(4)
    assert(ev.evalCount == before || ev.evalCount == before + 1)
    val c = ev.evalCount
    ev(4)
    assert(ev.evalCount == c)
  }

  test("expression error decreases as n grows (paper Fig. 3)") {
    val x2 = total(e2)(_.exprErr)
    val x4 = total(e4)(_.exprErr)
    val x8 = total(e8)(_.exprErr)
    assert(x2 > x4 && x4 > x8, s"expr: $x2, $x4, $x8")
  }

  test("expression error vanishes at n = N (m = 1)") {
    assert(total(e16)(_.exprErr) == 0.0)
  }

  test("model error increases as n grows (paper Fig. 4, Eq. 20)") {
    for (t <- tiers) {
      val m2 = total(e2)(_.modelErr(t.name))
      val m8 = total(e8)(_.modelErr(t.name))
      val m16 = total(e16)(_.modelErr(t.name))
      assert(m2 < m8 && m8 < m16, s"${t.name}: $m2, $m8, $m16")
    }
  }

  test("model accuracy ladder: lastday > ha3 > ha8 model error") {
    for (r <- Seq(e4, e8)) {
      val m = tiers.map(t => total(r)(_.modelErr(t.name)))
      assert(m(0) > m(1) && m(1) > m(2), s"ladder: $m")
    }
  }

  test("Theorem II.1: real error below its upper bound (summed over slots)") {
    for (r <- Seq(e2, e4, e8); t <- tiers) {
      val real = total(r)(_.realErr(t.name))
      val upper = total(r)(s => s.upper(t.name))
      assert(real <= upper * 1.05 + 1e-6, s"${t.name}: real=$real upper=$upper")
    }
  }

  test("Theorem II.1 holds exactly per HGrid on the test day's counts") {
    // With λ̂_i = S_i/k (HA(k)), every term times k·m_i is an integer:
    // real = |S_i − k·m_i·λ_ij|, model = |S_i − k·λ_i|, expr = |k·λ_i − k·m_i·λ_ij|.
    val k = tiers(1).k // ha3
    val day = 11
    for (n <- Seq(4, 3, 5); s <- Seq(0, 17, 37)) {
      val spec = GridSpec(n, 16)
      val lambda = cube.blockSums(spec, day, s)
      val sums = (day - k until day).map(d => cube.blockSums(spec, d, s))
      val pred = Array.tabulate(spec.n)(i => sums.map(_(i)).sum)
      val m = spec.cellsPerM
      var realErr = 0.0
      for (hx <- 0 until 16; hy <- 0 until 16) {
        val i = spec.mgridId(hx, hy)
        val c = cube(day, s, spec.hgridId(hx, hy)).toLong
        val real = math.abs(pred(i) - k * m(i) * c)
        val model = math.abs(pred(i) - k * lambda(i))
        val expr = math.abs(k * lambda(i) - k * m(i) * c)
        val at = s"n=$n slot $s HGrid ($hx, $hy)"
        assert(real <= model + expr, at)
        assert(real >= math.abs(model - expr), at)
        assert(model + expr - real <= 2 * math.min(model, expr), at)
        realErr += real.toDouble / (k * m(i))
      }
      val got = ev(n)(s).realErr("ha3")
      assert(math.abs(got - realErr) <= 1e-9 * math.max(1.0, realErr), s"n=$n slot $s: $got vs $realErr")
    }
  }

  test("real error is positive wherever there is demand") {
    assert(total(e4)(_.realErr("ha3")) > 0.0)
  }

  test("upper() = exprErr + modelErr") {
    val s = e4.values.head
    for (t <- tiers)
      assert(s.upper(t.name) == s.exprErr + s.modelErr(t.name))
  }

  test("objective() matches the evaluated upper bound") {
    val slot = 37
    val f = ev.objective(slot, tiers(1))
    assert(f(4) == e4(slot).upper("ha3"))
  }

  test("computeReal=false skips real error but keeps the bound") {
    val fast = mkEval(computeReal = false)
    val r = fast(4)
    assert(r.values.forall(_.realErr.values.forall(_ == 0.0)))
    val slot = r.keys.head
    assert(math.abs(r(slot).upper("ha3") - e4(slot).upper("ha3")) < 1e-6)
  }

  test("Eq. 20: per-slot model error equals Σ_i mean_d |λ̂_i − λ_i| (DuckDB)") {
    // independent re-computation of the ha3 model error at nSide=4 via SQL,
    // rolling the HGrid counts up to MGrids inside the query
    val got = spark.createDataFrame(
      e4.toSeq.sortBy(_._1).map { case (s, r) => (s, r.modelErr("ha3")) })
      .toDF("slot", "me")
    Oracle.assertEquivalent(
      got,
      """WITH m AS (
        |  SELECT CAST(day AS INT) AS day, CAST(slot AS INT) AS slot,
        |    CAST(FLOOR(CAST(cx AS INT) * 4 / 16) AS INT) AS cx,
        |    CAST(FLOOR(CAST(cy AS INT) * 4 / 16) AS INT) AS cy,
        |    SUM(CAST(cnt AS DOUBLE)) AS cnt
        |  FROM h GROUP BY 1, 2, 3, 4
        |), grid AS (
        |  SELECT DISTINCT slot, cx, cy FROM m
        |), days(d) AS (VALUES (9), (10)),
        |cells AS (
        |  SELECT g.slot, g.cx, g.cy, days.d FROM grid g CROSS JOIN days
        |),
        |vals AS (
        |  SELECT c.slot, c.cx, c.cy, c.d,
        |    COALESCE((SELECT SUM(CAST(cnt AS DOUBLE)) FROM m
        |      WHERE CAST(m.day AS INT) BETWEEN c.d - 3 AND c.d - 1
        |        AND m.slot = c.slot AND m.cx = c.cx AND m.cy = c.cy), 0) / 3.0 AS pred,
        |    COALESCE((SELECT SUM(CAST(cnt AS DOUBLE)) FROM m
        |      WHERE CAST(m.day AS INT) = c.d
        |        AND m.slot = c.slot AND m.cx = c.cx AND m.cy = c.cy), 0) AS act
        |  FROM cells c
        |)
        |SELECT CAST(slot AS INT) AS slot, SUM(ABS(pred - act)) / 2.0 AS me
        |FROM vals GROUP BY 1""".stripMargin,
      "h" -> hCounts)
  }

  test("real error equals Σ_ij |λ̂_i/m_i − λ_ij| over every HGrid (DuckDB)") {
    // The SQL enumerates the whole 16² lattice, so an HGrid with no test-day
    // events is charged λ̂_i/m_i, and m_i is counted from the lattice.
    for (n <- Seq(4, 3)) {
      val r = ev(n)
      val got = spark.createDataFrame(r.toSeq.sortBy(_._1).map { case (s, e) =>
        (s, e.realErr("lastday"), e.realErr("ha3"), e.realErr("ha8"))
      }).toDF("slot", "re_lastday", "re_ha3", "re_ha8")
      val predCols = tiers.map(t =>
        s"SUM(CASE WHEN h.day BETWEEN ${11 - t.k} AND 10 THEN h.cnt ELSE 0 END) / ${t.k}.0 AS p_${t.name}")
      val reCols = tiers.map(t =>
        s"SUM(ABS(COALESCE(p.p_${t.name}, 0) / m.m - COALESCE(t.cnt, 0))) AS re_${t.name}")
      Oracle.assertEquivalent(
        got,
        s"""WITH h AS (
           |  SELECT CAST(day AS INT) AS day, CAST(slot AS INT) AS slot, CAST(cx AS INT) AS cx,
           |    CAST(cy AS INT) AS cy, CAST(cnt AS DOUBLE) AS cnt FROM counts
           |), lattice AS (
           |  SELECT CAST(s.slot AS INT) AS slot, CAST(a.cx AS INT) AS cx, CAST(b.cy AS INT) AS cy,
           |    CAST(FLOOR(a.cx * $n / 16) AS INT) AS mx, CAST(FLOOR(b.cy * $n / 16) AS INT) AS my
           |  FROM range(48) s(slot), range(16) a(cx), range(16) b(cy)
           |), m AS (
           |  SELECT mx, my, COUNT(*) AS m FROM lattice WHERE slot = 0 GROUP BY 1, 2
           |), pred AS (
           |  SELECT l.slot, l.mx, l.my, ${predCols.mkString(", ")}
           |  FROM lattice l JOIN h ON h.slot = l.slot AND h.cx = l.cx AND h.cy = l.cy
           |  GROUP BY 1, 2, 3
           |), t AS (
           |  SELECT slot, cx, cy, cnt FROM h WHERE day = 11
           |)
           |SELECT l.slot AS slot, ${reCols.mkString(", ")}
           |FROM lattice l
           |JOIN m ON m.mx = l.mx AND m.my = l.my
           |LEFT JOIN pred p ON p.slot = l.slot AND p.mx = l.mx AND p.my = l.my
           |LEFT JOIN t ON t.slot = l.slot AND t.cx = l.cx AND t.cy = l.cy
           |GROUP BY 1""".stripMargin,
        "counts" -> hCounts)
    }
  }

  test("every evaluation covers exactly slots 0 until 48, and no other slot reads as 0") {
    assert(e4.keySet == (0 until 48).toSet)
    assertThrows[NoSuchElementException](ev(4)(48))
  }

  test("the evaluator rejects a config that does not fit its count cube") {
    val day = intercept[IllegalArgumentException] {
      new Evaluator(cube, EvalConfig(tiers, testDay = 12, valDays = Seq(9, 10), trainWindow = 8))
    }
    assert(day.getMessage.contains("testDay 12"), day.getMessage)
  }

  test("an evaluation does not depend on parallelism") {
    // 10% Xi'an on the 64² lattice, with the experiments' protocol
    val xian = CountCube.generate(CityConfig.xian.copy(dailyOrders = 11000), 64)
    def evalAll(): Seq[Map[Int, SlotEval]] = {
      val ev = new Evaluator(xian,
        EvalConfig(Models.all, testDay = 34, valDays = 29 to 33, trainWindow = 28, computeReal = true))
      Seq(1, 5, 16, 32).map(ev(_)) // 5 does not divide 64
    }
    val pool = new ForkJoinPool(1)
    val oneThread =
      try pool.submit(new Callable[Seq[Map[Int, SlotEval]]] { def call() = evalAll() }).get()
      finally pool.shutdown()
    assert(evalAll() == oneThread)
  }

  test("EvalConfig validation") {
    assertThrows[IllegalArgumentException] {
      EvalConfig(tiers, testDay = 5, valDays = Seq(9), trainWindow = 2)
    }
    assertThrows[IllegalArgumentException] {
      EvalConfig(tiers, testDay = 11, valDays = Seq.empty, trainWindow = 2)
    }
    assertThrows[IllegalArgumentException] {
      EvalConfig(tiers, testDay = 11, valDays = Seq(9), trainWindow = 20)
    }
    // HA(8) on validation day 5 would read days −3 until 5
    val window = intercept[IllegalArgumentException] {
      EvalConfig(tiers, testDay = 11, valDays = Seq(5), trainWindow = 2)
    }
    assert(window.getMessage.contains("validation day 5") && window.getMessage.contains("HA(8)"),
      window.getMessage)
  }
}
