package bench

import repro.SparkSpec
import repro.data.CityConfig
import repro.exp.Experiments

/** Table III — "Promotion of the prediction-based algorithms": POLAR, LS
  * and DAIF on NYC with the DeepST-tier model, at the papers' default grid
  * sizes vs the grid size the Iterative Method finds for each algorithm's
  * own metric (served orders, revenue or unified cost, simulated at every
  * visited n). The printed optimal nSide is the upper-bound optimum
  * (Iterative Method on the day-aggregate e(√n)), reported beside the rows.
  *
  * Paper reference values (DeepST, NYC):
  *   POLAR Served Order Number  16² → 50²  +13.6 %
  *   POLAR Total Revenue        16² → 50²  +8.97 %
  *   LS    Total Revenue        20² → 16²  +0.13 %
  *   LS    Served Order Number  20² → 16²  +0.7 %
  *   DAIF  Unified Cost         16² → 12²  +0.76 %
  *   DAIF  Served Requests      20² → ...  +3.35 %
  */
class Table3Bench extends SparkSpec {

  private lazy val (optN, rows) = {
    val (n, r) = Experiments.table3(BenchData.env(spark, CityConfig.nyc))
    println(s"TABLE3 | optimal nSide found by GridTuner (Iterative, ha4): $n")
    println("TABLE3 | Metric | Algorithm | Original n | Optimal n | Original | Optimized | Improve ratio")
    r.foreach { p =>
      println(f"TABLE3 | ${p.metric}%-20s | ${p.algorithm}%-5s | ${p.originalNSide}x${p.originalNSide}%-3d | " +
        f"${p.optimalNSide}x${p.optimalNSide}%-3d | ${p.originalValue}%12.2f | ${p.optimalValue}%12.2f | ${p.improvePct}%6.2f%%")
    }
    (n, r)
  }

  test("GridTuner's optimum is a non-degenerate grid size") {
    assert(optN > 1 && optN <= 64, s"optN=$optN")
  }

  test("POLAR gains from the tuned grid size (paper: +13.6% orders)") {
    val p = rows.find(r => r.algorithm == "POLAR" && r.metric == "Served Order Number").get
    assert(p.improvePct > 0.0, s"POLAR improvement ${p.improvePct}%")
  }

  test("POLAR revenue moves with its served orders (paper: +8.97%)") {
    val p = rows.find(r => r.algorithm == "POLAR" && r.metric == "Total Revenue").get
    assert(p.improvePct > -1.0, s"POLAR revenue ${p.improvePct}%")
  }

  test("LS barely moves — its default 20² is already near-optimal (paper: +0.13/+0.7%)") {
    for (p <- rows.filter(_.algorithm == "LS")) {
      assert(math.abs(p.improvePct) < 5.0, s"LS ${p.metric}: ${p.improvePct}%")
    }
  }

  test("POLAR improves more than LS (paper's headline contrast)") {
    val polar = rows.find(r => r.algorithm == "POLAR" && r.metric == "Served Order Number").get
    val ls = rows.find(r => r.algorithm == "LS" && r.metric == "Served Order Number").get
    assert(polar.improvePct > ls.improvePct, s"POLAR=${polar.improvePct} LS=${ls.improvePct}")
  }

  test("DAIF gains are small but non-negative-ish (paper: +0.76/+3.35%)") {
    for (p <- rows.filter(_.algorithm == "DAIF")) {
      assert(p.improvePct > -5.0, s"DAIF ${p.metric}: ${p.improvePct}%")
    }
  }

  test("all metric values are positive and finite") {
    for (p <- rows) {
      assert(p.originalValue > 0 && p.optimalValue > 0)
      assert(p.improvePct.isFinite)
    }
  }
}
