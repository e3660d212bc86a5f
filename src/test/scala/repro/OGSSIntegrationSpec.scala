package repro

import repro.core.{Evaluator, EvalConfig, GridSpec, Search}
import repro.data.{CityConfig, EventGen}
import repro.dispatch.Algorithms
import repro.model.ModelTier

/** End-to-end OGSS on the toy city: searches over the real upper-bound
  * objective, plus dispatch plumbed from the model's test-day predictions.
  */
class OGSSIntegrationSpec extends SparkSpec {

  private lazy val toy = CityConfig.toy
  private lazy val events = EventGen.eventsDf(spark, toy).cache()
  private val tiers = Seq(ModelTier("lastday", 1), ModelTier("ha8", 8))

  private lazy val cube = EventOracle.cube(events, 16, toy.days)
  private lazy val ev = new Evaluator(cube,
    EvalConfig(models = tiers, testDay = 11,
      valDays = Seq(9, 10), trainWindow = 8))

  /** Day 11's ha8 predictions and actual counts per slot at nSide 4. */
  private lazy val spec4 = GridSpec(4, 16)
  private lazy val preds: Map[Int, Array[Double]] =
    (0 until CityConfig.Slots).map { s =>
      s -> tiers(1).predict((from, until) => cube.windowSums(spec4, from, until, s), 11)
    }.toMap
  private lazy val actuals: Map[Int, Array[Double]] =
    (0 until CityConfig.Slots).map(s => s -> cube.blockSums(spec4, 11, s).map(_.toDouble)).toMap

  private val slot = 37 // evening peak

  test("brute force finds the minimum of the true objective") {
    val f = ev.objective(slot, tiers(1))
    val r = Search.bruteForce(f, 1, 16)
    assert(r.evals == 16)
    assert((1 to 16).forall(x => f(r.nSide) <= f(x)))
  }

  test("ternary and iterative land within 20% of the brute-force optimum") {
    val f = ev.objective(slot, tiers(1))
    val opt = Search.bruteForce(f, 1, 16)
    val ts = Search.ternary(f, 1, 16)
    val it = Search.iterative(f, p0 = 8, b = 3, lo = 1, hi = 16)
    assert(f(ts.nSide) <= 1.2 * f(opt.nSide), s"ternary ${ts.nSide} vs ${opt.nSide}")
    assert(f(it.nSide) <= 1.2 * f(opt.nSide), s"iterative ${it.nSide} vs ${opt.nSide}")
    assert(ts.evals <= 16 && it.evals <= 16)
  }

  test("searches share the evaluator's memo: far fewer pipelines than calls") {
    val calls = ev.evalCount
    Search.ternary(ev.objective(slot, tiers(0)), 1, 16)
    // ternary on a second model reuses every cached pipeline
    assert(ev.evalCount <= math.max(calls, 16))
  }

  test("more accurate model ⇒ at least as large an optimal n (paper §V-C)") {
    val fGood = ev.objective(slot, tiers(1))
    val fBad = ev.objective(slot, tiers(0))
    val optGood = Search.bruteForce(fGood, 1, 16).nSide
    val optBad = Search.bruteForce(fBad, 1, 16).nSide
    assert(optGood >= optBad, s"good=$optGood bad=$optBad")
    assert(optGood > 1, s"degenerate optimum $optGood")
  }

  test("dispatch end-to-end: predictions → simulation is conservative") {
    val fineSide = 16
    val orders = EventOracle.ordersBySlot(events, testDay = 11, fineSide)
    assert(orders.nonEmpty)
    val res = Algorithms.runSlots(Algorithms.Polar, toy, GridSpec(4, fineSide), orders, preds, orders.keys.toSeq)
    assert(res.demand > 0)
    assert(res.served <= res.demand + 1e-9)
    assert(res.served > 0)
    assert(math.abs(res.served + res.unserved - res.demand) < 1e-6)
  }

  test("dispatch with actual counts beats badly misallocated predictions") {
    val fineSide = 16
    val orders = EventOracle.ordersBySlot(events, testDay = 11, fineSide)
    val slots = orders.keys.toSeq
    // adversarial predictions: reverse the per-MGrid demand ranking
    val reversed = actuals.map { case (s, a) => s -> a.reverse }
    val good = Algorithms.runSlots(Algorithms.Polar, toy, GridSpec(4, fineSide), orders, actuals, slots)
    val bad = Algorithms.runSlots(Algorithms.Polar, toy, GridSpec(4, fineSide), orders, reversed, slots)
    assert(good.served > bad.served, s"good=${good.served} bad=${bad.served}")
  }

  test("LS revenue ≥ POLAR revenue under identical conditions") {
    val fineSide = 16
    val orders = EventOracle.ordersBySlot(events, testDay = 11, fineSide)
    val slots = orders.keys.toSeq
    val polar = Algorithms.runSlots(Algorithms.Polar, toy, GridSpec(4, fineSide), orders, preds, slots)
    val ls = Algorithms.runSlots(Algorithms.Ls, toy, GridSpec(4, fineSide), orders, preds, slots)
    assert(ls.revenue >= polar.revenue - 1e-6)
    assert(math.abs(ls.served - polar.served) < 1e-6) // same matching, different order
  }

  test("DAIF serves at least as many requests as POLAR (capacity 2)") {
    val fineSide = 16
    val orders = EventOracle.ordersBySlot(events, testDay = 11, fineSide)
    val slots = orders.keys.toSeq
    val polar = Algorithms.runSlots(Algorithms.Polar, toy, GridSpec(4, fineSide), orders, preds, slots)
    val daif = Algorithms.runSlots(Algorithms.Daif, toy, GridSpec(4, fineSide), orders, preds, slots)
    assert(daif.served >= polar.served - 1e-6)
  }
}
