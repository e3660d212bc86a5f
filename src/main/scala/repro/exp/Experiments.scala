package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.data.{CityConfig, CountCube, EventGen}
import repro.dispatch.{Algorithms, SimResult}
import repro.model.{Models, ModelTier}

import scala.collection.mutable

/** The paper's evaluation experiments (§V), shared by the `bench/` suites
  * and the `jobs/` spark-submit entrypoints.
  *
  * Protocol (DESIGN.md §4): 35 days per city, α/training window = 28 days,
  * validation days 29–33 estimate MAE(f), day 34 is held out for real
  * error and dispatching; N = 64² (scaled from the paper's 128²);
  * searches cover √n ∈ [SearchLo, SearchHi] = [1, 32].
  */
object Experiments {

  val NTargetSide = 64
  val TestDay = 34
  val ValDays: Seq[Int] = Seq(29, 30, 31, 32, 33)
  val TrainWindow = 28
  val AllSlots: Seq[Int] = 0 until CityConfig.Slots
  val SearchLo = 1
  /** Largest √n searched. The paper sweeps √n ≤ 76 of √N = 128 so every
    * MGrid keeps m ≥ 4 HGrids; √n ≤ 32 of 64 is the same constraint (and
    * avoids the degenerate m = 1 cliff where expression error is 0 by
    * definition).
    */
  val SearchHi: Int = NTargetSide / 2
  /** Paper Alg. 5 defaults: start at 16×16 (the 2km×2km convention), b=4. */
  val IterStart = 16
  val IterBound = 4

  /** One prepared city: its count cube, an evaluator factory, and the
    * inputs that only some experiments read, made on first use.
    *
    * @param cube the city's HGrid counts, shared by every evaluator and
    *             dispatcher of the city
    */
  final class Env(val spark: SparkSession, val city: CityConfig, val cube: CountCube) {
    /** The city's whole event stream as an uncached Spark DataFrame, for
      * the places that need point events (tests, layer timings); no
      * experiment reads it.
      */
    lazy val events: DataFrame = EventGen.eventsDf(spark, city)

    /** The test day's orders per slot on the HGrid lattice, drawn on first
      * use and shared by every dispatcher of the city.
      */
    lazy val orders: Map[Int, Array[(Int, Double)]] = Algorithms.orders(city, TestDay, cube.side)

    def evaluator(models: Seq[ModelTier], computeReal: Boolean): Evaluator =
      new Evaluator(cube, EvalConfig(models, TestDay, ValDays, TrainWindow, computeReal))
  }

  /** Set-up of one city: its count cube, drawn on the driver (no Spark job). */
  def prepare(spark: SparkSession, city: CityConfig): Env =
    new Env(spark, city, CountCube.generate(city, NTargetSide))

  /** Day-aggregate objective: Σ_slots e(√n) for one model. */
  def sumObjective(ev: Evaluator, model: ModelTier): Int => Double =
    n => { val r = ev(n); AllSlots.map(s => r(s).upper(model.name)).sum }

  // ----------------------------------------------------------------- trend

  /** One point of the Fig. 3–5 sweep (errors summed over all slots). */
  final case class TrendRow(
      city: String, model: String, nSide: Int,
      exprErr: Double, modelErr: Double, upper: Double, realErr: Double)

  /** Sweep n for every model tier (reproduces the shapes behind Fig. 3–5,
    * which Tables III/IV rely on).
    */
  def trend(env: Env, nSides: Seq[Int], models: Seq[ModelTier] = Models.all): Seq[TrendRow] = {
    val ev = env.evaluator(models, computeReal = true)
    for {
      n <- nSides
      r = ev(n)
      expr = AllSlots.map(s => r(s).exprErr).sum
      mt <- models
    } yield TrendRow(
      env.city.name, mt.name, n,
      expr,
      AllSlots.map(s => r(s).modelErr(mt.name)).sum,
      AllSlots.map(s => r(s).upper(mt.name)).sum,
      AllSlots.map(s => r(s).realErr(mt.name)).sum)
  }

  // ------------------------------------------------------------- dispatch

  /** Memoizing dispatch runner: simulates an algorithm at a grid size over
    * any slot subset of the city's test-day orders ([[Env.orders]], read on
    * construction). Its demand per slot is a window sum of the count cube:
    * the model's HA(k) prediction of [[TestDay]], or that day's MGrid
    * counts. The per-`nSide` demand and [[GridSpec]]s are cached.
    */
  final class Dispatcher(env: Env, model: ModelTier) {
    private val orders = env.orders
    private val predCache = mutable.Map.empty[Int, Map[Int, Array[Double]]]
    private val actCache = mutable.Map.empty[Int, Map[Int, Array[Double]]]
    private val specs = mutable.Map.empty[Int, GridSpec]

    private def grid(nSide: Int): GridSpec = specs.getOrElseUpdate(nSide, GridSpec(nSide, env.cube.side))

    /** Test-day predictions per slot, dense per MGrid (index mcx·nSide + mcy). */
    def preds(nSide: Int): Map[Int, Array[Double]] = predCache.getOrElseUpdate(nSide, {
      val g = grid(nSide)
      AllSlots.map { s =>
        s -> model.predict((from, until) => env.cube.windowSums(g, from, until, s), TestDay)
      }.toMap
    })

    /** Test-day actual counts per slot: the paper's "using real order data"
      * variant, with model error zero by construction.
      */
    def actuals(nSide: Int): Map[Int, Array[Double]] = actCache.getOrElseUpdate(nSide, {
      val g = grid(nSide)
      AllSlots.map(s => s -> env.cube.blockSums(g, TestDay, s).map(_.toDouble)).toMap
    })

    def run(spec: Algorithms.Spec, nSide: Int, slots: Seq[Int] = AllSlots,
            useActuals: Boolean = false): SimResult = {
      val p = if (useActuals) actuals(nSide) else preds(nSide)
      Algorithms.runSlots(spec, env.city, grid(nSide), orders, p, slots)
    }

    def servedOneSlot(nSide: Int, slot: Int): Double = run(Algorithms.Polar, nSide, Seq(slot)).served
  }

  // ------------------------------------------------------------- Table III

  final case class PromotionRow(
      metric: String, algorithm: String, originalNSide: Int, optimalNSide: Int,
      originalValue: Double, optimalValue: Double, improvePct: Double)

  /** Table III: improvement of POLAR / LS / DAIF when moving from the
    * papers' default grid sizes to the grid size GridTuner's Iterative
    * Method finds for *each algorithm's own objective* (served orders /
    * revenue / unified cost). The paper's Table III reports a different
    * optimum per algorithm (50² POLAR, 16² LS, 12² DAIF), which is only
    * possible when the tuned objective is algorithm-specific; the
    * upper-bound-based optimum (the Tables-IV objective) is returned
    * alongside for reference.
    */
  def table3(env: Env, model: ModelTier = Models.ha4): (Int, Seq[PromotionRow]) = {
    val ev = env.evaluator(Seq(model), computeReal = false)
    val upperOptN = Search
      .iterative(sumObjective(ev, model), IterStart, IterBound, SearchLo, SearchHi)
      .nSide
    val d = new Dispatcher(env, model)

    def row(metric: String, spec: Algorithms.Spec, origN: Int,
            value: SimResult => Double, lowerIsBetter: Boolean = false): PromotionRow = {
      val cache = mutable.Map.empty[Int, Double]
      def metricAt(n: Int): Double = cache.getOrElseUpdate(n, value(d.run(spec, n)))
      val obj: Int => Double = n => if (lowerIsBetter) metricAt(n) else -metricAt(n)
      val optN = Search.iterative(obj, IterStart, IterBound, SearchLo, SearchHi).nSide
      val vOrig = metricAt(origN)
      val vOpt = metricAt(optN)
      val imp =
        if (lowerIsBetter) (vOrig - vOpt) / vOrig * 100.0
        else (vOpt - vOrig) / vOrig * 100.0
      PromotionRow(metric, spec.name, origN, optN, vOrig, vOpt, imp)
    }

    val uc = (r: SimResult) => r.unifiedCost(Algorithms.DetourKm, Algorithms.PenaltyKm)
    val rows = Seq(
      row("Served Order Number", Algorithms.Polar, 16, _.served),
      row("Total Revenue", Algorithms.Polar, 16, _.revenue),
      row("Total Revenue", Algorithms.Ls, 20, _.revenue),
      row("Served Order Number", Algorithms.Ls, 20, _.served),
      row("Unified Cost", Algorithms.Daif, 16, uc, lowerIsBetter = true),
      row("Served Requests", Algorithms.Daif, 20, _.served),
    )
    (upperOptN, rows)
  }

  // ------------------------------------------------------------- Table IV

  final case class SearchRow(
      city: String, algorithm: String, costSec: Double, evals: Int,
      probabilityPct: Double, optimalRatioPct: Double)

  /** Table IV: Ternary Search and Iterative Method vs Brute-force Search.
    *
    * Per slot, each algorithm minimizes e(√n); *probability* is the share
    * of the 48 slots where it returns that slot's brute-force optimum;
    * *OR* is (POLAR orders served at the found n) / (at the optimal n),
    * summed over slots — the paper's optimal ratio. [[prepare]] built the
    * city's count cube before any timing. An algorithm's cost is the median
    * wall time of 3 runs of its own evaluations, each on a fresh evaluator
    * (an empty memo), so that one noisy run cannot decide it.
    */
  def table4(env: Env, model: ModelTier = Models.ha4): Seq[SearchRow] = {
    def runAlg(search: (Int => Double) => Search.Result): (Map[Int, Int], Double, Int) = {
      val runs = Seq.fill(3) {
        val ev = env.evaluator(Seq(model), computeReal = false)
        val t0 = System.nanoTime()
        val found = AllSlots.map(s => s -> search(ev.objective(s, model)).nSide).toMap
        (found, (System.nanoTime() - t0) / 1e9, ev.evalCount)
      }
      runs.head.copy(_2 = runs.map(_._2).sorted.apply(1))
    }

    val (bruteN, bruteSec, bruteEvals) = runAlg(f => Search.bruteForce(f, SearchLo, SearchHi))
    val (ternN, ternSec, ternEvals) = runAlg(f => Search.ternary(f, SearchLo, SearchHi))
    val (iterN, iterSec, iterEvals) =
      runAlg(f => Search.iterative(f, IterStart, IterBound, SearchLo, SearchHi))

    val d = new Dispatcher(env, model)
    def servedTotal(assign: Map[Int, Int]): Double =
      AllSlots.map(s => d.servedOneSlot(assign(s), s)).sum
    val oR = servedTotal(bruteN)

    def mk(name: String, found: Map[Int, Int], sec: Double, evals: Int): SearchRow = {
      val prob = AllSlots.count(s => found(s) == bruteN(s)).toDouble / AllSlots.size * 100
      val or = servedTotal(found) / oR * 100
      SearchRow(env.city.name, name, sec, evals, prob, or)
    }

    Seq(
      mk("Ternary Search", ternN, ternSec, ternEvals),
      mk("Iterative Method", iterN, iterSec, iterEvals),
      mk("Brute-force Search", bruteN, bruteSec, bruteEvals),
    )
  }
}
