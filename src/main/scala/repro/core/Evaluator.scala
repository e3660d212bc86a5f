package repro.core

import repro.data.{CityConfig, CountCube}
import repro.model.ModelTier

import java.util.stream.IntStream
import scala.collection.mutable

/** Errors of one (grid size, time slot) configuration, summed over all
  * grids (paper §V-B: all reported errors are totals over grids).
  */
final case class SlotEval(
    slot: Int,
    exprErr: Double,
    modelErr: Map[String, Double],
    realErr: Map[String, Double],
) {
  /** Upper bound e(√n) = Σ E_m + Σ E_e (Theorem II.1 / Algorithm 3). */
  def upper(model: String): Double = exprErr + modelErr(model)
}

/** Evaluation protocol shared by all experiments. The HGrid lattice (√N)
  * is the count cube's: every error is measured on it, so errors are
  * comparable across n.
  *
  * @param models      prediction tiers to evaluate
  * @param testDay     held-out day for real error
  * @param valDays     days whose predictions estimate MAE(f) (Eq. 20);
  *                    each needs k earlier days for every HA(k) tier
  * @param trainWindow α_ij estimation window (days before testDay)
  * @param computeReal also compute test-day real error (off for search
  *                    benchmarks — searches only need the upper bound)
  */
final case class EvalConfig(
    models: Seq[ModelTier],
    testDay: Int,
    valDays: Seq[Int],
    trainWindow: Int = 28,
    computeReal: Boolean = true,
) {
  require(valDays.nonEmpty && valDays.forall(d => d > 0 && d <= testDay))
  require(testDay - trainWindow >= 0, "train window precedes day 0")
  for (d <- valDays; mt <- models)
    require(d >= mt.k, s"validation day $d has no full HA(${mt.k}) window for ${mt.name}")
}

/** Upper-bound evaluator (paper Algorithm 3), memoized per grid size.
  *
  * Reads the city's [[CountCube]], built once per city; nothing here runs
  * a Spark job. The α surface and the test day's HGrid counts are read
  * once per evaluator, when it is built. Each new grid size then costs
  * plain array arithmetic over the cube: MGrid window sums, the tiers'
  * HA(k) predictions ([[ModelTier.predict]]), Eq. 20 model error, test-day
  * real error and the expression-error kernel, in one parallel pass over
  * the slots. Search algorithms pay one evaluation per *distinct* grid
  * size they visit, the cost unit of the paper's Table IV.
  */
final class Evaluator(cube: CountCube, val cfg: EvalConfig) {
  require(cfg.testDay < cube.days,
    s"testDay ${cfg.testDay} is outside the count cube's days 0 until ${cube.days}")

  private val cache = mutable.Map.empty[Int, Map[Int, SlotEval]]

  def evalCount: Int = cache.size

  /** All-slot evaluation of one grid size (memoized): exactly the keys
    * 0 until [[CityConfig.Slots]].
    */
  def apply(nSide: Int): Map[Int, SlotEval] = cache.getOrElseUpdate(nSide, compute(nSide))

  /** Objective e(√n) for one (slot, model) — what the searches minimize. */
  def objective(slot: Int, model: ModelTier): Int => Double =
    nSide => apply(nSide)(slot).upper(model.name)

  /** Drop the memo. */
  def close(): Unit = cache.clear()

  /** α_ij over the train window, per slot (n-independent). */
  private val alpha = cube.alpha(cfg.testDay - cfg.trainWindow, cfg.testDay)

  /** The test day's count per slot and HGrid (a one-day α), read by real
    * error (n-independent).
    */
  private val testCounts =
    if (cfg.computeReal) cube.alpha(cfg.testDay, cfg.testDay + 1) else Array.empty[Array[Double]]

  /** One parallel pass over the slots (the JDK's common pool); each slot
    * task computes everything of its own slot, and the tasks share one
    * expression-error [[ExpressionError.Memo]].
    */
  private def compute(nSide: Int): Map[Int, SlotEval] = {
    val spec = GridSpec(nSide, cube.side)
    val memo = new ExpressionError.Memo
    val out = new Array[SlotEval](CityConfig.Slots)
    IntStream.range(0, CityConfig.Slots).parallel().forEach(s => out(s) = evalSlot(spec, s, memo))
    out.iterator.map(e => e.slot -> e).toMap
  }

  /** HA(k) predictions, model error (Eq. 20), test-day real error and
    * expression error of one slot; every MGrid count is a window sum of
    * the cube.
    */
  private def evalSlot(spec: GridSpec, s: Int, memo: ExpressionError.Memo): SlotEval = {
    val window = (from: Int, until: Int) => cube.windowSums(spec, from, until, s)
    val actuals = cfg.valDays.map(d => window(d, d + 1))
    // model error (Eq. 20): mean over valDays of Σ_i |λ̂_i − λ_i|
    val modelErr = cfg.models.map { mt =>
      mt.name -> cfg.valDays.zip(actuals).map { case (d, act) =>
        val pred = mt.predict(window, d)
        var e = 0.0
        var i = 0
        while (i < spec.n) { e += math.abs(pred(i) - act(i)); i += 1 }
        e
      }.sum / cfg.valDays.size
    }.toMap
    val realErr = cfg.models.map { mt =>
      mt.name -> (if (!cfg.computeReal) 0.0
        else testDayRealErr(spec, testCounts(s), mt.predict(window, cfg.testDay)))
    }.toMap
    SlotEval(s, ExpressionError.slotTotal(alpha(s), spec, memo), modelErr, realErr)
  }

  /** Test-day real error of one slot, Σ_ij |λ̂_i/m_i − λ_ij| over every
    * HGrid, empty ones included, with λ̂_i/m_i divided once per MGrid.
    */
  private def testDayRealErr(spec: GridSpec, counts: Array[Double], pred: Array[Double]): Double = {
    val m = spec.cellsPerM
    val perHGrid = Array.tabulate(spec.n)(i => pred(i) / m(i))
    val mg = spec.mgridOf
    var e = 0.0
    var h = 0
    while (h < counts.length) { e += math.abs(perHGrid(mg(h)) - counts(h)); h += 1 }
    e
  }
}
