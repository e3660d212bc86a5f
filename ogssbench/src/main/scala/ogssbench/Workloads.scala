package ogssbench

import repro.core.{Search, SlotEval}
import repro.data.CityConfig
import repro.exp.Experiments
import repro.exp.Experiments.{AllSlots, Env, TrendRow}
import repro.model.{Models, ModelTier}

import scala.collection.mutable
import scala.util.control.NonFatal

/** What one pass of a workload produced, checked.
  *
  * @param ops        operations attempted (a slot's search, or a sweep row)
  * @param failed     operations that threw or failed an output check
  * @param evals      distinct UpperBound evaluations (Table IV's cost unit)
  * @param upperSum   Σ of the upper bound over the pass's results
  * @param problems   failed whole-pass checks (they make the run incorrect)
  * @param evaluated  grid sizes evaluated, in order
  * @param counters   per-layer counts the pass observed
  * @param searchLog  one JSON line per objective call of a search
  * @param reference  this pass's results, in the reference file's format
  * @param release    drops the evaluator state this pass cached
  */
final case class Outcome(
    ops: Int,
    failed: Int,
    evals: Int,
    upperSum: Double,
    problems: Seq[String],
    evaluated: Seq[Int],
    counters: Map[String, Double],
    searchLog: Seq[String],
    reference: String,
    release: () => Unit)

sealed trait Workload {
  def name: String
  protected def preset: CityConfig

  /** The preset city at [[Workload.Volume]] of its daily orders; `seed`
    * offsets the preset seed, so seed 0 is the preset city.
    */
  def city(seed: Long): CityConfig =
    preset.copy(seed = preset.seed + seed, dailyOrders = preset.dailyOrders * Workload.Volume)

  def pass(env: Env, t: Tracer, ref: Option[Map[String, Any]]): Outcome
}

object Workload {
  /** Share of each preset's daily order volume the workloads generate. */
  val Volume = 0.1

  val all: Seq[Workload] = Seq(OgssXian, SweepChengdu)

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $name (${all.map(_.name).mkString(", ")})"))

  /** Slots of one evaluation that are missing or hold a value that is not
    * finite and > 0 (a missing slot would read as e = 0 through the
    * evaluator's default).
    */
  def badSlots(r: Map[Int, SlotEval], models: Seq[ModelTier], real: Boolean): Set[Int] =
    AllSlots.filterNot { s =>
      r.keySet.contains(s) && {
        val e = r(s)
        val vs = e.exprErr +: models.flatMap { m =>
          Seq(e.modelErr(m.name), e.upper(m.name)) ++ (if (real) Seq(e.realErr(m.name)) else Nil)
        }
        vs.forall(v => !v.isNaN && !v.isInfinite && v > 0)
      }
    }.toSet

  def num(m: Map[String, Any], k: String): Double = m(k).asInstanceOf[Double]
  def list(m: Map[String, Any], k: String): Seq[Map[String, Any]] =
    m(k).asInstanceOf[Seq[Map[String, Any]]]
}

/** Iterative Method (Alg. 5) for each of the 48 slots on one HA(4)
  * evaluator without real error, then POLAR's served orders at each slot's
  * chosen grid size. Xi'an is the most even city: its optimum is small, so
  * the searches walk down to n = 1, where the expression-error kernel does
  * most of an evaluation's work.
  */
object OgssXian extends Workload {
  val name = "ogss-xian"
  protected val preset: CityConfig = CityConfig.xian
  private val Model = Models.ha4

  def pass(env: Env, t: Tracer, ref: Option[Map[String, Any]]): Outcome = {
    val ev = env.evaluator(Seq(Model), computeReal = false)
    val badAt = mutable.LinkedHashMap.empty[Int, Set[Int]] // evaluated n → failing slots
    val log = mutable.ArrayBuffer.empty[String]
    val refSlots = ref.map(r => Workload.list(r, "slots").map(m => Workload.num(m, "slot").toInt -> m).toMap)
    var calls = 0
    var memoHits = 0

    final case class SlotRun(n: Int, upper: Double, visited: Int, ok: Boolean)

    def searchSlot(s: Int): SlotRun = {
      val obj = ev.objective(s, Model)
      val visited = mutable.LinkedHashMap.empty[Int, Double]
      val f: Int => Double = n => {
        val hit = badAt.contains(n)
        val v = if (hit) obj(n) else t.span("Evaluator.apply")(obj(n))
        if (!hit) badAt(n) = Workload.badSlots(ev(n), Seq(Model), real = false)
        calls += 1
        if (hit) memoHits += 1
        visited(n) = v
        if (t.enabled) log += Json.obj("slot" -> s.toString, "step" -> visited.size.toString,
          "n" -> n.toString, "e" -> Json.num(v), "memo" -> hit.toString)
        v
      }
      val r = t.span("Search.iterative") {
        Search.iterative(f, Experiments.IterStart, Experiments.IterBound,
          Experiments.SearchLo, Experiments.SearchHi)
      }
      // Alg. 5 stops only when no probe within ±b improves, so the result
      // must be a local minimum over the clamped ±b neighbours it probed.
      val p = r.nSide
      val neighbours = (1 to Experiments.IterBound).flatMap(i => Seq(p - i, p + i))
        .map(q => math.max(Experiments.SearchLo, math.min(Experiments.SearchHi, q)))
        .filter(_ != p)
      val localMin = visited.contains(p) &&
        neighbours.forall(q => visited.get(q).exists(_ >= visited(p)))
      val ok = localMin && r.evals == visited.size && visited.keys.forall(n => !badAt(n)(s))
      SlotRun(p, visited.getOrElse(p, Double.NaN), visited.size, ok)
    }

    val runs: Map[Int, Option[SlotRun]] = AllSlots.map { s =>
      s -> (try Some(searchSlot(s)) catch { case NonFatal(_) => None })
    }.toMap
    val problems = mutable.ArrayBuffer.empty[String]
    if (ev.evalCount != badAt.size)
      problems += s"evaluator counted ${ev.evalCount} evaluations, the searches asked for ${badAt.size}"

    val chosen = runs.collect { case (s, Some(r)) => s -> r.n }
    val d = t.span("Dispatch.orders")(new Experiments.Dispatcher(env, Model))
    val sizes = chosen.values.toSeq.distinct.sorted
    sizes.foreach(n => t.span("Dispatch.preds")(d.preds(n)))
    val served: Map[Int, Double] = t.span("Dispatch.sim") {
      chosen.map { case (s, n) => s -> d.servedOneSlot(n, s) }
    }

    val slotOk = AllSlots.map { s =>
      s -> runs(s).exists { r =>
        val sv = served(s)
        r.ok && !sv.isNaN && !sv.isInfinite && sv > 0 && refSlots.forall { rs =>
          rs.get(s).exists(m => Workload.num(m, "n").toInt == r.n &&
            Stats.close(Workload.num(m, "upper"), r.upper) && Stats.close(Workload.num(m, "served"), sv))
        }
      }
    }.toMap

    val upperSum = runs.values.flatten.map(_.upper).sum
    val servedSum = served.values.sum
    ref.foreach { r =>
      if (!Stats.close(Workload.num(r, "upper_sum"), upperSum))
        problems += s"upper_sum $upperSum differs from the reference ${Workload.num(r, "upper_sum")}"
      if (!Stats.close(Workload.num(r, "served"), servedSum))
        problems += s"served $servedSum differs from the reference ${Workload.num(r, "served")}"
    }

    val perSlot = runs.values.flatten.map(_.visited.toDouble).toSeq
    val reference = Json.obj(
      "workload" -> Json.str(name),
      "upper_sum" -> Json.num(upperSum),
      "served" -> Json.num(servedSum),
      "slots" -> Json.arr(AllSlots.flatMap(s => runs(s).map { r =>
        Json.obj("slot" -> s.toString, "n" -> r.n.toString,
          "upper" -> Json.num(r.upper), "served" -> Json.num(served(s)))
      })))

    Outcome(
      ops = AllSlots.size,
      failed = slotOk.count(!_._2),
      evals = ev.evalCount,
      upperSum = upperSum,
      problems = problems.toSeq,
      evaluated = badAt.keys.toSeq,
      counters = Map(
        "Search.calls" -> calls.toDouble,
        "Search.memo_hit_ratio" -> (if (calls == 0) 0.0 else memoHits.toDouble / calls),
        "Search.evals_per_slot.p50" -> (if (perSlot.isEmpty) 0.0 else Stats.median(perSlot)),
        "Search.evals_per_slot.max" -> (if (perSlot.isEmpty) 0.0 else perSlot.max),
        "Evaluator.slot_use_ratio" -> perSlot.sum / (AllSlots.size * math.max(1, ev.evalCount)),
        "Dispatch.preds_calls" -> sizes.size.toDouble,
        "Dispatch.sims" -> served.size.toDouble,
        "Dispatch.served" -> servedSum),
      searchLog = log.toSeq,
      reference = reference,
      release = () => ev.close())
  }
}

/** The trend sweep on Chengdu: all three model tiers with real error at a
  * fixed set of grid sizes, summed per (nSide, model) row as
  * `Experiments.trend` does. The benchmark drives the evaluator itself, so
  * that each evaluation is checked for all 48 slots and, when traced, timed
  * on its own. No search and no dispatch; instead the real-error joins and
  * the three-model aggregation both OGSS paths skip.
  */
object SweepChengdu extends Workload {
  val name = "sweep-chengdu"
  protected val preset: CityConfig = CityConfig.chengdu
  val NSides: Seq[Int] = Seq(2, 4, 8, 16, 32)
  /** Real error may exceed the summed upper bound only by this factor: the
    * bound's model error comes from validation days, real error from the
    * test day (the same slack `TrendBench` allows).
    */
  val RealSlack = 1.05

  def pass(env: Env, t: Tracer, ref: Option[Map[String, Any]]): Outcome = {
    val ev = env.evaluator(Models.all, computeReal = true)
    val badN = mutable.Map.empty[Int, Set[Int]] // evaluated n → failing slots
    val rows: Seq[TrendRow] = for {
      n <- NSides
      r = t.span("Evaluator.apply")(ev(n))
      _ = badN += n -> Workload.badSlots(r, Models.all, real = true)
      mt <- Models.all
    } yield TrendRow(env.city.name, mt.name, n,
      AllSlots.map(s => r(s).exprErr).sum,
      AllSlots.map(s => r(s).modelErr(mt.name)).sum,
      AllSlots.map(s => r(s).upper(mt.name)).sum,
      AllSlots.map(s => r(s).realErr(mt.name)).sum)

    val refRows = ref.map(r => Workload.list(r, "rows").map(m =>
      (Workload.num(m, "nSide").toInt, m("model").asInstanceOf[String]) -> m).toMap)
    def rowOk(r: TrendRow): Boolean = {
      val vs = Seq(r.exprErr, r.modelErr, r.upper, r.realErr)
      vs.forall(v => !v.isNaN && !v.isInfinite && v > 0) &&
        r.realErr <= RealSlack * r.upper &&
        badN(r.nSide).isEmpty &&
        refRows.forall(_.get((r.nSide, r.model)).exists { m =>
          Stats.close(Workload.num(m, "expr"), r.exprErr) &&
            Stats.close(Workload.num(m, "model_err"), r.modelErr) &&
            Stats.close(Workload.num(m, "upper"), r.upper) &&
            Stats.close(Workload.num(m, "real"), r.realErr)
        })
    }
    val expected = for (n <- NSides; m <- Models.all) yield (n, m.name)
    val problems =
      if (rows.map(r => (r.nSide, r.model)) == expected) Nil
      else Seq(s"trend returned rows ${rows.map(r => (r.nSide, r.model))}, expected $expected")
    val upperSum = rows.map(_.upper).sum
    val reference = Json.obj(
      "workload" -> Json.str(name),
      "rows" -> Json.arr(rows.map(r => Json.obj(
        "nSide" -> r.nSide.toString, "model" -> Json.str(r.model),
        "expr" -> Json.num(r.exprErr), "model_err" -> Json.num(r.modelErr),
        "upper" -> Json.num(r.upper), "real" -> Json.num(r.realErr)))))

    Outcome(
      ops = expected.size,
      failed = expected.size - rows.count(rowOk),
      evals = ev.evalCount,
      upperSum = upperSum,
      problems = problems,
      evaluated = NSides,
      counters = Map("Evaluator.slot_use_ratio" -> 1.0),
      searchLog = Nil,
      reference = reference,
      release = () => ev.close())
  }
}
