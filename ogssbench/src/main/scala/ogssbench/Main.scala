package ogssbench

import org.apache.spark.sql.SparkSession
import repro.core.{ExpressionError, GridSpec}
import repro.data.{CityConfig, GridCounts}
import repro.exp.Experiments
import repro.exp.Experiments.Env

import java.io.File
import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.Files
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** One benchmark run of one workload in this JVM.
  *
  * {{{
  * Main --workload ogss-xian --seed 0 --seconds 10 --trace 0 --out DIR [--reference DIR] [--record]
  * }}}
  *
  * `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
  * metrics of a traced run, which also writes spans and the search log
  * under `--out`. The last line of standard output is the JSON result.
  */
object Main {

  final case class Args(
      workload: Workload, seed: Long, seconds: Double, trace: Boolean,
      out: File, reference: Option[File], record: Boolean)

  val Cores: Int = Runtime.getRuntime.availableProcessors
  /** Two shuffle partitions per core. The bench suites' 64 made each
    * evaluation 2–3× slower on 4 cores, half of it in system time.
    */
  val Partitions: Int = 2 * Cores

  def parse(argv: Seq[String]): Args = {
    val record = argv.contains("--record")
    val kv = argv.filter(_ != "--record").grouped(2).map {
      case Seq(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    Args(
      workload = Workload.byName(kv("workload")),
      seed = kv.getOrElse("seed", "0").toLong,
      seconds = kv.getOrElse("seconds", "10").toDouble,
      trace = kv.getOrElse("trace", "0") == "1",
      out = new File(kv.getOrElse("out", "ogssbench/out")),
      reference = kv.get("reference").map(new File(_)),
      record = record)
  }

  def session(): SparkSession =
    SparkSession.builder()
      .master(s"local[$Cores]")
      .appName("ogssbench")
      .config("spark.sql.shuffle.partitions", Partitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .getOrCreate()

  def main(argv: Array[String]): Unit = {
    val a = parse(argv.toSeq)
    a.out.mkdirs()
    val city = a.workload.city(a.seed)
    val ref =
      if (a.record || a.reference.isEmpty) None
      else Some(referenceFile(a)).filter(_.isFile)
        .map(f => Json.parse(read(f)).asInstanceOf[Map[String, Any]])
    println(s"workload ${a.workload.name}: ${city.name} seed ${city.seed}, " +
      s"${city.dailyOrders} orders/day, local[$Cores], $Partitions shuffle partitions, " +
      s"reference ${if (ref.isDefined) "checked" else "not checked"}")
    val result = if (a.trace) traced(a, city, ref) else timed(a, city, ref)
    println(result)
  }

  private def read(f: File): String = new String(Files.readAllBytes(f.toPath), StandardCharsets.UTF_8)
  private def write(f: File, lines: Seq[String]): Unit =
    Files.write(f.toPath, lines.asJava, StandardCharsets.UTF_8)

  private def resultLine(o: Outcome, metrics: Seq[(String, Double, String)]): String = {
    o.problems.foreach(p => println(s"check failed: $p"))
    metrics.foreach { case (k, v, u) => println(f"$k%-34s $v%14.6f $u") }
    Json.obj(
      "correct" -> (o.failed == 0 && o.problems.isEmpty).toString,
      "attempted" -> o.ops.toString,
      "failed" -> o.failed.toString,
      "metrics" -> Json.obj(metrics.map { case (k, v, u) =>
        k -> Json.obj("value" -> Json.num(v), "unit" -> Json.str(u))
      }: _*))
  }

  /** The reference file of this run's seed. */
  private def referenceFile(a: Args): File =
    new File(a.reference.getOrElse(sys.error("--record needs --reference")), s"seed-${a.seed}.json")

  private def record(a: Args, o: Outcome): Unit =
    if (a.record) {
      require(o.failed == 0 && o.problems.isEmpty, "refusing to record a failing run")
      val f = referenceFile(a)
      f.getParentFile.mkdirs()
      write(f, Seq(o.reference))
      println(s"recorded $f")
    }

  /** End-to-end run, tracing off: one set-up in this fresh JVM, then passes
    * on fresh evaluator state until `--seconds`, with the host probed just
    * before and after them.
    */
  private def timed(a: Args, city: CityConfig, ref: Option[Map[String, Any]]): String = {
    val ((spark, env), setupS) = Stats.seconds {
      val spark = session()
      (spark, Experiments.prepare(spark, city))
    }
    val (passes, probe) = HostProbe.around(Cores) {
      val done = mutable.ArrayBuffer.empty[(Outcome, Double)]
      while (done.isEmpty || done.map(_._2).sum < a.seconds) {
        if (done.nonEmpty) { // fresh state: only the events stay cached
          spark.catalog.clearCache()
          env.events.cache().count()
        }
        done += Stats.seconds(a.workload.pass(env, Tracer.off, ref))
      }
      done.toSeq
    }
    val o = passes.head._1
    val runS = Stats.median(passes.map(_._2))
    val cachedMb = spark.sparkContext.getRDDStorageInfo.map(_.memSize).sum / 1e6
    record(a, o)
    val bad = passes.tail.map(_._1).filter(p => p.failed != o.failed || p.reference != o.reference)
    val merged = if (bad.isEmpty) o else o.copy(problems = o.problems :+ "passes disagree")
    println(s"passes ${passes.map(p => f"${p._2}%.3f").mkString(" ")} s; " + f"host probe $probe%.4f s")
    val line = resultLine(merged, Seq(
      ("setup_s", setupS, "s"),
      ("run_s", runS, "s"),
      ("run_rel", runS / probe, "ratio"),
      ("evals", o.evals.toDouble, "count"),
      ("cached_mb", cachedMb, "MB"),
      ("upper_sum", o.upperSum, "error"),
    ))
    spark.stop()
    line
  }

  /** Traced run: one set-up, one pass with spans and the listener, then the
    * layers below the evaluator timed on their own at each evaluated n.
    */
  private def traced(a: Args, city: CityConfig, ref: Option[Map[String, Any]]): String = {
    val t = new Tracer(s"${a.workload.name}-seed${a.seed}-${System.currentTimeMillis()}")
    val gc0 = gcSeconds()
    val spark = session()
    val listener = new LayerListener
    spark.sparkContext.addSparkListener(listener)
    t.attach(spark.sparkContext)
    val env = t.span("EventGen")(Experiments.prepare(spark, city))
    val events = env.events.count()
    val (o, probe) = HostProbe.around(Cores)(t.span("Experiments.run")(a.workload.pass(env, t, ref)))
    record(a, o)

    // Below the evaluator: counts, α and the kernel at each evaluated n, on
    // an uncached plan (Spark would reuse the evaluator's cached counts).
    o.release()
    val (counts, rows) = t.span("GridCounts.at") {
      val c = GridCounts.at(env.events, Experiments.NTargetSide).cache()
      (c, c.count())
    }
    val (alpha, alphaRows) = t.span("GridCounts.alpha") {
      val al = GridCounts.alpha(counts, Experiments.TestDay - Experiments.TrainWindow, Experiments.TestDay).cache()
      (al, al.count())
    }
    val kernel = o.evaluated.map { n =>
      val (slots, s) = t.span("ExpressionError.totalPerSlot") {
        Stats.seconds(ExpressionError.totalPerSlot(spark, alpha, GridSpec(n, Experiments.NTargetSide)).collect().length)
      }
      (n, s, slots)
    }
    alpha.unpersist(); counts.unpersist()
    listener.drain(spark.sparkContext)

    val spans = t.all
    val root = t.named("Experiments.run").head
    def subtree(id: Int): Seq[Int] = id +: spans.filter(_.parent == id).flatMap(s => subtree(s.id))
    val runIds = subtree(root.id)
    val runSpark = listener.sum(runIds)
    def layerSpark(layer: String) = listener.sum(spans.filter(_.layer == layer).map(_.id))
    val evalSpans = t.named("Evaluator.apply")
    val evalS = evalSpans.map(_.seconds)
    val exprS = kernel.map(_._2).sum
    val (maxN, maxS, _) = kernel.maxBy(_._2)
    val problems = kernel.collect { case (n, _, s) if s != Experiments.AllSlots.size =>
      s"expression error at nSide $n covers $s slots" }
    val overhead = (t.selfNanos + listener.overheadNanos) / 1e9
    val c = o.counters.withDefaultValue(0.0)

    t.write(new File(a.out, s"${a.workload.name}-seed${a.seed}-spans.jsonl"))
    write(new File(a.out, s"${a.workload.name}-seed${a.seed}-search.jsonl"), o.searchLog)

    val metrics = Seq(
      ("EventGen.s", t.seconds("EventGen"), "s"),
      ("EventGen.events", events.toDouble, "count"),
      ("GridCounts.counts_s", t.seconds("GridCounts.at"), "s"),
      ("GridCounts.alpha_s", t.seconds("GridCounts.alpha"), "s"),
      ("GridCounts.rows", rows.toDouble, "count"),
      ("GridCounts.alpha_rows", alphaRows.toDouble, "count"),
      ("ExpressionError.s", exprS, "s"),
      ("ExpressionError.s.max", maxS, "s"),
      ("ExpressionError.s.max_n", maxN.toDouble, "nSide"),
      ("ExpressionError.share", exprS / evalS.sum, "ratio"),
      ("Evaluator.s", evalS.sum, "s"),
      ("Evaluator.evals", evalS.size.toDouble, "count"),
      ("Evaluator.eval_s.p50", Stats.median(evalS), "s"),
      ("Evaluator.eval_s.count", evalS.size.toDouble, "count"),
      ("Evaluator.first_eval_s", evalS.head, "s"),
      ("Evaluator.jobs_per_eval", layerSpark("Evaluator").jobs.toDouble / evalS.size, "count"),
      ("Evaluator.slot_use_ratio", c("Evaluator.slot_use_ratio"), "ratio"),
      ("Search.calls", c("Search.calls"), "count"),
      ("Search.memo_hit_ratio", c("Search.memo_hit_ratio"), "ratio"),
      ("Search.evals_per_slot.p50", c("Search.evals_per_slot.p50"), "count"),
      ("Search.evals_per_slot.max", c("Search.evals_per_slot.max"), "count"),
      ("Dispatch.orders_s", t.seconds("Dispatch.orders"), "s"),
      ("Dispatch.preds_s", t.seconds("Dispatch.preds"), "s"),
      ("Dispatch.preds_calls", c("Dispatch.preds_calls"), "count"),
      ("Dispatch.sim_s", t.seconds("Dispatch.sim"), "s"),
      ("Dispatch.sims", c("Dispatch.sims"), "count"),
      ("Dispatch.served", c("Dispatch.served"), "orders"),
      ("Spark.jobs", runSpark.jobs.toDouble, "count"),
      ("Spark.tasks", runSpark.tasks.toDouble, "count"),
      ("Spark.task_s", runSpark.taskNanos / 1e9, "s"),
      ("Spark.busy_ratio", runSpark.taskNanos / 1e9 / (root.seconds * Cores), "ratio"),
      ("Spark.skew.max", SparkTotals.skewMax(runSpark, minTasks = Cores), "ratio"),
      ("Spark.shuffle_mb", runSpark.shuffleBytes / 1e6, "MB"),
      ("Spark.failed_tasks", runSpark.failedTasks.toDouble, "count"),
    ) ++ Seq("EventGen", "GridCounts", "ExpressionError", "Evaluator", "Dispatch").map { l =>
      (s"Spark.task_s.$l", layerSpark(l).taskNanos / 1e9, "s")
    } ++ Seq(
      ("JVM.gc_s", gcSeconds() - gc0, "s"),
      ("JVM.peak_rss_mb", peakRssMb(), "MB"),
      ("Host.probe_s", probe, "s"),
      ("Experiments.s", root.seconds, "s"),
      ("Experiments.self_s", t.selfSeconds(root), "s"),
      ("Trace.overhead_s", overhead, "s"),
    )
    val line = resultLine(o.copy(problems = o.problems ++ problems), metrics)
    spark.stop()
    line
  }

  private def gcSeconds(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum / 1e3

  /** Peak resident set (VmHWM) of this process, from /proc. */
  private def peakRssMb(): Double =
    scala.io.Source.fromFile("/proc/self/status").getLines()
      .collectFirst { case l if l.startsWith("VmHWM:") => l.split("\\s+")(1).toDouble / 1024 }
      .getOrElse(0.0)
}
