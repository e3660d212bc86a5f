package ogssbench

import org.apache.spark.{SparkContext, Success}
import org.apache.spark.scheduler._

import java.io.{File, PrintWriter}
import scala.collection.mutable

/** One timed call into a layer. `parent` is the id of the enclosing span
  * (0 at the root); every span of one process shares `run`.
  */
final case class Span(id: Int, name: String, start: Long, end: Long, parent: Int, run: String) {
  def seconds: Double = (end - start) / 1e9
  /** Layer = span name up to the first '.' (`Evaluator.apply` → `Evaluator`). */
  def layer: String = name.takeWhile(_ != '.')
}

/** Span recorder around the benchmark's own calls into each layer.
  *
  * Timed runs use [[Tracer.off]], which only evaluates the body. A traced
  * run keeps spans in memory, tags every Spark job submitted inside a span
  * with that span's id (a SparkContext local property read back by
  * [[LayerListener]]), and writes the spans out at exit.
  */
class Tracer(val run: String) {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var stack: List[Int] = Nil
  private var nextId = 1
  private var sc: Option[SparkContext] = None
  /** Nanoseconds spent in span bookkeeping (the listener keeps its own). */
  private[ogssbench] var selfNanos = 0L

  def enabled: Boolean = true
  def attach(context: SparkContext): Unit = sc = Some(context)

  def span[A](name: String)(body: => A): A = {
    val t0 = System.nanoTime()
    val id = nextId
    nextId += 1
    val parent = stack.headOption.getOrElse(0)
    stack = id :: stack
    sc.foreach(_.setLocalProperty(Tracer.SpanKey, id.toString))
    val start = System.nanoTime()
    selfNanos += start - t0
    try body
    finally {
      val end = System.nanoTime()
      stack = stack.tail
      sc.foreach(_.setLocalProperty(Tracer.SpanKey, stack.headOption.map(_.toString).orNull))
      spans += Span(id, name, start, end, parent, run)
      selfNanos += System.nanoTime() - end
    }
  }

  def all: Seq[Span] = spans.toSeq
  def named(name: String): Seq[Span] = spans.filter(_.name == name).toSeq
  def seconds(name: String): Double = named(name).map(_.seconds).sum

  /** Span duration minus the part of it that its direct children cover. */
  def selfSeconds(s: Span): Double =
    s.seconds - spans.filter(_.parent == s.id).map(_.seconds).sum

  def write(file: File): Unit = {
    val w = new PrintWriter(file, "UTF-8")
    try spans.sortBy(_.start).foreach { s =>
      w.println(Json.obj(
        "run" -> Json.str(s.run), "id" -> s.id.toString, "parent" -> s.parent.toString,
        "name" -> Json.str(s.name), "start_ns" -> s.start.toString, "end_ns" -> s.end.toString))
    } finally w.close()
  }
}

object Tracer {
  val SpanKey = "ogssbench.span"

  /** Tracing off: spans cost one by-name call. */
  val off: Tracer = new Tracer("off") {
    override def enabled: Boolean = false
    override def attach(context: SparkContext): Unit = ()
    override def span[A](name: String)(body: => A): A = body
  }
}

/** Per-span Spark totals collected by [[LayerListener]]. */
final class SparkTotals {
  var jobs = 0
  var tasks = 0
  var failedTasks = 0
  var taskNanos = 0L
  var shuffleBytes = 0L
  /** Task durations (ms) per stage, for the skew ratio. */
  val stageTaskMs: mutable.Map[Int, mutable.ArrayBuffer[Long]] = mutable.Map.empty
}

/** SparkListener that charges jobs, tasks, task time, shuffle writes and
  * per-stage task durations to the span whose id the job carries.
  * Attribution rides on the job's properties, so it stays right however far
  * behind the listener bus runs; [[drain]] waits for the bus to catch up.
  */
final class LayerListener extends SparkListener {
  private val stageSpan = mutable.Map.empty[Int, Int]
  private val jobSpan = mutable.Map.empty[Int, Int]
  private val totals = mutable.Map.empty[Int, SparkTotals]
  private val ended = mutable.Set.empty[Int]
  @volatile private var nanos = 0L

  private def timed(f: => Unit): Unit = synchronized {
    val t0 = System.nanoTime()
    f
    nanos += System.nanoTime() - t0
  }

  private def of(span: Int): SparkTotals = totals.getOrElseUpdate(span, new SparkTotals)

  override def onJobStart(e: SparkListenerJobStart): Unit = timed {
    val span = Option(e.properties).flatMap(p => Option(p.getProperty(Tracer.SpanKey)))
      .map(_.toInt).getOrElse(0)
    jobSpan(e.jobId) = span
    e.stageIds.foreach(stageSpan(_) = span)
    of(span).jobs += 1
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = timed { ended += e.jobId }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = timed {
    val t = of(stageSpan.getOrElse(e.stageId, 0))
    t.tasks += 1
    if (e.reason != Success) t.failedTasks += 1
    val m = e.taskMetrics
    if (m != null) {
      t.taskNanos += m.executorRunTime * 1000000L
      t.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
    }
    t.stageTaskMs.getOrElseUpdate(e.stageId, mutable.ArrayBuffer.empty) += e.taskInfo.duration
  }

  /** Nanoseconds spent inside this listener's callbacks. */
  def overheadNanos: Long = nanos

  /** Totals of the given spans, merged. */
  def sum(spanIds: Iterable[Int]): SparkTotals = synchronized {
    val out = new SparkTotals
    spanIds.flatMap(totals.get).foreach { t =>
      out.jobs += t.jobs; out.tasks += t.tasks; out.failedTasks += t.failedTasks
      out.taskNanos += t.taskNanos; out.shuffleBytes += t.shuffleBytes
      t.stageTaskMs.foreach { case (k, v) => out.stageTaskMs(k) = v }
    }
    out
  }

  /** Run a one-task fence job and wait until the listener has seen it end:
    * the bus delivers in order, so every earlier event has been handled.
    */
  def drain(sc: SparkContext, timeoutMs: Long = 60000): Unit = {
    sc.setLocalProperty(Tracer.SpanKey, "-1")
    sc.parallelize(Seq(1), 1).count()
    sc.setLocalProperty(Tracer.SpanKey, null)
    val deadline = System.currentTimeMillis() + timeoutMs
    def fenced = synchronized(jobSpan.exists { case (j, s) => s == -1 && ended(j) })
    while (!fenced) {
      require(System.currentTimeMillis() < deadline, "Spark listener bus did not drain")
      Thread.sleep(10)
    }
  }
}

object SparkTotals {
  /** Worst slowest ÷ median task duration over stages with at least
    * `minTasks` tasks whose slowest task took at least `minMs`; 1 when no
    * stage qualifies.
    */
  def skewMax(t: SparkTotals, minTasks: Int, minMs: Long = 100): Double = {
    val ratios = t.stageTaskMs.values.collect {
      case d if d.size >= minTasks && d.max >= minMs =>
        d.max / math.max(1.0, Stats.median(d.map(_.toDouble).toSeq))
    }
    if (ratios.isEmpty) 1.0 else ratios.max
  }
}
