package repro.exp

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.functions.col
import repro.SparkSpec
import repro.core.GridSpec
import repro.data.{CityConfig, GridCounts}
import repro.model.{ModelTier, Models}

import java.util.concurrent.{ConcurrentLinkedQueue, CountDownLatch, TimeUnit}
import scala.jdk.CollectionConverters._

/** `Experiments.prepare` and `Experiments.Dispatcher` on the toy city,
  * stretched to the experiments' 35 days so that day 34 (`TestDay`) exists.
  */
class DispatcherSpec extends SparkSpec {

  private lazy val env = Experiments.prepare(spark, CityConfig.toy.copy(days = 35))

  /** `body`'s result and the Spark jobs started while it ran. Listener
    * events arrive on their own thread, in order, so `body` is bracketed
    * by two marker jobs and only the jobs whose start arrived between the
    * markers' are counted.
    */
  private def withJobCount[A](body: => A): (A, Int) = {
    val sc = spark.sparkContext
    val starts = new ConcurrentLinkedQueue[String]
    val closed = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = {
        val desc = Option(e.properties).map(_.getProperty("spark.job.description")).orNull
        starts.add(String.valueOf(desc))
        if (desc == "close") closed.countDown()
      }
    }
    def marker(desc: String): Unit = {
      sc.setJobDescription(desc)
      try sc.parallelize(Seq(1), 1).count() finally sc.setJobDescription(null)
    }
    sc.addSparkListener(listener)
    try {
      marker("open")
      val result = body
      marker("close")
      assert(closed.await(60, TimeUnit.SECONDS), "the closing marker job never reached the listener")
      (result, starts.asScala.toSeq.dropWhile(_ != "open").drop(1).takeWhile(_ != "close").size)
    } finally sc.removeSparkListener(listener)
  }

  test("prepare, an evaluation and a dispatch start no Spark job") {
    val ((served, upper), jobs) = withJobCount {
      val env = Experiments.prepare(spark, CityConfig.toy.copy(days = 35))
      val upper = env.evaluator(Seq(Models.ha4), computeReal = true)(4)(37).upper(Models.ha4.name)
      (new Experiments.Dispatcher(env, Models.ha4).servedOneSlot(4, 37), upper)
    }
    assert(jobs == 0, s"$jobs Spark jobs")
    assert(served > 0 && upper > 0)
  }

  test("a second Dispatcher on the same Env starts no Spark job") {
    val env = Experiments.prepare(spark, CityConfig.toy.copy(days = 35))
    val slot = 37 // evening peak
    val first = new Experiments.Dispatcher(env, Models.ha4)
    val served = first.servedOneSlot(4, slot)
    assert(served > 0)
    val (again, jobs) = withJobCount {
      new Experiments.Dispatcher(env, Models.ha4).servedOneSlot(4, slot)
    }
    assert(jobs == 0, s"$jobs Spark jobs")
    assert(again == served)
  }

  test("preds are the model's mean of the test day's k earlier block sums, per slot") {
    val ha8 = ModelTier("ha8", 8)
    val d = new Experiments.Dispatcher(env, ha8)
    val spec = GridSpec(4, env.cube.side)
    val preds = d.preds(4)
    assert(preds.keySet == (0 until CityConfig.Slots).toSet)
    for (s <- 0 until CityConfig.Slots) {
      val days = Experiments.TestDay - ha8.k until Experiments.TestDay
      val want = Array.tabulate(spec.n)(i => days.map(env.cube.blockSums(spec, _, s)(i)).sum.toDouble / ha8.k)
      assert(preds(s).sameElements(want), s"slot $s")
    }
    assert(d.preds(4) eq preds)
  }

  test("actuals match the test-day counts") {
    val act = new Experiments.Dispatcher(env, Models.ha4).actuals(4)
    val direct = GridCounts.at(env.events, 4).where(col("day") === Experiments.TestDay)
      .select("slot", "cx", "cy", "cnt").collect()
      .map(r => (r.getInt(0), r.getInt(1) * 4 + r.getInt(2)) -> r.getLong(3).toDouble).toMap
    assert(direct.nonEmpty)
    for (s <- 0 until 48; i <- 0 until 16)
      assert(act(s)(i) == direct.getOrElse((s, i), 0.0), s"slot $s MGrid $i")
  }
}
