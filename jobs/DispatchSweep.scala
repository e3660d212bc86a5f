package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.data.CityConfig
import repro.dispatch.Algorithms
import repro.exp.Experiments
import repro.model.Models

/** Case-study sweep (paper Figs. 6–9): dispatch metrics vs n, with model
  * predictions and with actual counts (model error 0).
  *
  * {{{ sbt "runMain repro.jobs.DispatchSweep nyc 4,8,12,16,24,32,48,64" }}}
  */
object DispatchSweep {
  def main(args: Array[String]): Unit = {
    val city = CityConfig.byName(args.headOption.getOrElse("nyc"))
    val nSides =
      if (args.length > 1) args(1).split(",").map(_.toInt).toSeq
      else Seq(4, 8, 12, 16, 24, 32, 48, 64)
    val spark = SparkSession.builder().master("local[*]")
      .appName("dispatch-sweep").config("spark.ui.enabled", false).getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    try {
      val env = Experiments.prepare(spark, city)
      val d = new Experiments.Dispatcher(env, Models.ha4)
      println("SWEEP | city | nSide | alg | served(pred) | revenue(pred) | served(actual) | unified(pred)")
      for (n <- nSides; alg <- Seq(Algorithms.Polar, Algorithms.Ls, Algorithms.Daif)) {
        val p = d.run(alg, n)
        val a = d.run(alg, n, useActuals = true)
        println(f"SWEEP | ${city.name}%-7s | $n%2d | ${alg.name}%-5s | ${p.served}%10.1f | ${p.revenue}%12.1f | " +
          f"${a.served}%10.1f | ${p.unifiedCost(Algorithms.DetourKm, Algorithms.PenaltyKm)}%8.4f")
      }
    } finally spark.stop()
  }
}
