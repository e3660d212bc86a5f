package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.data.CityConfig
import repro.exp.Experiments

/** Sweeps n and prints total expression/model/upper/real error per model —
  * the data behind the paper's Figures 3–5.
  *
  * {{{ spark-submit --class repro.jobs.RunTrend repro.jar [city|all] }}}
  */
object RunTrend {
  def main(args: Array[String]): Unit = {
    val cities = args.headOption.getOrElse("all") match {
      case "all" => CityConfig.benchCities
      case name => Seq(CityConfig.byName(name))
    }
    val nSides = Seq(2, 3, 4, 6, 8, 12, 16, 20, 24, 28, 32)

    val spark = SparkSession.builder().appName("gridtuner-trend").getOrCreate()
    try {
      println("city | model | nSide | exprErr | modelErr | upper | realErr")
      for (c <- cities; r <- Experiments.trend(Experiments.prepare(spark, c), nSides)) {
        println(f"${r.city}%-7s | ${r.model}%-7s | ${r.nSide}%2d | ${r.exprErr}%12.1f | " +
          f"${r.modelErr}%12.1f | ${r.upper}%12.1f | ${r.realErr}%12.1f")
      }
    } finally spark.stop()
  }
}
