package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.data.CityConfig
import repro.exp.Experiments

/** Reproduces Table IV (search-algorithm performance) for one or all
  * cities.
  *
  * {{{ spark-submit --class repro.jobs.RunTable4 repro.jar [city|all] }}}
  */
object RunTable4 {
  def main(args: Array[String]): Unit = {
    val cities = args.headOption.getOrElse("all") match {
      case "all" => CityConfig.benchCities
      case name => Seq(CityConfig.byName(name))
    }

    val spark = SparkSession.builder().appName("gridtuner-table4").getOrCreate()
    try {
      println("City | Algorithm | Cost (s) | Evals | Probability | OR")
      for (c <- cities; r <- Experiments.table4(Experiments.prepare(spark, c))) {
        println(f"${r.city}%-7s | ${r.algorithm}%-18s | ${r.costSec}%8.1f | ${r.evals}%3d | " +
          f"${r.probabilityPct}%6.2f%% | ${r.optimalRatioPct}%6.2f%%")
      }
    } finally spark.stop()
  }
}
