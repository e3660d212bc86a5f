package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.data.CityConfig
import repro.exp.Experiments

/** Reproduces Table III (promotion of POLAR/LS/DAIF via grid-size tuning)
  * on the NYC analog.
  *
  * {{{ spark-submit --class repro.jobs.RunTable3 repro.jar [city] }}}
  */
object RunTable3 {
  def main(args: Array[String]): Unit = {
    val city = CityConfig.byName(args.headOption.getOrElse("nyc"))
    val spark = SparkSession.builder().appName(s"gridtuner-table3-${city.name}").getOrCreate()
    try {
      val (optN, rows) = Experiments.table3(Experiments.prepare(spark, city))
      println(s"GridTuner optimal nSide (Iterative, ha4): $optN")
      println("Metric | Algorithm | Original n | Optimal n | Original | Optimized | Improve")
      rows.foreach { p =>
        println(f"${p.metric}%-20s | ${p.algorithm}%-5s | ${p.originalNSide}%2dx${p.originalNSide}%-2d | " +
          f"${p.optimalNSide}%2dx${p.optimalNSide}%-2d | ${p.originalValue}%12.2f | " +
          f"${p.optimalValue}%12.2f | ${p.improvePct}%6.2f%%")
      }
    } finally spark.stop()
  }
}
