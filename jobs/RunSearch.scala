package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.Search
import repro.data.CityConfig
import repro.exp.Experiments
import repro.model.Models

/** OGSS for one city: finds the optimal grid size for the day-aggregate
  * upper bound with the chosen model and search method.
  *
  * {{{ spark-submit --class repro.jobs.RunSearch repro.jar [city] [model] [method] }}}
  * city ∈ {nyc, chengdu, xian}, model ∈ {lastday, ha4, ha28},
  * method ∈ {ternary, iterative, brute}.
  */
object RunSearch {
  def main(args: Array[String]): Unit = {
    val city = CityConfig.byName(args.headOption.getOrElse("nyc"))
    val model = Models.byName(if (args.length > 1) args(1) else "ha4")
    val method = if (args.length > 2) args(2) else "iterative"

    val spark = SparkSession.builder().appName(s"gridtuner-search-${city.name}").getOrCreate()
    try {
      val env = Experiments.prepare(spark, city)
      val ev = env.evaluator(Seq(model), computeReal = false)
      val f = Experiments.sumObjective(ev, model)
      val r = method match {
        case "ternary" => Search.ternary(f, Experiments.SearchLo, Experiments.SearchHi)
        case "brute" => Search.bruteForce(f, Experiments.SearchLo, Experiments.SearchHi)
        case _ => Search.iterative(f, Experiments.IterStart, Experiments.IterBound,
          Experiments.SearchLo, Experiments.SearchHi)
      }
      println(s"city=${city.name} model=${model.name} method=$method")
      println(f"optimal grid: ${r.nSide}x${r.nSide} (n=${r.nSide * r.nSide}) " +
        f"after ${r.evals} UpperBound evaluations, e=${f(r.nSide)}%.1f")
    } finally spark.stop()
  }
}
