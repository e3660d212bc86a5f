package bench

import org.apache.spark.sql.SparkSession
import repro.data.CityConfig
import repro.exp.Experiments

import scala.collection.mutable

/** Per-JVM cache of prepared cities so the bench suites (which share one
  * SparkSession) build each city's count cube exactly once.
  */
object BenchData {
  private val envs = mutable.Map.empty[String, Experiments.Env]

  def env(spark: SparkSession, city: CityConfig): Experiments.Env =
    synchronized {
      envs.getOrElseUpdate(city.name, {
        val t0 = System.nanoTime()
        val e = Experiments.prepare(spark, city)
        println(f"[bench] prepared ${city.name}: ${e.cube.total}%,d events " +
          f"in ${(System.nanoTime() - t0) / 1e9}%.1f s")
        e
      })
    }
}
