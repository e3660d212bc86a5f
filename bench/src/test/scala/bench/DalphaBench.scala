package bench

import org.scalatest.funsuite.AnyFunSuite
import repro.NoiseFreeAlpha
import repro.core.Dalpha
import repro.data.{CityConfig, CountCube}
import repro.exp.Experiments

/** Paper §III-A (Eq. 2, Theorem III.1): each preset city's D_α(N) curve,
  * summed over the 48 slots with α over the test day's 28-day window.
  * The estimate reads α from the city's count cube drawn at each side; the
  * noise-free curve reads the generator's expected α, merged into blocks
  * below genSide and split uniformly above it. No Spark job runs.
  */
class DalphaBench extends AnyFunSuite {

  private val Sides = Seq(8, 16, 32, 64, 128)
  private val From = Experiments.TestDay - Experiments.TrainWindow

  /** city → (side, estimated, noise-free) for every side. */
  private lazy val curves: Map[String, Seq[(Int, Double, Double)]] = {
    println("DALPHA | city | side | estimated | noise-free")
    CityConfig.benchCities.map { city =>
      val g = city.genSide
      val truth = NoiseFreeAlpha.of(city, From, Experiments.TestDay)
      city.name -> Sides.map { side =>
        val est = CountCube.generate(city, side).alpha(From, Experiments.TestDay).map(Dalpha.of).sum
        val free = truth.map { a =>
          Dalpha.of(if (side <= g) NoiseFreeAlpha.merge(a, g, side) else NoiseFreeAlpha.split(a, g, side / g))
        }.sum
        println(f"DALPHA | ${city.name} | $side%3d | $est%.1f | $free%.1f")
        (side, est, free)
      }
    }.toMap
  }

  private def at(city: String, side: Int): (Double, Double) = {
    val (_, est, free) = curves(city).find(_._1 == side).get
    (est, free)
  }

  test("noise-free D_α is the same at genSide and above it (Theorem III.1)") {
    for (city <- CityConfig.benchCities.map(_.name)) {
      val d64 = at(city, 64)._2
      val d128 = at(city, 128)._2
      assert(math.abs(d128 - d64) <= 1e-9 * d64, s"$city: $d64 at 64, $d128 at 128")
    }
  }

  test("noise-free D_α does not fall from side 8 to genSide") {
    for (city <- CityConfig.benchCities.map(_.name)) {
      val free = Sides.filter(_ <= 64).map(at(city, _)._2)
      assert(free.zip(free.tail).forall { case (c, f) => f >= c * (1 - 1e-12) }, s"$city: $free")
    }
  }

  test("the estimated D_α keeps growing past genSide, from Poisson noise") {
    for (city <- CityConfig.benchCities.map(_.name)) {
      val (e64, f64) = at(city, 64)
      val (e128, _) = at(city, 128)
      assert(e128 > e64 && e64 > f64, s"$city: estimated $e64 at 64, $e128 at 128; noise-free $f64")
    }
  }
}
