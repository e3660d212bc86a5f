package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropChecks

class RngSpec extends AnyFunSuite with PropChecks {

  test("mix64 is deterministic and key order-sensitive") {
    assert(Rng.mix64(42L) == Rng.mix64(42L))
    assert(Rng.key(1, 2, 3) == Rng.key(1, 2, 3))
    assert(Rng.key(1, 2, 3) != Rng.key(3, 2, 1))
    assert(Rng.key(1, 2) != Rng.key(1, 3))
  }

  test("key(parts*) is the extend chain from KeySeed") {
    val parts = Seq(42L, 7L, 31L, 4095L, 7777L + 3)
    assert(Rng.key() == Rng.KeySeed)
    assert(Rng.key(parts: _*) ==
      Rng.extend(Rng.extend(Rng.extend(Rng.extend(Rng.extend(Rng.KeySeed, 42L), 7L), 31L), 4095L), 7780L))
    assert(Rng.key(parts: _*) == Rng.extend(Rng.key(parts.init: _*), parts.last))
  }

  test("uniform stays in [0,1) and differs across stream indices") {
    val k = Rng.key(7)
    val us = (0 until 1000).map(i => Rng.uniform(k, i))
    assert(us.forall(u => u >= 0.0 && u < 1.0))
    assert(us.distinct.size > 990)
  }

  test("uniform mean and variance match U(0,1)") {
    val k = Rng.key(13)
    val n = 200000
    val us = (0 until n).map(i => Rng.uniform(k, i))
    val mean = us.sum / n
    val varr = us.map(u => (u - mean) * (u - mean)).sum / n
    assert(math.abs(mean - 0.5) < 0.005, s"mean=$mean")
    assert(math.abs(varr - 1.0 / 12) < 0.005, s"var=$varr")
  }

  test("gaussian has mean ~0 and variance ~1") {
    val k = Rng.key(99)
    val n = 200000
    val gs = (0 until n).map(i => Rng.gaussian(k, i))
    val mean = gs.sum / n
    val varr = gs.map(g => (g - mean) * (g - mean)).sum / n
    assert(math.abs(mean) < 0.01, s"mean=$mean")
    assert(math.abs(varr - 1.0) < 0.02, s"var=$varr")
  }

  test("poisson(0) is 0 and poisson is deterministic per key") {
    assert(Rng.poisson(0.0, 123L) == 0)
    assert(Rng.poisson(-1.0, 123L) == 0)
    assert(Rng.poisson(3.3, 55L) == Rng.poisson(3.3, 55L))
  }

  test("poisson small-mu moments (Knuth branch)") {
    for (mu <- Seq(0.2, 1.0, 4.0, 20.0)) {
      val n = 100000
      val xs = (0 until n).map(i => Rng.poisson(mu, Rng.key(5, i)).toDouble)
      val mean = xs.sum / n
      val varr = xs.map(x => (x - mean) * (x - mean)).sum / n
      assert(math.abs(mean - mu) < 0.05 * mu + 0.02, s"mu=$mu mean=$mean")
      assert(math.abs(varr - mu) < 0.08 * mu + 0.05, s"mu=$mu var=$varr")
    }
  }

  test("poisson large-mu moments (normal-approximation branch)") {
    val mu = 150.0
    val n = 50000
    val xs = (0 until n).map(i => Rng.poisson(mu, Rng.key(6, i)).toDouble)
    val mean = xs.sum / n
    val varr = xs.map(x => (x - mean) * (x - mean)).sum / n
    assert(math.abs(mean - mu) < 0.02 * mu)
    assert(math.abs(varr - mu) < 0.05 * mu)
  }

  test("poisson below mu = 64 is Knuth's product draw for draw") {
    def knuth(mu: Double, k: Long): Int = {
      val l = math.exp(-mu)
      var p = 1.0
      var n = 0
      var i = 0L
      while ({ p *= Rng.uniform(k, i); i += 1; p > l }) n += 1
      n
    }
    for (mu <- Seq(1e-12, 1e-6, 0.01, 0.3, 0.999, 1.0, 2.5, 20.0, 63.9); k <- 0L until 20000L)
      assert(Rng.poisson(mu, Rng.key(17, k)) == knuth(mu, Rng.key(17, k)), s"mu=$mu k=$k")
  }

  test("property: poisson never negative") {
    val gen = for { mu <- Gen.choose(0.0, 300.0); s <- Gen.long } yield (mu, s)
    checkProp(Prop.forAll(gen) { case (mu, s) => Rng.poisson(mu, s) >= 0 })
  }
}
