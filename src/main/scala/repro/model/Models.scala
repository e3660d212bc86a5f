package repro.model

/** Prediction-model tiers (substitution for the paper's MLP / DeepST /
  * DMVST-Net — DESIGN.md §3).
  *
  * `HA(k)` predicts the event count of an MGrid in a slot as the mean of
  * the same slot over the previous `k` days. For Poisson counts its MAE is
  * ≈ √(2α(1+1/k)/π), strictly decreasing in `k`, so the three tiers form
  * the same accuracy ladder as the paper's three networks:
  *
  *   lastday (k=1)  ≈ MLP tier        — least accurate
  *   ha4     (k=4)  ≈ DeepST tier     — middle
  *   ha28    (k=28) ≈ DMVST-Net tier  — most accurate
  */
final case class ModelTier(name: String, k: Int) {
  require(k >= 1)

  /** HA(k) prediction of `day` per MGrid: the mean of `counts` over days
    * day−k … day−1, where `counts(d)` is one slot's per-MGrid counts of
    * day `d`. A window that starts before day 0 is rejected.
    */
  def predict(counts: Int => Array[Long], day: Int): Array[Double] = {
    require(day >= k, s"HA($k) prediction of day $day reads days ${day - k} until $day")
    val sum = counts(day - k).clone()
    for (d <- day - k + 1 until day) {
      val c = counts(d)
      var i = 0
      while (i < sum.length) { sum(i) += c(i); i += 1 }
    }
    sum.map(_.toDouble / k)
  }
}

object Models {
  val lastday: ModelTier = ModelTier("lastday", 1)
  val ha4: ModelTier = ModelTier("ha4", 4)
  val ha28: ModelTier = ModelTier("ha28", 28)
  val all: Seq[ModelTier] = Seq(lastday, ha4, ha28)

  def byName(name: String): ModelTier =
    all.find(_.name == name).getOrElse(throw new NoSuchElementException(s"model $name"))
}
