package repro.data

import repro.core.Rng

/** One synthetic city: a spatial intensity surface (Gaussian hotspots over
  * a uniform background) modulated by a 48-slot daily profile.
  *
  * Substitutes the paper's NYC TLC / DiDi GAIA taxi datasets (offline
  * container — see DESIGN.md §3). The three presets keep the property the
  * paper's analysis depends on: unevenness ordering nyc > chengdu > xian,
  * volume ordering nyc > chengdu > xian, and Xi'an's much smaller area.
  *
  * @param hotspots    (cx, cy, sigma, weight) Gaussian bumps on [0,1)²
  * @param background  uniform density floor weight
  * @param genSide     generation lattice side; events are uniform inside a
  *                    generation cell, which *makes* the homogeneity
  *                    assumption true at N = genSide² by construction
  * @param jitterStd   std-dev of the *daily* random shift of each hotspot
  *                    center (normalized units). Real street-level demand
  *                    moves day to day; this is what makes fine grids
  *                    genuinely hard to predict (large model error at
  *                    large n, paper §IV-B) while coarse aggregates stay
  *                    stable. Unpredictable by construction (i.i.d. days).
  * @param weightJitter lognormal σ of the daily hotspot-weight fluctuation
  * @param logKmMean/logKmSigma  lognormal trip-length parameters
  */
final case class CityConfig(
    name: String,
    widthKm: Double,
    heightKm: Double,
    dailyOrders: Double,
    hotspots: Seq[(Double, Double, Double, Double)],
    background: Double,
    genSide: Int = 64,
    days: Int = 35,
    seed: Long = 42L,
    jitterStd: Double = 0.0,
    weightJitter: Double = 0.0,
    logKmMean: Double = 1.0,
    logKmSigma: Double = 0.5,
) {
  require(days >= 2 && genSide >= 2 && dailyOrders > 0)
  require(jitterStd >= 0 && weightJitter >= 0)

  private def densityWith(
      hs: Seq[(Double, Double, Double, Double)], x: Double, y: Double): Double = {
    var d = background
    hs.foreach { case (cx, cy, s, w) =>
      val dx = x - cx; val dy = y - cy
      d += w * math.exp(-(dx * dx + dy * dy) / (2 * s * s))
    }
    d
  }

  /** Unnormalized *time-averaged* spatial density at a point of [0,1)². */
  def density(x: Double, y: Double): Double = densityWith(hotspots, x, y)

  /** Hotspots as realized on one day (centers shifted, weights scaled). */
  def hotspotsForDay(day: Int): Seq[(Double, Double, Double, Double)] =
    if (jitterStd == 0 && weightJitter == 0) hotspots
    else hotspots.zipWithIndex.map { case ((cx, cy, s, w), h) =>
      val k = Rng.key(seed, 0x0d17, day, h)
      (cx + jitterStd * Rng.gaussian(k, 0),
        cy + jitterStd * Rng.gaussian(k, 1),
        s,
        w * math.exp(weightJitter * Rng.gaussian(k, 2)))
    }

  private def normalizedShares(hs: Seq[(Double, Double, Double, Double)]): Array[Double] = {
    val raw = Array.tabulate(genSide * genSide) { id =>
      val cx = id / genSide; val cy = id % genSide
      densityWith(hs, (cx + 0.5) / genSide, (cy + 0.5) / genSide)
    }
    val tot = raw.sum
    raw.map(_ / tot)
  }

  /** Per-cell share of the daily volume, time-averaged (sums to 1). */
  lazy val cellShares: Array[Double] = normalizedShares(hotspots)

  /** Per-cell share of `day`'s volume (sums to 1). */
  def sharesForDay(day: Int): Array[Double] =
    if (jitterStd == 0 && weightJitter == 0) cellShares
    else normalizedShares(hotspotsForDay(day))

  /** 48-slot daily demand profile (sums to 1): low at night, morning peak
    * around 8:00–9:00 (slots 16–18), higher evening peak 18:00–20:00.
    */
  lazy val slotProfile: Array[Double] = CityConfig.defaultProfile

  /** Time-averaged expected events in generation cell `cell` during
    * `slot` (days are i.i.d. around this, matching the paper's "workdays
    * of the last month").
    */
  def mu(slot: Int, cell: Int): Double =
    dailyOrders * slotProfile(slot) * cellShares(cell)
}

object CityConfig {
  val Slots = 48

  lazy val defaultProfile: Array[Double] = {
    val raw = Array.tabulate(Slots) { s =>
      0.35 +
        1.0 * math.exp(-math.pow(s - 17.0, 2) / (2 * 2.5 * 2.5)) +
        1.2 * math.exp(-math.pow(s - 37.0, 2) / (2 * 3.0 * 3.0))
    }
    val tot = raw.sum
    raw.map(_ / tot)
  }

  /** Manhattan-like dense strip + two broad outliers: most uneven.
    * Volume matches the paper's test-day order count (~282k).
    */
  val nyc: CityConfig = CityConfig(
    name = "nyc", widthKm = 23, heightKm = 37, dailyOrders = 280000,
    hotspots = Seq(
      // broad districts (σ ≈ 1.5 km)…
      (0.30, 0.25, 0.050, 0.8), (0.33, 0.38, 0.050, 0.9),
      (0.36, 0.50, 0.050, 1.0), (0.39, 0.62, 0.050, 0.9),
      (0.42, 0.74, 0.050, 0.8), (0.45, 0.85, 0.055, 0.6),
      (0.70, 0.30, 0.090, 0.45), (0.15, 0.70, 0.090, 0.35),
      // …studded with venue-scale cores (σ ≈ 0.5 km, ~28% of demand):
      // unevenness that only fine grids resolve keeps expression error
      // falling deep into large n, exactly Manhattan's street-level peaks
      (0.29, 0.22, 0.016, 2.5), (0.31, 0.30, 0.016, 2.5),
      (0.33, 0.40, 0.016, 2.8), (0.35, 0.47, 0.016, 2.5),
      (0.36, 0.50, 0.016, 2.8), (0.37, 0.55, 0.016, 2.5),
      (0.40, 0.67, 0.016, 2.5), (0.41, 0.72, 0.016, 2.5),
      (0.43, 0.78, 0.016, 2.2), (0.45, 0.84, 0.016, 2.2),
      (0.70, 0.31, 0.016, 2.0), (0.16, 0.69, 0.016, 2.0),
    ),
    background = 0.10, seed = 1001L, logKmMean = 1.1,
    jitterStd = 0.012, weightJitter = 0.15,
  )

  /** Broad hotspots, strong background: moderately even (paper: ~239k). */
  val chengdu: CityConfig = CityConfig(
    name = "chengdu", widthKm = 23, heightKm = 37, dailyOrders = 240000,
    hotspots = Seq(
      (0.50, 0.50, 0.15, 1.0), (0.30, 0.35, 0.12, 0.6),
      (0.68, 0.40, 0.12, 0.6), (0.40, 0.70, 0.12, 0.5),
      (0.62, 0.68, 0.12, 0.5),
    ),
    background = 0.40, seed = 1002L, logKmMean = 1.4,
    jitterStd = 0.012, weightJitter = 0.15,
  )

  /** Small area, near-uniform demand, low volume: most even (~110k).
    * Two mid-scale centers + small cores keep a little resolvable
    * structure, so its (small) optimal n is interior rather than n=1.
    */
  val xian: CityConfig = CityConfig(
    name = "xian", widthKm = 8.5, heightKm = 8.6, dailyOrders = 110000,
    hotspots = Seq(
      (0.45, 0.50, 0.22, 0.5), (0.65, 0.35, 0.20, 0.3),
      (0.50, 0.55, 0.060, 0.6), (0.62, 0.38, 0.050, 0.5),
      (0.45, 0.50, 0.020, 1.2), (0.66, 0.35, 0.020, 1.0),
    ),
    background = 0.55, seed = 1003L, logKmMean = 0.9,
    jitterStd = 0.010, weightJitter = 0.12,
  )

  val benchCities: Seq[CityConfig] = Seq(nyc, chengdu, xian)

  def byName(name: String): CityConfig =
    benchCities.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown city $name; known cities: ${benchCities.map(_.name).mkString(", ")}"))

  /** Tiny city for unit tests: ~600 orders/day on a 16² lattice. */
  val toy: CityConfig = CityConfig(
    name = "toy", widthKm = 10, heightKm = 10, dailyOrders = 600,
    hotspots = Seq((0.3, 0.3, 0.12, 1.0), (0.7, 0.7, 0.2, 0.5)),
    background = 0.30, genSide = 16, days = 12, seed = 7L,
  )
}
