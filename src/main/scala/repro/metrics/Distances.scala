package repro.metrics

import scala.util.Random
import repro.core.{Csr, SparkGraph}

/** Distance metrics (§2.2.2, measured per §3.3.2): sampled-pair shortest
  * paths (SPSP), sampled-source eccentricity, and the iterated double-sweep
  * approximate diameter. Pairs/sources are sampled within components of the
  * ORIGINAL graph ("we exclude pairs belonging to different communities").
  */
object Distances {

  final case class StretchResult(meanStretch: Double, unreachableFrac: Double, pairs: Int)

  /** Mean SPSP stretch d_spar(u,v)/d_orig(u,v) over sampled reachable pairs.
    * Pairs that become unreachable in the sparsified graph are excluded
    * from the mean and reported as `unreachableFrac` (Fig 4a applies a
    * <20%-over-original acceptability constraint on that fraction).
    */
  def spspStretch(orig: SparkGraph, spar: SparkGraph, nPairs: Int = 2000, seed: Long = 0): StretchResult = {
    val co = orig.undirectedCsr
    val cs = spar.undirectedCsr
    val comp = co.components()
    val rng = new Random(seed)
    val n = co.n
    // group vertices by component to draw same-component pairs
    val byComp = (0 until n).groupBy(comp).values.filter(_.size >= 2).toArray
    if (byComp.isEmpty) return StretchResult(Double.NaN, 1.0, 0)
    val weights = byComp.map(c => c.size.toLong * (c.size - 1))
    val cum = weights.scanLeft(0L)(_ + _).tail
    val total = cum.last

    // Sample distinct sources, BFS once per source, pick random targets.
    val perSource = 10
    val nSources = math.max(1, nPairs / perSource)
    var stretchSum = 0.0; var reached = 0; var lost = 0
    var s = 0
    while (s < nSources) {
      val draw = (rng.nextDouble() * total).toLong
      val ci = cum.indexWhere(_ > draw)
      val compVs = byComp(ci)
      val u = compVs(rng.nextInt(compVs.size))
      val dOrig = co.distances(u, orig.weighted)
      val dSpar = cs.distances(u, spar.weighted)
      var t = 0
      while (t < perSource) {
        val v = compVs(rng.nextInt(compVs.size))
        if (v != u && dOrig(v).isFinite && dOrig(v) > 0) {
          if (dSpar(v).isFinite) { stretchSum += dSpar(v) / dOrig(v); reached += 1 }
          else lost += 1
        }
        t += 1
      }
      s += 1
    }
    val tried = reached + lost
    StretchResult(
      if (reached > 0) stretchSum / reached else Double.NaN,
      if (tried > 0) lost.toDouble / tried else 1.0,
      tried)
  }

  /** Eccentricity of `v` within its component: max finite distance. */
  def eccentricity(c: Csr, v: Int, weighted: Boolean): Double = {
    val d = c.distances(v, weighted).filter(_.isFinite)
    if (d.isEmpty) 0.0 else d.max
  }

  /** Mean eccentricity stretch over sampled non-isolated sources; sources
    * isolated in the sparsified graph are excluded and reported (Fig 4b's
    * vertex-isolated constraint).
    */
  def eccentricityStretch(orig: SparkGraph, spar: SparkGraph, nSources: Int = 200, seed: Long = 0): StretchResult = {
    val co = orig.undirectedCsr
    val cs = spar.undirectedCsr
    val rng = new Random(seed)
    val candidates = (0 until co.n).filter(co.degree(_) > 0)
    if (candidates.isEmpty) return StretchResult(Double.NaN, 1.0, 0)
    var sum = 0.0; var used = 0; var isolated = 0
    (0 until nSources).foreach { _ =>
      val v = candidates(rng.nextInt(candidates.size))
      if (cs.degree(v) == 0) isolated += 1
      else {
        val eo = eccentricity(co, v, orig.weighted)
        val es = eccentricity(cs, v, spar.weighted)
        if (eo > 0) { sum += es / eo; used += 1 }
      }
    }
    StretchResult(if (used > 0) sum / used else Double.NaN,
      isolated.toDouble / nSources, used + isolated)
  }

  /** Approximate diameter (§3.3.2): iterated double sweep — BFS to the
    * farthest vertex, restart from it, repeat; mean over `nSeeds` seeds.
    */
  def approxDiameter(g: SparkGraph, nSeeds: Int = 10, seed: Long = 0): Double = {
    val c = g.undirectedCsr
    val rng = new Random(seed)
    val candidates = (0 until c.n).filter(c.degree(_) > 0)
    if (candidates.isEmpty) return 0.0
    val results = (0 until nSeeds).map { _ =>
      var v = candidates(rng.nextInt(candidates.size))
      var best = 0.0
      var it = 0
      while (it < 4) {
        val d = c.distances(v, g.weighted)
        var far = v; var fd = 0.0
        var i = 0
        while (i < c.n) {
          if (d(i).isFinite && d(i) > fd) { fd = d(i); far = i }
          i += 1
        }
        if (fd > best) best = fd
        v = far
        it += 1
      }
      best
    }
    results.sum / results.length
  }
}
