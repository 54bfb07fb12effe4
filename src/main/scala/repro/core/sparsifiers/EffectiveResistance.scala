package repro.core.sparsifiers

import breeze.linalg.{inv, DenseMatrix}
import scala.util.Random
import repro.core.{GraphOps, PruneRateControl, SparkGraph, Sparsifier}

/** Effective Resistance spectral sparsifier (§2.3.9, Spielman–Srivastava).
  *
  * Resistances are exact: R_e = (e_u−e_v)ᵀ L⁺ (e_u−e_v), computed from the
  * dense inverse of (L + J/n + εI). J/n shifts the all-ones kernel away from
  * zero without perturbing vectors orthogonal to it (e_u−e_v of an
  * intra-component edge is such a vector); ε handles the kernels of extra
  * components in disconnected graphs. The paper offloads this to
  * Laplacians.jl's approximate solver on a 1 TB machine; at our 100×
  * scaled-down graphs the exact dense solve is cheaper and noise-free.
  *
  * Sampling: edge e kept independently with p_e = min(1, c·w_e·R_e), c
  * binary-searched so Σp_e equals the target edge count. The weighted
  * variant reweights kept edges by w_e/p_e, which keeps the Laplacian
  * quadratic form an unbiased estimate of the original — the property the
  * paper's Figure 3 tests. The unweighted variant keeps original weights.
  */
final class EffectiveResistance(reweight: Boolean) extends Sparsifier {
  val name   = if (reweight) "ER-weighted" else "ER-unweighted"
  val abbrev = if (reweight) "ER-w" else "ER-u"
  val supportsDirected = false
  val pruneRateControl = PruneRateControl.Fine
  override val changesWeights = reweight
  val deterministic = false

  def sparsify(g: SparkGraph, rho: Double, seed: Long): SparkGraph = {
    val (src, dst, wt) = g.edgeArrays
    val r = g.resistances
    val m = src.length
    val target = keepCount(m, rho)

    // Leverage-ish score per edge; binary search c with Σ min(1, c·s) = K.
    val s = Array.tabulate(m)(i => math.max(wt(i) * r(i), 1e-12))
    def expected(c: Double): Double = { var t = 0.0; var i = 0; while (i < m) { t += math.min(1.0, c * s(i)); i += 1 }; t }
    var lo = 0.0; var hi = 1.0
    while (expected(hi) < target && hi < 1e18) hi *= 2
    var it = 0
    while (it < 80) { val mid = (lo + hi) / 2; if (expected(mid) < target) lo = mid else hi = mid; it += 1 }
    val c = hi

    val rng = new Random(seed)
    val ks = Array.newBuilder[Int]; val kd = Array.newBuilder[Int]; val kw = Array.newBuilder[Double]
    var i = 0
    while (i < m) {
      val p = math.min(1.0, c * s(i))
      if (rng.nextDouble() < p) {
        ks += src(i); kd += dst(i)
        kw += (if (reweight) wt(i) / p else wt(i))
      }
      i += 1
    }
    GraphOps.fromArrays(g.spark, s"${g.name}#$abbrev-$rho-$seed",
      ks.result(), kd.result(), kw.result(),
      directed = false, weighted = reweight || g.weighted, g.numVertices)
  }
}

object EffectiveResistance {

  /** Max vertices for the dense solve (an n×n matrix of doubles, 288 MB at
    * the cap); our datasets stay well below this.
    */
  val MaxVertices = 6000

  /** Exact resistances of `g`'s edges, aligned with [[SparkGraph.edgeArrays]].
    * Read them through [[SparkGraph.resistances]], which solves once per
    * graph instance.
    */
  private[core] def resistances(g: SparkGraph): Array[Double] = {
    require(!g.directed, s"ER requires an undirected graph (got ${g.name}; use its `undirected` view)")
    require(g.numVertices <= MaxVertices,
      s"dense ER solve on ${g.name}: ${g.numVertices} vertices exceeds the cap of $MaxVertices")
    val n = g.numVertices.toInt
    val (src, dst, wt) = g.edgeArrays
    val a = DenseMatrix.zeros[Double](n, n)
    val jn = 1.0 / n
    var i = 0
    while (i < n) { var j = 0; while (j < n) { a(i, j) = jn; j += 1 }; i += 1 }
    i = 0
    while (i < n) { a(i, i) += 1e-9 * n; i += 1 }
    i = 0
    while (i < src.length) {
      val (u, v, w) = (src(i), dst(i), wt(i))
      a(u, u) += w; a(v, v) += w; a(u, v) -= w; a(v, u) -= w
      i += 1
    }
    val minv = inv(a)
    Array.tabulate(src.length) { e =>
      val (u, v) = (src(e), dst(e))
      math.max(minv(u, u) + minv(v, v) - 2 * minv(u, v), 0.0)
    }
  }
}
