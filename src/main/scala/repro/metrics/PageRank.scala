package repro.metrics

import repro.core.SparkGraph

/** PageRank (§2.2.5) as a driver power iteration over [[SparkGraph.csr]].
  * Transition probability is weight-proportional (reduces to 1/k for
  * unweighted graphs); dangling mass is redistributed uniformly; damping
  * 0.85; fixed iteration count as in power-method practice. PageRankSpec
  * checks it against an independent DataFrame implementation.
  */
object PageRank {

  val Damping = 0.85

  /** Scores as a driver array aligned with vertex ids. */
  def scores(g: SparkGraph, iters: Int = 20): Array[Double] = {
    val c = g.csr
    val n = c.n
    val outW = Array.tabulate(n) { u => var s = 0.0; c.foreachNbr(u)((_, w) => s += w); s }
    var pr = Array.fill(n)(1.0 / n)
    var it = 0
    while (it < iters) {
      val nx = Array.fill(n)((1.0 - Damping) / n)
      var dangling = 0.0
      var u = 0
      while (u < n) {
        if (outW(u) > 0) c.foreachNbr(u)((v, w) => nx(v) += Damping * pr(u) * w / outW(u))
        else dangling += pr(u)
        u += 1
      }
      val share = Damping * dangling / n
      var i = 0
      while (i < n) { nx(i) += share; i += 1 }
      pr = nx
      it += 1
    }
    pr
  }
}
