package repro.metrics

import scala.collection.mutable
import repro.core.SparkGraph

/** Centrality metrics (§2.2.3) and the top-k precision evaluator (§3.3.3).
  *
  * Brandes betweenness is exact (our graphs are ~100× smaller than the
  * paper's, so exact is cheaper than the paper's 500-sample Geisberger
  * approximation and strictly more accurate). Closeness is exact BFS from
  * every vertex. Eigenvector and Katz are power iterations; directed graphs
  * use the left eigenvector (Table 1 footnote) — scores flow along edge
  * direction u→v.
  */
object Centrality {

  /** Exact Brandes betweenness on the undirected (symmetrized) view. */
  def betweenness(g: SparkGraph): Array[Double] = {
    val c = g.undirectedCsr
    val n = c.n
    val bc = new Array[Double](n)
    val sigma = new Array[Double](n)
    val dist = new Array[Int](n)
    val delta = new Array[Double](n)
    val preds = Array.fill(n)(new mutable.ArrayBuffer[Int](4))
    val stack = new Array[Int](n)
    var s = 0
    while (s < n) {
      if (c.degree(s) > 0) {
        java.util.Arrays.fill(sigma, 0.0); java.util.Arrays.fill(dist, -1)
        java.util.Arrays.fill(delta, 0.0)
        var i = 0; while (i < n) { preds(i).clear(); i += 1 }
        var top = 0
        sigma(s) = 1.0; dist(s) = 0
        val q = new java.util.ArrayDeque[Integer](); q.add(s)
        while (!q.isEmpty) {
          val u = q.poll().intValue()
          stack(top) = u; top += 1
          c.foreachNbr(u) { (v, _) =>
            if (dist(v) < 0) { dist(v) = dist(u) + 1; q.add(v) }
            if (dist(v) == dist(u) + 1) { sigma(v) += sigma(u); preds(v) += u }
          }
        }
        while (top > 0) {
          top -= 1
          val w = stack(top)
          preds(w).foreach { u => delta(u) += sigma(u) / sigma(w) * (1.0 + delta(w)) }
          if (w != s) bc(w) += delta(w)
        }
      }
      s += 1
    }
    bc
  }

  /** Closeness C(v) = 1/Σ_u d(u,v) over vertices reachable from v. */
  def closeness(g: SparkGraph): Array[Double] = {
    val c = g.undirectedCsr
    Array.tabulate(c.n) { v =>
      if (c.degree(v) == 0) 0.0
      else {
        val d = c.distances(v, g.weighted)
        var sum = 0.0
        var i = 0
        while (i < c.n) { if (i != v && d(i).isFinite) sum += d(i); i += 1 }
        if (sum > 0) 1.0 / sum else 0.0
      }
    }
  }

  /** Power-iteration eigenvector centrality. Directed: left eigenvector
    * (x ← xA, i.e. score flows u→v along each arc).
    */
  def eigenvector(g: SparkGraph, iters: Int = 100): Array[Double] = {
    val c = g.csr
    val n = c.n
    var x = Array.fill(n)(1.0 / math.sqrt(n.toDouble))
    var it = 0
    while (it < iters) {
      val nx = new Array[Double](n)
      var u = 0
      while (u < n) {
        c.foreachNbr(u)((v, w) => nx(v) += x(u) * w)
        u += 1
      }
      val norm = math.sqrt(nx.map(a => a * a).sum)
      x = if (norm > 1e-300) nx.map(_ / norm) else nx
      it += 1
    }
    x
  }

  /** Katz centrality C(v) = Σ_k Σ_u α^k (A^k)_{uv} via the fixed point of
    * x ← αAᵀ(x + 1); α = 1/(maxDegree+1) per §2.2.3 (computed per graph).
    */
  def katz(g: SparkGraph, iters: Int = 200): Array[Double] = {
    val c = g.csr
    val n = c.n
    val maxDeg = g.undirectedCsr.maxDegree
    val alpha = 1.0 / (maxDeg + 1.0)
    var x = new Array[Double](n)
    var it = 0
    var delta = Double.MaxValue
    while (it < iters && delta > 1e-10) {
      val nx = new Array[Double](n)
      var u = 0
      while (u < n) {
        c.foreachNbr(u)((v, w) => nx(v) += alpha * (x(u) + 1.0) * w)
        u += 1
      }
      delta = x.indices.map(i => math.abs(nx(i) - x(i))).max
      x = nx
      it += 1
    }
    x
  }

  /** Top-k precision (§3.3.3): overlap of the top-k vertex sets, ties broken
    * by vertex id for determinism. k=100 in the paper.
    */
  def topKPrecision(orig: Array[Double], spar: Array[Double], k: Int = 100): Double = {
    def topK(s: Array[Double]): Set[Int] =
      s.zipWithIndex.sortBy { case (v, i) => (-v, i) }.take(k).map(_._2).toSet
    val kk = math.min(k, orig.length)
    topK(orig).intersect(topK(spar)).size.toDouble / kk
  }
}
