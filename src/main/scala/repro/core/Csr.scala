package repro.core

import scala.collection.mutable

/** Immutable CSR adjacency on the driver — the one adjacency type behind
  * every driver-side algorithm: the traversal sparsifiers (Rank Degree's
  * frontier expansion, Forest Fire's random walks) and the iterative metrics
  * (BFS/Dijkstra distances, Brandes betweenness, power iterations, Louvain,
  * max-flow pair sampling). Graphs in this repro are ≤ ~10⁵ edges
  * (DESIGN.md), so collected arrays are the right tool; bulk per-edge
  * metrics stay in DataFrames.
  *
  * A graph builds its CSRs once per instance ([[SparkGraph.csr]],
  * [[SparkGraph.undirectedCsr]]). Every arc carries the index of the edge
  * it came from (`arcEdge`), so a kept-edge bitset maps straight back to
  * the graph's [[SparkGraph.edgeArrays]].
  */
final class Csr(
    val n: Int,
    val offsets: Array[Int],
    val nbrs: Array[Int],
    val wts: Array[Double],
    val arcEdge: Array[Int]) {

  def degree(v: Int): Int = offsets(v + 1) - offsets(v)
  def maxDegree: Int = if (n == 0) 0 else (0 until n).map(degree).max

  /** Iterate (neighbour, weight) pairs of v. */
  @inline def foreachNbr(v: Int)(f: (Int, Double) => Unit): Unit = {
    var i = offsets(v)
    while (i < offsets(v + 1)) { f(nbrs(i), wts(i)); i += 1 }
  }

  /** Iterate (neighbour, edge index) pairs of v. */
  @inline def foreachArc(v: Int)(f: (Int, Int) => Unit): Unit = {
    var i = offsets(v)
    while (i < offsets(v + 1)) { f(nbrs(i), arcEdge(i)); i += 1 }
  }

  /** Unweighted BFS distances from `s`; -1 = unreachable. */
  def bfs(s: Int): Array[Int] = {
    val dist = Array.fill(n)(-1)
    dist(s) = 0
    val q = new java.util.ArrayDeque[Integer](); q.add(s)
    while (!q.isEmpty) {
      val u = q.poll().intValue()
      var i = offsets(u)
      while (i < offsets(u + 1)) {
        val v = nbrs(i)
        if (dist(v) < 0) { dist(v) = dist(u) + 1; q.add(v) }
        i += 1
      }
    }
    dist
  }

  /** Weighted shortest-path distances from `s`; Infinity = unreachable. */
  def dijkstra(s: Int): Array[Double] = {
    val dist = Array.fill(n)(Double.PositiveInfinity)
    dist(s) = 0.0
    val pq = mutable.PriorityQueue.empty[(Double, Int)](Ordering.by(-_._1))
    pq.enqueue((0.0, s))
    while (pq.nonEmpty) {
      val (d, u) = pq.dequeue()
      if (d <= dist(u) + 1e-12) {
        foreachNbr(u) { (v, w) =>
          if (d + w < dist(v)) { dist(v) = d + w; pq.enqueue((d + w, v)) }
        }
      }
    }
    dist
  }

  /** Generic distances: hop counts for unweighted graphs, Dijkstra else. */
  def distances(s: Int, weighted: Boolean): Array[Double] =
    if (weighted) dijkstra(s)
    else bfs(s).map(d => if (d < 0) Double.PositiveInfinity else d.toDouble)

  /** Connected-component labels (the CSR must be symmetric). */
  def components(): Array[Int] = {
    val comp = Array.fill(n)(-1)
    var c = 0
    var v = 0
    while (v < n) {
      if (comp(v) < 0) {
        val q = new java.util.ArrayDeque[Integer](); q.add(v); comp(v) = c
        while (!q.isEmpty) {
          val u = q.poll().intValue()
          var i = offsets(u)
          while (i < offsets(u + 1)) {
            val x = nbrs(i)
            if (comp(x) < 0) { comp(x) = c; q.add(x) }
            i += 1
          }
        }
        c += 1
      }
      v += 1
    }
    comp
  }
}

object Csr {

  /** Arcs of the edges (src(i), dst(i), wt(i)) over vertices `0 until n`,
    * filled in edge order: each edge adds its src→dst arc and, when
    * `bothDirections`, its dst→src arc.
    */
  def fromArrays(n: Int, src: Array[Int], dst: Array[Int], wt: Array[Double],
                 bothDirections: Boolean): Csr = {
    val m = src.length
    val deg = new Array[Int](n + 1)
    var i = 0
    while (i < m) {
      deg(src(i) + 1) += 1
      if (bothDirections) deg(dst(i) + 1) += 1
      i += 1
    }
    i = 1
    while (i <= n) { deg(i) += deg(i - 1); i += 1 }
    val off = deg.clone()
    val sz = if (bothDirections) 2 * m else m
    val tgt = new Array[Int](sz)
    val w = new Array[Double](sz)
    val eid = new Array[Int](sz)
    val cur = deg.clone()
    i = 0
    while (i < m) {
      tgt(cur(src(i))) = dst(i); w(cur(src(i))) = wt(i); eid(cur(src(i))) = i; cur(src(i)) += 1
      if (bothDirections) { tgt(cur(dst(i))) = src(i); w(cur(dst(i))) = wt(i); eid(cur(dst(i))) = i; cur(dst(i)) += 1 }
      i += 1
    }
    new Csr(n, off, tgt, w, eid)
  }
}
