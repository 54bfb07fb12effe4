package repro.metrics

import scala.util.Random
import repro.core.{GraphOps, SparkGraph}

/** s-t max-flow / min-cut (§2.2.5) via Edmonds–Karp (BFS augmenting paths)
  * over a residual arc structure. Undirected edges become a symmetric arc
  * pair that serve as each other's residual; directed edges get a 0-capacity
  * reverse arc. Edge weights are capacities (1 for unweighted graphs).
  *
  * The paper samples 100 000 pairs on graphs ~100× larger and measures the
  * mean flow stretch between sparsified and original graphs (§3.3.4); we
  * sample proportionally fewer pairs.
  */
final class FlowNetwork(n: Int, src: Array[Int], dst: Array[Int], wt: Array[Double], directed: Boolean) {
  private val m = src.length
  val head = new Array[Int](2 * m)
  val capInit = new Array[Double](2 * m)
  private val next = new Array[Int](2 * m)
  private val first = Array.fill(n)(-1)
  private var cnt = 0

  private def addArc(u: Int, v: Int, c: Double): Unit = {
    head(cnt) = v; capInit(cnt) = c; next(cnt) = first(u); first(u) = cnt; cnt += 1
  }
  // arc 2i and 2i+1 are mutual reverses
  (0 until m).foreach { i =>
    addArc(src(i), dst(i), wt(i))
    addArc(dst(i), src(i), if (directed) 0.0 else wt(i))
  }

  /** Max flow from s to t (fresh residual capacities per call). */
  def maxFlow(s: Int, t: Int): Double = {
    if (s == t) return 0.0
    val cap = capInit.clone()
    val prevArc = new Array[Int](n)
    var flow = 0.0
    var found = true
    while (found) {
      java.util.Arrays.fill(prevArc, -1)
      prevArc(s) = -2
      val q = new java.util.ArrayDeque[Integer](); q.add(s)
      found = false
      while (!q.isEmpty && !found) {
        val u = q.poll().intValue()
        var a = first(u)
        while (a != -1 && !found) {
          val v = head(a)
          if (prevArc(v) == -1 && cap(a) > 1e-12) {
            prevArc(v) = a
            if (v == t) found = true else q.add(v)
          }
          a = next(a)
        }
      }
      if (found) {
        // find bottleneck along the path, then augment
        var bott = Double.MaxValue
        var v = t
        while (v != s) { val a = prevArc(v); bott = math.min(bott, cap(a)); v = head(a ^ 1) }
        v = t
        while (v != s) { val a = prevArc(v); cap(a) -= bott; cap(a ^ 1) += bott; v = head(a ^ 1) }
        flow += bott
      }
    }
    flow
  }
}

object MaxFlow {

  def network(g: SparkGraph): FlowNetwork = {
    val (s, d, w) = GraphOps.collectEdges(g)
    new FlowNetwork(g.numVertices.toInt, s, d, w, g.directed)
  }

  final case class FlowStretch(meanStretch: Double, zeroFrac: Double, pairs: Int)

  /** Mean flow stretch flow_spar(s,t)/flow_orig(s,t) over sampled pairs with
    * positive original flow; pairs whose sparsified flow drops to zero are
    * excluded from the mean and reported (Fig 12's unreachable constraint).
    */
  def flowStretch(orig: SparkGraph, spar: SparkGraph, nPairs: Int = 150, seed: Long = 0): FlowStretch = {
    val comp = orig.undirectedCsr.components()
    val no = network(orig)
    val ns = network(spar)
    val rng = new Random(seed)
    val n = comp.length
    val byComp = (0 until n).groupBy(comp).values.filter(_.size >= 2).toArray
    if (byComp.isEmpty) return FlowStretch(Double.NaN, 1.0, 0)
    var sum = 0.0; var used = 0; var zero = 0
    var i = 0
    while (i < nPairs) {
      val cs = byComp(rng.nextInt(byComp.length))
      val s = cs(rng.nextInt(cs.size)); val t = cs(rng.nextInt(cs.size))
      if (s != t) {
        val fo = no.maxFlow(s, t)
        if (fo > 1e-12) {
          val fs = ns.maxFlow(s, t)
          if (fs > 1e-12) { sum += fs / fo; used += 1 } else zero += 1
        }
      }
      i += 1
    }
    FlowStretch(if (used > 0) sum / used else Double.NaN,
      if (used + zero > 0) zero.toDouble / (used + zero) else 1.0, used + zero)
  }
}
