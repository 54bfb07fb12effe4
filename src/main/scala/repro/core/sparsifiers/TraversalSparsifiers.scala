package repro.core.sparsifiers

import java.util.BitSet
import scala.collection.mutable
import scala.util.Random
import repro.core.{GraphOps, PruneRateControl, SparkGraph, Sparsifier}

/** Rank Degree (§2.3.3, Voudigari et al.): start from random seed vertices;
  * each seed adds edges to its top-k neighbours ranked by degree (descending);
  * newly reached vertices become the next seeds; repeat until the target
  * edge budget is met (random restarts if the frontier dries up).
  */
final class RankDegree(topK: Int = 3) extends Sparsifier {
  val name = "Rank Degree"; val abbrev = "RD"
  val supportsDirected = true
  val pruneRateControl = PruneRateControl.Coarse
  val deterministic = false

  def sparsify(g: SparkGraph, rho: Double, seed: Long): SparkGraph = {
    val adj = g.csr
    val m = g.numEdges.toInt
    val target = keepCount(m, rho)
    val rng = new Random(seed)
    val kept = new BitSet(m)
    var nKept = 0
    val inGraph = new Array[Boolean](adj.n)
    val frontier = mutable.Queue.empty[Int]
    val nonIsolated = (0 until adj.n).filter(adj.degree(_) > 0).toArray

    def addSeed(v: Int): Unit = { if (!inGraph(v)) { inGraph(v) = true }; frontier.enqueue(v) }

    if (nonIsolated.nonEmpty) {
      val nSeeds = math.max(1, adj.n / 100)
      rng.shuffle(nonIsolated.toSeq).take(nSeeds).foreach(addSeed)

      while (nKept < target && nonIsolated.nonEmpty) {
        if (frontier.isEmpty) addSeed(nonIsolated(rng.nextInt(nonIsolated.length)))
        val u = frontier.dequeue()
        // Rank u's neighbours by degree descending (random tie-break).
        val cand = mutable.ArrayBuffer.empty[(Int, Int)] // (nbr, eid)
        adj.foreachArc(u)((v, e) => if (!kept.get(e)) cand += ((v, e)))
        val ranked = rng.shuffle(cand.toSeq).sortBy { case (v, _) => -adj.degree(v) }
        ranked.take(topK).foreach { case (v, e) =>
          if (nKept < target && !kept.get(e)) {
            kept.set(e); nKept += 1
            if (!inGraph(v)) addSeed(v)
          }
        }
      }
    }
    GraphOps.subgraph(g, kept, s"RD-$rho-$seed")
  }
}

/** Forest Fire sparsifier (§2.3.7, after NetworKit's ForestFireScore):
  * repeatedly ignite fires at random vertices; each burning vertex burns a
  * Geometric(p)-distributed number of random unvisited neighbours. Edge
  * scores are burn frequencies; the top-K edges by score are kept.
  */
final class ForestFire(p: Double = 0.7, burnRounds: Double = 3.0) extends Sparsifier {
  val name = "Forest Fire"; val abbrev = "FF"
  val supportsDirected = true
  val pruneRateControl = PruneRateControl.Coarse
  val deterministic = false

  def sparsify(g: SparkGraph, rho: Double, seed: Long): SparkGraph = {
    val adj = g.csr
    val m = g.numEdges.toInt
    val target = keepCount(m, rho)
    val rng = new Random(seed)
    val burns = new Array[Int](m)
    val nonIsolated = (0 until adj.n).filter(adj.degree(_) > 0).toArray
    if (nonIsolated.nonEmpty) {
      var totalBurns = 0L
      val targetBurns = (burnRounds * m).toLong
      val visited = new Array[Int](adj.n) // fire-id stamps avoid clearing
      java.util.Arrays.fill(visited, -1)
      var fireId = 0
      val maxFires = 50 * (m / math.max(1, nonIsolated.length) + 1) * nonIsolated.length
      while (totalBurns < targetBurns && fireId < maxFires) {
        val start = nonIsolated(rng.nextInt(nonIsolated.length))
        val queue = mutable.Queue(start)
        visited(start) = fireId
        var burned = 0
        while (queue.nonEmpty && burned < adj.n / 2) {
          val u = queue.dequeue()
          // Geometric(p): number of neighbours to burn from u.
          var toBurn = 0
          while (rng.nextDouble() < p) toBurn += 1
          if (toBurn > 0) {
            val cand = mutable.ArrayBuffer.empty[(Int, Int)]
            adj.foreachArc(u)((v, e) => if (visited(v) != fireId) cand += ((v, e)))
            rng.shuffle(cand.toSeq).take(toBurn).foreach { case (v, e) =>
              burns(e) += 1; totalBurns += 1; burned += 1
              visited(v) = fireId; queue.enqueue(v)
            }
          }
        }
        fireId += 1
      }
    }
    // Keep top-K edges by burn frequency, random tie-break.
    val order = (0 until m).map(e => (e, burns(e), rng.nextDouble()))
      .sortBy { case (_, b, r) => (-b, r) }
    val kept = new BitSet(m)
    order.take(target).foreach { case (e, _, _) => kept.set(e) }
    GraphOps.subgraph(g, kept, s"FF-$rho-$seed")
  }
}

/** Spanning Forest (§2.3.5): Kruskal over (weight, src, dst)-ordered edges
  * with union-find — one spanning tree per connected component. No control
  * over the prune rate; the target ρ is ignored.
  */
final class SpanningForest extends Sparsifier {
  val name = "Spanning Forest"; val abbrev = "SF"
  val supportsDirected = false
  val pruneRateControl = PruneRateControl.NoControl
  val deterministic = true

  def sparsify(g: SparkGraph, rho: Double, seed: Long): SparkGraph = {
    val (src, dst, wt) = g.edgeArrays
    val parent = Array.tabulate(g.numVertices.toInt)(identity)
    def find(x: Int): Int = { var r = x; while (parent(r) != r) { parent(r) = parent(parent(r)); r = parent(r) }; r }
    val kept = new BitSet(src.length)
    val order = src.indices.sortBy(e => (wt(e), src(e), dst(e)))
    order.foreach { e =>
      val (ru, rv) = (find(src(e)), find(dst(e)))
      if (ru != rv) { parent(ru) = rv; kept.set(e) }
    }
    GraphOps.subgraph(g, kept, "SF")
  }
}

/** Greedy t-Spanner (§2.3.6, Althöfer et al.): scan edges in weight order;
  * add (u,v,w) iff the current spanner distance d_H(u,v) exceeds t·w
  * (bounded Dijkstra/BFS). Guarantees d_H(u,v) ≤ t·d_G(u,v) for all pairs
  * and preserves connectivity exactly. Prune rate is fixed by t.
  */
final class TSpanner(val t: Int = 3) extends Sparsifier {
  val name = s"$t-Spanner"; val abbrev = s"SP-$t"
  val supportsDirected = false
  val pruneRateControl = PruneRateControl.NoControl
  val deterministic = true

  def sparsify(g: SparkGraph, rho: Double, seed: Long): SparkGraph = {
    val (src, dst, wt) = g.edgeArrays
    val n = g.numVertices.toInt
    // Growing spanner adjacency as nested buffers (edge additions are rare).
    val h = Array.fill(n)(mutable.ArrayBuffer.empty[(Int, Double)])
    val kept = new BitSet(src.length)
    val dist = new Array[Double](n)
    val stamp = new Array[Int](n)
    var curStamp = 0

    /** Bounded Dijkstra from s in the current spanner; true if d(s,v) ≤ cut. */
    def within(s: Int, v: Int, cut: Double): Boolean = {
      curStamp += 1
      val pq = mutable.PriorityQueue.empty[(Double, Int)](Ordering.by(-_._1))
      dist(s) = 0.0; stamp(s) = curStamp; pq.enqueue((0.0, s))
      while (pq.nonEmpty) {
        val (d, u) = pq.dequeue()
        if (u == v) return true
        if (stamp(u) == curStamp && d <= dist(u) + 1e-12) {
          h(u).foreach { case (x, w) =>
            val nd = d + w
            if (nd <= cut && (stamp(x) != curStamp || nd < dist(x))) {
              dist(x) = nd; stamp(x) = curStamp; pq.enqueue((nd, x))
            }
          }
        }
      }
      false
    }

    val order = src.indices.sortBy(e => (wt(e), src(e), dst(e)))
    order.foreach { e =>
      val (u, v, w) = (src(e), dst(e), wt(e))
      if (!within(u, v, t * w)) {
        kept.set(e)
        h(u) += ((v, w)); h(v) += ((u, w))
      }
    }
    GraphOps.subgraph(g, kept, s"SP$t")
  }
}
