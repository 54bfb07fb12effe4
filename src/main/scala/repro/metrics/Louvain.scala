package repro.metrics

import scala.collection.mutable
import scala.util.Random
import repro.core.SparkGraph

/** Louvain community detection (Blondel et al. 2008) — the clustering
  * substrate for the paper's #communities (Fig 8) and clustering-F1
  * (Fig 10) metrics. Standard two-phase modularity optimization on the
  * weighted undirected view; vertex visit order is seeded-random, so runs
  * are reproducible but (as in the paper) inherently randomized.
  */
object Louvain {

  /** Community label per vertex. Isolated vertices get singleton labels. */
  def cluster(g: SparkGraph, seed: Long = 0): Array[Int] = {
    val c0 = g.undirectedCsr
    // Current coarse graph as adjacency maps; node i of the coarse graph
    // aggregates a set of original vertices tracked in `membership`.
    var adj: Array[mutable.LongMap[Double]] = Array.tabulate(c0.n) { v =>
      val m = mutable.LongMap.empty[Double]
      c0.foreachNbr(v)((u, w) => if (u != v) m(u.toLong) = m.getOrElse(u.toLong, 0.0) + w)
      m
    }
    var membership: Array[Array[Int]] = Array.tabulate(c0.n)(v => Array(v))
    // selfW(v) = 2 × internal weight of the vertex-set v aggregates (counts
    // toward its weighted degree k_i but never toward links to OTHER
    // communities) — dropping it makes later passes over-merge.
    var selfW: Array[Double] = Array.fill(c0.n)(0.0)
    val rng = new Random(seed)
    val totalW = adj.map(_.values.sum).sum / 2.0
    if (totalW <= 0) return Array.tabulate(c0.n)(identity)

    var improvedOuter = true
    while (improvedOuter) {
      val n = adj.length
      val ki = Array.tabulate(n)(v => adj(v).values.sum + selfW(v)) // weighted degree
      val comm = Array.tabulate(n)(identity)
      val commTot = ki.clone()
      val m2 = 2.0 * totalW

      var improved = true
      var moved = false
      var rounds = 0
      while (improved && rounds < 32) {
        improved = false
        val order = rng.shuffle((0 until n).toList)
        order.foreach { v =>
          val cv = comm(v)
          // weights from v into each neighbouring community
          val links = mutable.LongMap.empty[Double]
          adj(v).foreach { case (u, w) => val c = comm(u.toInt); links(c.toLong) = links.getOrElse(c.toLong, 0.0) + w }
          commTot(cv) -= ki(v)
          val base = links.getOrElse(cv.toLong, 0.0) - ki(v) * commTot(cv) / m2
          var bestC = cv; var bestGain = base
          links.foreach { case (cL, w) =>
            val c = cL.toInt
            if (c != cv) {
              val gain = w - ki(v) * commTot(c) / m2
              if (gain > bestGain + 1e-12) { bestGain = gain; bestC = c }
            }
          }
          commTot(bestC) += ki(v)
          if (bestC != cv) { comm(v) = bestC; improved = true; moved = true }
        }
        rounds += 1
      }

      if (!moved) improvedOuter = false
      else {
        // Phase 2: contract communities into super-nodes.
        val ids = comm.distinct.sorted
        val remap = ids.zipWithIndex.toMap
        val k = ids.length
        val nadj = Array.fill(k)(mutable.LongMap.empty[Double])
        val nself = Array.fill(k)(0.0)
        val nmem = Array.fill(k)(mutable.ArrayBuffer.empty[Int])
        var v = 0
        while (v < n) {
          val cv = remap(comm(v))
          nmem(cv) ++= membership(v)
          nself(cv) += selfW(v)
          adj(v).foreach { case (u, w) =>
            val cu = remap(comm(u.toInt))
            if (cu != cv) nadj(cv)(cu.toLong) = nadj(cv).getOrElse(cu.toLong, 0.0) + w
            else nself(cv) += w // intra arcs appear twice ⇒ nself = 2×internal
          }
          v += 1
        }
        if (k == n) improvedOuter = false
        adj = nadj
        selfW = nself
        membership = nmem.map(_.toArray)
      }
    }

    val labels = new Array[Int](c0.n)
    membership.zipWithIndex.foreach { case (vs, c) => vs.foreach(labels(_) = c) }
    labels
  }

  def numCommunities(labels: Array[Int]): Int = labels.distinct.length
}

/** Clustering F1 similarity (§2.2.4).
  *
  * [[f1]] is the symmetric average best-match F1 (Yang–Leskovec style):
  * each cluster is matched to the reference cluster maximizing their
  * pairwise F1 = 2|C∩R|/(|C|+|R|), size-weighted, averaged over both
  * directions. [[f1PaperFormula]] is the formula as PRINTED in §2.2.4 —
  * kept for reference, but degenerate: a clustering shattered into
  * singletons scores precision = recall = 1 (every max_j{a_ij} = 1 and
  * Σmax = n), so aggressive disconnectors like G-Spar/SCAN would "win"
  * Fig 10 under it. The best-match variant penalizes shattering and
  * reproduces the paper's reported shape, so it is what the framework uses.
  */
object ClusterF1 {

  private def byCluster(labels: Array[Int]): Map[Int, Array[Int]] =
    labels.indices.groupBy(labels(_)).map { case (c, vs) => c -> vs.toArray }

  /** One direction: size-weighted mean over clusters of the best pairwise
    * F1 against any reference cluster.
    */
  private def directional(cs: Map[Int, Array[Int]], rs: Map[Int, Array[Int]],
                          refOf: Int => Int): Double = {
    val n = cs.values.map(_.length).sum.toDouble
    cs.values.map { members =>
      // candidate reference clusters: those overlapping this cluster
      val counts = mutable.Map.empty[Int, Int]
      members.foreach(v => counts(refOf(v)) = counts.getOrElse(refOf(v), 0) + 1)
      val best = counts.map { case (r, inter) =>
        2.0 * inter / (members.length + rs(r).length)
      }.max
      best * members.length
    }.sum / n
  }

  /** Symmetric average best-match F1 in [0, 1]; 1 iff identical partitions. */
  def f1(clusters: Array[Int], reference: Array[Int]): Double = {
    require(clusters.length == reference.length)
    if (clusters.isEmpty) return 0.0
    val cs = byCluster(clusters); val rs = byCluster(reference)
    val a = directional(cs, rs, reference(_))
    val b = directional(rs, cs, clusters(_))
    (a + b) / 2
  }

  /** The §2.2.4 formula verbatim (see object doc for why it is not used). */
  def f1PaperFormula(clusters: Array[Int], reference: Array[Int]): Double = {
    require(clusters.length == reference.length)
    val n = clusters.length
    if (n == 0) return 0.0
    val a = mutable.Map.empty[Int, mutable.Map[Int, Long]]
    var v = 0
    while (v < n) {
      val row = a.getOrElseUpdate(clusters(v), mutable.Map.empty)
      row(reference(v)) = row.getOrElse(reference(v), 0L) + 1
      v += 1
    }
    val sumMax = a.values.map(_.values.max).sum.toDouble
    val total = a.values.map(_.values.sum).sum.toDouble
    val precision = sumMax / total
    val recall = sumMax / n
    if (precision + recall <= 0) 0.0 else 2 * precision * recall / (precision + recall)
  }

  /** F1 between Louvain clusterings of the sparsified and original graphs. */
  def similarity(orig: SparkGraph, spar: SparkGraph, seed: Long = 0): Double =
    f1(Louvain.cluster(spar, seed + 1), Louvain.cluster(orig, seed))
}
