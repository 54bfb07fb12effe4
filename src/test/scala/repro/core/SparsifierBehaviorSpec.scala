package repro.core

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.sparsifiers._
import repro.graphs.Datasets
import repro.metrics.QuadraticForm

/** Algorithm-specific behaviour: the guarantees each sparsifier advertises
  * in §2.3 (connectivity, stretch bounds, score ordering, hub bias …).
  */
class SparsifierBehaviorSpec extends SparkSpec {

  private lazy val fb = Datasets.get(spark, "ego-Facebook", 0.2)

  private def isolatedAfter(g: SparkGraph, h: SparkGraph): Long =
    GraphOps.isolatedCount(h) - GraphOps.isolatedCount(g)

  // ---- K-Neighbor / Local Degree / local similarity: ≥1 edge per vertex ----
  for (sp <- Seq(Sparsifiers.kNeighbor, Sparsifiers.localDegree,
                 Sparsifiers.localSimilarity, Sparsifiers.lSpar))
    test(s"${sp.abbrev}: creates no isolated vertices at moderate prune rates") {
      val h = sp(fb, 0.5, seed = 1)
      assert(isolatedAfter(fb, h) === 0, s"${sp.name} isolated vertices")
    }

  test("KN: per-vertex cap — kept degree ≤ selection level bound holds at high rho") {
    val h = Sparsifiers.kNeighbor(fb, 0.8, seed = 2)
    // with K-Neighbor, max kept degree can exceed k (a hub may be picked by
    // many neighbours) but every vertex must keep at least one edge
    assert(isolatedAfter(fb, h) === 0)
  }

  // ---- Spanning Forest ----
  test("SF: output is a forest (|E| = n − #components)") {
    val h = Sparsifiers.spanningForest(fb, 0.5, 0)
    val comps = h.undirectedCsr.components()
    val nComp = comps.distinct.length
    assert(h.numEdges === h.numVertices - nComp)
  }

  test("SF: preserves the component structure exactly") {
    val g = Datasets.get(spark, "email-Enron", 0.15) // disconnected
    val h = Sparsifiers.spanningForest(g, 0.5, 0)
    val co = g.undirectedCsr.components()
    val ch = h.undirectedCsr.components()
    // same partition: every original component maps to exactly one in h
    val mapping = co.zip(ch).distinct
    assert(mapping.map(_._1).distinct.length === mapping.length)
    assert(co.distinct.length === ch.distinct.length)
  }

  test("SF: spanning tree of a connected graph has n-1 edges") {
    val h = Sparsifiers.spanningForest(fb, 0.5, 0)
    assert(h.numEdges === fb.numVertices - 1)
  }

  // ---- t-Spanner ----
  test("SP-3: pairwise distances stretched at most t=3") {
    val g = Datasets.get(spark, "ca-HepPh", 0.08)
    val h = Sparsifiers.tSpanner(g, 0.5, 0)
    val cg = g.undirectedCsr
    val chh = h.undirectedCsr
    val rng = new scala.util.Random(7)
    (0 until 30).foreach { _ =>
      val s = rng.nextInt(cg.n)
      val dg = cg.bfs(s); val dh = chh.bfs(s)
      dg.indices.foreach { v =>
        if (dg(v) >= 0) {
          assert(dh(v) >= 0, s"spanner disconnected $s->$v")
          assert(dh(v) <= 3 * dg(v), s"stretch violated: d_G=${dg(v)} d_H=${dh(v)}")
        }
      }
    }
  }

  test("SP-t: larger t prunes more") {
    val g = Datasets.get(spark, "ca-HepPh", 0.08)
    val h3 = new TSpanner(3)(g, 0.5, 0)
    val h7 = new TSpanner(7)(g, 0.5, 0)
    assert(h7.numEdges <= h3.numEdges)
  }

  // ---- similarity-based global sparsifiers ----
  test("GS: min kept jaccard ≥ max dropped jaccard") {
    val h = Sparsifiers.gSpar(fb, 0.5, 0)
    val kept = h.edges.select("src", "dst").collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    val scores = fb.similarityScores.collect()
      .map(r => ((r.getLong(0), r.getLong(1)), r.getDouble(6)))
    val (inS, outS) = scores.partition(e => kept.contains(e._1))
    assert(inS.map(_._2).min >= outS.map(_._2).max - 1e-12)
  }

  test("SCAN: min kept scan score ≥ max dropped scan score") {
    val h = Sparsifiers.scan(fb, 0.5, 0)
    val kept = h.edges.select("src", "dst").collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    val scores = fb.similarityScores.collect()
      .map(r => ((r.getLong(0), r.getLong(1)), r.getDouble(7)))
    val (inS, outS) = scores.partition(e => kept.contains(e._1))
    assert(inS.map(_._2).min >= outS.map(_._2).max - 1e-12)
  }

  // ---- Local Degree hub bias ----
  test("LD: hubs retain proportionally more edges than leaves") {
    val h = Sparsifiers.localDegree(fb, 0.7, 0)
    val degO = GraphOps.totalDegrees(fb).collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    val degH = GraphOps.totalDegrees(h).collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    val hubs = degO.toSeq.sortBy(-_._2).take(10).map(_._1)
    val hubKeep = hubs.map(v => degH.getOrElse(v, 0L).toDouble / degO(v)).sum / hubs.size
    val overall = 1.0 - 0.7
    assert(hubKeep > overall, f"hub keep rate $hubKeep%.2f not above overall ${overall}%.2f")
  }

  // ---- Random uniformity ----
  test("RN: sampling is unbiased across vertex-id halves") {
    val h = Sparsifiers.random(fb, 0.5, seed = 11)
    val mid = fb.numVertices / 2
    def frac(g: SparkGraph) = {
      val lo = g.edges.filter(col("src") < mid).count().toDouble
      lo / g.numEdges
    }
    assert(math.abs(frac(h) - frac(fb)) < 0.05)
  }

  // ---- Forest Fire ----
  test("FF: burn scores favour edges in the giant component") {
    val g = Datasets.get(spark, "email-Enron", 0.15)
    val h = Sparsifiers.forestFire(g, 0.6, seed = 3)
    assert(h.numEdges > 0)
    // keeps roughly the requested edge count (exact top-K)
    assert(math.abs(h.numEdges.toDouble / g.numEdges - 0.4) < 0.02)
  }

  // ---- Rank Degree ----
  test("RD: keeps requested edge budget and grows a connected-ish region") {
    val h = Sparsifiers.rankDegree(fb, 0.5, seed = 9)
    assert(math.abs(h.numEdges.toDouble / fb.numEdges - 0.5) < 0.05)
  }

  test("RD: biases toward high-degree vertices") {
    val h = Sparsifiers.rankDegree(fb, 0.7, seed = 10)
    val degO = GraphOps.totalDegrees(fb).collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    val degH = GraphOps.totalDegrees(h).collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    val hubs = degO.toSeq.sortBy(-_._2).take(10).map(_._1)
    val hubKeep = hubs.map(v => degH.getOrElse(v, 0L).toDouble / degO(v)).sum / hubs.size
    assert(hubKeep > 0.3)
  }

  // ---- Effective Resistance ----
  test("ER: resistances on a path graph equal hop counts") {
    val path = GraphOps.fromPairs(spark, "path4er", Seq((0, 1), (1, 2), (2, 3)), directed = false, 4)
    val (s, d, _) = path.edgeArrays
    val r = path.resistances
    // every edge of a tree has effective resistance = its weight = 1
    s.indices.foreach(i => assert(math.abs(r(i) - 1.0) < 1e-6, s"edge ${s(i)}-${d(i)}: ${r(i)}"))
  }

  test("ER: parallel paths halve the resistance of a cycle edge") {
    val c4 = GraphOps.fromPairs(spark, "c4er", Seq((0, 1), (1, 2), (2, 3), (0, 3)), directed = false, 4)
    val r = c4.resistances
    // cycle of 4 unit resistors: R_e = 1·3/(1+3) = 0.75 for every edge
    r.foreach(x => assert(math.abs(x - 0.75) < 1e-6))
  }

  test("ER: sum of leverage scores w·R equals n − #components") {
    val g = Datasets.get(spark, "ego-Facebook", 0.1)
    val (_, _, w) = g.edgeArrays
    val r = g.resistances
    val lev = w.indices.map(i => w(i) * r(i)).sum
    assert(math.abs(lev - (g.numVertices - 1)) < 0.05 * g.numVertices)
  }

  test("ER-weighted: total kept weight is an unbiased estimate of total weight") {
    val h = Sparsifiers.erWeighted(fb, 0.4, seed = 5)
    def total(g: SparkGraph) = g.edges.agg(sum("weight")).collect()(0).getDouble(0)
    assert(math.abs(total(h) / total(fb) - 1.0) < 0.25)
  }

  test("ER-weighted: preserves the Laplacian quadratic form far better than Random") {
    val g = Datasets.get(spark, "com-Amazon", 0.15)
    val hEr = Sparsifiers.erWeighted(g, 0.5, seed = 6)
    val hRn = Sparsifiers.random(g, 0.5, seed = 6)
    val rEr = QuadraticForm.meanRatio(g, hEr, nVectors = 50)
    val rRn = QuadraticForm.meanRatio(g, hRn, nVectors = 50)
    assert(math.abs(rEr - 1.0) < math.abs(rRn - 1.0),
      f"ER-w ratio $rEr%.3f should beat Random $rRn%.3f")
    assert(math.abs(rEr - 1.0) < 0.25, f"ER-w quadratic form ratio off: $rEr%.3f")
  }

  test("ER-unweighted: keeps original weights") {
    val h = Sparsifiers.erUnweighted(fb, 0.4, seed = 5)
    assert(h.edges.filter(col("weight") =!= 1.0).count() === 0)
  }
}
