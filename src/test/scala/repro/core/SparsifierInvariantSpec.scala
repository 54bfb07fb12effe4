package repro.core

import repro.SparkSpec
import repro.graphs.Datasets

/** Property tests applied uniformly to every sparsifier in the registry:
  * edge-subset, fixed vertex set, prune-rate accuracy per its control class,
  * weight preservation, determinism flags, directed-input handling.
  */
class SparsifierInvariantSpec extends SparkSpec {

  private lazy val und = Datasets.get(spark, "ego-Facebook", 0.15) // undirected, connected
  private lazy val dir = Datasets.get(spark, "ego-Twitter", 0.12)  // directed, disconnected

  private def edgeSet(g: SparkGraph): Set[(Long, Long)] =
    g.edges.collect().map(r => (r.getLong(0), r.getLong(1))).toSet

  private def edgeWeights(g: SparkGraph): Map[(Long, Long), Double] =
    g.edges.collect().map(r => (r.getLong(0), r.getLong(1)) -> r.getDouble(2)).toMap

  for (sp <- Sparsifiers.all) {

    test(s"${sp.abbrev}: output edges are a subset of the input's") {
      val h = sp(und, 0.5, seed = 1)
      assert(edgeSet(h).subsetOf(edgeSet(und)), s"${sp.name} invented edges")
    }

    test(s"${sp.abbrev}: vertex set is preserved") {
      val h = sp(und, 0.5, seed = 1)
      assert(h.numVertices === und.numVertices)
    }

    test(s"${sp.abbrev}: prune-rate accuracy matches its control class") {
      val h = sp(und, 0.5, seed = 2)
      val achieved = 1.0 - h.numEdges.toDouble / und.numEdges
      sp.pruneRateControl match {
        case PruneRateControl.Fine =>
          assert(math.abs(achieved - 0.5) < 0.05, s"fine control missed: $achieved")
        case PruneRateControl.Coarse =>
          assert(math.abs(achieved - 0.5) < 0.35, s"coarse control too far: $achieved")
        case PruneRateControl.NoControl =>
          assert(h.numEdges > 0 && h.numEdges <= und.numEdges)
      }
    }

    test(s"${sp.abbrev}: weights are unchanged unless the sparsifier reweights") {
      val h = sp(und, 0.4, seed = 3)
      val ow = edgeWeights(und)
      val hw = edgeWeights(h)
      if (!sp.changesWeights)
        assert(hw.forall { case (e, w) => math.abs(ow(e) - w) < 1e-12 }, s"${sp.name} changed weights")
      else
        assert(hw.nonEmpty) // ER-weighted: weights intentionally differ
    }

    test(s"${sp.abbrev}: same seed reproduces the same subgraph") {
      val a = sp(und, 0.6, seed = 42)
      val b = sp(und, 0.6, seed = 42)
      assert(edgeSet(a) === edgeSet(b))
    }

    if (sp.deterministic)
      test(s"${sp.abbrev}: deterministic — output independent of seed") {
        val a = sp(und, 0.6, seed = 1)
        val b = sp(und, 0.6, seed = 99)
        assert(edgeSet(a) === edgeSet(b))
      }

    test(s"${sp.abbrev}: handles directed input per its Table 2 flag") {
      val h = sp(dir, 0.5, seed = 4)
      if (sp.supportsDirected) {
        assert(h.directed, s"${sp.name} should keep directed graphs directed")
        assert(edgeSet(h).subsetOf(edgeSet(dir)))
      } else {
        // framework symmetrizes first (§3.1), so the result is undirected
        assert(!h.directed)
        assert(edgeSet(h).subsetOf(edgeSet(dir.undirected)))
      }
      assert(h.numEdges > 0)
    }

    test(s"${sp.abbrev}: survives an extreme prune rate (0.9)") {
      val h = sp(und, 0.9, seed = 5)
      assert(h.numEdges > 0 && h.numEdges <= und.numEdges)
    }

    test(s"${sp.abbrev}: rejects invalid prune rates") {
      intercept[IllegalArgumentException](sp(und, 1.0, 0))
      intercept[IllegalArgumentException](sp(und, -0.1, 0))
    }
  }

  test("registry has the paper's 12 sparsifiers (Table 2) and 13 variants") {
    assert(Sparsifiers.table2.size === 12)
    assert(Sparsifiers.all.size === 13)
    assert(Sparsifiers.all.map(_.abbrev).distinct.size === 13)
  }

  test("byAbbrev resolves every abbreviation") {
    Sparsifiers.all.foreach(sp => assert(Sparsifiers.byAbbrev(sp.abbrev) eq sp))
    intercept[NoSuchElementException](Sparsifiers.byAbbrev("nope"))
  }
}
