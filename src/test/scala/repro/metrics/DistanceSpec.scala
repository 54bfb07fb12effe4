package repro.metrics

import repro.SparkSpec
import repro.core.{GraphOps, Sparsifiers}
import repro.graphs.Datasets

class DistanceSpec extends SparkSpec {

  private lazy val fb = Datasets.get(spark, "ego-Facebook", 0.15)

  test("spsp stretch of a graph vs itself is 1 with no unreachable pairs") {
    val r = Distances.spspStretch(fb, fb, nPairs = 300, seed = 1)
    assert(math.abs(r.meanStretch - 1.0) < 1e-12)
    assert(r.unreachableFrac === 0.0)
  }

  test("spsp stretch of a proper subgraph is ≥ 1") {
    val h = Sparsifiers.random(fb, 0.5, 1)
    val r = Distances.spspStretch(fb, h, nPairs = 300, seed = 2)
    assert(r.meanStretch >= 1.0 - 1e-12)
  }

  test("spanning forest keeps every pair reachable (possibly stretched)") {
    val h = Sparsifiers.spanningForest(fb, 0.5, 0)
    val r = Distances.spspStretch(fb, h, nPairs = 300, seed = 3)
    assert(r.unreachableFrac === 0.0)
    assert(r.meanStretch >= 1.0)
  }

  test("eccentricity of a path graph") {
    val p5 = GraphOps.fromPairs(spark, "ecc-p5", Seq((0, 1), (1, 2), (2, 3), (3, 4)), directed = false, 5)
    val c = p5.undirectedCsr
    assert(Distances.eccentricity(c, 0, weighted = false) === 4.0)
    assert(Distances.eccentricity(c, 2, weighted = false) === 2.0)
  }

  test("eccentricity stretch of a graph vs itself is 1") {
    val r = Distances.eccentricityStretch(fb, fb, nSources = 100, seed = 1)
    assert(math.abs(r.meanStretch - 1.0) < 1e-12)
    assert(r.unreachableFrac === 0.0)
  }

  test("approx diameter of a path graph equals its length") {
    val p6 = GraphOps.fromPairs(spark, "diam-p6",
      (0 until 5).map(i => (i, i + 1)), directed = false, 6)
    assert(Distances.approxDiameter(p6, nSeeds = 5, seed = 1) === 5.0)
  }

  test("approx diameter of a cycle is n/2") {
    val c8 = GraphOps.fromPairs(spark, "diam-c8",
      (0 until 8).map(i => (i, (i + 1) % 8)), directed = false, 8)
    assert(Distances.approxDiameter(c8, nSeeds = 5, seed = 1) === 4.0)
  }

  test("diameter never shrinks under edge removal (on reachable pairs)") {
    val d0 = Distances.approxDiameter(fb, nSeeds = 5, seed = 2)
    val h = Sparsifiers.localDegree(fb, 0.5, 0)
    val d1 = Distances.approxDiameter(h, nSeeds = 5, seed = 2)
    assert(d1 >= d0 - 1.0) // approximate algorithm: allow 1 hop of slack
  }

  test("stretch handles graphs that fall apart") {
    val g = GraphOps.fromPairs(spark, "frag", Seq((0, 1), (1, 2), (2, 0), (3, 4)), directed = false, 5)
    val h = GraphOps.fromPairs(spark, "frag-h", Seq((0, 1)), directed = false, 5)
    val r = Distances.spspStretch(g, h, nPairs = 200, seed = 4)
    assert(r.unreachableFrac > 0)
  }
}
