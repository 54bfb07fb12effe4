package repro.metrics

import repro.SparkSpec
import repro.core.GraphOps

class CsrSpec extends SparkSpec {

  private lazy val path5 = GraphOps.fromPairs(spark, "p5",
    Seq((0, 1), (1, 2), (2, 3), (3, 4)), directed = false, 5)
  private lazy val twoComp = GraphOps.fromPairs(spark, "2c",
    Seq((0, 1), (1, 2), (3, 4)), directed = false, 6) // vertex 5 isolated

  test("bfs distances on a path") {
    val c = path5.undirectedCsr
    assert(c.bfs(0).toSeq === Seq(0, 1, 2, 3, 4))
    assert(c.bfs(2).toSeq === Seq(2, 1, 0, 1, 2))
  }

  test("bfs marks unreachable as -1") {
    val c = twoComp.undirectedCsr
    val d = c.bfs(0)
    assert(d(3) === -1 && d(4) === -1 && d(5) === -1)
  }

  test("dijkstra respects weights") {
    val g = GraphOps.fromArrays(spark, "wpath", Array(0, 1, 0), Array(1, 2, 2),
      Array(1.0, 1.0, 5.0), directed = false, weighted = true, 3)
    val d = g.undirectedCsr.dijkstra(0)
    assert(d(2) === 2.0) // via vertex 1, not the direct 5.0 edge
  }

  test("directed CSR only exposes out-edges") {
    val g = GraphOps.fromPairs(spark, "dpath", Seq((0, 1), (1, 2)), directed = true, 3)
    val c = g.csr
    assert(c.bfs(0).toSeq === Seq(0, 1, 2))
    assert(c.bfs(2).toSeq === Seq(-1, -1, 0))
  }

  test("components labels partition the graph") {
    val comp = twoComp.undirectedCsr.components()
    assert(comp(0) === comp(1) && comp(1) === comp(2))
    assert(comp(3) === comp(4))
    assert(comp(0) != comp(3) && comp(3) != comp(5) && comp(0) != comp(5))
  }

  test("degree and maxDegree") {
    val c = path5.undirectedCsr
    assert(c.degree(0) === 1 && c.degree(2) === 2)
    assert(c.maxDegree === 2)
  }

  test("distances dispatches on weighted flag") {
    val c = path5.undirectedCsr
    assert(c.distances(0, weighted = false).toSeq === Seq(0.0, 1.0, 2.0, 3.0, 4.0))
    assert(c.distances(0, weighted = true).toSeq === Seq(0.0, 1.0, 2.0, 3.0, 4.0))
  }
}
