package repro.metrics

import repro.SparkSpec
import repro.core.GraphOps
import repro.graphs.Datasets

/** The driver PageRank is verified against the independent DataFrame
  * implementation (same math, different engine) on several graph shapes.
  */
class PageRankSpec extends SparkSpec {

  private def compare(g: repro.core.SparkGraph, tol: Double = 1e-6): Unit = {
    val df = DataFramePageRank.scores(g, iters = 15)
    val drv = PageRank.scores(g, iters = 15)
    assert(df.length === drv.length)
    df.indices.foreach { v =>
      assert(math.abs(df(v) - drv(v)) < tol, s"v=$v df=${df(v)} driver=${drv(v)}")
    }
  }

  test("DataFrame pagerank matches driver on an undirected triangle") {
    compare(GraphOps.fromPairs(spark, "pr-tri", Seq((0, 1), (1, 2), (0, 2)), directed = false, 3))
  }

  test("DataFrame pagerank matches driver on a directed path with dangling sink") {
    compare(GraphOps.fromPairs(spark, "pr-path", Seq((0, 1), (1, 2), (2, 3)), directed = true, 4))
  }

  test("DataFrame pagerank matches driver on a star") {
    compare(GraphOps.fromPairs(spark, "pr-star", (1 to 6).map(i => (0, i)), directed = false, 7))
  }

  test("DataFrame pagerank matches driver with isolated vertices") {
    compare(GraphOps.fromPairs(spark, "pr-iso", Seq((0, 1)), directed = false, 4))
  }

  test("DataFrame pagerank matches driver on a weighted graph") {
    val g = GraphOps.fromArrays(spark, "pr-w", Array(0, 0, 1), Array(1, 2, 2),
      Array(3.0, 1.0, 2.0), directed = true, weighted = true, 3)
    compare(g)
  }

  test("DataFrame pagerank matches driver on a directed web-like graph") {
    compare(Datasets.get(spark, "web-NotreDame", 0.05), tol = 1e-5)
  }

  test("pagerank mass is conserved (sums to 1)") {
    val g = Datasets.get(spark, "web-Google", 0.05)
    val pr = PageRank.scores(g, iters = 10)
    assert(math.abs(pr.sum - 1.0) < 1e-6)
  }

  test("pagerank favours high in-degree vertices on directed stars") {
    val g = GraphOps.fromPairs(spark, "pr-instar", (1 to 5).map(i => (i, 0)), directed = true, 6)
    val pr = PageRank.scores(g, iters = 15)
    (1 to 5).foreach(i => assert(pr(0) > pr(i)))
  }
}
