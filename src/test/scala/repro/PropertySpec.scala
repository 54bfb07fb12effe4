package repro

import scala.util.Random
import repro.core.GraphOps
import repro.metrics._

/** Randomized property tests (deterministic seeds) for the pure-math
  * kernels: many random instances per property, checked exhaustively.
  */
class PropertySpec extends SparkSpec {

  private def probVec(rng: Random, n: Int): Array[Double] = {
    val xs = Array.fill(n)(rng.nextDouble())
    val s = xs.sum
    xs.map(_ / s)
  }

  test("bhattacharyya: non-negative, zero iff identical (50 random instances)") {
    val rng = new Random(1)
    (0 until 50).foreach { _ =>
      val p = probVec(rng, 2 + rng.nextInt(60))
      assert(DegreeDistribution.bhattacharyya(p, p) >= 0.0)
      assert(DegreeDistribution.bhattacharyya(p, p) < 1e-9)
    }
  }

  test("bhattacharyya: symmetric (50 random instances)") {
    val rng = new Random(2)
    (0 until 50).foreach { _ =>
      val n = 2 + rng.nextInt(60)
      val p = probVec(rng, n); val q = probVec(rng, n)
      assert(math.abs(DegreeDistribution.bhattacharyya(p, q) -
        DegreeDistribution.bhattacharyya(q, p)) < 1e-9)
    }
  }

  test("topKPrecision: reflexive and bounded (50 random instances)") {
    val rng = new Random(3)
    (0 until 50).foreach { _ =>
      val s = Array.fill(5 + rng.nextInt(100))(rng.nextDouble() * 200 - 100)
      val k = 1 + rng.nextInt(20)
      assert(Centrality.topKPrecision(s, s, k) === 1.0)
      val p = Centrality.topKPrecision(s, s.reverse, k)
      assert(p >= 0.0 && p <= 1.0)
    }
  }

  test("auroc: bounded and antisymmetric under score negation (50 instances)") {
    val rng = new Random(4)
    (0 until 50).foreach { _ =>
      val n = 4 + rng.nextInt(50)
      val s = Array.fill(n)(rng.nextDouble())
      val y = Array.fill(n)(rng.nextBoolean())
      val a = Gnn.auroc(s, y)
      assert(a >= 0.0 && a <= 1.0)
      if (y.exists(identity) && y.exists(!_))
        assert(math.abs(a + Gnn.auroc(s.map(-_), y) - 1.0) < 1e-9)
    }
  }

  test("F1: reflexive, bounded, relabel-invariant (50 random instances)") {
    val rng = new Random(5)
    (0 until 50).foreach { _ =>
      val n = 2 + rng.nextInt(60)
      val a = Array.fill(n)(rng.nextInt(6))
      val b = Array.fill(n)(rng.nextInt(6))
      assert(ClusterF1.f1(a, a) === 1.0)
      val f = ClusterF1.f1(a, b)
      assert(f >= 0.0 && f <= 1.0)
      assert(math.abs(ClusterF1.f1(a.map(_ + 100), b) - f) < 1e-12)
    }
  }

  test("BFS distances satisfy the edge triangle inequality (20 random graphs)") {
    val rng = new Random(6)
    (0 until 20).foreach { it =>
      val n = 5 + rng.nextInt(35)
      val edges = Seq.fill(2 * n)((rng.nextInt(n), rng.nextInt(n))).filter(e => e._1 != e._2)
      if (edges.nonEmpty) {
        val g = GraphOps.fromPairs(spark, s"prop-bfs-$it", edges, directed = false, n)
        val d = g.undirectedCsr.bfs(edges.head._1)
        edges.foreach { case (u, v) =>
          if (d(u) >= 0 && d(v) >= 0) assert(math.abs(d(u) - d(v)) <= 1)
        }
      }
    }
  }

  test("components agree with BFS reachability (20 random graphs)") {
    val rng = new Random(7)
    (0 until 20).foreach { it =>
      val n = 4 + rng.nextInt(20)
      val edges = Seq.fill(n)((rng.nextInt(n), rng.nextInt(n))).filter(e => e._1 != e._2)
      if (edges.nonEmpty) {
        val g = GraphOps.fromPairs(spark, s"prop-cc-$it", edges, directed = false, n)
        val c = g.undirectedCsr
        val comp = c.components()
        val d0 = c.bfs(0)
        (0 until n).foreach(v => assert((comp(v) == comp(0)) === (d0(v) >= 0)))
      }
    }
  }

  test("max-flow is symmetric on undirected graphs (10 random graphs)") {
    val rng = new Random(8)
    (0 until 10).foreach { it =>
      val n = 5 + rng.nextInt(10)
      val edges = Seq.fill(3 * n)((rng.nextInt(n), rng.nextInt(n))).filter(e => e._1 != e._2)
      if (edges.nonEmpty) {
        val g = GraphOps.fromPairs(spark, s"prop-mf-$it", edges, directed = false, n)
        val net = MaxFlow.network(g)
        val (s, t) = (0, n - 1)
        assert(math.abs(net.maxFlow(s, t) - net.maxFlow(t, s)) < 1e-9)
      }
    }
  }

  test("max-flow is bounded by the endpoint degrees (10 random graphs)") {
    val rng = new Random(9)
    (0 until 10).foreach { it =>
      val n = 5 + rng.nextInt(10)
      val edges = Seq.fill(3 * n)((rng.nextInt(n), rng.nextInt(n))).filter(e => e._1 != e._2)
      if (edges.nonEmpty) {
        val g = GraphOps.fromPairs(spark, s"prop-mfb-$it", edges, directed = false, n)
        val c = g.undirectedCsr
        val f = MaxFlow.network(g).maxFlow(0, n - 1)
        assert(f <= math.min(c.degree(0), c.degree(n - 1)) + 1e-9)
      }
    }
  }

  test("Louvain labels are a valid partition on random graphs (5 instances)") {
    val rng = new Random(10)
    (0 until 5).foreach { it =>
      val n = 10 + rng.nextInt(30)
      val edges = Seq.fill(3 * n)((rng.nextInt(n), rng.nextInt(n))).filter(e => e._1 != e._2)
      val g = GraphOps.fromPairs(spark, s"prop-lv-$it", edges, directed = false, n)
      val labels = Louvain.cluster(g, seed = it)
      assert(labels.length === n)
      assert(labels.forall(_ >= 0))
      // connected vertices in the same component ⇒ labels form ≤ n groups
      assert(Louvain.numCommunities(labels) <= n)
    }
  }
}
