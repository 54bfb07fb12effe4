package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.sparsifiers.EffectiveResistance
import repro.graphs.Datasets
import repro.metrics.DegreeDistribution

/** A graph's edges are collected once per instance; `numEdges`,
  * `collectEdges`, the degree array and the degree metrics read that copy.
  * The other derived views (CSRs, the undirected graph, similarity scores,
  * resistances) are likewise computed once per instance and never shared
  * between instances, whatever their names.
  */
class SparkGraphSpec extends SparkSpec {
  import GraphOps._

  private lazy val undirected = fromPairs(spark, "und", Seq((0, 1), (1, 2), (0, 2), (2, 3)), directed = false, 4)
  private lazy val directed   = fromPairs(spark, "dir", Seq((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)), directed = true, 4)
  private lazy val isolated   = fromPairs(spark, "iso", Seq((0, 1), (3, 4), (4, 6)), directed = false, 8)

  /** A graph over exactly the given edges, with a deterministic plan. */
  private def frozen(g: SparkGraph): SparkGraph = {
    val (s, d, w) = collectEdges(g)
    fromArrays(spark, s"${g.name}#frozen", s, d, w, g.directed, g.weighted, g.numVertices)
  }

  private def edgeSet(g: SparkGraph): Set[(Int, Int, Double)] = {
    val (s, d, w) = collectEdges(g)
    s.indices.map(i => (s(i), d(i), w(i))).toSet
  }

  private def maxDegree(g: SparkGraph): Int = g.totalDegreeArray.max

  /** The DataFrame reference: [[GraphOps.totalDegrees]] padded with zeros. */
  private def referenceDegrees(g: SparkGraph): Array[Int] = {
    val deg = new Array[Int](g.numVertices.toInt)
    totalDegrees(g).collect().foreach(r => deg(r.getLong(0).toInt) = r.getLong(1).toInt)
    deg
  }

  /** Jobs submitted while `body` runs, read from the status tracker. Its
    * listener is asynchronous, so a zero count is re-read for up to 2 s.
    */
  private def jobsDuring(body: => Unit): Int = {
    val sc = spark.sparkContext
    val group = s"jobs-${System.nanoTime()}"
    sc.setJobGroup(group, group)
    try body finally sc.clearJobGroup()
    val deadline = System.nanoTime() + 2_000_000_000L
    var n = sc.statusTracker.getJobIdsForGroup(group).length
    while (n == 0 && System.nanoTime() < deadline) {
      Thread.sleep(50)
      n = sc.statusTracker.getJobIdsForGroup(group).length
    }
    n
  }

  // ---- one edge set per instance ----
  Seq(Sparsifiers.random, Sparsifiers.kNeighbor).foreach { sp =>
    test(s"${sp.abbrev}: numEdges, collectEdges, degree histogram and isolatedCount describe one edge set") {
      val g = Datasets.get(spark, "ogbn-proteins", 0.5)
      val h = sp(g, 0.5, seed = 7)
      val f = frozen(h)
      assert(h.numEdges === collectEdges(h)._1.length)
      assert(edgeSet(f) === edgeSet(h))
      val m = maxDegree(f)
      assert(DegreeDistribution.histogram(h, m).toSeq === DegreeDistribution.histogram(f, m).toSeq)
      assert(DegreeDistribution.distance(g, h) === DegreeDistribution.distance(g, f))
      assert(isolatedCount(h) === isolatedCount(f))
      // the frozen copy's DataFrame reference agrees with the memoised views
      assert(h.totalDegreeArray.toSeq === referenceDegrees(f).toSeq)
    }
  }

  // ---- the degree array and its readers against the DataFrame and DuckDB references ----
  private def vertices(g: SparkGraph): DataFrame = spark.range(g.numVertices).toDF("v")

  Seq("undirected" -> (() => undirected), "directed" -> (() => directed), "isolated-vertex" -> (() => isolated))
    .foreach { case (label, mk) =>
      test(s"$label: degree array, histogram and isolatedCount match totalDegrees and DuckDB") {
        import spark.implicits._
        val g = mk()
        val ref = referenceDegrees(g)
        assert(g.totalDegreeArray.toSeq === ref.toSeq)

        val degDf = g.totalDegreeArray.zipWithIndex.collect { case (d, v) if d > 0 => (v.toLong, d.toLong) }
          .toSeq.toDF("v", "deg")
        Oracle.assertEquivalent(degDf,
          """SELECT v, COUNT(*) AS deg FROM
            |  (SELECT src AS v FROM edges UNION ALL SELECT dst AS v FROM edges)
            |GROUP BY v""".stripMargin,
          "edges" -> g.edges)

        assert(isolatedCount(g) === ref.count(_ == 0))
        Oracle.assertEquivalent(Seq(isolatedCount(g)).toDF("iso"),
          """SELECT COUNT(*) AS iso FROM vs
            |WHERE v NOT IN (SELECT src FROM edges UNION SELECT dst FROM edges)""".stripMargin,
          "edges" -> g.edges, "vs" -> vertices(g))

        val m = maxDegree(g)
        val nb = DegreeDistribution.NumBins
        val width = (m + 1).toDouble / nb
        val refHist = new Array[Double](nb)
        ref.foreach(d => refHist(math.min(nb - 1, (d / width).toInt)) += 1.0)
        val hist = DegreeDistribution.histogram(g, m)
        assert(hist.toSeq === refHist.map(_ / g.numVertices).toSeq)
        val binCounts = hist.zipWithIndex.collect { case (p, b) if p > 0 => (b.toLong, math.round(p * g.numVertices)) }
          .toSeq.toDF("bin", "cnt")
        Oracle.assertEquivalent(binCounts,
          s"""SELECT LEAST(${nb - 1},
             |         CAST(FLOOR(CAST(COALESCE(d.deg, 0) AS DOUBLE) / CAST('$width' AS DOUBLE)) AS BIGINT)) AS bin,
             |       COUNT(*) AS cnt
             |FROM vs LEFT JOIN
             |  (SELECT v, COUNT(*) AS deg FROM
             |    (SELECT src AS v FROM edges UNION ALL SELECT dst AS v FROM edges) GROUP BY v) d
             |  ON vs.v = d.v
             |GROUP BY 1""".stripMargin,
          "edges" -> g.edges, "vs" -> vertices(g))
      }
    }

  // ---- memo scope ----
  test("withEdges, copy and symmetrize results report their own edges, never the source's") {
    val g = fromPairs(spark, "memo", Seq((0, 1), (1, 0), (1, 2), (2, 3)), directed = true, 5)
    assert(g.numEdges === 4 && g.totalDegreeArray.toSeq === Seq(2, 3, 2, 1, 0))

    val w = g.withEdges(g.edges.filter(col("src") === 1), "from1")
    assert(w.numEdges === 2)
    assert(edgeSet(w) === Set((1, 0, 1.0), (1, 2, 1.0)))
    assert(w.totalDegreeArray.toSeq === Seq(1, 2, 1, 0, 0))
    assert(isolatedCount(w) === 2)

    val c = g.copy(edges = g.edges.filter(col("dst") === 3))
    assert(c.numEdges === 1 && edgeSet(c) === Set((2, 3, 1.0)))
    assert(isolatedCount(c) === 3)

    val u = g.undirected
    assert(u.numEdges === 3 && edgeSet(u) === Set((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)))
    assert(u.totalDegreeArray.toSeq === Seq(1, 2, 2, 1, 0))
    // the source's memo is untouched
    assert(g.numEdges === 4 && edgeSet(g).size === 4)
  }

  test("a graph is collected once: later counts, degree metrics and collects submit no Spark job") {
    val g = fromPairs(spark, "once", Seq((0, 1), (1, 2), (2, 3)), directed = false, 6)
    assert(jobsDuring(g.numEdges) > 0)
    val later = jobsDuring {
      g.numEdges
      collectEdges(g)
      isolatedCount(g)
      DegreeDistribution.distance(g, g)
    }
    assert(later === 0)
    assert(collectEdges(g)._1 eq collectEdges(g)._1)
  }

  test("each derived view is computed once per instance: a repeat read is the same object and submits no Spark job") {
    val g = fromPairs(spark, "views", Seq((0, 1), (1, 0), (1, 2), (2, 3), (0, 2)), directed = true, 5)
    def views(): Seq[AnyRef] =
      Seq(g.csr, g.undirectedCsr, g.undirected, g.similarityScores, g.undirected.resistances)
    val first = views()
    var again: Seq[AnyRef] = Nil
    assert(jobsDuring { again = views() } === 0)
    first.zip(again).foreach { case (a, b) => assert(a eq b) }
    // a directed graph has two CSRs; an undirected one only one
    assert(!(g.csr eq g.undirectedCsr))
    assert(g.undirected.undirectedCsr eq g.undirected.csr)
  }

  test("copy and withEdges start with none of the source's views") {
    val g = fromPairs(spark, "fresh", Seq((0, 1), (1, 2), (2, 3), (3, 1)), directed = true, 5)
    def views(x: SparkGraph): Seq[AnyRef] =
      Seq(x.edgeArrays._1, x.csr, x.undirectedCsr, x.undirected, x.similarityScores, x.undirected.resistances)
    val source = views(g)
    for (h <- Seq(g.copy(), g.withEdges(g.edges, "same"))) {
      assert(h.numEdges === g.numEdges)
      views(h).zip(source).foreach { case (a, b) => assert(!(a eq b)) }
    }
  }

  test("ER on a directed graph solves once per instance: every cell reads the undirected view's resistances") {
    val g = Datasets.get(spark, "ego-Twitter", 0.1)
    assert(g.directed)
    Sparsifiers.erUnweighted(g, 0.5, seed = 1).numEdges
    val u = g.undirected
    // the first cell collected and solved this very view, so nothing is left to collect
    var r: Array[Double] = null
    assert(jobsDuring { r = u.resistances } === 0)
    // later cells, of either variant, read the same array
    Sparsifiers.erWeighted(g, 0.3, seed = 2).numEdges
    Sparsifiers.erUnweighted(g, 0.7, seed = 3).numEdges
    assert(g.undirected eq u)
    assert(u.resistances eq r)
  }

  test("two graphs that share a name share no scores or resistances") {
    // a 4-cycle on 0..3 and a path on 4..7: disjoint edge sets, one name
    val a = fromPairs(spark, "twin", Seq((0, 1), (1, 2), (2, 3), (0, 3)), directed = false, 8)
    val b = fromPairs(spark, "twin", Seq((4, 5), (5, 6), (6, 7)), directed = false, 8)
    for (sp <- Seq(Sparsifiers.localSimilarity, Sparsifiers.gSpar); g <- Seq(a, b)) {
      val h = sp(g, 0.4, seed = 0)
      assert(edgeSet(h).subsetOf(edgeSet(g)), s"${sp.abbrev} on ${edgeSet(g)} kept ${edgeSet(h)}")
      assert(h.numEdges === math.round(0.6 * g.numEdges))
    }
    // every edge of a 4-cycle has resistance 3/4, every edge of a tree 1
    assert(a.resistances.length === 4 && a.resistances.forall(x => math.abs(x - 0.75) < 1e-6))
    assert(b.resistances.length === 3 && b.resistances.forall(x => math.abs(x - 1.0) < 1e-6))
  }

  test("the dense ER solve fails over its cap with a message naming the graph, its size and the cap") {
    val big = fromPairs(spark, "er-big", Seq((0, 1)), directed = false, EffectiveResistance.MaxVertices + 1L)
    val e = intercept[IllegalArgumentException](big.resistances)
    assert(e.getMessage.contains("dense ER solve on er-big: 6001 vertices exceeds the cap of 6000"))
  }

  test("numEdges is subject to the driver-collection cap") {
    val big = undirected.copy(name = "big", numVertices = 3_000_000L)
    val e = intercept[IllegalArgumentException](big.numEdges)
    assert(e.getMessage.contains("graph big too large for driver collection"))
  }
}
