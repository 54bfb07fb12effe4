package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

class SimilarityScoresSpec extends SparkSpec {

  // K4 minus one edge: N(0)={1,2,3}, N(1)={0,2,3}, N(2)={0,1}, N(3)={0,1}
  private lazy val diamond = GraphOps.fromPairs(spark, "diamond",
    Seq((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)), directed = false, 4)

  test("common neighbour counts on the diamond graph") {
    val s = diamond.similarityScores.collect()
      .map(r => (r.getLong(0), r.getLong(1)) -> r.getLong(5)).toMap
    assert(s((0L, 1L)) === 2) // 2 and 3
    assert(s((0L, 2L)) === 1) // 1
    assert(s((1L, 3L)) === 1) // 0
  }

  test("jaccard scores on the diamond graph") {
    val s = diamond.similarityScores.collect()
      .map(r => (r.getLong(0), r.getLong(1)) -> r.getDouble(6)).toMap
    // edge (0,1): |N∩|=2, |N∪|=3+3-2=4
    assert(math.abs(s((0L, 1L)) - 0.5) < 1e-12)
    // edge (0,2): |N∩|=1, |N∪|=3+2-1=4
    assert(math.abs(s((0L, 2L)) - 0.25) < 1e-12)
  }

  test("scan scores on the diamond graph follow the paper's formula") {
    val s = diamond.similarityScores.collect()
      .map(r => (r.getLong(0), r.getLong(1)) -> r.getDouble(7)).toMap
    assert(math.abs(s((0L, 1L)) - 3.0 / math.sqrt(16.0)) < 1e-12)
    assert(math.abs(s((0L, 2L)) - 2.0 / math.sqrt(12.0)) < 1e-12)
  }

  test("common-neighbour counts match DuckDB oracle") {
    val g = repro.graphs.Datasets.get(spark, "ca-HepPh", 0.08)
    val sparkCommon = g.similarityScores
      .filter(col("common") > 0)
      .select(col("src"), col("dst"), col("common"))
    Oracle.assertEquivalent(
      sparkCommon,
      """WITH arcs AS (
        |  SELECT src AS u, dst AS v FROM edges
        |  UNION ALL SELECT dst AS u, src AS v FROM edges)
        |SELECT e.src, e.dst, COUNT(*) AS common
        |FROM edges e
        |JOIN arcs a ON a.u = e.src
        |JOIN arcs b ON b.u = e.dst AND b.v = a.v
        |GROUP BY e.src, e.dst""".stripMargin,
      "edges" -> g.edges)
  }

  test("isolated-endpoint edges get zero jaccard without crashing") {
    // star: leaves share no neighbours
    val star = GraphOps.fromPairs(spark, "star5", (1 to 4).map(i => (0, i)), directed = false, 5)
    val s = star.similarityScores.collect()
    assert(s.length === 4)
    assert(s.forall(_.getDouble(6) === 0.0)) // no common neighbours anywhere
  }

  test("directed graphs use out-neighbourhoods") {
    // 0->2, 1->2 : edge (0,1) absent; edge 0->1 with both pointing at 2
    val g = GraphOps.fromPairs(spark, "dirsim", Seq((0, 1), (0, 2), (1, 2)), directed = true, 3)
    val s = g.similarityScores.collect()
      .map(r => (r.getLong(0), r.getLong(1)) -> r.getLong(5)).toMap
    // edge (0,1): N_out(0)={1,2}, N_out(1)={2} → common {2}
    assert(s((0L, 1L)) === 1)
    // edge (1,2): N_out(2)={} → common 0
    assert(s((1L, 2L)) === 0)
  }

  test("score cache returns the same DataFrame instance per graph") {
    val a = diamond.similarityScores
    val b = diamond.similarityScores
    assert(a eq b)
  }
}
