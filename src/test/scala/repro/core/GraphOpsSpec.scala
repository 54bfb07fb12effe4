package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

class GraphOpsSpec extends SparkSpec {
  import GraphOps._

  private lazy val triangle = fromPairs(spark, "tri", Seq((0, 1), (1, 2), (0, 2)), directed = false, 3)
  private lazy val pathDir  = fromPairs(spark, "pdir", Seq((0, 1), (1, 2), (2, 3)), directed = true, 4)

  test("canonicalize drops self loops") {
    import spark.implicits._
    val e = Seq((1L, 1L, 1.0), (1L, 2L, 1.0)).toDF("src", "dst", "weight")
    assert(canonicalize(e, directed = true).count() === 1)
  }

  test("canonicalize dedupes undirected edges regardless of orientation") {
    import spark.implicits._
    val e = Seq((1L, 2L, 1.0), (2L, 1L, 3.0), (1L, 2L, 2.0)).toDF("src", "dst", "weight")
    val c = canonicalize(e, directed = false).collect()
    assert(c.length === 1)
    assert(c(0).getLong(0) === 1L && c(0).getLong(1) === 2L)
    assert(c(0).getDouble(2) === 3.0) // max weight wins
  }

  test("canonicalize keeps reciprocal directed edges distinct") {
    import spark.implicits._
    val e = Seq((1L, 2L, 1.0), (2L, 1L, 1.0)).toDF("src", "dst", "weight")
    assert(canonicalize(e, directed = true).count() === 2)
  }

  test("undirected edges stored with src < dst") {
    val g = fromPairs(spark, "c5", Seq((4, 0), (3, 4), (2, 3), (1, 2), (0, 1)), directed = false, 5)
    assert(g.edges.filter(col("src") >= col("dst")).count() === 0)
    assert(g.numEdges === 5)
  }

  test("arcs doubles undirected edges and preserves directed ones") {
    assert(arcs(triangle).count() === 6)
    assert(arcs(pathDir).count() === 3)
  }

  test("degrees of a triangle are all 2") {
    val d = degrees(triangle).collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    assert(d === Map(0L -> 2L, 1L -> 2L, 2L -> 2L))
  }

  test("degrees of a directed path are out-degrees") {
    val d = degrees(pathDir).collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    assert(d === Map(0L -> 1L, 1L -> 1L, 2L -> 1L)) // vertex 3 has out-degree 0
  }

  test("total degrees of a directed path count both endpoints") {
    val d = totalDegrees(pathDir).collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    assert(d === Map(0L -> 1L, 1L -> 2L, 2L -> 2L, 3L -> 1L))
  }

  test("degrees match DuckDB oracle") {
    val g = repro.graphs.Datasets.get(spark, "ego-Facebook", 0.1)
    val sparkDeg = totalDegrees(g).select(col("v"), col("deg"))
    Oracle.assertEquivalent(
      sparkDeg,
      """SELECT v, COUNT(*) AS deg FROM
        |  (SELECT src AS v FROM edges UNION ALL SELECT dst AS v FROM edges)
        |GROUP BY v""".stripMargin,
      "edges" -> g.edges)
  }

  test("symmetrize merges reciprocal directed edges") {
    val g = fromPairs(spark, "recip", Seq((0, 1), (1, 0), (1, 2)), directed = true, 3)
    val u = g.undirected
    assert(!u.directed)
    assert(u.numEdges === 2)
  }

  test("symmetrize is a no-op on undirected graphs") {
    assert(triangle.undirected eq triangle)
  }

  test("isolatedCount counts untouched vertices") {
    val g = fromPairs(spark, "iso", Seq((0, 1)), directed = false, 5)
    assert(isolatedCount(g) === 3)
    assert(isolatedCount(triangle) === 0)
  }

  test("fromArrays round-trips weights") {
    val g = fromArrays(spark, "w", Array(0, 1), Array(1, 2), Array(2.5, 0.5),
      directed = false, weighted = true, 3)
    val w = g.edges.orderBy("src").collect().map(_.getDouble(2)).toSeq
    assert(w === Seq(2.5, 0.5))
  }

  test("collectEdges returns all canonical edges") {
    val (s, d, w) = collectEdges(triangle)
    assert(s.length === 3 && d.length === 3 && w.forall(_ == 1.0))
    assert(s.zip(d).toSet === Set((0, 1), (1, 2), (0, 2)))
  }

  test("edge count via DuckDB oracle on a generated graph") {
    val g = repro.graphs.Datasets.get(spark, "com-DBLP", 0.1)
    val cnt = g.edges.agg(count(lit(1)) as "m")
    Oracle.assertEquivalent(cnt, "SELECT COUNT(*) AS m FROM edges", "edges" -> g.edges)
  }
}
