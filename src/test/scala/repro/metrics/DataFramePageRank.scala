package repro.metrics

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.{GraphOps, SparkGraph}

/** PageRank as an iterative Catalyst job — the independent cross-check of
  * the driver [[PageRank]]: same math (weight-proportional transitions,
  * uniform redistribution of dangling mass, damping [[PageRank.Damping]]),
  * different engine. One Spark job chain per iteration, so it runs only in
  * tests.
  */
object DataFramePageRank {

  import PageRank.Damping

  /** Returns a (v, pr) DataFrame covering all `numVertices` vertices. */
  def run(g: SparkGraph, iters: Int = 20): DataFrame = {
    val spark = g.spark
    import spark.implicits._
    val n = g.numVertices
    val arcs = GraphOps.arcs(g)
    val outW = arcs.groupBy(col("u") as "v").agg(sum("weight") as "outw")
    // transition = weight / Σ out-weights
    val trans = arcs
      .join(outW.select(col("v") as "u", col("outw")), "u")
      .select(col("u"), col("v"), (col("weight") / col("outw")) as "p")
      .persist()
    trans.count()

    val vertices = spark.range(n).select(col("id") as "v")
    var ranks = vertices.select(col("v"), lit(1.0 / n) as "pr")
    var it = 0
    while (it < iters) {
      val contribs = trans
        .join(ranks.select(col("v") as "u", col("pr")), "u")
        .groupBy("v").agg(sum(col("p") * col("pr")) as "inflow")
      // dangling vertices have no outgoing arc: their mass spreads uniformly
      val withOut = ranks.join(outW, Seq("v"), "left")
      val danglingMass = withOut.filter(col("outw").isNull)
        .agg(coalesce(sum("pr"), lit(0.0))).collect()(0).getDouble(0)
      val base = (1.0 - Damping) / n + Damping * danglingMass / n
      ranks = vertices
        .join(contribs, Seq("v"), "left")
        .select(col("v"), (lit(base) + lit(Damping) * coalesce(col("inflow"), lit(0.0))) as "pr")
      // materialize each iteration to keep the plan from growing unboundedly
      ranks = ranks.localCheckpoint(eager = true)
      it += 1
    }
    trans.unpersist()
    ranks
  }

  /** Scores as a driver array aligned with vertex ids. */
  def scores(g: SparkGraph, iters: Int = 20): Array[Double] = {
    val out = new Array[Double](g.numVertices.toInt)
    run(g, iters).collect().foreach(r => out(r.getLong(0).toInt) = r.getDouble(1))
    out
  }
}
