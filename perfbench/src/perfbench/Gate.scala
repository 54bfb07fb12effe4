package perfbench

import java.security.MessageDigest
import scala.collection.mutable
import repro.core.{GraphOps, PruneRateControl, SparkGraph, Sparsifier}

/** Identity of one sweep cell: (dataset, sparsifier, ρ, seed). */
final case class CellId(dataset: String, sparsifier: String, rho: Double, seed: Long) {
  override def toString = s"($dataset, $sparsifier, rho=$rho, seed=$seed)"
}

/** What the gate keeps of a checked cell: kept-edge count, edge-set digest
  * and metric values, for the golden comparison and the figure shapes.
  */
final case class CellRecord(id: CellId, kept: Int, achievedRho: Double, digest: String, values: Seq[(String, Double)])

/** The original graph's edges, packed for subset checks. */
final class EdgeIndex(val n: Long, src: Array[Int], dst: Array[Int], wt: Array[Double]) {
  private val weight = mutable.LongMap.empty[Double]
  src.indices.foreach(i => weight(EdgeIndex.key(src(i), dst(i))) = wt(i))
  def m: Int = src.length
  def weightOf(u: Int, v: Int): Option[Double] = weight.get(EdgeIndex.key(u, v))
}

object EdgeIndex {
  def key(u: Int, v: Int): Long = (u.toLong << 32) | (v.toLong & 0xffffffffL)
  def of(g: SparkGraph): EdgeIndex = {
    val (s, d, w) = GraphOps.collectEdges(g)
    new EdgeIndex(g.numVertices, s, d, w)
  }
}

/** Correctness gate. Runs outside every timed window: it collects the
  * sparsified edges again, so its Spark jobs and CPU are never charged to a
  * cell.
  */
final class Gate(dataset: String) {
  val failures = mutable.ArrayBuffer.empty[String]
  val records = mutable.ArrayBuffer.empty[CellRecord]
  private val failedCells = mutable.Set.empty[CellId]

  def failedCount: Int = failedCells.size

  private def fail(id: CellId, why: String): Unit = {
    failedCells += id
    failures += s"$id: $why"
  }

  /** Invariants every cell must satisfy, at any seed. */
  def check(orig: EdgeIndex, sp: Sparsifier, rho: Double, seed: Long, h: SparkGraph,
            metrics: Seq[MetricDef], values: Seq[Double]): CellRecord = {
    val id = CellId(dataset, sp.abbrev, rho, seed)
    if (h.numVertices != orig.n) fail(id, s"vertex count ${h.numVertices} != ${orig.n}")
    val (s, d, w) = GraphOps.collectEdges(h)
    val seen = mutable.LongMap.empty[Unit]
    var bad = 0; var dup = 0; var reweighted = 0
    s.indices.foreach { i =>
      val k = EdgeIndex.key(s(i), d(i))
      if (seen.contains(k)) dup += 1 else seen(k) = ()
      orig.weightOf(s(i), d(i)) match {
        case None => bad += 1
        case Some(w0) => if (w0 != w(i)) reweighted += 1
      }
    }
    if (bad > 0) fail(id, s"$bad kept edges are not input edges")
    if (dup > 0) fail(id, s"$dup duplicate kept edges")
    if (reweighted > 0 && !sp.changesWeights) fail(id, s"$reweighted edges changed weight")
    val achieved = 1.0 - s.length.toDouble / orig.m
    if (sp.pruneRateControl == PruneRateControl.Fine && math.abs(achieved - rho) > 0.05)
      fail(id, f"achieved rho $achieved%.4f is not within 0.05 of $rho")
    metrics.zip(values).foreach { case (m, v) =>
      if (v.isNaN || v.isInfinite || v < m.lo || v > m.hi) fail(id, s"${m.name} = $v outside [${m.lo}, ${m.hi}]")
    }
    val rec = CellRecord(id, s.length, achieved, Gate.digest(s, d, w), metrics.map(_.name).zip(values))
    records += rec
    rec
  }

  /** Golden edge digests and metric values of the deterministic
    * sparsifiers, which must stay bit-identical at the default seed.
    */
  def checkGolden(golden: Seq[CellRecord]): Unit =
    records.foreach { r =>
      golden.find(_.id == r.id).foreach { g =>
        if (g.digest != r.digest || g.kept != r.kept)
          fail(r.id, s"edge set differs from golden (${r.kept} edges, digest ${r.digest}; golden ${g.kept}, ${g.digest})")
        g.values.foreach { case (name, gv) =>
          r.values.find(_._1 == name).foreach { case (_, v) =>
            if (math.abs(v - gv) > 1e-9 * math.max(1.0, math.abs(gv)))
              fail(r.id, s"$name = $v differs from golden $gv")
          }
        }
      }
    }

  /** Figure shapes the workload's cells must reproduce. */
  def checkShapes(): Unit = {
    def value(sp: String, metric: String): Seq[(CellRecord, Double)] =
      records.filter(_.id.sparsifier == sp).flatMap(r => r.values.find(_._1 == metric).map(v => (r, v._2))).toSeq
    // Fig 2: Random keeps the degree distribution better than the
    // degree-biased sparsifiers, at every ρ.
    value("RN", "degree_dist").foreach { case (rn, v) =>
      records.filter(r => r.id.rho == rn.id.rho && Gate.fig2Others(r.id.sparsifier)).foreach { r =>
        r.values.find(_._1 == "degree_dist").foreach { case (_, o) =>
          if (o <= v) fail(r.id, f"Fig 2 shape: degree_dist $o%.4f not above Random's $v%.4f")
        }
      }
    }
    // Fig 3: ER-weighted keeps the Laplacian quadratic form (ratio near 1).
    value("ER-w", "quadratic_form").foreach { case (r, v) =>
      if (math.abs(v - 1.0) >= 0.15) fail(r.id, f"Fig 3 shape: ER-w quadratic-form ratio $v%.4f not within 0.15 of 1")
    }
  }
}

object Gate {
  /** SHA-256 over the edge set sorted by (src, dst), weights as raw bits. */
  def digest(s: Array[Int], d: Array[Int], w: Array[Double]): String = {
    val order = s.indices.sortBy(i => EdgeIndex.key(s(i), d(i)))
    val md = MessageDigest.getInstance("SHA-256")
    val buf = java.nio.ByteBuffer.allocate(16)
    order.foreach { i =>
      buf.clear(); buf.putInt(s(i)).putInt(d(i)).putLong(java.lang.Double.doubleToLongBits(w(i)))
      md.update(buf.array())
    }
    md.digest().take(12).map("%02x".format(_)).mkString
  }

  /** Golden file: one line per cell,
    * `dataset<TAB>sparsifier<TAB>rho<TAB>seed<TAB>kept<TAB>digest<TAB>metric=value,...`.
    */
  def parseGolden(lines: Seq[String]): Seq[CellRecord] =
    lines.map(_.trim).filter(l => l.nonEmpty && !l.startsWith("#")).map { l =>
      val f = l.split("\t", -1)
      val values = f(6).split(",").filter(_.nonEmpty).map { kv =>
        val Array(k, v) = kv.split("=", 2); (k, v.toDouble)
      }.toSeq
      CellRecord(CellId(f(0), f(1), f(2).toDouble, f(3).toLong), f(4).toInt, 0.0, f(5), values)
    }

  def goldenLine(r: CellRecord): String =
    Seq(r.id.dataset, r.id.sparsifier, r.id.rho.toString, r.id.seed.toString, r.kept.toString, r.digest,
      r.values.map { case (k, v) => s"$k=$v" }.mkString(",")).mkString("\t")

  /** Fig 2's degree-biased sparsifiers, which the paper finds worst by a
    * wide margin. Local Similarity is also in Fig 2, but a single ρ = 0.5
    * cell of it can come within a few percent of Random's, so it is left out.
    */
  val fig2Others: Set[String] = Set("LD", "RD", "KN", "FF")

  /** Sparsifiers whose output must stay bit-identical (ROADMAP). */
  val goldenSparsifiers: Set[String] = Set("LD", "LSim", "LS", "GS", "SCAN", "SF", "SP-3")
}
