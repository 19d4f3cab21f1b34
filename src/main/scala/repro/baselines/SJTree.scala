package repro.baselines

import scala.collection.mutable
import repro.core.{EngineApi, Matching, QueryGraph, StreamEdge, TimingSequence}

/** SJ-tree baseline (Choudhury et al., EDBT 2015), as compared in §VII-C.
  *
  * A left-deep subgraph-join tree over a prefix-connected order of the
  * query edges: leaf `p` stores every window edge matching query edge `p`;
  * internal node `p` stores every *structural* partial match of the first
  * `p+1` query edges. An incoming edge is inserted at each leaf it
  * matches, joined with the left sibling node's matches, and new partial
  * matches cascade toward the root through the stored leaf edges. Timing
  * order is not used during search — root answers are filtered
  * posteriorly, which is exactly what the paper measures against.
  */
final class SJTree(val q: QueryGraph, val workCap: Long = 0L) extends EngineApi {

  /** Inserts whose upward cascade hit `workCap` extension tests (benches
    * bound the explosive baseline; capped inserts may miss matches and are
    * counted — never silently dropped).
    */
  var cappedInserts: Long = 0L

  /** Leaf order: prefix-connected permutation of query-edge ids. */
  val order: IndexedSeq[Int] = TimingSequence.connectivityOrder(q)
  private val kk             = order.length

  // leaves(p): edges matching query edge order(p); nodes(p): partial
  // matches of order(0..p) stored independently (sequential form).
  private val leaves = Array.fill(kk)(mutable.ArrayBuffer[StreamEdge]())
  private val nodes  = Array.fill(kk)(mutable.ArrayBuffer[IndexedSeq[StreamEdge]]())

  override def insert(sigma: StreamEdge): Vector[Matching.Match] = {
    val out  = Vector.newBuilder[Matching.Match]
    var work = 0L
    def overCap: Boolean = workCap > 0 && work > workCap
    for (p <- 0 until kk) {
      val qeid = order(p)
      if (q.matchesEdge(q.edgeById(qeid), sigma) &&
          Matching.canExtend(q, Vector.empty, Vector.empty, qeid, sigma, checkTiming = false)) {
        leaves(p) += sigma
        // Join with the left sibling's stored partial matches.
        var delta: Vector[IndexedSeq[StreamEdge]] =
          if (p == 0) Vector(Vector(sigma))
          else nodes(p - 1).iterator.collect {
            case pm if Matching.canExtend(q, order.take(p), pm, qeid, sigma, checkTiming = false) =>
              pm :+ sigma
          }.toVector
        work += (if (p == 0) 1L else nodes(p - 1).size.toLong)
        nodes(p) ++= delta
        // Cascade upward through stored leaf edges.
        var x = p
        while (x < kk - 1 && delta.nonEmpty && !overCap) {
          val nextId = order(x + 1)
          work += delta.size.toLong * leaves(x + 1).size
          val nd = for {
            pm <- delta
            e  <- leaves(x + 1).toVector
            if Matching.canExtend(q, order.take(x + 1), pm, nextId, e, checkTiming = false)
          } yield pm :+ e
          nodes(x + 1) ++= nd
          delta = nd
          x += 1
        }
        if (overCap) cappedInserts += 1
        if (x == kk - 1)
          delta.foreach { pm =>
            val m = order.zip(pm).toMap
            if (Matching.timingOk(q, m)) out += m // posterior timing check
          }
      }
    }
    out.result()
  }

  override def delete(sigma: StreamEdge): Unit = {
    // The paper's stated weakness: every stored partial match must be
    // enumerated to find the expired ones.
    for (p <- 0 until kk) {
      leaves(p).filterInPlace(_.id != sigma.id)
      nodes(p).filterInPlace(pm => !pm.exists(_.id == sigma.id))
    }
  }

  override def results: Vector[Matching.Match] =
    nodes(kk - 1).iterator
      .map(pm => order.zip(pm).toMap)
      .filter(Matching.timingOk(q, _))
      .toVector

  override def spaceCells: Long =
    leaves.map(_.size.toLong).sum + nodes.map(buf => buf.iterator.map(_.length.toLong).sum).sum
}
