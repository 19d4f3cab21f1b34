package repro.core

import scala.collection.mutable

/** Match compatibility and validation (Definition 4 and the `⋈ᵀ` join).
  *
  * A (partial) match is a map from query-edge ids to data edges. Validity:
  *   - labels of every matched edge agree with the query pattern;
  *   - the induced vertex mapping is a function (consistent) and injective;
  *   - matched data edges are pairwise distinct;
  *   - every `≺` pair with both sides matched holds on timestamps.
  */
object Matching {

  /** A (partial) match: query edge id -> data edge. */
  type Match = Map[Int, StreamEdge]

  /** Induced vertex binding, or None if inconsistent / not injective. */
  def vertexBinding(q: QueryGraph, m: Match): Option[Map[Int, Long]] = {
    val bind = mutable.Map[Int, Long]()
    val used = mutable.Map[Long, Int]()
    def put(qv: Int, dv: Long): Boolean =
      bind.get(qv) match {
        case Some(x) => x == dv
        case None =>
          used.get(dv) match {
            case Some(other) if other != qv => false
            case _                          => bind(qv) = dv; used(dv) = qv; true
          }
      }
    val ok = m.forall { case (eid, e) =>
      val qe = q.edgeById(eid)
      put(qe.src, e.src) && put(qe.dst, e.dst)
    }
    if (ok) Some(bind.toMap) else None
  }

  /** All timing-order constraints with both endpoints matched hold. */
  def timingOk(q: QueryGraph, m: Match): Boolean =
    m.forall { case (a, ea) =>
      m.forall { case (b, eb) => !q.precedes(a, b) || ea.ts < eb.ts }
    }

  /** Full validity check of a (partial) match (used by tests & joins). */
  def isValidPartial(q: QueryGraph, m: Match): Boolean = {
    val labelsOk = m.forall { case (eid, e) => q.matchesEdge(q.edgeById(eid), e) }
    val distinct = m.values.map(_.id).toSeq.distinct.size == m.size
    labelsOk && distinct && vertexBinding(q, m).isDefined && timingOk(q, m)
  }

  /** The `⋈ᵀ` compatibility test (§III-A): merge two matches over disjoint
    * query-edge sets if the union is structurally consistent, injective and
    * timing-consistent. Returns the merged match, or None.
    */
  def compatible(q: QueryGraph, m1: Match, m2: Match): Option[Match] = {
    require((m1.keySet & m2.keySet).isEmpty, "⋈ᵀ sides must cover disjoint query edges")
    val merged = m1 ++ m2
    if (merged.values.map(_.id).toSeq.distinct.size != merged.size) None
    else if (vertexBinding(q, merged).isEmpty) None
    else {
      // Only cross-pairs need re-checking, but full validation is cheap and
      // guards against callers passing unvalidated sides.
      if (timingOk(q, merged)) Some(merged) else None
    }
  }

  /** Can partial match `prefix` (over `prefixEdges`) be extended with
    * `sigma` matching query edge `qeid`? Assumes `prefix` is already valid.
    * Used by the baselines and the brute-force test oracle; the Timing
    * engine tests its joins with [[crossCompatible]].
    */
  def canExtend(
      q: QueryGraph,
      prefixEdges: IndexedSeq[Int],
      prefix: IndexedSeq[StreamEdge],
      qeid: Int,
      sigma: StreamEdge,
      checkTiming: Boolean = true,
  ): Boolean = {
    val qe = q.edgeById(qeid)
    if (!q.matchesEdge(qe, sigma)) return false
    // Query graphs have no self-loops, so a self-loop data edge never fits.
    if (sigma.src == sigma.dst) return false
    // Vertex consistency + injectivity against the prefix binding.
    var i = 0
    while (i < prefixEdges.length) {
      val pqe = q.edgeById(prefixEdges(i))
      val pe  = prefix(i)
      if (pe.id == sigma.id) return false
      // consistency: shared query vertices must bind to the same data vertex
      if (pqe.src == qe.src && pe.src != sigma.src) return false
      if (pqe.src == qe.dst && pe.src != sigma.dst) return false
      if (pqe.dst == qe.src && pe.dst != sigma.src) return false
      if (pqe.dst == qe.dst && pe.dst != sigma.dst) return false
      // injectivity: distinct query vertices must bind to distinct data vertices
      if (pqe.src != qe.src && pe.src == sigma.src) return false
      if (pqe.src != qe.dst && pe.src == sigma.dst) return false
      if (pqe.dst != qe.src && pe.dst == sigma.src) return false
      if (pqe.dst != qe.dst && pe.dst == sigma.dst) return false
      // timing: any order constraint between the pair must hold
      if (checkTiming && q.precedes(prefixEdges(i), qeid) && !(pe.ts < sigma.ts)) return false
      if (checkTiming && q.precedes(qeid, prefixEdges(i)) && !(sigma.ts < pe.ts)) return false
      i += 1
    }
    true
  }

  /** Allocation-light `⋈ᵀ` check between two already-valid matches given
    * in sequential form: only cross-pairs need testing (consistency,
    * injectivity, data-edge distinctness, timing). Equivalent to
    * `compatible(q, a.toMap, b.toMap).isDefined` (tested), but on the
    * engine's hot path.
    */
  def crossCompatible(
      q: QueryGraph,
      aIds: IndexedSeq[Int], a: IndexedSeq[StreamEdge],
      bIds: IndexedSeq[Int], b: IndexedSeq[StreamEdge],
  ): Boolean = {
    var i = 0
    while (i < aIds.length) {
      val aqe = q.edgeById(aIds(i)); val ae = a(i)
      var j = 0
      while (j < bIds.length) {
        val bqe = q.edgeById(bIds(j)); val be = b(j)
        if (ae.id == be.id) return false
        if (aqe.src == bqe.src) { if (ae.src != be.src) return false }
        else if (ae.src == be.src) return false
        if (aqe.src == bqe.dst) { if (ae.src != be.dst) return false }
        else if (ae.src == be.dst) return false
        if (aqe.dst == bqe.src) { if (ae.dst != be.src) return false }
        else if (ae.dst == be.src) return false
        if (aqe.dst == bqe.dst) { if (ae.dst != be.dst) return false }
        else if (ae.dst == be.dst) return false
        if (q.precedes(aIds(i), bIds(j)) && !(ae.ts < be.ts)) return false
        if (q.precedes(bIds(j), aIds(i)) && !(be.ts < ae.ts)) return false
        j += 1
      }
      i += 1
    }
    true
  }

  /** Canonical key of a complete match (sorted edge-id assignment). */
  def key(m: Match): String =
    m.toSeq.sortBy(_._1).map { case (k, e) => s"$k:${e.id}" }.mkString(",")
}
