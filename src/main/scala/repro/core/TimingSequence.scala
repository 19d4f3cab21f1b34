package repro.core

/** Timing-connected query (TC-query) detection (Definitions 7–8).
  *
  * A set of query edges is a TC-(sub)query iff the timing order restricted
  * to it is *total* (a chain — consecutive-pair `≺` plus transitivity forces
  * totality) and the unique ascending sequence is prefix-connected.
  */
object TimingSequence {

  /** The timing sequence of `edgeIds` if it forms a TC-subquery of `q`. */
  def timingSequenceOf(q: QueryGraph, edgeIds: Set[Int]): Option[List[Int]] = {
    if (edgeIds.isEmpty) return None
    if (edgeIds.size == 1) return Some(edgeIds.toList)
    val ids = edgeIds.toList
    // Totality check: every pair must be ordered one way.
    val total = ids.combinations(2).forall {
      case List(a, b) => q.precedes(a, b) || q.precedes(b, a)
      case _          => true
    }
    if (!total) return None
    // Unique ascending chain: sort by ≺ (a strict total order here).
    val seq = ids.sortWith((a, b) => q.precedes(a, b))
    if (isPrefixConnected(q, seq)) Some(seq) else None
  }

  /** Whether every prefix of `seq` induces a weakly connected subquery. */
  def isPrefixConnected(q: QueryGraph, seq: Seq[Int]): Boolean =
    seq.indices.forall(j => q.isWeaklyConnected(seq.take(j + 1).toSet))

  /** Whether the whole query is a TC-query. */
  def isTcQuery(q: QueryGraph): Boolean =
    timingSequenceOf(q, q.edges.map(_.id).toSet).isDefined

  /** A prefix-connected permutation of all query edges *ignoring* timing
    * (Definition 7), starting at `first` if given: each step takes the
    * admissible edge of least (`rank`, id). The default rank gives the
    * deterministic join/build order of the baselines and the Spark snapshot
    * matcher; the static matchers rank by candidate count.
    */
  def connectivityOrder(q: QueryGraph, first: Option[Int] = None, rank: Int => Int = _ => 0): IndexedSeq[Int] = {
    val byRank = q.edges.map(_.id).sortBy(eid => (rank(eid), eid))
    val out    = scala.collection.mutable.ArrayBuffer[Int]()
    val bound  = scala.collection.mutable.Set[Int]()
    def push(eid: Int): Unit = { out += eid; val e = q.edgeById(eid); bound += e.src; bound += e.dst }
    push(first.getOrElse(byRank.head))
    while (out.length < byRank.length) {
      val rest = byRank.filterNot(out.contains)
      // the fallback is unreachable for a connected Q
      push(rest.find { eid => val e = q.edgeById(eid); bound(e.src) || bound(e.dst) }.getOrElse(rest.head))
    }
    out.toIndexedSeq
  }
}
