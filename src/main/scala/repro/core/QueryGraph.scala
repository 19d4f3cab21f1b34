package repro.core

import scala.collection.mutable

/** A vertex of the query graph. */
final case class QueryVertex(id: Int, label: String)

/** A directed edge of the query graph (`label` may be `"*"`). */
final case class QueryEdge(id: Int, src: Int, dst: Int, label: String)

/** Query graph `Q = (V(Q), E(Q), L, ≺)` (Definition 3).
  *
  * `order` is the timing order `≺`: a strict partial order over query-edge
  * ids, stored transitively closed. Construct via [[QueryGraph.apply]],
  * which validates shape (simple digraph, no self-loops, weakly connected)
  * and closes/validates the order (irreflexive after closure = acyclic).
  */
final class QueryGraph private (
    val vertices: IndexedSeq[QueryVertex],
    val edges: IndexedSeq[QueryEdge],
    val order: Set[(Int, Int)],
) {

  val vertexById: Map[Int, QueryVertex] = vertices.map(v => v.id -> v).toMap

  // The join hot loop (`Matching.crossCompatible`) looks up query edges and
  // `≺` pairs by id for every pair of matches it tests, so both are array
  // reads over positions in `edges` rather than hashed lookups.
  private val edgeArray = edges.toArray
  private val idBase    = if (edges.isEmpty) 0 else edges.map(_.id).min
  private val slots: Array[Int] = { // id - idBase → position in `edges`, or -1
    val s = Array.fill(if (edges.isEmpty) 0 else edges.map(_.id).max - idBase + 1)(-1)
    edges.indices.foreach(p => s(edges(p).id - idBase) = p)
    s
  }
  private def position(id: Int): Int = {
    val s = id - idBase
    if (s >= 0 && s < slots.length) slots(s) else -1
  }
  private val before: Array[Boolean] = { // row-major over positions
    val m = new Array[Boolean](edges.size * edges.size)
    order.foreach { case (a, b) => m(position(a) * edges.size + position(b)) = true }
    m
  }

  /** The query edge with id `id`. */
  def edgeById(id: Int): QueryEdge = {
    val p = position(id)
    if (p < 0) throw new NoSuchElementException(s"no query edge $id")
    edgeArray(p)
  }

  /** `a ≺ b` in the (transitively closed) timing order. */
  def precedes(a: Int, b: Int): Boolean = {
    val x = position(a); val y = position(b)
    x >= 0 && y >= 0 && before(x * edges.size + y)
  }

  /** Vertex label of query vertex `v`. */
  def label(v: Int): String = vertexById(v).label

  /** Whether data edge `e` can match query edge `qe` (labels only). */
  def matchesEdge(qe: QueryEdge, e: StreamEdge): Boolean =
    StreamEdge.labelMatches(qe.label, e.label) &&
      StreamEdge.labelMatches(label(qe.src), e.srcLabel) &&
      StreamEdge.labelMatches(label(qe.dst), e.dstLabel)

  /** All query edges whose label pattern admits data edge `e`. */
  def matchingQueryEdges(e: StreamEdge): IndexedSeq[QueryEdge] =
    edges.filter(matchesEdge(_, e))

  /** Prerequisite edges of `eid`: `{ε' | ε' ≺ ε} ∪ {ε}` (Definition 6). */
  def preq(eid: Int): Set[Int] =
    order.collect { case (a, b) if b == eid => a }.toSet + eid

  /** Whether two query edges share an endpoint (treating Q undirected). */
  def adjacentEdges(e1: Int, e2: Int): Boolean = {
    val a = edgeById(e1); val b = edgeById(e2)
    a.src == b.src || a.src == b.dst || a.dst == b.src || a.dst == b.dst
  }

  /** Whether the subquery induced by `edgeIds` is weakly connected. */
  def isWeaklyConnected(edgeIds: Set[Int]): Boolean = {
    if (edgeIds.isEmpty) return true
    val es   = edgeIds.toSeq.map(edgeById)
    val seen = mutable.Set[Int]()
    val todo = mutable.Queue[Int](es.head.src)
    while (todo.nonEmpty) {
      val v = todo.dequeue()
      if (seen.add(v))
        es.foreach { e =>
          if (e.src == v && !seen(e.dst)) todo += e.dst
          if (e.dst == v && !seen(e.src)) todo += e.src
        }
    }
    es.forall(e => seen(e.src) && seen(e.dst))
  }

  /** Undirected diameter of Q (longest shortest path); drives the IncMat
    * affected-area radius (§III-A intuition, citing Fan et al.).
    */
  lazy val diameter: Int = {
    val adj = mutable.Map[Int, mutable.Set[Int]]()
    vertices.foreach(v => adj(v.id) = mutable.Set())
    edges.foreach { e => adj(e.src) += e.dst; adj(e.dst) += e.src }
    var best = 0
    for (s <- vertices.map(_.id)) {
      val dist = mutable.Map(s -> 0)
      val todo = mutable.Queue(s)
      while (todo.nonEmpty) {
        val v = todo.dequeue()
        for (w <- adj(v) if !dist.contains(w)) { dist(w) = dist(v) + 1; todo += w }
      }
      best = math.max(best, dist.values.max)
    }
    best
  }

  /** Number of distinct "term edge labels" `d` in Q (§VI-A cost model):
    * the combination of edge label and endpoint labels.
    */
  lazy val distinctTermLabels: Int =
    edges.map(e => (label(e.src), e.label, label(e.dst))).distinct.size

  override def toString: String = {
    val es = edges.map(e => s"ε${e.id}:${label(e.src)}(${e.src})->${label(e.dst)}(${e.dst})[${e.label}]")
    val os = order.toSeq.sorted.map { case (a, b) => s"ε$a≺ε$b" }
    s"Q(${es.mkString(", ")}; ${os.mkString(", ")})"
  }
}

object QueryGraph {

  /** Most query edge ids, from the smallest to the largest, a query may span. */
  private val MaxIdSpan: Long = 1L << 16

  /** Build and validate a query graph; `orderPairs` need not be closed. */
  def apply(
      vertices: Seq[QueryVertex],
      edges: Seq[QueryEdge],
      orderPairs: Set[(Int, Int)],
  ): QueryGraph = {
    val vIds = vertices.map(_.id)
    require(vIds.distinct.size == vIds.size, "duplicate query vertex ids")
    val eIds = edges.map(_.id)
    require(eIds.distinct.size == eIds.size, "duplicate query edge ids")
    val vSet = vIds.toSet
    edges.foreach { e =>
      require(vSet(e.src) && vSet(e.dst), s"edge ${e.id} references unknown vertex")
      require(e.src != e.dst, s"self-loop on query edge ${e.id}")
    }
    // Parallel query edges are allowed when distinguishable by label (the
    // Fig-1 attack pattern needs victim→C&C twice); matches then bind them
    // to distinct data edges, which every join checks explicitly.
    require(
      edges.map(e => (e.src, e.dst, e.label)).distinct.size == edges.size,
      "duplicate query edges (same endpoints and label)",
    )
    // `edgeById` and `precedes` keep one slot per id in the span of edge ids.
    if (eIds.nonEmpty) {
      val span = eIds.max.toLong - eIds.min + 1
      require(span <= MaxIdSpan, s"query edge ids span $span ids, more than $MaxIdSpan")
    }
    val eSet = eIds.toSet
    orderPairs.foreach { case (a, b) =>
      require(eSet(a) && eSet(b), s"order pair ($a,$b) references unknown edge")
      require(a != b, s"reflexive order pair on edge $a")
    }
    val closed = transitiveClosure(orderPairs)
    closed.foreach { case (a, b) =>
      require(a != b, s"timing order has a cycle through edge $a")
    }
    val q = new QueryGraph(vertices.toIndexedSeq, edges.toIndexedSeq, closed)
    require(q.isWeaklyConnected(eSet), "query graph must be weakly connected")
    q
  }

  /** Transitive closure of a relation over ints (Floyd–Warshall style). */
  def transitiveClosure(pairs: Set[(Int, Int)]): Set[(Int, Int)] = {
    val nodes = pairs.flatMap { case (a, b) => Set(a, b) }.toSeq
    val rel   = mutable.Set[(Int, Int)](pairs.toSeq: _*)
    for (k <- nodes; i <- nodes; j <- nodes)
      if (rel((i, k)) && rel((k, j))) rel += ((i, j))
    rel.toSet
  }
}
