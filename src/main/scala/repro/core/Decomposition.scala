package repro.core

import scala.collection.mutable
import scala.util.Random

/** A TC-subquery: query-edge ids in timing-sequence order. */
final case class TcSubquery(seq: IndexedSeq[Int]) {
  def edgeSet: Set[Int] = seq.toSet
  def size: Int         = seq.length
  def last: Int         = seq.last
}

/** A TC decomposition `D = {Q^1, …, Q^k}` of a query, with the subqueries
  * already arranged in a prefix-connected join order (§III-B / §VI-C).
  */
final case class Decomposition(subqueries: IndexedSeq[TcSubquery]) {
  def k: Int = subqueries.length

  /** query edge id -> (subquery index, position in its timing sequence) */
  lazy val positionOf: Map[Int, (Int, Int)] =
    (for {
      (sq, i) <- subqueries.zipWithIndex
      (e, j)  <- sq.seq.zipWithIndex
    } yield e -> (i, j)).toMap

  /** Concatenated query-edge ids of subqueries 0..i (join-store layout). */
  def prefixEdges(i: Int): IndexedSeq[Int] =
    subqueries.take(i + 1).flatMap(_.seq)
}

/** TC decomposition of a query (§VI): enumerate TCsub(Q) by the dynamic
  * program of Algorithm 5, cover Q greedily per Algorithm 6, and order the
  * chosen subqueries by the joint-number heuristic. Also provides the
  * random variants used by the Timing-RD/RJ/RDJ ablations and the expected
  * join-operation cost model (Theorem 7).
  */
object Decomposer {

  /** All TC-subqueries of Q (Algorithm 5), deduplicated by edge set.
    *
    * Dedup is sound: a chain's edge set determines its order-maximum, so
    * every sequence for a set extends with the same candidates. `maxStates`
    * is a safety valve against adversarially dense timing orders.
    */
  def tcSub(q: QueryGraph, maxStates: Int = 500000): Vector[TcSubquery] = {
    val out     = mutable.ArrayBuffer[TcSubquery]()
    val visited = mutable.Set[Set[Int]]()
    val queue   = mutable.Queue[Vector[Int]]()
    q.edges.map(_.id).sorted.foreach { e =>
      queue += Vector(e); visited += Set(e)
    }
    while (queue.nonEmpty) {
      val seq = queue.dequeue()
      out += TcSubquery(seq.toIndexedSeq)
      if (visited.size < maxStates) {
        val set  = seq.toSet
        val lastE = seq.last
        for (x <- q.edges.map(_.id) if !set(x)) {
          val adjacent = seq.exists(e => q.adjacentEdges(e, x))
          if (adjacent && q.precedes(lastE, x)) {
            val nset = set + x
            if (!visited(nset)) { visited += nset; queue += (seq :+ x) }
          }
        }
      }
    }
    out.toVector
  }

  /** Greedy minimum-cardinality cover (Algorithm 6): repeatedly take the
    * largest remaining TC-subquery edge-disjoint from those chosen.
    */
  def greedyCover(q: QueryGraph, candidates: Vector[TcSubquery]): Vector[TcSubquery] =
    cover(q, candidates.sortBy(s => (-s.size, s.seq.mkString(","))))

  /** Take each candidate, in priority order, that is edge-disjoint from
    * those taken before it, until Q is covered.
    */
  private def cover(q: QueryGraph, byPriority: Seq[TcSubquery]): Vector[TcSubquery] = {
    val all     = q.edges.map(_.id).toSet
    val chosen  = mutable.ArrayBuffer[TcSubquery]()
    val covered = mutable.Set[Int]()
    val it      = byPriority.iterator
    while (covered.size < all.size && it.hasNext) {
      val c = it.next()
      if ((c.edgeSet & covered).isEmpty) { chosen += c; covered ++= c.edgeSet }
    }
    require(covered.size == all.size, "cover failed (singles are always candidates)")
    chosen.toVector
  }

  /** The paper's decomposition: TCsub(Q) + greedy cover + joint-number
    * join order.
    */
  def decompose(q: QueryGraph): Decomposition =
    Decomposition(JoinOrder.order(q, greedyCover(q, tcSub(q))))

  /** Timing-RD: the cover of a random candidate order, paper join order. */
  def randomDecompose(q: QueryGraph, seed: Long): Decomposition =
    Decomposition(JoinOrder.order(q, cover(q, new Random(seed).shuffle(tcSub(q)))))

  /** Timing-RJ: paper cover, random prefix-connected join order. */
  def randomJoinOrder(q: QueryGraph, seed: Long): Decomposition =
    Decomposition(JoinOrder.randomOrder(q, greedyCover(q, tcSub(q)), seed))

  /** Timing-RDJ: random cover and random join order. */
  def randomBoth(q: QueryGraph, seed: Long): Decomposition = {
    val d = randomDecompose(q, seed)
    Decomposition(JoinOrder.randomOrder(q, d.subqueries.toVector, seed + 1))
  }

  /** Expected number of join operations per incoming edge (Theorem 7):
    * `N = (|E(Q)| - 1 + k(k-1)/2) / d`.
    */
  def expectedJoinOps(q: QueryGraph, k: Int): Double =
    ((q.edges.size - 1) + k * (k - 1) / 2.0) / q.distinctTermLabels

  /** Validate a decomposition: edge-disjoint TC-subqueries covering Q,
    * arranged in a prefix-connected order.
    */
  def validate(q: QueryGraph, d: Decomposition): Unit = {
    val all = d.subqueries.flatMap(_.seq)
    require(all.distinct.size == all.size, "subqueries overlap")
    require(all.toSet == q.edges.map(_.id).toSet, "subqueries do not cover Q")
    d.subqueries.foreach { sq =>
      require(
        TimingSequence.timingSequenceOf(q, sq.edgeSet).contains(sq.seq.toList),
        s"${sq.seq} is not a valid timing sequence",
      )
    }
    d.subqueries.indices.foreach { i =>
      require(
        q.isWeaklyConnected(d.prefixEdges(i).toSet),
        s"join-order prefix 0..$i is not weakly connected",
      )
    }
  }
}
