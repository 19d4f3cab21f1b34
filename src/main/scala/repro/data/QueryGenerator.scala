package repro.data

import scala.collection.mutable
import scala.util.Random

import repro.core._

/** Query generation by random walk over the data graph plus a random
  * timing-order permutation (§VII-B): extract a connected subgraph `g`
  * with its data timestamps, draw a random permutation of its edges, and
  * set `ε_i ≺ ε_j` iff `i` precedes `j` in the permutation *and* the data
  * timestamp of `ε_i` is smaller — which guarantees `g` itself is an
  * embedding satisfying both structure and timing.
  */
object QueryGenerator {

  sealed trait OrderMode
  /** Total chronological order over all query edges (paper's "full order"). */
  case object FullOrder extends OrderMode
  /** No timing constraints at all (paper's "∅" order). */
  case object EmptyOrder extends OrderMode
  /** The paper's randomized construction. */
  case object RandomOrder extends OrderMode

  /** Extract a `size`-edge connected subgraph by random walk inside one
    * window-span slice of the stream, then attach a timing order per
    * `mode`. Returns None when the walk cannot find one (caller retries
    * with another seed).
    */
  def fromStream(
      stream: Vector[StreamEdge],
      size: Int,
      mode: OrderMode,
      seed: Long,
      windowSpan: Long,
  ): Option[QueryGraph] = {
    val rnd = new Random(seed)
    for (_ <- 0 until 40) {
      val startIdx = rnd.nextInt(stream.length)
      val lo       = stream(startIdx).ts
      val slice    = stream.filter(e => e.ts >= lo && e.ts < lo + windowSpan)
      walk(slice, size, rnd).foreach { chosen =>
        return Some(build(chosen, mode, rnd))
      }
    }
    None
  }

  /** Random walk over the slice's undirected adjacency, collecting `size`
    * distinct data edges with distinct (src,dst,label) signatures.
    */
  private def walk(slice: Vector[StreamEdge], size: Int, rnd: Random): Option[Vector[StreamEdge]] = {
    if (slice.isEmpty) return None
    val byVertex = mutable.Map[Long, mutable.ArrayBuffer[StreamEdge]]()
    slice.foreach { e =>
      if (e.src != e.dst) {
        byVertex.getOrElseUpdate(e.src, mutable.ArrayBuffer()) += e
        byVertex.getOrElseUpdate(e.dst, mutable.ArrayBuffer()) += e
      }
    }
    val start   = slice(rnd.nextInt(slice.length))
    if (start.src == start.dst) return None
    val chosen  = mutable.ArrayBuffer(start)
    val sigs    = mutable.Set((start.src, start.dst, start.label))
    val verts   = mutable.ArrayBuffer(start.src, start.dst)
    var stuckAt = 0
    while (chosen.length < size && stuckAt < 200) {
      val v    = verts(rnd.nextInt(verts.length))
      val cand = byVertex.getOrElse(v, mutable.ArrayBuffer())
      if (cand.isEmpty) stuckAt += 1
      else {
        val e = cand(rnd.nextInt(cand.length))
        if (!sigs((e.src, e.dst, e.label))) {
          chosen += e
          sigs += ((e.src, e.dst, e.label))
          if (!verts.contains(e.src)) verts += e.src
          if (!verts.contains(e.dst)) verts += e.dst
        } else stuckAt += 1
      }
    }
    if (chosen.length == size) Some(chosen.toVector) else None
  }

  /** Turn the chosen data edges into a query graph with a timing order. */
  private def build(chosen: Vector[StreamEdge], mode: OrderMode, rnd: Random): QueryGraph = {
    val vIds = chosen.flatMap(e => Seq(e.src -> e.srcLabel, e.dst -> e.dstLabel)).distinct
    val vMap = vIds.map(_._1).zipWithIndex.toMap
    val vertices = vIds.map { case (dv, lbl) => QueryVertex(vMap(dv), lbl) }
    val edges = chosen.zipWithIndex.map { case (e, i) =>
      QueryEdge(i, vMap(e.src), vMap(e.dst), e.label)
    }
    val order: Set[(Int, Int)] = mode match {
      case EmptyOrder => Set.empty
      case FullOrder =>
        // total order by data timestamp (guarantees an embedding)
        val byTs = chosen.zipWithIndex.sortBy(_._1.ts).map(_._2)
        byTs.sliding(2).collect { case Seq(a, b) => (a, b) }.toSet
      case RandomOrder =>
        val perm = rnd.shuffle(chosen.indices.toVector)
        val pos  = perm.zipWithIndex.toMap
        (for {
          i <- chosen.indices; j <- chosen.indices
          if i != j && pos(i) < pos(j) && chosen(i).ts < chosen(j).ts
        } yield (i, j)).toSet
    }
    QueryGraph(vertices, edges, order)
  }

  /** Generate a query whose greedy TC decomposition has exactly `k`
    * subqueries (§VII-G): keep redrawing the timing order (k=1 uses the
    * full order, k=size the empty order, as the paper describes).
    */
  def withDecompositionSize(
      stream: Vector[StreamEdge],
      size: Int,
      k: Int,
      seed: Long,
      windowSpan: Long,
      maxTries: Int = 400,
  ): Option[QueryGraph] = {
    val rnd  = new Random(seed)
    val mode = if (k == 1) FullOrder else if (k == size) EmptyOrder else RandomOrder
    for (_ <- 0 until maxTries) {
      fromStream(stream, size, mode, rnd.nextLong(), windowSpan).foreach { q =>
        if (Decomposer.decompose(q).k == k) return Some(q)
      }
    }
    None
  }

  /** The paper's full query set recipe (§VII-B): per (stream, size), a few
    * random-walk graphs × {full, empty, random…} timing orders.
    */
  def querySet(
      stream: Vector[StreamEdge],
      size: Int,
      nGraphs: Int,
      windowSpan: Long,
      seed: Long,
  ): Vector[QueryGraph] = {
    val rnd = new Random(seed)
    val out = Vector.newBuilder[QueryGraph]
    var got = 0
    var attempts = 0
    while (got < nGraphs && attempts < nGraphs * 30) {
      attempts += 1
      val s = rnd.nextLong()
      fromStream(stream, size, RandomOrder, s, windowSpan) match {
        case Some(q) =>
          out += q
          fromStream(stream, size, FullOrder, s, windowSpan).foreach(out += _)
          fromStream(stream, size, EmptyOrder, s, windowSpan).foreach(out += _)
          got += 1
        case None => ()
      }
    }
    out.result()
  }
}
