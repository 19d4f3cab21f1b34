package repro.core

import scala.collection.immutable

/** A complete match read as a [[Matching.Match]] without copying it: query
  * edge `ids(i)` maps to `edges(i)`, where `edges` is the stored match's
  * root-to-leaf path (Def 10, §IV-A) and `ids` the query edges the engine
  * stores it by. A match is at most |E(Q)| pairs, so [[get]] searches the
  * ids, and [[foreach]] loops over the index. Equality and `hashCode` are a
  * map's, so a view equals the map of the same pairs; [[removed]] and
  * [[updated]] return an ordinary map.
  */
final class MatchView(ids: IndexedSeq[Int], edges: IndexedSeq[StreamEdge])
    extends immutable.AbstractMap[Int, StreamEdge] {

  override def get(key: Int): Option[StreamEdge] = {
    var i = 0
    while (i < ids.length) {
      if (ids(i) == key) return Some(edges(i))
      i += 1
    }
    None
  }

  override def iterator: Iterator[(Int, StreamEdge)] = ids.iterator.zip(edges.iterator)

  /** Visits the pairs in [[iterator]]'s order by index, building no iterator. */
  override def foreach[U](f: ((Int, StreamEdge)) => U): Unit = {
    var i = 0
    while (i < ids.length) { f((ids(i), edges(i))); i += 1 }
  }

  override def size: Int      = ids.length
  override def knownSize: Int = ids.length

  override def removed(key: Int): Map[Int, StreamEdge] = Map.from(this).removed(key)

  override def updated[V1 >: StreamEdge](key: Int, value: V1): Map[Int, V1] =
    Map.from[Int, V1](this).updated(key, value)
}
