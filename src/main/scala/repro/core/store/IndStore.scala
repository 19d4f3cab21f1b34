package repro.core.store

import scala.collection.mutable
import repro.core.StreamEdge

/** Independent match storage — the Timing-IND ablation (§VII-C): every
  * partial match keeps its whole edge sequence, so space is Σ match
  * lengths and expiry scans each item for σ (no prefix sharing, no O(1)
  * subtree deletion). The same store serves a subquery's expansion list
  * and `L_0`. The caller sweeps exactly the levels an expiry can touch,
  * so σ is all the scan needs and neither `from` nor `dead` is used.
  *
  * A level keyed by `keys(l)` (`null` for none) also files each match under
  * its key vertex for [[probe]]; an expiry that removes matches there
  * refiles the level, which its scan has just visited anyway.
  */
final class IndStore(keys: Array[VertexKey]) extends MatchStore {

  override val numLevels: Int = keys.length

  private type Edges = IndexedSeq[StreamEdge]

  private val items: Array[mutable.ArrayBuffer[Edges]] = Array.fill(numLevels)(mutable.ArrayBuffer())

  private val buckets: Array[mutable.LongMap[mutable.ArrayBuffer[Edges]]] = {
    val b = new Array[mutable.LongMap[mutable.ArrayBuffer[Edges]]](numLevels)
    var l = 0
    while (l < numLevels) { if (keys(l) != null) b(l) = mutable.LongMap(); l += 1 }
    b
  }

  private def file(level: Int, edges: Edges): Unit = {
    val v      = keys(level).of(edges)
    var bucket = buckets(level).getOrNull(v)
    if (bucket == null) { bucket = new mutable.ArrayBuffer(1); buckets(level).update(v, bucket) }
    bucket += edges
  }

  private def add(level: Int, edges: Edges): StoredMatch = {
    items(level) += edges
    if (buckets(level) != null) file(level, edges)
    StoredMatch(edges, edges)
  }

  override def read(level: Int): Vector[StoredMatch] =
    items(level).iterator.map(m => StoredMatch(m, m)).toVector

  override def probe(level: Int, v: Long): Vector[StoredMatch] = {
    val bucket = buckets(level).getOrNull(v)
    if (bucket == null) Vector.empty else bucket.iterator.map(m => StoredMatch(m, m)).toVector
  }

  override def insertRoot(sub: StoredMatch): StoredMatch = add(0, sub.edges)

  override def extend(level: Int, parent: StoredMatch, sub: StoredMatch): StoredMatch =
    add(level, parent.edges ++ sub.edges)

  override def newExpiry(sigma: StreamEdge, from: Int, dead: Iterable[AnyRef]): Expiry = level => {
    val before = items(level).length
    items(level).filterInPlace(m => !m.exists(_.id == sigma.id))
    val removed = before - items(level).length
    if (removed > 0 && buckets(level) != null) {
      buckets(level).clear()
      items(level).foreach(file(level, _))
    }
    removed
  }

  override def size(level: Int): Int = items(level).size

  override def spaceCells: Long =
    items.iterator.map(buf => buf.iterator.map(_.length.toLong).sum).sum
}
