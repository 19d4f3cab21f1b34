package repro.core.store

import scala.collection.mutable
import repro.core.StreamEdge

/** Independent match storage — the Timing-IND ablation (§VII-C): every
  * partial match keeps its whole edge sequence, so space is Σ match
  * lengths and expiry scans each item for σ (no prefix sharing, no O(1)
  * subtree deletion). The same store serves a subquery's expansion list
  * and `L_0`. The caller sweeps exactly the levels an expiry can touch,
  * so σ is all the scan needs and `from` is not used.
  */
final class IndStore(override val numLevels: Int) extends MatchStore {

  private val items: Array[mutable.ArrayBuffer[IndexedSeq[StreamEdge]]] =
    Array.fill(numLevels)(mutable.ArrayBuffer())

  private def add(level: Int, edges: IndexedSeq[StreamEdge]): StoredMatch = {
    items(level) += edges
    StoredMatch(edges, edges)
  }

  override def read(level: Int): Vector[StoredMatch] =
    items(level).iterator.map(m => StoredMatch(m, m)).toVector

  override def insertRoot(sub: StoredMatch): StoredMatch = add(0, sub.edges)

  override def extend(level: Int, parent: StoredMatch, sub: StoredMatch): StoredMatch =
    add(level, parent.edges ++ sub.edges)

  override def newExpiry(sigma: StreamEdge, from: Int): Expiry = level => {
    val before = items(level).length
    items(level).filterInPlace(m => !m.exists(_.id == sigma.id))
    before - items(level).length
  }

  override def size(level: Int): Int = items(level).size

  override def spaceCells: Long =
    items.iterator.map(buf => buf.iterator.map(_.length.toLong).sum).sum
}
