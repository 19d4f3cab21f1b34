package repro.core.store

import scala.collection.mutable
import repro.core.StreamEdge

/** Independent match storage — the Timing-IND ablation (§VII-C): every
  * partial match keeps its whole edge sequence, so space is Σ match
  * lengths and expiry scans each item for σ (no prefix sharing, no O(1)
  * subtree deletion). The same store serves a subquery's expansion list
  * and `L_0`; they differ only in what an extension appends. The engine
  * sweeps exactly the levels an expiry can touch, so σ is all it needs.
  */
final class IndStore(override val numLevels: Int) extends ChainStore with JoinStore {

  private val items: Array[mutable.ArrayBuffer[IndexedSeq[StreamEdge]]] =
    Array.fill(numLevels)(mutable.ArrayBuffer())

  private def add(level: Int, edges: IndexedSeq[StreamEdge]): StoredMatch = {
    items(level) += edges
    StoredMatch(edges, edges)
  }

  override def read(j: Int): Vector[StoredMatch] =
    items(j).iterator.map(m => StoredMatch(m, m)).toVector

  override def insertRoot(sigma: StreamEdge): StoredMatch = add(0, Vector(sigma))

  override def insertRoot(sub: StoredMatch): StoredMatch = add(0, sub.edges)

  override def extend(j: Int, parent: StoredMatch, sigma: StreamEdge): StoredMatch =
    add(j, parent.edges :+ sigma)

  override def extend(i: Int, parent: StoredMatch, sub: StoredMatch): StoredMatch =
    add(i, parent.edges ++ sub.edges)

  override def newExpiry(sigma: StreamEdge, triggers: Set[Int]): Expiry = expiry(sigma)

  override def newExpiry(sigma: StreamEdge, subIdx: Int): Expiry = expiry(sigma)

  private def expiry(sigma: StreamEdge): Expiry = j => {
    val before = items(j).length
    items(j).filterInPlace(m => !m.exists(_.id == sigma.id))
    before - items(j).length
  }

  override def size(j: Int): Int = items(j).size

  override def spaceCells: Long =
    items.iterator.map(buf => buf.iterator.map(_.length.toLong).sum).sum
}
