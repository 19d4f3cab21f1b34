package repro.core.store

import scala.collection.mutable
import repro.core.StreamEdge

/** MS-tree-backed expansion list of a TC-subquery (§IV); a sub-match is
  * one edge, which is the node's payload. `keys(l)` keys level `l` for
  * [[probe]] (`null` for an unkeyed level).
  *
  * Besides the tree, each level keeps an index `edge id → nodes` so that
  * expiry finds the nodes containing an expired edge in time linear in the
  * number of expired matches (§IV-B "Deleting expired partial matches").
  * Expiry probes the index at every level: a level whose query edge σ
  * cannot match has no bucket for σ. Index buckets are filtered lazily for
  * liveness; a bucket disappears wholesale when its edge expires, so
  * staleness is window-bounded.
  */
final class MsChainStore(keys: Array[VertexKey]) extends MatchStore {

  override val numLevels: Int = keys.length

  private val tree = new MsTree[StreamEdge](keys)
  private val index = new Array[mutable.LongMap[mutable.ArrayBuffer[MsNode[StreamEdge]]]](numLevels)
  locally {
    var l = 0
    while (l < numLevels) { index(l) = new mutable.LongMap; l += 1 }
  }

  private def register(n: MsNode[StreamEdge]): StoredMatch = {
    val ix = index(n.level)
    var b  = ix.getOrNull(n.payload.id)
    if (b == null) { b = new mutable.ArrayBuffer(1); ix.update(n.payload.id, b) }
    b += n
    StoredMatch(n, n.cachedPath)
  }

  override def read(level: Int): Vector[StoredMatch] =
    tree.levelNodes(level).map(n => StoredMatch(n, n.cachedPath))

  override def probe(level: Int, v: Long): Vector[StoredMatch] = tree.probe(level, v)

  override def insertRoot(sub: StoredMatch): StoredMatch =
    register(tree.add(null, sub.edges(0), 0, sub.edges))

  override def extend(level: Int, parent: StoredMatch, sub: StoredMatch): StoredMatch = {
    val sigma = sub.edges(0)
    register(tree.add(parent.ref.asInstanceOf[MsNode[StreamEdge]], sigma, level, parent.edges :+ sigma))
  }

  override def newExpiry(sigma: StreamEdge, from: Int): Expiry =
    tree.sweep(l => index(l).remove(sigma.id).getOrElse(Nil))

  override def size(level: Int): Int = tree.levelSize(level)

  override def spaceCells: Long = tree.liveCount
}
