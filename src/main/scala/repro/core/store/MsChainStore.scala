package repro.core.store

import scala.collection.mutable
import repro.core.StreamEdge

/** MS-tree-backed expansion list of a TC-subquery (§IV); a sub-match is
  * one edge, which is the node's payload.
  *
  * Besides the tree, each level keeps an index `edge id → nodes` so that
  * expiry finds the nodes containing an expired edge in time linear in the
  * number of expired matches (§IV-B "Deleting expired partial matches").
  * Expiry probes the index at every level: a level whose query edge σ
  * cannot match has no bucket for σ. Index buckets are filtered lazily for
  * liveness; a bucket disappears wholesale when its edge expires, so
  * staleness is window-bounded.
  */
final class MsChainStore(override val numLevels: Int) extends MatchStore {

  private val tree = new MsTree[StreamEdge](numLevels)
  private val index: Array[mutable.HashMap[Long, mutable.ArrayBuffer[MsNode[StreamEdge]]]] =
    Array.fill(numLevels)(mutable.HashMap())

  private def register(n: MsNode[StreamEdge]): MsNode[StreamEdge] = {
    index(n.level).getOrElseUpdate(n.payload.id, mutable.ArrayBuffer()) += n
    n
  }

  override def read(level: Int): Vector[StoredMatch] =
    tree.levelNodes(level).map(n => StoredMatch(n, n.cachedPath))

  override def insertRoot(sub: StoredMatch): StoredMatch = {
    val n = register(tree.add(null, sub.edges(0), 0))
    n.cachedPath = sub.edges
    StoredMatch(n, sub.edges)
  }

  override def extend(level: Int, parent: StoredMatch, sub: StoredMatch): StoredMatch = {
    val p     = parent.ref.asInstanceOf[MsNode[StreamEdge]]
    val sigma = sub.edges(0)
    val n     = register(tree.add(p, sigma, level))
    val edges = parent.edges :+ sigma
    n.cachedPath = edges
    StoredMatch(n, edges)
  }

  override def newExpiry(sigma: StreamEdge, from: Int): Expiry =
    tree.sweep(l => index(l).remove(sigma.id).getOrElse(Nil))

  override def size(level: Int): Int = tree.levelSize(level)

  override def spaceCells: Long = tree.liveCount
}
