package repro.core.store

import scala.collection.mutable
import repro.core.StreamEdge

/** MS-tree-backed expansion list (§IV).
  *
  * Besides the tree, each level keeps an index `edge id → nodes` so that
  * expiry finds the nodes containing an expired edge in time linear in the
  * number of expired matches (§IV-B "Deleting expired partial matches").
  * Index buckets are filtered lazily for liveness; a bucket disappears
  * wholesale when its edge expires, so staleness is window-bounded.
  */
final class MsChainStore(override val numLevels: Int) extends ChainStore {

  private val tree = new MsTree[StreamEdge](numLevels)
  private val index: Array[mutable.HashMap[Long, mutable.ArrayBuffer[MsNode[StreamEdge]]]] =
    Array.fill(numLevels)(mutable.HashMap())

  private def register(n: MsNode[StreamEdge]): MsNode[StreamEdge] = {
    index(n.level).getOrElseUpdate(n.payload.id, mutable.ArrayBuffer()) += n
    n
  }

  override def read(j: Int): Vector[StoredMatch] =
    tree.levelNodes(j).map(n => StoredMatch(n, n.cachedPath.asInstanceOf[IndexedSeq[StreamEdge]]))

  override def insertRoot(sigma: StreamEdge): StoredMatch = {
    val n     = register(tree.add(null, sigma, 0))
    val edges = Vector(sigma)
    n.cachedPath = edges
    StoredMatch(n, edges)
  }

  override def extend(j: Int, parent: StoredMatch, sigma: StreamEdge): StoredMatch = {
    val p     = parent.ref.asInstanceOf[MsNode[StreamEdge]]
    val n     = register(tree.add(p, sigma, j))
    val edges = parent.edges :+ sigma
    n.cachedPath = edges
    StoredMatch(n, edges)
  }

  override def newExpiry(sigma: StreamEdge, triggers: Set[Int]): Expiry =
    tree.sweep(j => if (triggers(j)) index(j).remove(sigma.id).getOrElse(Nil) else Nil)

  override def size(j: Int): Int = tree.levelSize(j)

  override def spaceCells: Long = tree.liveCount
}
