package repro.core.store

import repro.core.StreamEdge

/** MS-tree-backed `L_0`: node payloads are *references* to the leaf nodes
  * of the subquery MS-trees (§IV-A's space optimisation — a subquery match
  * is never re-stored). Expired entries are found by scanning level
  * `from` for dead leaf references, as Algorithm 2 prescribes: the engine
  * starts a pass at the subquery whose complete matches σ removed.
  */
final class MsJoinStore(override val numLevels: Int) extends MatchStore {

  private val tree = new MsTree[MsNode[StreamEdge]](numLevels)

  private def leaf(sub: StoredMatch): MsNode[StreamEdge] = sub.ref.asInstanceOf[MsNode[StreamEdge]]

  override def read(level: Int): Vector[StoredMatch] =
    tree.levelNodes(level).map(n => StoredMatch(n, n.cachedPath))

  override def insertRoot(sub: StoredMatch): StoredMatch = {
    val n = tree.add(null, leaf(sub), 0)
    n.cachedPath = sub.edges
    StoredMatch(n, sub.edges)
  }

  override def extend(level: Int, parent: StoredMatch, sub: StoredMatch): StoredMatch = {
    val p     = parent.ref.asInstanceOf[MsNode[MsNode[StreamEdge]]]
    val n     = tree.add(p, leaf(sub), level)
    val edges = parent.edges ++ sub.edges
    n.cachedPath = edges
    StoredMatch(n, edges)
  }

  override def newExpiry(sigma: StreamEdge, from: Int): Expiry =
    tree.sweep(l => if (l == from) tree.levelNodes(l).filterNot(_.payload.alive) else Nil)

  override def size(level: Int): Int = tree.levelSize(level)

  override def spaceCells: Long = tree.liveCount
}
