package repro.core.store

import repro.core.StreamEdge

/** MS-tree-backed `L_0`: node payloads are *references* to the leaf nodes
  * of the subquery MS-trees (§IV-A's space optimisation — a subquery match
  * is never re-stored; a match backtracks through them). Expired entries are found by scanning level
  * `from` for dead leaf references, as Algorithm 2 prescribes: the engine
  * starts a pass at the subquery whose complete matches σ removed.
  * `keys(l)` keys level `l` for [[probe]] (`null` for an unkeyed level).
  */
final class MsJoinStore(keys: Array[VertexKey]) extends MatchStore {

  override val numLevels: Int = keys.length

  private val tree = new MsTree[MsNode[StreamEdge]](keys)

  private def leaf(sub: StoredMatch): MsNode[StreamEdge] = sub.ref.asInstanceOf[MsNode[StreamEdge]]

  override def read(level: Int): Vector[StoredMatch] = tree.levelNodes(level).map(tree.stored)

  override def probe(level: Int, v: Long): Vector[StoredMatch] = tree.probe(level, v)

  override def insertRoot(sub: StoredMatch): StoredMatch =
    StoredMatch(tree.add(null, leaf(sub), 0, sub.edges), sub.edges)

  override def extend(level: Int, parent: StoredMatch, sub: StoredMatch): StoredMatch = {
    val path = parent.edges ++ sub.edges
    StoredMatch(tree.add(parent.ref.asInstanceOf[MsNode[MsNode[StreamEdge]]], leaf(sub), level, path), path)
  }

  override def newExpiry(sigma: StreamEdge, from: Int): Expiry =
    tree.sweep(l => if (l == from) tree.levelNodes(l).filterNot(_.payload.alive) else Nil)

  override def size(level: Int): Int = tree.levelSize(level)

  override def spaceCells: Long = tree.liveCount
}
