package repro.core.store

import repro.core.StreamEdge

/** MS-tree-backed expansion list of a TC-subquery (§IV); a sub-match is
  * one edge, which is the node's payload. `keys(l)` keys level `l` for
  * [[probe]] (`null` for an unkeyed level).
  *
  * Expiry needs no edge index (§IV-B "Deleting expired partial matches"):
  * the timing sequence is a total order, so a match's first edge is its
  * oldest, and an expired σ — the oldest live edge — can only be the payload
  * of a level-0 node. Level 0 is appended in arrival order and every older
  * node left with its own edge, so σ's node, if it has one, heads level 0;
  * the sweep removes it and its subtree.
  */
final class MsChainStore(keys: Array[VertexKey]) extends MatchStore {

  override val numLevels: Int = keys.length

  private val tree = new MsTree[StreamEdge](keys)

  override def read(level: Int): Vector[StoredMatch] = tree.levelNodes(level).map(tree.stored)

  override def probe(level: Int, v: Long): Vector[StoredMatch] = tree.probe(level, v)

  override def insertRoot(sub: StoredMatch): StoredMatch =
    StoredMatch(tree.add(null, sub.edges(0), 0, sub.edges), sub.edges)

  override def extend(level: Int, parent: StoredMatch, sub: StoredMatch): StoredMatch = {
    val path = parent.edges :+ sub.edges(0)
    StoredMatch(tree.add(parent.ref.asInstanceOf[MsNode[StreamEdge]], path.last, level, path), path)
  }

  override def newExpiry(sigma: StreamEdge, from: Int): Expiry =
    tree.sweep(l => if (l == 0) tree.oldest(0).filter(_.payload.id == sigma.id) else None)

  override def size(level: Int): Int = tree.levelSize(level)

  override def spaceCells: Long = tree.liveCount
}
