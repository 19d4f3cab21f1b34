package repro.core.store

import repro.core.StreamEdge

/** A stored (partial) match handed out by a store: `ref` identifies the
  * stored representation (MS-tree node / independent record) and `edges`
  * is the materialized sequential form, aligned with the item's query-edge
  * sequence.
  */
final case class StoredMatch(ref: AnyRef, edges: IndexedSeq[StreamEdge])

/** Where a match holds a data vertex: endpoint `src` (else `dst`) of the
  * edge at position `pos` of its sequential form. A store level keyed by a
  * `VertexKey` indexes its matches by that vertex, so a join step that
  * binds the same query vertex on its other side probes one bucket.
  */
final case class VertexKey(pos: Int, src: Boolean) {
  def of(edges: IndexedSeq[StreamEdge]): Long = {
    val e = edges(pos)
    if (src) e.src else e.dst
  }
}

/** Storage for one expansion list (§III). Level `l` (0-based) holds the
  * matches of item `l + 1`: level 0 the sub-matches given to `insertRoot`,
  * level `l` matches of level `l - 1` each extended by one sub-match. In a
  * TC-subquery's list (§III-A3) that is the one-edge match {σ}; in `L_0`
  * (§III-B) a complete match of the next subquery, so `L_0`'s `edges`
  * follow `Decomposition.prefixEdges`.
  *
  * A level may be keyed by a [[VertexKey]] (given at construction, `null`
  * for an unkeyed level); [[probe]] then returns the level's matches that
  * hold a given data vertex there.
  *
  * Implementations: [[MsChainStore]] and [[MsJoinStore]] (MS-tree, §IV)
  * and [[IndStore]] (independent match storage — the Timing-IND ablation).
  */
trait MatchStore {

  /** Number of items in the list. */
  def numLevels: Int

  /** Ω of the item at `level`: its live matches (materialized snapshot). */
  def read(level: Int): Vector[StoredMatch]

  /** The live matches of keyed `level` whose key vertex is `v`. */
  def probe(level: Int, v: Long): Vector[StoredMatch]

  /** Insert `sub` as a new match of level 0. */
  def insertRoot(sub: StoredMatch): StoredMatch

  /** Extend `parent` (a match of level `level - 1`) with `sub` into
    * `level`; O(1) for the MS-tree — no path re-traversal (§IV-B).
    */
  def extend(level: Int, parent: StoredMatch, sub: StoredMatch): StoredMatch

  /** Start an expiry pass that removes every match containing σ, the oldest
    * live edge, at the levels `from until numLevels`. The caller must invoke
    * `processLevel(l)` for each of those levels in order (each under the
    * item's X lock when concurrent).
    */
  def newExpiry(sigma: StreamEdge, from: Int): Expiry

  /** Number of live matches at `level`. */
  def size(level: Int): Int

  /** Space in cells (see DESIGN.md §5, space accounting). */
  def spaceCells: Long
}

/** Level-stepped expiry cursor over an expansion list (Algorithm 2,
  * restructured so each level's work happens under that item's lock —
  * required by §V-C).
  */
trait Expiry {

  /** Remove expired matches at `level`; returns how many were removed. */
  def processLevel(level: Int): Int
}
