package repro.core.store

import org.scalatest.funsuite.AnyFunSuite
import repro.core.StreamEdge

/** Both chain-list MatchStore implementations must expose identical
  * logical contents; MS-tree must use fewer (or equal) cells thanks to
  * prefix sharing.
  */
class StoreSpec extends AnyFunSuite {

  private def edge(id: Long, ts: Long): StreamEdge =
    StreamEdge(id, id * 2, "A", id * 2 + 1, "B", "-", ts)

  /** The one-edge sub-match a subquery's list extends by. */
  private def one(e: StreamEdge): StoredMatch = StoredMatch(e, Vector(e))

  private def unkeyed(numLevels: Int): Array[VertexKey] = new Array(numLevels)

  private def mkStores(numLevels: Int): Seq[MatchStore] =
    Seq(new MsChainStore(unkeyed(numLevels)), new IndStore(unkeyed(numLevels)))

  private def contents(s: MatchStore, j: Int): Set[Seq[Long]] =
    s.read(j).map(_.edges.map(_.id).toSeq).toSet

  test("insertRoot / extend / read round-trip on both backends") {
    mkStores(3).foreach { s =>
      val r1 = s.insertRoot(one(edge(1, 1)))
      s.insertRoot(one(edge(2, 2)))
      val m1 = s.extend(1, r1, one(edge(3, 3)))
      s.extend(2, m1, one(edge(4, 4)))
      s.extend(2, m1, one(edge(9, 9)))
      assert(contents(s, 0) == Set(Seq(1L), Seq(2L)), s.getClass.getSimpleName)
      assert(contents(s, 1) == Set(Seq(1L, 3L)))
      assert(contents(s, 2) == Set(Seq(1L, 3L, 4L), Seq(1L, 3L, 9L)))
      assert(s.size(0) == 2 && s.size(1) == 1 && s.size(2) == 2)
    }
  }

  test("MS-tree prefix sharing beats independent storage on cells") {
    val Seq(ms, ind) = mkStores(3)
    Seq(ms, ind).foreach { s =>
      val r = s.insertRoot(one(edge(1, 1)))
      val m = s.extend(1, r, one(edge(3, 3)))
      (10 to 30).foreach(i => s.extend(2, m, one(edge(i, i))))
    }
    // MS: 2 + 21 nodes; IND: 1 + 2 + 21*3 cells
    assert(ms.spaceCells == 23)
    assert(ind.spaceCells == 66)
  }

  test("expiry removes matches containing the edge, cascading to descendants") {
    mkStores(3).foreach { s =>
      val r1 = s.insertRoot(one(edge(1, 1)))
      s.insertRoot(one(edge(2, 2)))
      val m1 = s.extend(1, r1, one(edge(3, 3)))
      s.extend(2, m1, one(edge(4, 4)))
      s.extend(2, m1, one(edge(9, 9)))
      val ex = s.newExpiry(edge(1, 1), from = 0)
      val removedPerLevel = (0 until 3).map(ex.processLevel)
      assert(removedPerLevel == Seq(1, 1, 2), s.getClass.getSimpleName)
      assert(contents(s, 0) == Set(Seq(2L)))
      assert(contents(s, 1).isEmpty && contents(s, 2).isEmpty)
    }
  }

  /** Expire `edges` in order, as the window does (oldest first); returns
    * the matches removed per level by each expiry.
    */
  private def expireAll(s: MatchStore, edges: StreamEdge*): Seq[Seq[Int]] =
    edges.map { e =>
      val ex = s.newExpiry(e, from = 0)
      (0 until s.numLevels).map(ex.processLevel)
    }

  test("a deeper edge leaves with its path's oldest edge") {
    mkStores(3).foreach { s =>
      val r1 = s.insertRoot(one(edge(1, 1)))
      val m1 = s.extend(1, r1, one(edge(3, 3)))
      s.extend(2, m1, one(edge(4, 4)))
      s.insertRoot(one(edge(2, 2)))
      val name = s.getClass.getSimpleName
      assert(expireAll(s, edge(1, 1)) == Seq(Seq(1, 1, 1)), name)
      assert(contents(s, 0) == Set(Seq(2L)), name)
      assert(contents(s, 1).isEmpty && contents(s, 2).isEmpty, name)
      assert(expireAll(s, edge(2, 2), edge(3, 3), edge(4, 4)) == Seq(Seq(1, 0, 0), Seq(0, 0, 0), Seq(0, 0, 0)), name)
      assert(s.spaceCells == 0, name)
    }
  }

  test("an edge stored at two levels expires in window order") {
    mkStores(3).foreach { s =>
      // edge 5 is the level-2 edge of path 1-2-5 and the root of path 5-6-7
      val b = s.extend(1, s.insertRoot(one(edge(1, 1))), one(edge(2, 2)))
      s.extend(2, b, one(edge(5, 5)))
      val a = s.extend(1, s.insertRoot(one(edge(5, 5))), one(edge(6, 6)))
      s.extend(2, a, one(edge(7, 7)))
      val name = s.getClass.getSimpleName
      assert(expireAll(s, edge(1, 1)) == Seq(Seq(1, 1, 1)), name)
      assert(contents(s, 0) == Set(Seq(5L)), name)
      assert(contents(s, 1) == Set(Seq(5L, 6L)), name)
      assert(contents(s, 2) == Set(Seq(5L, 6L, 7L)), name)
      assert(expireAll(s, edge(2, 2), edge(5, 5)) == Seq(Seq(0, 0, 0), Seq(1, 1, 1)), name)
      assert(s.spaceCells == 0, name)
    }
  }

  test("expiry of an absent edge removes nothing") {
    mkStores(2).foreach { s =>
      s.insertRoot(one(edge(1, 1)))
      val ex = s.newExpiry(edge(99, 99), from = 0)
      assert((0 until 2).map(ex.processLevel).sum == 0)
      assert(s.size(0) == 1)
    }
  }

  test("join stores mirror chain contents (Ms references, Ind materializes)") {
    val chains = IndexedSeq[MatchStore](new MsChainStore(unkeyed(2)), new MsChainStore(unkeyed(1)))
    val js     = new MsJoinStore(unkeyed(2))
    val r      = chains(0).insertRoot(one(edge(1, 1)))
    val c0     = chains(0).extend(1, r, one(edge(3, 3)))
    val c1     = chains(1).insertRoot(one(edge(7, 7)))
    val l0     = js.insertRoot(c0)
    js.extend(1, l0, c1)
    assert(js.read(0).map(_.edges.map(_.id)) == Vector(Vector(1L, 3L)))
    assert(js.read(1).map(_.edges.map(_.id)) == Vector(Vector(1L, 3L, 7L)))
    // Ms join store costs 1 cell per node (references, not copies)
    assert(js.spaceCells == 2)

    val ind  = new IndStore(unkeyed(2))
    val il0  = ind.insertRoot(c0)
    ind.extend(1, il0, c1)
    assert(ind.read(1).map(_.edges.map(_.id)) == Vector(Vector(1L, 3L, 7L)))
    assert(ind.spaceCells == 5) // 2 + 3 materialized cells
  }

  test("MS stores return the path they do not store, and backtrack it through removed nodes") {
    val chains = IndexedSeq(new MsChainStore(unkeyed(2)), new MsChainStore(unkeyed(1)), new MsChainStore(unkeyed(3)))
    val js     = new MsJoinStore(unkeyed(3)) // an L_0 with k = 3
    val c0     = chains(0).extend(1, chains(0).insertRoot(one(edge(1, 1))), one(edge(2, 2)))
    val c1     = chains(1).insertRoot(one(edge(3, 3)))
    val c2     = chains(2).extend(2, chains(2).extend(1, chains(2).insertRoot(one(edge(4, 4))), one(edge(5, 5))), one(edge(6, 6)))
    val full   = js.extend(2, js.extend(1, js.insertRoot(c0), c1), c2)
    assert(c2.edges.map(_.id) == Seq(4L, 5L, 6L))
    assert(full.edges.map(_.id) == Seq(1L, 2L, 3L, 4L, 5L, 6L)) // prefixEdges order
    assert(chains(2).read(2).map(_.edges) == Vector(c2.edges))
    // expire edge 1 from chain 0 only: until L_0's own sweep, a reader of L_0
    // backtracks through the partially removed chain nodes (Theorem 6)
    val ex = chains(0).newExpiry(edge(1, 1), from = 0)
    assert((0 until 2).map(ex.processLevel) == Seq(1, 1) && chains(0).spaceCells == 0)
    val read = js.read(2)
    assert(read.map(_.edges) == Vector(full.edges) && (read.head.ref eq full.ref))
    val jex = js.newExpiry(edge(1, 1), from = 0)
    assert((0 until 3).map(jex.processLevel) == Seq(1, 1, 1) && js.spaceCells == 0)
  }

  test("MsJoinStore expiry follows dead chain leaves") {
    val chains = IndexedSeq[MatchStore](new MsChainStore(unkeyed(1)), new MsChainStore(unkeyed(1)))
    val js     = new MsJoinStore(unkeyed(2))
    val c0a    = chains(0).insertRoot(one(edge(1, 1)))
    val c0b    = chains(0).insertRoot(one(edge(2, 2)))
    val c1     = chains(1).insertRoot(one(edge(7, 7)))
    js.extend(1, js.insertRoot(c0a), c1)
    js.extend(1, js.insertRoot(c0b), c1)
    // expire edge 1 in chain 0
    val ex = chains(0).newExpiry(edge(1, 1), from = 0)
    assert(ex.processLevel(0) == 1)
    val jex = js.newExpiry(edge(1, 1), from = 0)
    assert(jex.processLevel(0) == 1)
    assert(jex.processLevel(1) == 1)
    assert(js.read(1).map(_.edges.map(_.id)) == Vector(Vector(2L, 7L)))
  }

  test("IndStore expiry scans by membership") {
    val ind = new IndStore(unkeyed(2))
    val a   = StoredMatch(null, Vector(edge(1, 1)))
    val b   = StoredMatch(null, Vector(edge(2, 2)))
    val c   = StoredMatch(null, Vector(edge(7, 7)))
    ind.extend(1, ind.insertRoot(a), c)
    ind.extend(1, ind.insertRoot(b), c)
    val jex = ind.newExpiry(edge(1, 1), from = 0)
    assert(jex.processLevel(0) == 1)
    assert(jex.processLevel(1) == 1)
    assert(ind.read(1).map(_.edges.map(_.id)) == Vector(Vector(2L, 7L)))
  }

  test("paper MS-tree example sizes (Fig 10)") {
    // Matches {σ1}, {σ1σ3}, {σ1σ3σ4}, {σ1σ3σ9} stored in 4 nodes; the
    // independent layout needs 1+2+3+3 = 9 cells.
    val Seq(ms, ind) = mkStores(3)
    Seq(ms, ind).foreach { s =>
      val r = s.insertRoot(one(edge(1, 1)))
      val m = s.extend(1, r, one(edge(3, 3)))
      s.extend(2, m, one(edge(4, 4)))
      s.extend(2, m, one(edge(9, 9)))
    }
    assert(ms.spaceCells == 4)
    assert(ind.spaceCells == 9)
  }

  private def ids(ms: Vector[StoredMatch]): Vector[Seq[Long]] = ms.map(_.edges.map(_.id))

  /** Every keyed level: `probe(level, v)` is `read(level)` filtered by the
    * level's key, in the same order, for every vertex of the stream.
    */
  private def probesAgree(s: MatchStore, keys: Array[VertexKey], vertices: Range): Unit =
    for (l <- keys.indices if keys(l) != null; v <- vertices)
      assert(ids(s.probe(l, v)) == ids(s.read(l).filter(m => keys(l).of(m.edges) == v)),
        s"${s.getClass.getSimpleName} level $l vertex $v")

  /** The MS-tree store `ms` and the independent store `ind` hand out the
    * same edge sequences, in the same order, from every `read` and `probe`.
    */
  private def backendsAgree(ms: MatchStore, ind: MatchStore, keys: Array[VertexKey], vertices: Range): Unit = {
    probesAgree(ms, keys, vertices)
    probesAgree(ind, keys, vertices)
    for (l <- keys.indices) {
      assert(ids(ms.read(l)) == ids(ind.read(l)), s"read of level $l")
      if (keys(l) != null) vertices.foreach(v => assert(ids(ms.probe(l, v)) == ids(ind.probe(l, v)), s"probe of level $l vertex $v"))
    }
  }

  /** Edges over 4 vertices, so buckets collide. */
  private def denseEdge(rnd: scala.util.Random, id: Long): StreamEdge =
    StreamEdge(id, rnd.nextInt(4).toLong, "A", rnd.nextInt(4).toLong, "A", "-", id)

  test("chain stores: probe equals the keyed filter of read after interleaved inserts and expiries") {
    val keys   = Array(VertexKey(0, src = false), VertexKey(1, src = true), null)
    val stores = Seq(new MsChainStore(keys), new IndStore(keys))
    val rnd    = new scala.util.Random(17)
    val live   = scala.collection.mutable.ArrayBuffer[StreamEdge]()
    val peak   = new Array[Int](3)
    for (id <- 1L to 400L) {
      val e = denseEdge(rnd, id)
      rnd.nextInt(4) match {
        case 0 if live.nonEmpty => // expire the oldest live edge, wherever it sits
          val gone = live.remove(0)
          stores.foreach { s =>
            val ex = s.newExpiry(gone, from = 0)
            (0 until 3).foreach(ex.processLevel)
          }
        case r =>
          val level = math.max(r - 1, 0)
          val n     = if (level == 0) 0 else stores.head.size(level - 1)
          if (level == 0) stores.foreach(_.insertRoot(one(e)))
          else if (n > 0) {
            val p = rnd.nextInt(n) // the same parent on both: their reads agree
            stores.foreach(s => s.extend(level, s.read(level - 1)(p), one(e)))
          }
          live += e
      }
      backendsAgree(stores(0), stores(1), keys, 0 until 4)
      (0 until 3).foreach(l => peak(l) = math.max(peak(l), stores.head.size(l)))
    }
    assert(peak.forall(_ > 4), s"every level holds several matches at some point: ${peak.toSeq}")
  }

  test("MsJoinStore: probe equals the keyed filter of read after interleaved inserts and expiries") {
    val keys   = Array(VertexKey(0, src = true), VertexKey(2, src = false), null)
    val chains = IndexedSeq(new MsChainStore(unkeyed(1)), new MsChainStore(unkeyed(2)), new MsChainStore(unkeyed(1)))
    val stores = Seq(new MsJoinStore(keys), new IndStore(keys)) // an L_0 with k = 3
    val rnd    = new scala.util.Random(23)
    val live   = scala.collection.mutable.ArrayBuffer[(StreamEdge, Int)]()
    val peak   = new Array[Int](3)
    for (id <- 1L to 400L) {
      val e = denseEdge(rnd, id)
      rnd.nextInt(4) match {
        case 0 if live.nonEmpty => // expire the oldest root edge (of chain i), then L_0 from level i
          val (gone, i) = live.remove(0)
          val ex        = chains(i).newExpiry(gone, from = 0)
          (0 until chains(i).numLevels).foreach(ex.processLevel)
          stores.foreach { s =>
            val jex = s.newExpiry(gone, from = i)
            (i until 3).foreach(jex.processLevel)
          }
        case r =>
          val i = math.max(r - 1, 0)
          val c = chains(i)
          val leaf =
            if (c.numLevels == 1) c.insertRoot(one(e))
            else c.extend(1, c.insertRoot(one(e)), one(denseEdge(rnd, id + 1000)))
          if (i == 0) stores.foreach(_.insertRoot(leaf))
          else {
            val n = stores.head.size(i - 1)
            if (n > 0) {
              val p = rnd.nextInt(n) // the same parent on both: their reads agree
              stores.foreach(s => s.extend(i, s.read(i - 1)(p), leaf))
            }
          }
          live += ((e, i))
      }
      backendsAgree(stores(0), stores(1), keys, 0 until 4)
      (0 until 3).foreach(l => peak(l) = math.max(peak(l), stores.head.size(l)))
    }
    assert(peak.forall(_ > 4), s"every level holds several matches at some point: ${peak.toSeq}")
  }
}
