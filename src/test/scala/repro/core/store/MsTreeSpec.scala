package repro.core.store

import org.scalatest.funsuite.AnyFunSuite
import repro.core.StreamEdge

class MsTreeSpec extends AnyFunSuite {

  private def tree(numLevels: Int): MsTree = new MsTree(new Array[VertexKey](numLevels))
  private val NoPath = Vector.empty[StreamEdge]

  test("paths share prefixes: one node per distinct prefix") {
    val t  = tree(3)
    val s1 = t.add(null, "σ1", 0, NoPath)
    val s3 = t.add(s1, "σ3", 1, NoPath)
    val s4 = t.add(s3, "σ4", 2, NoPath)
    val s9 = t.add(s3, "σ9", 2, NoPath)
    // Fig 10: matches {σ1}, {σ1σ3}, {σ1σ3σ4}, {σ1σ3σ9} in 4 nodes
    assert(t.spaceCells == 4)
    assert(s4.path == IndexedSeq("σ1", "σ3", "σ4"))
    assert(s9.path == IndexedSeq("σ1", "σ3", "σ9"))
    assert(t.levelNodes(2).map(_.payload) == Vector("σ4", "σ9"))
  }

  test("level lists enumerate nodes in insertion order") {
    val t = tree(2)
    val roots = (1 to 5).map(i => t.add(null, Int.box(i), 0, NoPath))
    roots.foreach(r => t.add(r, Int.box(r.payload.asInstanceOf[Int] * 10), 1, NoPath))
    assert(t.levelNodes(0).map(_.payload) == Vector(1, 2, 3, 4, 5))
    assert(t.levelNodes(1).map(_.payload) == Vector(10, 20, 30, 40, 50))
    assert(t.size(0) == 5 && t.size(1) == 5)
  }

  test("partialRemove unlinks level list and parent's children but keeps upward path") {
    val t  = tree(2)
    val p  = t.add(null, "p", 0, NoPath)
    val c1 = t.add(p, "c1", 1, NoPath)
    val c2 = t.add(p, "c2", 1, NoPath)
    t.partialRemove(c1)
    assert(!c1.alive)
    assert(t.levelNodes(1).map(_.payload) == Vector("c2"))
    assert(p.children.toSet == Set(c2))
    // upward pointer survives (Theorem 6's requirement)
    assert(c1.parent eq p)
    assert(c1.path == IndexedSeq("p", "c1"))
    assert(t.spaceCells == 2)
  }

  test("removing a parent keeps its child set for descendant discovery") {
    val t = tree(3)
    val a = t.add(null, "a", 0, NoPath)
    val b = t.add(a, "b", 1, NoPath)
    val c = t.add(b, "c", 2, NoPath)
    t.partialRemove(a)
    // Fig 14: children remain discoverable from the removed node
    assert(a.children.toSet == Set(b))
    t.partialRemove(b)
    assert(b.children.toSet == Set(c))
    t.partialRemove(c)
    assert(t.spaceCells == 0)
    (0 until 3).foreach(l => assert(t.levelNodes(l).isEmpty))
  }

  test("partialRemove is idempotent") {
    val t = tree(1)
    val a = t.add(null, "a", 0, NoPath)
    t.partialRemove(a)
    t.partialRemove(a)
    assert(t.spaceCells == 0)
  }

  test("interleaved inserts and removals keep list integrity") {
    val t     = tree(1)
    val nodes = (1 to 100).map(i => t.add(null, Int.box(i), 0, NoPath))
    nodes.filter(_.payload.asInstanceOf[Int] % 2 == 0).foreach(t.partialRemove)
    assert(t.levelNodes(0).map(_.payload) == (1 to 100 by 2).toVector)
    val more = (101 to 110).map(i => t.add(null, Int.box(i), 0, NoPath))
    assert(t.levelNodes(0).map(_.payload).takeRight(10) == (101 to 110).toVector)
    assert(t.spaceCells == 60)
    more.foreach(t.partialRemove)
    assert(t.spaceCells == 50)
  }

  test("level/parent mismatch rejected") {
    val t = tree(2)
    val a = t.add(null, "a", 0, NoPath)
    intercept[IllegalArgumentException](t.add(a, "b", 0, NoPath))
    intercept[IllegalArgumentException](t.add(null, "b", 1, NoPath))
  }

  // Keyed trees of edges: level `l` is keyed by the source of the path's edge `l`.
  private def edge(id: Long, src: Long): StreamEdge = StreamEdge(id, src, "A", id + 100, "B", "-", id)
  private def keyed(numLevels: Int): MsTree =
    new MsTree(Array.tabulate(numLevels)(l => VertexKey(l, src = true)))
  private def bucket(t: MsTree, level: Int, v: Long): Seq[Long] =
    t.probe(level, v).map(_.edges.last.id)

  test("a bucket unlinks its head, middle and tail") {
    val t     = keyed(1)
    def root(id: Long, v: Long) = t.add(null, edge(id, v), 0, Vector(edge(id, v)))
    val nodes = (1L to 5L).map(root(_, 7))
    val other = root(6, 8)
    assert(bucket(t, 0, 7) == Seq(1L, 2L, 3L, 4L, 5L))
    t.partialRemove(nodes(0)) // head
    assert(bucket(t, 0, 7) == Seq(2L, 3L, 4L, 5L))
    t.partialRemove(nodes(4)) // tail
    assert(bucket(t, 0, 7) == Seq(2L, 3L, 4L))
    t.partialRemove(nodes(2)) // middle
    assert(bucket(t, 0, 7) == Seq(2L, 4L))
    val n7 = root(7, 7) // appends after the new tail
    assert(bucket(t, 0, 7) == Seq(2L, 4L, 7L))
    Seq(nodes(1), nodes(3), n7).foreach(t.partialRemove)
    assert(bucket(t, 0, 7).isEmpty)
    assert(bucket(t, 0, 8) == Seq(6L) && other.alive)
    val again = root(8, 7) // an emptied bucket starts afresh
    assert(bucket(t, 0, 7) == Seq(8L) && again.alive)
  }

  test("a partially removed node leaves its bucket but keeps its path and children (Fig 14)") {
    val t  = keyed(2)
    val pa = Vector(edge(1, 7))
    val ca = pa :+ edge(3, 9)
    val p  = t.add(null, pa(0), 0, pa)
    val q  = t.add(null, edge(2, 7), 0, Vector(edge(2, 7)))
    val c  = t.add(p, ca(1), 1, ca)
    t.partialRemove(p)
    assert(bucket(t, 0, 7) == Seq(2L) && q.alive)
    assert(p.children.toSet == Set(c))
    assert(c.path == ca && (c.parent eq p))
    // Theorem 6: a reader that probed c before p's removal still backtracks both whole paths
    assert(p.path == pa)
    // the child is still live, in its own bucket, until the sweep reaches it
    assert(bucket(t, 1, 9) == Seq(3L))
    t.partialRemove(c)
    assert(bucket(t, 1, 9).isEmpty && c.path == ca)
  }

  test("a leaf has an empty child set; the first child creates one") {
    val t    = tree(2)
    val root = t.add(null, "r", 0, NoPath)
    assert(root.children.isEmpty)
    val leaf = t.add(root, "l", 1, NoPath)
    assert(leaf.children.isEmpty)
    assert(root.children.toSet == Set(leaf))
    t.partialRemove(leaf)
    assert(root.children.isEmpty)
  }
}
