package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.data.{GraphStreams, QueryGenerator}

class TimingEngineSpec extends AnyFunSuite {
  import Fixtures._

  private def mkEngine(q: QueryGraph, mode: StoreMode, d: Decomposition = null): TimingEngine =
    new TimingEngine(q, Option(d).getOrElse(Decomposer.decompose(q)), mode)

  for (mode <- Seq(StoreMode.MsTree, StoreMode.Independent)) {
    val tag = mode.toString

    test(s"[$tag] the paper embedding is found exactly once, on its final edge") {
      val eng = mkEngine(paperQ, mode)
      val emb = paperEmbedding()
      val reportedEarly = emb.init.flatMap(eng.insert)
      assert(reportedEarly.isEmpty, "no complete match before the last edge")
      val last = eng.insert(emb.last)
      assert(last.size == 1)
      assert(Matching.isValidPartial(paperQ, last.head))
      assert(eng.results.size == 1)
      assert(keys(eng.results) == bruteForce(paperQ, emb))
    }

    test(s"[$tag] expiring any embedding edge kills the match") {
      // The window expires edges oldest first, so every edge expires after
      // the older ones: the match dies with its oldest edge, and once every
      // edge has expired nothing is left stored.
      val eng = mkEngine(paperQ, mode)
      val emb = paperEmbedding()
      emb.foreach(eng.insert)
      assert(eng.results.size == 1 && eng.spaceCells > 0)
      emb.indices.foreach { drop =>
        eng.delete(emb(drop))
        assert(eng.results.isEmpty, s"after expiring edge #$drop")
      }
      assert(eng.spaceCells == 0)
    }

    test(s"[$tag] discardable edge filtered: ε1-match with no prior ε3-match (Lemma 1)") {
      val eng = mkEngine(paperQ, mode)
      // an F→A edge matches only ε1, whose prerequisite ε3 has no match yet
      val out = eng.insert(e(vf, va, 1))
      assert(out.isEmpty)
      assert(eng.spaceCells == 0, "a discardable edge must leave no partial match behind")
    }

    test(s"[$tag] non-discardable first-chain edges are stored") {
      val eng = mkEngine(paperQ, mode)
      eng.insert(e(va, vb, 1)) // ε6: first edge of its chain
      eng.insert(e(ve, vf, 2)) // ε3: first edge of its chain
      eng.insert(e(vd, vb, 3)) // ε2: single-edge subquery
      assert(eng.spaceCells > 0)
      assert(eng.results.isEmpty)
    }

    test(s"[$tag] timing-order violations are pruned (arrival order matters)") {
      val eng = mkEngine(paperQ, mode)
      // arrival order: ε6 ε5 ε4 ε1(!) ε3 ε2 — ε1 arrives before ε3, so the
      // ε1 edge is discardable and no full match may ever form from it
      eng.insert(e(va, vb, 1))
      eng.insert(e(vb, vc, 2))
      eng.insert(e(vc, vd, 3))
      eng.insert(e(vf, va, 4)) // discardable: ε3 not yet matched
      eng.insert(e(ve, vf, 5))
      val out = eng.insert(e(vd, vb, 6))
      assert(out.isEmpty)
      assert(eng.results.isEmpty)
    }

    test(s"[$tag] two interleaved embeddings produce two matches") {
      val eng  = mkEngine(paperQ, mode)
      val emb1 = paperEmbedding(0)
      // second embedding on fresh vertices (labels map via helper: ids ≥ 16 get other labels)
      val emb2 = Vector(
        e(20, 21, 11), e(24, 25, 12), e(21, 22, 13), e(25, 20, 14), e(22, 23, 15), e(23, 21, 16),
      ).map { ed =>
        val lbl = Map(20L -> "A", 21L -> "B", 22L -> "C", 23L -> "D", 24L -> "E", 25L -> "F")
        ed.copy(srcLabel = lbl(ed.src), dstLabel = lbl(ed.dst))
      }
      val interleaved = (emb1 zip emb2).flatMap { case (a, b) => Seq(a, b.copy(ts = a.ts * 100 + 1)) }
      // keep relative order inside each embedding: re-timestamp monotonically
      val stream = interleaved.zipWithIndex.map { case (ed, i) => ed.copy(ts = i + 1L) }
      val total  = stream.flatMap(eng.insert)
      assert(total.size == 2)
      assert(eng.results.size == 2)
      assert(keys(eng.results) == bruteForce(paperQ, stream))
    }

    test(s"[$tag] shared partial matches: many ε4 edges branch one prefix") {
      val eng = mkEngine(paperQ, mode)
      eng.insert(e(va, vb, 1)) // ε6
      eng.insert(e(vb, vc, 2)) // ε5
      // many c→D edges, each a distinct ε4 match sharing the (ε6,ε5) prefix
      val ds = (0 until 5).map { i =>
        val edge = StreamEdge(5000 + i, vc, "C", 100 + i, "D", "-", 3 + i)
        eng.insert(edge)
        edge
      }
      val sizes = eng.itemSizes
      val chainOf654 = (0 until 3).map { lvl =>
        sizes.collectFirst { case (ItemKey(l, `lvl`), n) if l > 0 && n > 0 => n }
      }
      // level 2 of the {ε6,ε5,ε4} chain must hold 5 matches
      val i654 = eng.decomposition.subqueries.indexWhere(_.seq == IndexedSeq(6, 5, 4))
      assert(i654 >= 0 && eng.chains(i654).size(2) == 5)
      assert(ds.size == 5 && chainOf654.nonEmpty)
    }
  }

  test("MS-tree and independent storage report identical results (paper stream)") {
    val ms  = mkEngine(paperQ, StoreMode.MsTree)
    val ind = mkEngine(paperQ, StoreMode.Independent)
    val emb = paperEmbedding()
    emb.foreach { ed => assert(keys(ms.insert(ed)) == keys(ind.insert(ed))) }
    assert(keys(ms.results) == keys(ind.results))
    ms.delete(emb.head); ind.delete(emb.head)
    assert(keys(ms.results) == keys(ind.results))
  }

  test("MS-tree uses no more cells than independent storage") {
    val ms  = mkEngine(paperQ, StoreMode.MsTree)
    val ind = mkEngine(paperQ, StoreMode.Independent)
    val stream = GraphStreams.wikiTalk(300, 12, seed = 5)
    // relabel into the paper query's alphabet so partial matches pile up
    val lbls = Vector("A", "B", "C", "D", "E", "F")
    val adapted = stream.map { ed =>
      ed.copy(srcLabel = lbls((ed.src % 6).toInt), dstLabel = lbls((ed.dst % 6).toInt), label = "-")
    }
    adapted.foreach { ed => ms.insert(ed); ind.insert(ed) }
    assert(keys(ms.results) == keys(ind.results))
    assert(ms.spaceCells <= ind.spaceCells)
  }

  // ---- randomized end-to-end equivalence against the brute force ----

  private def randomizedCheck(name: String, stream: Vector[StreamEdge], q: QueryGraph,
                              window: Long, mode: StoreMode, d: Decomposition): Unit = {
    val eng    = new TimingEngine(q, d, mode)
    val driver = new WindowDriver(eng, window)
    var step   = 0
    stream.foreach { ed =>
      val newly = driver.advance(ed)
      newly.foreach(m => assert(Matching.isValidPartial(q, m), s"$name invalid reported match"))
      step += 1
      if (step % 7 == 0 || step == stream.length) {
        val expect = bruteForce(q, driver.snapshot)
        val got    = keys(eng.results)
        assert(got == expect, s"$name at step $step: got ${got.size}, expected ${expect.size}")
      }
    }
  }

  for (seed <- 1 to 8; mode <- Seq(StoreMode.MsTree, StoreMode.Independent)) {
    test(s"randomized equivalence vs brute force (wiki-like, seed=$seed, $mode)") {
      val stream = GraphStreams.wikiTalk(160, 10, seed = seed * 31)
      val q = QueryGenerator.fromStream(stream, 3 + seed % 3, QueryGenerator.RandomOrder, seed, 40)
        .getOrElse(fail("query generation failed"))
      randomizedCheck(s"seed=$seed", stream, q, 40, mode, Decomposer.decompose(q))
    }
  }

  for (seed <- 1 to 5) {
    test(s"randomized equivalence with random decompositions (seed=$seed)") {
      val stream = GraphStreams.wikiTalk(140, 10, seed = seed * 57 + 1)
      val q = QueryGenerator.fromStream(stream, 4, QueryGenerator.RandomOrder, seed + 100, 40)
        .getOrElse(fail("query generation failed"))
      randomizedCheck(s"rd-seed=$seed", stream, q, 40, StoreMode.MsTree,
        Decomposer.randomDecompose(q, seed))
      randomizedCheck(s"rj-seed=$seed", stream, q, 40, StoreMode.MsTree,
        Decomposer.randomJoinOrder(q, seed))
      randomizedCheck(s"rdj-seed=$seed", stream, q, 40, StoreMode.Independent,
        Decomposer.randomBoth(q, seed))
    }
  }

  for (seed <- 1 to 4) {
    test(s"randomized equivalence on traffic-like streams (seed=$seed)") {
      val stream = GraphStreams.traffic(150, 8, nPorts = 4, seed = seed * 13)
      val q = QueryGenerator.fromStream(stream, 3, QueryGenerator.RandomOrder, seed, 50)
        .getOrElse(fail("query generation failed"))
      randomizedCheck(s"traffic-seed=$seed", stream, q, 50, StoreMode.MsTree, Decomposer.decompose(q))
    }
  }

  // The dense stream of EnginePlanSpec's work-cap case, uncapped: many
  // matches share each key vertex, so every probe walks a long bucket. The
  // key tables follow the join order, so each decomposition kind gets its own
  // case.
  private lazy val dense = GraphStreams.traffic(300, 8, nPorts = 3, seed = 5)
  private lazy val denseQ = QueryGenerator.fromStream(dense, 4, QueryGenerator.RandomOrder, 11, 40)
    .getOrElse(fail("query generation failed"))
  for ((kind, mkD) <- Seq[(String, QueryGraph => Decomposition)](
         "paper"            -> (q => Decomposer.decompose(q)),
         "random cover"     -> (q => Decomposer.randomDecompose(q, 3)),
         "random join order" -> (q => Decomposer.randomJoinOrder(q, 3)),
         "random both"      -> (q => Decomposer.randomBoth(q, 3)),
       )) {
    test(s"probe joins on dense buckets equal brute force ($kind decomposition)") {
      for (mode <- Seq(StoreMode.MsTree, StoreMode.Independent))
        randomizedCheck(s"dense-$kind-$mode", dense, denseQ, 40, mode, mkD(denseQ))
    }
  }

  test("full-order and empty-order queries also track brute force") {
    val stream = GraphStreams.wikiTalk(150, 10, seed = 77)
    for (m <- Seq(QueryGenerator.FullOrder, QueryGenerator.EmptyOrder)) {
      val q = QueryGenerator.fromStream(stream, 4, m, 3, 40).getOrElse(fail("gen failed"))
      randomizedCheck(s"mode=$m", stream, q, 40, StoreMode.MsTree, Decomposer.decompose(q))
    }
  }

  test("joinOps statistics accumulate") {
    val eng = mkEngine(paperQ, StoreMode.MsTree)
    paperEmbedding().foreach(eng.insert)
    assert(eng.joinOps.sum() > 0)
  }
}
