package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.data.{GraphStreams, QueryGenerator}

/** Every comparison method must compute exactly the same continuous
  * answers as the Timing engine — they differ only in cost.
  */
class BaselineEquivalenceSpec extends AnyFunSuite {
  import Fixtures._

  private def engines(q: QueryGraph): Seq[(String, EngineApi)] = Seq(
    "Timing"          -> new TimingEngine(q, Decomposer.decompose(q), StoreMode.MsTree),
    "Timing-IND"      -> new TimingEngine(q, Decomposer.decompose(q), StoreMode.Independent),
    "SJ-tree"         -> new SJTree(q),
    "IncMat-QuickSI"  -> new IncMat(q, new QuickSI),
    "IncMat-TurboISO" -> new IncMat(q, new TurboIso),
    "IncMat-BoostISO" -> new IncMat(q, new BoostIso),
  )

  test("all methods find the paper embedding exactly once") {
    engines(paperQ).foreach { case (name, eng) =>
      val emb      = paperEmbedding()
      val reported = emb.flatMap(eng.insert)
      assert(reported.size == 1, s"$name reported ${reported.size}")
      assert(keys(eng.results) == bruteForce(paperQ, emb), name)
      eng.delete(emb.head) // the oldest edge, as the window expires it
      assert(eng.results.isEmpty, s"$name after expiry")
    }
  }

  for (seed <- 1 to 6) {
    test(s"all methods agree along a windowed stream (seed=$seed)") {
      val stream = GraphStreams.wikiTalk(120, 9, seed = seed * 23 + 2)
      val q = QueryGenerator.fromStream(stream, 3 + seed % 3, QueryGenerator.RandomOrder, seed, 35)
        .getOrElse(fail("gen failed"))
      val drivers = engines(q).map { case (n, e) => (n, new WindowDriver(e, 35)) }
      var step = 0
      stream.foreach { ed =>
        drivers.foreach(_._2.advance(ed))
        step += 1
        if (step % 11 == 0 || step == stream.length) {
          val expect = bruteForce(q, drivers.head._2.snapshot)
          drivers.foreach { case (name, drv) =>
            assert(keys(drv.engine.results) == expect, s"$name at step $step")
          }
        }
      }
    }
  }

  test("SJ-tree stores strictly more partial-match cells than Timing") {
    val q   = paperQ
    val sj  = new SJTree(q)
    val tim = new TimingEngine(q, Decomposer.decompose(q), StoreMode.MsTree)
    // ε1-matching edges with no prior ε3 match: Timing discards, SJ-tree stores
    (1 to 10).foreach { i =>
      val ed = e(vf, va, i.toLong)
      sj.insert(ed); tim.insert(ed)
    }
    assert(tim.spaceCells == 0)
    assert(sj.spaceCells >= 10)
  }

  test("IncMat affected area honours the query diameter") {
    val q   = paperQ
    val inc = new IncMat(q, new QuickSI)
    // build a long path far from the probe edge
    (1 to 20).foreach(i => inc.insert(e(1000 + i, 1001 + i, i.toLong)))
    val probe = e(5000, 5001, 30)
    inc.insert(probe)
    val area = inc.affectedArea(probe, q.diameter)
    assert(area.map(_.id).contains(probe.id))
    assert(area.size == 1, "disconnected probe sees only itself")
  }

  test("IncMat maintains results across expiry") {
    val inc = new IncMat(paperQ, new BoostIso)
    val emb = paperEmbedding()
    emb.foreach(inc.insert)
    assert(inc.results.size == 1)
    inc.delete(emb.head)
    assert(inc.results.isEmpty)
  }

  test("SJ-tree posterior timing filter: structural-only match is not reported") {
    val sj = new SJTree(paperQ)
    // feed an embedding in a timing-violating arrival order (ε1 before ε3)
    val bad = Vector(
      e(va, vb, 1), e(vb, vc, 2), e(vc, vd, 3), e(vf, va, 4), e(ve, vf, 5), e(vd, vb, 6),
    )
    val reported = bad.flatMap(sj.insert)
    assert(reported.isEmpty, "timing filter must reject at the root")
    assert(sj.results.isEmpty)
    // but the structural match IS stored internally (the paper's space cost)
    assert(sj.spaceCells > bad.size)
  }
}
