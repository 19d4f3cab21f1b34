package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.concurrent.{ConcurrentEngine, ConcurrentWindowDriver}

class WindowDriverSpec extends AnyFunSuite {
  import Fixtures._

  test("window semantics: ts ∈ (t−|W|, t] (Definition 2)") {
    val eng    = new TimingEngine(paperQ, Decomposer.decompose(paperQ), StoreMode.MsTree)
    val driver = new WindowDriver(eng, window = 9)
    val emb    = paperEmbedding() // timestamps 1..6
    emb.foreach(driver.advance)
    assert(eng.results.size == 1, "match present at t=6")
    // at t=9 the window is (0,9]: σ@1 still live
    driver.advance(e(ve, ve + 100, 9))
    assert(eng.results.size == 1, "t=9, window (0,9]: σ@1 still live")
    // at t=10 the window is (1,10]: σ@1 expires, killing the match (Fig 4c)
    driver.advance(e(ve, ve + 100, 10))
    assert(eng.results.isEmpty, "t=10: the ε6-match expired")
  }

  test("snapshot tracks live edges exactly") {
    val eng    = new TimingEngine(paperQ, Decomposer.decompose(paperQ), StoreMode.MsTree)
    val driver = new WindowDriver(eng, window = 3)
    val es     = (1 to 10).map(i => e(100 + i, 200 + i, i)).toVector
    es.foreach(driver.advance)
    assert(driver.snapshot.map(_.ts) == Vector(8L, 9L, 10L))
  }

  test("run returns the total number of reported matches") {
    val eng    = new TimingEngine(paperQ, Decomposer.decompose(paperQ), StoreMode.MsTree)
    val driver = new WindowDriver(eng, window = 100)
    assert(driver.run(paperEmbedding()) == 1L)
  }

  test("matches can reappear after expiry with fresh edges") {
    val eng    = new TimingEngine(paperQ, Decomposer.decompose(paperQ), StoreMode.MsTree)
    val driver = new WindowDriver(eng, window = 10)
    driver.run(paperEmbedding(0))       // ts 1..6 → one match
    assert(eng.results.size == 1)
    driver.run(paperEmbedding(20))      // ts 21..26: first batch fully expired
    assert(eng.results.size == 1, "only the fresh embedding remains")
  }

  test("a window that is not positive is rejected by both drivers") {
    for (window <- Seq(0L, -1L)) {
      val eng = new TimingEngine(paperQ, Decomposer.decompose(paperQ), StoreMode.MsTree)
      intercept[IllegalArgumentException](new WindowDriver(eng, window))
      val conc = new ConcurrentEngine(eng, nThreads = 1)
      try intercept[IllegalArgumentException](new ConcurrentWindowDriver(conc, window))
      finally conc.shutdown()
    }
  }

  test("equal and decreasing timestamps are rejected (Definition 1)") {
    def paperEngine = new TimingEngine(paperQ, Decomposer.decompose(paperQ), StoreMode.MsTree)
    val eng    = paperEngine
    val driver = new WindowDriver(eng, window = 10)
    driver.advance(e(va, vb, 5))
    intercept[IllegalArgumentException](driver.advance(e(ve, vf, 5))) // equal
    intercept[IllegalArgumentException](driver.advance(e(ve, vf, 4))) // decreasing
    assert(driver.snapshot.map(_.ts) == Vector(5L), "rejected edges are not admitted")
    assert(eng.spaceCells == 1, "rejected edges leave no partial match")

    val conc = new ConcurrentEngine(paperEngine, nThreads = 1)
    try {
      val cd = new ConcurrentWindowDriver(conc, window = 10)
      cd.advance(e(va, vb, 5))
      intercept[IllegalArgumentException](cd.advance(e(ve, vf, 5)))
      intercept[IllegalArgumentException](cd.advance(e(ve, vf, 4)))
      conc.quiesce()
      assert(conc.engine.spaceCells == 1)
    } finally conc.shutdown()
  }
}
