package repro.concurrent

import org.scalatest.funsuite.AnyFunSuite
import scala.concurrent.{Await, ExecutionContext, Future, TimeoutException}
import scala.concurrent.duration._
import scala.jdk.CollectionConverters._

import repro.core._
import repro.data.{GraphStreams, QueryGenerator}

/** Streaming consistency (Definition 11): at every quiesce point, the
  * concurrent engines must hold exactly the state a chronological serial
  * execution produces, and must have reported exactly the same matches.
  */
class ConcurrentEngineSpec extends AnyFunSuite {
  import Fixtures._

  private def runBoth(
      q: QueryGraph,
      stream: Vector[StreamEdge],
      window: Long,
      threads: Int,
      fineGrained: Boolean,
      checkpoints: Int = 4,
  ): Unit = {
    val d      = Decomposer.decompose(q)
    val serial = new TimingEngine(q, d, StoreMode.MsTree)
    val serialDriver = new WindowDriver(serial, window)
    var serialReported = Set.empty[String]

    val conc   = new ConcurrentEngine(new TimingEngine(q, d, StoreMode.MsTree), threads, fineGrained)
    val concDriver = new ConcurrentWindowDriver(conc, window)

    val chunk = math.max(1, stream.length / checkpoints)
    try {
      stream.grouped(chunk).foreach { part =>
        part.foreach { ed =>
          serialReported ++= serialDriver.advance(ed).map(Matching.key)
          concDriver.advance(ed)
        }
        conc.quiesce()
        val concReported = conc.reported.asScala.map(Matching.key).toSet
        assert(concReported == serialReported, s"reported sets diverge (N=$threads fine=$fineGrained)")
        assert(keys(conc.engine.results) == keys(serial.results),
          s"state diverges at checkpoint (N=$threads fine=$fineGrained)")
        assert(conc.engine.spaceCells == serial.spaceCells, "space diverges")
      }
    } finally conc.shutdown()
  }

  test("paper stream: fine-grained concurrent run equals serial (N=4)") {
    runBoth(paperQ, paperEmbedding() ++ paperEmbedding(20), 10, 4, fineGrained = true)
  }

  test("paper stream: All-locks concurrent run equals serial (N=4)") {
    runBoth(paperQ, paperEmbedding(), 10, 4, fineGrained = false)
  }

  for (seed <- 1 to 5; n <- Seq(2, 4, 8)) {
    test(s"randomized streaming consistency (seed=$seed, N=$n, fine-grained)") {
      val stream = GraphStreams.wikiTalk(220, 10, seed = seed * 41 + n)
      val q = QueryGenerator.fromStream(stream, 4, QueryGenerator.RandomOrder, seed, 50)
        .getOrElse(fail("gen failed"))
      runBoth(q, stream, 50, n, fineGrained = true)
    }
  }

  for (seed <- 1 to 3) {
    test(s"randomized streaming consistency (seed=$seed, N=4, all-locks)") {
      val stream = GraphStreams.wikiTalk(160, 10, seed = seed * 67)
      val q = QueryGenerator.fromStream(stream, 4, QueryGenerator.RandomOrder, seed + 9, 40)
        .getOrElse(fail("gen failed"))
      runBoth(q, stream, 40, 4, fineGrained = false)
    }
  }

  test("traffic stream with dense matches stays consistent under 8 threads") {
    val stream = GraphStreams.traffic(260, 7, nPorts = 3, seed = 5)
    val q = QueryGenerator.fromStream(stream, 3, QueryGenerator.RandomOrder, 11, 60)
      .getOrElse(fail("gen failed"))
    runBoth(q, stream, 60, 8, fineGrained = true, checkpoints = 6)
  }

  test("Independent storage is also safe under concurrency") {
    val stream = GraphStreams.wikiTalk(150, 9, seed = 91)
    val q = QueryGenerator.fromStream(stream, 4, QueryGenerator.RandomOrder, 13, 40)
      .getOrElse(fail("gen failed"))
    val d      = Decomposer.decompose(q)
    val serial = new TimingEngine(q, d, StoreMode.Independent)
    val sd     = new WindowDriver(serial, 40)
    stream.foreach(sd.advance)
    val conc = new ConcurrentEngine(new TimingEngine(q, d, StoreMode.Independent), 4)
    val cd   = new ConcurrentWindowDriver(conc, 40)
    try {
      cd.run(stream)
      assert(keys(conc.engine.results) == keys(serial.results))
    } finally conc.shutdown()
  }

  test("edges matching nothing dispatch no transaction") {
    val conc = new ConcurrentEngine(new TimingEngine(paperQ, Decomposer.decompose(paperQ), StoreMode.MsTree), 2)
    try {
      conc.submitInsert(StreamEdge(1, 900, "Z", 901, "Z", "zzz", 1))
      conc.quiesce()
      assert(conc.reported.isEmpty)
      assert(conc.engine.spaceCells == 0)
    } finally conc.shutdown()
  }

  test("a self-loop's expiry dispatches no transaction") {
    val q = QueryGraph(
      Seq(QueryVertex(0, "A"), QueryVertex(1, "A"), QueryVertex(2, "A")),
      Seq(QueryEdge(1, 0, 1, "-"), QueryEdge(2, 1, 2, "-")),
      Set((1, 2)),
    )
    val conc = new ConcurrentEngine(new TimingEngine(q, Decomposer.decompose(q), StoreMode.MsTree), 2)
    try {
      val driver = new ConcurrentWindowDriver(conc, 10)
      driver.advance(StreamEdge(1, 50, "A", 50, "A", "-", 1))  // label-matching self-loop
      driver.advance(StreamEdge(2, 900, "Z", 901, "Z", "zzz", 20)) // expires it, matches nothing
      conc.quiesce()
      assert(conc.dispatched == 0)
      driver.advance(StreamEdge(3, 50, "A", 51, "A", "-", 21))
      conc.quiesce()
      assert(conc.dispatched == 1 && conc.engine.spaceCells == 1)
    } finally conc.shutdown()
  }

  test("a non-first-position edge's expiry dispatches no transaction") {
    val conc = new ConcurrentEngine(new TimingEngine(paperQ, Decomposer.decompose(paperQ), StoreMode.MsTree), 2)
    try {
      val driver = new ConcurrentWindowDriver(conc, 10)
      driver.advance(e(vb, vc, 1))                               // ε5 only: its insert is dispatched
      driver.advance(StreamEdge(2, 900, "Z", 901, "Z", "zzz", 20)) // expires it, matches nothing
      conc.quiesce()
      assert(conc.dispatched == 1 && conc.engine.spaceCells == 0)
    } finally conc.shutdown()
  }

  // Liveness: a dense run must quiesce within a fixed time. The run goes in
  // a Future, so a stall fails the test instead of hanging the suite (the
  // stalled engine is then left unshut, since shutting down waits for it).
  private lazy val denseStream = GraphStreams.traffic(4000, 8, nPorts = 3, seed = 5)
  private lazy val denseQ = QueryGenerator.fromStream(denseStream, 4, QueryGenerator.RandomOrder, 11, 40)
    .getOrElse(fail("gen failed"))
  private lazy val denseSerial = {
    val serial = new TimingEngine(denseQ, Decomposer.decompose(denseQ), StoreMode.MsTree)
    new WindowDriver(serial, 80).run(denseStream)
    serial
  }

  for (n <- Seq(2, 4); fine <- Seq(true, false)) {
    test(s"a dense run quiesces within 60 s (N=$n, ${if (fine) "fine-grained" else "all-locks"})") {
      val conc = new ConcurrentEngine(new TimingEngine(denseQ, Decomposer.decompose(denseQ), StoreMode.MsTree), n, fine)
      val run  = Future(new ConcurrentWindowDriver(conc, 80).run(denseStream))(ExecutionContext.global)
      try Await.result(run, 60.seconds)
      catch { case _: TimeoutException => fail(s"no quiesce within 60 s (N=$n, fine=$fine)") }
      conc.shutdown()
      assert(keys(conc.engine.results) == keys(denseSerial.results))
      assert(conc.engine.spaceCells == denseSerial.spaceCells && denseSerial.spaceCells > 0)
    }
  }
}
