package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

import repro.concurrent.{ConcurrentEngine, ConcurrentWindowDriver}
import repro.data.{GraphStreams, QueryGenerator}

/** Differential property over generated windowed streams: every Timing
  * engine holds exactly [[Fixtures.bruteForce]] of its window. ScalaCheck is
  * called through `Test.check`, with a fixed initial seed so a run is
  * repeatable; a failure prints the generated case.
  */
class WindowPropertySpec extends AnyFunSuite {
  import Fixtures._
  import WindowPropertySpec.Case

  private val cases: Gen[Case] = for {
    kind     <- Gen.oneOf("traffic", "wiki", "lsbench")
    n        <- Gen.choose(10, 150)
    vertices <- Gen.choose(5, 12)
    seed     <- Gen.choose(1L, 1000000L)
    window   <- Gen.choose(3L, 60L)
    loops    <- Gen.oneOf(0, 5, 20)
    size     <- Gen.choose(1, 5)
    every    <- Gen.choose(1, 25)
  } yield Case(kind, n, vertices, seed, window, loops, size, every)

  private val params = Test.Parameters.default.withMinSuccessfulTests(200).withInitialSeed(20261019L)

  private def check(p: Prop): Unit = {
    val r = Test.check(params, p)
    assert(r.passed, Pretty.pretty(r))
  }

  /** The first point where `engines` (name, engine) disagree with the brute
    * force of `window`, if any.
    */
  private def disagreement(q: QueryGraph, engines: Seq[(String, EngineApi)], window: Seq[StreamEdge],
                           at: Int): Option[String] = {
    val expect = bruteForce(q, window)
    engines.collectFirst {
      case (name, eng) if keys(eng.results) != expect =>
        s"$name after edge $at: ${keys(eng.results).size} results, brute force ${expect.size}"
    }
  }

  private def decompositions(q: QueryGraph, seed: Long): Seq[(String, Decomposition)] =
    Seq("paper" -> Decomposer.decompose(q), "random" -> Decomposer.randomBoth(q, seed))

  test("serial engines equal brute force at every slide (both stores, paper and random decompositions)") {
    check(Prop.forAllNoShrink(cases) { c =>
      c.query.fold(Prop.undecided) { q =>
        val engines = for ((dn, d) <- decompositions(q, c.seed); mode <- Seq(StoreMode.MsTree, StoreMode.Independent))
          yield s"$mode/$dn" -> new TimingEngine(q, d, mode)
        val drivers = engines.map { case (_, eng) => new WindowDriver(eng, c.window) }
        val failed = c.stream.indices.iterator.map { t =>
          drivers.foreach(_.advance(c.stream(t)))
          disagreement(q, engines, drivers.head.snapshot, t)
        }.collectFirst { case Some(f) => f }
        Prop(failed.isEmpty) :| failed.getOrElse("")
      }
    })
  }

  /** A concurrent engine with `n` workers, fine-grained or All-locks, holds
    * the brute force of its window whenever it is quiesced.
    */
  private def concurrentProperty(n: Int, fineGrained: Boolean): Unit =
    check(Prop.forAllNoShrink(cases) { c =>
      c.query.fold(Prop.undecided) { q =>
        val failed = decompositions(q, c.seed).iterator.map { case (dn, d) =>
          val conc = new ConcurrentEngine(new TimingEngine(q, d, StoreMode.MsTree), n, fineGrained)
          try {
            val driver = new ConcurrentWindowDriver(conc, c.window)
            c.stream.indices.grouped(c.quiesceEvery).map { part =>
              part.foreach(t => driver.advance(c.stream(t)))
              conc.quiesce()
              disagreement(q, Seq(s"concurrent/$dn" -> conc.engine), driver.snapshot, part.last)
            }.collectFirst { case Some(f) => f }
          } finally conc.shutdown()
        }.collectFirst { case Some(f) => f }
        Prop(failed.isEmpty) :| failed.getOrElse("")
      }
    })

  test("a fine-grained concurrent engine (N=2) equals brute force at its quiesce points") {
    concurrentProperty(2, fineGrained = true)
  }

  test("a fine-grained concurrent engine (N=4) equals brute force at its quiesce points") {
    concurrentProperty(4, fineGrained = true)
  }

  test("an All-locks concurrent engine (N=4) equals brute force at its quiesce points") {
    concurrentProperty(4, fineGrained = false)
  }
}

object WindowPropertySpec {

  /** A stream from one of the `GraphStreams` generators, with a share of its
    * edges turned into self-loops that keep the source's label on both ends
    * (so they match the labels of some query edges), a window, a query drawn
    * from the stream, and how many edges the concurrent run dispatches
    * between quiesce points.
    */
  final case class Case(kind: String, n: Int, vertices: Int, seed: Long, window: Long,
                          loopPercent: Int, querySize: Int, quiesceEvery: Int) {
    lazy val stream: Vector[StreamEdge] = {
      val base = kind match {
        case "traffic" => GraphStreams.traffic(n, vertices, nPorts = 3, seed = seed)
        case "wiki"    => GraphStreams.wikiTalk(n, vertices, seed = seed)
        case _         => GraphStreams.lsbench(n, vertices, seed = seed)
      }
      val rnd = new Random(seed)
      base.map(e => if (rnd.nextInt(100) < loopPercent) e.copy(dst = e.src, dstLabel = e.srcLabel) else e)
    }
    lazy val query: Option[QueryGraph] =
      QueryGenerator.fromStream(stream, querySize, QueryGenerator.RandomOrder, seed, window)
  }
}
