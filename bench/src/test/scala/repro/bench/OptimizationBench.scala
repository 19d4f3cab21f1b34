package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.bench.BenchHarness._
import repro.core._

/** Table T21 (paper Fig 21): the decomposition and join-order heuristics
  * vs their randomized ablations (Timing-RD / Timing-RJ / Timing-RDJ),
  * |W| = 1500 (paper: 30,000), MS-tree storage throughout.
  */
class OptimizationBench extends AnyFunSuite {

  private val sizes     = Seq(6, 8, 10)
  private val window    = 1500L
  private val streamLen = 20000
  private val rdSeeds   = Seq(1L, 2L, 3L)

  test("T21: Timing vs Timing-RD / Timing-RJ / Timing-RDJ") {
    val stream = dataset("traffic", streamLen)
    val variants: Seq[(String, (QueryGraph, Long) => Decomposition)] = Seq(
      "Timing"     -> ((q, _) => Decomposer.decompose(q)),
      "Timing-RD"  -> ((q, s) => Decomposer.randomDecompose(q, s)),
      "Timing-RJ"  -> ((q, s) => Decomposer.randomJoinOrder(q, s)),
      "Timing-RDJ" -> ((q, s) => Decomposer.randomBoth(q, s)),
    )
    val results: Map[(String, Int), Double] = (for {
      size <- sizes
      qs = queries(stream, size, 3, windowSpan = window, seed0 = 700 + size)
      (name, mkD) <- variants
    } yield {
      val thr = mean(for (q <- qs; s <- rdSeeds) yield {
        // throughput only, so no extra runs for a retained-heap median
        benchRunBest(() => new TimingEngine(q, mkD(q, s), StoreMode.MsTree), stream, window, heapRuns = 0).throughput
      })
      (name, size) -> thr
    }).toMap
    printTable(
      "T21 Throughput (edges/s): optimization ablation — traffic-like",
      "method" +: sizes.map(s => s"|E(Q)|=$s"),
      variants.map { case (n, _) => n +: sizes.map(s => fmt(results((n, s)))) },
    )
    // shape: the heuristics should on average not lose to fully random
    val timingAvg = mean(sizes.map(s => results(("Timing", s))))
    val rdjAvg    = mean(sizes.map(s => results(("Timing-RDJ", s))))
    assert(timingAvg > rdjAvg * 0.7, "heuristic decomposition should be competitive with random")
  }
}
