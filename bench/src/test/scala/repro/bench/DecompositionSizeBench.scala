package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.bench.BenchHarness._
import repro.data.QueryGenerator

/** Tables T23 + T24 (paper Figs 23/24): throughput and space as the TC
  * decomposition size k varies, query size fixed at 6 (paper: 12),
  * |W| = 1500 (paper: 30,000). k=1 is a full timing order, k=6 an empty
  * one, intermediate k via redrawn random orders (§VII-G). Space is
  * reported in cells and as retained heap, as T17 does.
  */
class DecompositionSizeBench extends AnyFunSuite {

  private val ks        = Seq(1, 2, 3, 6)
  private val size      = 6
  private val window    = 1500L
  private val streamLen = 20000

  test("T23/T24: throughput and space vs decomposition size k") {
    val stream = dataset("traffic", streamLen)
    val qs = ks.flatMap { k =>
      QueryGenerator.withDecompositionSize(stream, size, k, seed = 40 + k, windowSpan = window)
        .map(q => k -> q)
    }
    assert(qs.map(_._1) == ks, s"could not generate all k targets: got ${qs.map(_._1)}")
    val names = methodSet(qs.head._2).map(t => (t._1, t._3))
    val results: Map[(String, Int), RunResult] = (for {
      (k, q)         <- qs
      (name, budget) <- names
    } yield {
      val (_, mk, _) = methodSet(q).find(_._1 == name).get
      (name, k) -> benchRunBest(mk, stream, window, maxEdges = budget)
    }).toMap
    printTable(
      "T23 Throughput (edges/s) vs decomposition size k — traffic-like",
      "method" +: ks.map(k => s"k=$k"),
      names.map { case (n, _) => n +: ks.map(k => fmt(results((n, k)).throughput)) },
    )
    printTable(
      "T24 Space (KB) vs decomposition size k — traffic-like",
      "method" +: ks.map(k => s"k=$k"),
      names.map { case (n, _) => n +: ks.map(k => fmt(results((n, k)).spaceKb)) },
    )
    printTable(
      "T24 Space, measured retained heap (KB) vs decomposition size k — traffic-like",
      "method" +: ks.map(k => s"k=$k"),
      names.map { case (n, _) => n +: ks.map(k => fmt(results((n, k)).heapKb)) },
    )
    // shape: larger k should not shrink Timing's space (more L0 joining)
    val t1 = results(("Timing", 1)).spaceKb
    val tk = results(("Timing", 6)).spaceKb
    assert(tk >= t1 * 0.5, s"space at k=6 ($tk KB) should not be far below k=1 ($t1 KB)")
  }
}
