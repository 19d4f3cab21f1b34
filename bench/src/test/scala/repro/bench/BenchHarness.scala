package repro.bench

import java.lang.management.ManagementFactory
import java.lang.ref.Reference

import repro.baselines._
import repro.core._
import repro.data.{GraphStreams, QueryGenerator}

/** Shared benchmark plumbing: timed windowed runs with a wall-clock budget
  * (slow baselines report throughput over the prefix they managed), space
  * sampling in cells and in retained heap bytes, the standard method set,
  * and aligned table printing. Every bench prints the markdown rows recorded
  * in EXPERIMENTS.md.
  */
object BenchHarness {

  /** Bytes per storage cell for the KB conversion (DESIGN.md §5). */
  val BytesPerCell = 32.0

  /** `heapBytes`: the engine's retained heap at the end of the run (see
    * [[benchRunBest]]; 0 when not measured).
    */
  final case class RunResult(edges: Long, seconds: Double, avgCells: Double, matches: Long, heapBytes: Double = 0.0) {
    def throughput: Double = if (seconds > 0) edges / seconds else 0.0
    def spaceKb: Double    = avgCells * BytesPerCell / 1024.0
    def heapKb: Double     = heapBytes / 1024.0
  }

  /** Heap in use after two full collections, as perfbench's `state_mb` probe reads it. */
  private def retainedHeap(): Long = {
    System.gc()
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
  }

  /** Run `engine` over `stream` under `window`, stopping after `maxEdges`
    * or `timeLimitSec` (whichever first); space is sampled every 200 edges.
    */
  def benchRun(
      engine: EngineApi,
      stream: Vector[StreamEdge],
      window: Long,
      maxEdges: Int = Int.MaxValue,
      timeLimitSec: Double = 6.0,
  ): RunResult = {
    val driver    = new WindowDriver(engine, window)
    val t0        = System.nanoTime()
    val deadline  = t0 + (timeLimitSec * 1e9).toLong
    var processed = 0L
    var matches   = 0L
    var cellsSum  = 0.0
    var samples   = 0
    val it        = stream.iterator
    while (it.hasNext && processed < maxEdges && System.nanoTime() < deadline) {
      matches += driver.advance(it.next()).size
      processed += 1
      if (processed % 200 == 0) {
        cellsSum += engine.spaceCells.toDouble
        samples += 1
      }
    }
    val secs = (System.nanoTime() - t0) / 1e9
    val avg  = if (samples > 0) cellsSum / samples else engine.spaceCells.toDouble
    // No silent caps: surface any step/work-capped searches of the
    // explosive baselines in the bench log.
    engine match {
      case inc: IncMat if inc.matcher.isInstanceOf[BacktrackingMatcher] =>
        val c = inc.matcher.asInstanceOf[BacktrackingMatcher].cappedSearches
        if (c > 0) println(s"  [note] IncMat(${inc.matcher.name}): $c step-capped searches")
      case sj: SJTree if sj.cappedInserts > 0 =>
        println(s"  [note] SJ-tree: ${sj.cappedInserts} work-capped inserts")
      case _ => ()
    }
    RunResult(processed, secs, avg, matches)
  }

  /** The §VII-C method set. IncMat methods get a smaller edge budget — they
    * are orders of magnitude slower and throughput is a per-edge rate; the
    * explosive baselines carry work caps (counted, reported by benchRun).
    */
  def methodSet(q: QueryGraph): Seq[(String, () => EngineApi, Int)] = {
    def capped(m: BacktrackingMatcher): BacktrackingMatcher = { m.stepBudget = 2_000_000L; m }
    Seq(
      ("Timing",          () => new TimingEngine(q, Decomposer.decompose(q), StoreMode.MsTree), Int.MaxValue),
      ("Timing-IND",      () => new TimingEngine(q, Decomposer.decompose(q), StoreMode.Independent), Int.MaxValue),
      ("SJ-tree",         () => new SJTree(q, workCap = 2_000_000L), Int.MaxValue),
      ("IncMat-QuickSI",  () => new IncMat(q, capped(new QuickSI)), 1500),
      ("IncMat-TurboISO", () => new IncMat(q, capped(new TurboIso)), 1500),
      ("IncMat-BoostISO", () => new IncMat(q, capped(new BoostIso)), 1500),
    )
  }

  /** Best-of-`reps` measurement on fresh engines (with a GC between runs):
    * damps JIT/GC noise under the short per-run budget; applied uniformly
    * to every method, so relative shapes are preserved. Each run also
    * measures the engine's retained heap the way perfbench's `state_mb`
    * does: heap used after the run minus heap used just before the engine
    * was built, each after two `System.gc()` calls. The stream is built
    * before, so its edges are not counted, and neither is the window
    * driver's queue, which is the same for every method.
    */
  def benchRunBest(
      mkEngine: () => EngineApi,
      stream: Vector[StreamEdge],
      window: Long,
      maxEdges: Int = Int.MaxValue,
      reps: Int = 2,
  ): RunResult = {
    val rs = (1 to reps).map { _ =>
      val heap0  = retainedHeap()
      val engine = mkEngine()
      val r      = benchRun(engine, stream, window, maxEdges)
      val heap   = retainedHeap() - heap0
      Reference.reachabilityFence(engine)
      r.copy(heapBytes = heap.toDouble)
    }
    rs.maxBy(_.throughput)
  }

  /** JIT warmup: run every method once on a prefix, discarding results, so
    * the first measured configuration is not penalized by cold compilation.
    */
  def warmup(stream: Vector[StreamEdge], qs: Seq[QueryGraph]): Unit =
    qs.take(1).foreach { q =>
      methodSet(q).foreach { case (_, mk, _) =>
        benchRun(mk(), stream.take(3000), window = 800, timeLimitSec = 3.0)
      }
    }

  /** Generate `n` random-order queries of `size` (deterministic seeds). */
  def queries(stream: Vector[StreamEdge], size: Int, n: Int, windowSpan: Long, seed0: Long): Vector[QueryGraph] = {
    val out  = Vector.newBuilder[QueryGraph]
    var got  = 0
    var seed = seed0
    while (got < n && seed < seed0 + 200) {
      QueryGenerator.fromStream(stream, size, QueryGenerator.RandomOrder, seed, windowSpan).foreach { q =>
        out += q; got += 1
      }
      seed += 1
    }
    val res = out.result()
    require(res.nonEmpty, s"no queries generated for size=$size")
    res
  }

  /** Benchmark streams (the three dataset stand-ins; see DESIGN.md §3). */
  def dataset(name: String, n: Int): Vector[StreamEdge] = name match {
    case "traffic" => GraphStreams.traffic(n, nHosts = math.max(20, n / 40))
    // Real wiki-talk walks hit high-degree talk pages, so partial-match
    // volume is substantial; the scaled-down stand-in keeps that property
    // by concentrating activity on fewer users (see EXPERIMENTS.md).
    case "wiki"    => GraphStreams.wikiTalk(n, nUsers = math.max(20, n / 250))
    case "lsbench" => GraphStreams.lsbench(n, nUsers = math.max(20, n / 50))
    case other     => sys.error(s"unknown dataset $other")
  }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  /** Markdown table printer (rows land in bench_output.txt via tee). */
  def printTable(title: String, header: Seq[String], rows: Seq[Seq[String]]): Unit = {
    println()
    println(s"### $title")
    println(header.mkString("| ", " | ", " |"))
    println(header.map(_ => "---").mkString("| ", " | ", " |"))
    rows.foreach(r => println(r.mkString("| ", " | ", " |")))
    println()
  }

  def fmt(x: Double): String =
    if (x >= 1000) f"$x%.0f" else if (x >= 10) f"$x%.1f" else f"$x%.2f"
}
