package perfbench

import java.lang.management.ManagementFactory
import java.lang.ref.Reference
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

import repro.concurrent.{ConcurrentEngine, ConcurrentWindowDriver}
import repro.core._

/** Benchmark entry point. One JVM runs one workload:
  *
  *   perfbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --pins <file>
  *
  * It prints tab-separated result lines to standard output (`meta`, `problem`,
  * `attempted`, `failed` and `metric` lines; see [[Run.execute]]) and exits
  * non-zero if any correctness check failed.
  *
  *   perfbench.Main --workload <name> --setup 1
  *
  * times one cold build of the system under test in this fresh JVM and
  * prints it as a `setup_s` line.
  */
object Main {

  def main(argv: Array[String]): Unit = {
    val opts = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad argument: ${other.mkString(" ")}")
    }.toMap
    def opt(k: String): String =
      opts.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val w = Workload.byName(opt("workload"))
    if (opts.get("setup").contains("1")) {
      println(s"setup_s\t${Run.coldSetupNs(Input.query(w, w.generate(w.queryPrefix))) / 1e9}")
      return
    }
    val run = new Run(
      w, opt("seed").toLong, opt("seconds").toInt,
      opt("trace") match { case "0" => false; case "1" => true; case t => throw new IllegalArgumentException(s"--trace $t") },
      Pins.load(opt("pins")))
    run.execute().foreach(println)
    System.out.flush()
    sys.exit(if (run.correct) 0 else 1)
  }
}

/** Measurements of one pass: a fresh engine replaying the whole pass stream. */
final class Pass(
    val wallNs: Long,
    val matches: Long,
    val digest: Long,
    val failedOps: Long,
    val stateBytes: Long,
    val extra: Seq[(String, Double)],
)

/** One benchmark run of workload `w`.
  *
  * Order of work: inputs; identity pins; the paper fixture; one untimed
  * validation pass, which also warms the JIT; then timed passes until
  * `seconds` have passed. Every pass is checked against the pinned answers.
  * With `trace`, each round runs an untraced serial pass, a traced serial
  * pass and a concurrent pass.
  */
final class Run(w: Workload, seed: Long, seconds: Int, trace: Boolean, pins: Pins) {

  import Run.ConcurrentThreads
  /** The per-layer self times of a traced pass must add up to the traced
    * advance time within this share. What they leave out is the window
    * driver's own queue handling and the timer reads themselves: about 5%
    * on wiki-sparse, where engine calls are shortest, and under 2% elsewhere.
    */
  private val TraceTolerance = 0.10
  /** Store size is sampled every this many traced edges. */
  private val CellsEvery = 64

  private val problems  = mutable.ArrayBuffer[String]()
  private var attempted = 0L
  private var failed    = 0L

  def correct: Boolean = problems.isEmpty && failed == 0

  private def problem(msg: String): Unit = {
    problems += msg
    System.err.println(s"[gate] ${w.name}: $msg")
  }

  private val in = new Input(w, seed)
  private val q  = in.query
  private val n  = in.stream.length

  private def newEngine(): TimingEngine = new TimingEngine(q, Decomposer.decompose(q), StoreMode.MsTree)

  // ------------------------------------------------------------ heap probes

  private val memory  = ManagementFactory.getMemoryMXBean
  private val gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private val threadBean =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  private def retainedHeap(): Long = {
    System.gc()
    System.gc()
    memory.getHeapMemoryUsage.getUsed
  }

  private def gcTotals(): (Long, Long) =
    (gcBeans.map(_.getCollectionTime).sum, gcBeans.map(_.getCollectionCount).sum)

  // ----------------------------------------------------------------- checks

  private def checkPin(key: String, observed: String): Unit =
    pins.get(w.name, key) match {
      case Some(v) if v == observed => ()
      case Some(v) => problem(s"$key is '$observed', pinned '$v'")
      case None    => problem(s"no pin for ${w.name}/$key; observed '$observed'")
    }

  private def checkAnswers(p: Pass, engine: TimingEngine): Unit = {
    attempted += n
    failed += p.failedOps
    val countOk  = pins.get(w.name, "matches").contains(p.matches.toString)
    val digestOk = pins.get(w.name, "match_digest").contains(Digest.hex(p.digest))
    val sizesOk  = pins.get(w.name, "item_sizes").contains(Gate.itemSizesText(engine))
    if (!(countOk && digestOk && sizesOk)) {
      problem(s"pass answers differ from the pins: matches ${p.matches}, " +
        s"digest ${Digest.hex(p.digest)}, items ${Gate.itemSizesText(engine)}")
      failed += n - p.failedOps // every edge of a wrong pass counts as failed
    }
    if (engine.workCap != 0 || engine.cappedInserts.sum() != 0)
      problem(s"work cap ${engine.workCap} capped ${engine.cappedInserts.sum()} inserts")
  }

  private def note(e: Throwable): Unit =
    if (problems.size < 20) problem(s"edge threw: $e")

  private val checkpoints = Set(n / 2 - 1, n - 1)

  // ----------------------------------------------------------------- passes

  /** A serial pass. `lat` receives per-edge advance times when non-null;
    * `layers` switches tracing on; `validate` checks every match and the
    * brute-force checkpoints.
    */
  private def serialPass(lat: Array[Long], layers: Layers, validate: Boolean): Pass = {
    val heap0  = retainedHeap()
    val engine = newEngine()
    val api    = if (layers == null) engine else new TracedEngine(engine, layers)
    val driver = new WindowDriver(api, w.window)
    val s      = in.stream
    var matches, digest, failedOps, advanceNs, cellsPeak, cellsSum, cellsN = 0L
    val (gcMs0, gcN0) = gcTotals()
    val alloc0        = threadBean.getThreadAllocatedBytes(Thread.currentThread().getId)
    val t0            = System.nanoTime()
    var i = 0
    while (i < n) {
      val a  = System.nanoTime()
      var ok = true
      val ms =
        try driver.advance(s(i))
        catch { case NonFatal(e) => note(e); ok = false; Vector.empty }
      val b = System.nanoTime()
      advanceNs += b - a
      if (lat != null) lat(i) = b - a
      matches += ms.size
      ms.foreach(m => digest += Digest.ofMatch(m))
      if (validate) {
        if (!ms.forall(Gate.validMatch(q, w.window, _))) ok = false
        if (checkpoints(i) && !Gate.agreesWithBruteForce(q, engine.results, driver.snapshot)) {
          problem(s"results at edge $i differ from brute force on the window")
          ok = false
        }
      }
      if (layers != null && i % CellsEvery == 0) {
        val c = engine.spaceCells
        cellsPeak = math.max(cellsPeak, c); cellsSum += c; cellsN += 1
      }
      if (!ok) failedOps += 1
      i += 1
    }
    val wall           = System.nanoTime() - t0
    val alloc          = threadBean.getThreadAllocatedBytes(Thread.currentThread().getId) - alloc0
    val (gcMs1, gcN1)  = gcTotals()
    val state          = retainedHeap() - heap0
    Reference.reachabilityFence(driver)
    val extra =
      if (layers != null) traceMetrics(layers, advanceNs) ++ Seq(
        "store.cells_peak" -> cellsPeak.toDouble,
        "store.cells_mean" -> cellsSum.toDouble / math.max(1L, cellsN))
      else Seq(
        "jvm.alloc_mb" -> alloc / 1e6,
        "jvm.gc_s"     -> (gcMs1 - gcMs0) / 1e3,
        "jvm.gc_count" -> (gcN1 - gcN0).toDouble)
    val p = new Pass(wall, matches, digest, failedOps, state, extra)
    checkAnswers(p, engine)
    p
  }

  /** A pass through a fine-grained `ConcurrentEngine`, run in trace rounds
    * for the `concurrent.*` metrics.
    */
  private def concurrentPass(): Pass = {
    val heap0  = retainedHeap()
    val engine = newEngine()
    val ce     = new ConcurrentEngine(engine, ConcurrentThreads, fineGrained = true)
    try {
      val driver = new ConcurrentWindowDriver(ce, w.window)
      val s      = in.stream
      var failedOps, dispatchNs = 0L
      val t0 = System.nanoTime()
      var i = 0
      while (i < n) {
        val a = System.nanoTime()
        try driver.advance(s(i))
        catch { case NonFatal(e) => note(e); failedOps += 1 }
        dispatchNs += System.nanoTime() - a
        i += 1
      }
      val tq = System.nanoTime()
      ce.quiesce()
      val t1 = System.nanoTime()
      var matches, digest = 0L
      var m = ce.reported.poll()
      while (m != null) {
        matches += 1
        digest += Digest.ofMatch(m)
        m = ce.reported.poll()
      }
      val state = retainedHeap() - heap0
      Reference.reachabilityFence(ce)
      val p = new Pass(t1 - t0, matches, digest, failedOps, state, Seq(
        "concurrent.dispatch_s"     -> dispatchNs / 1e9,
        "concurrent.drain_s"        -> (t1 - tq) / 1e9,
        "concurrent.dispatch_share" -> dispatchNs.toDouble / (t1 - t0)))
      checkAnswers(p, engine)
      p
    } finally ce.shutdown()
  }

  private def ratio(a: Long, b: Long): Double = if (b == 0) 0.0 else a.toDouble / b

  private def traceMetrics(l: Layers, advanceNs: Long): Seq[(String, Double)] =
    Seq(
      "dispatch.s"          -> l.dispatchNs / 1e9,
      "dispatch.unmatched"  -> l.unmatched.toDouble,
      "plan.s"              -> l.planNs / 1e9,
      "plan.steps"          -> l.planSteps.toDouble,
      "extend.read_s"       -> l.extendReadNs / 1e9,
      "extend.test_s"       -> l.extendTestNs / 1e9,
      "extend.write_s"      -> l.extendWriteNs / 1e9,
      "extend.candidates"   -> l.extendCandidates.toDouble,
      "extend.hits"         -> l.extendHits.toDouble,
      "extend.hit_ratio"    -> ratio(l.extendHits, l.extendCandidates),
      "extend.discards"     -> l.extendDiscards.toDouble,
      "join.read_s"         -> l.joinReadNs / 1e9,
      "join.test_s"         -> l.joinTestNs / 1e9,
      "join.write_s"        -> l.joinWriteNs / 1e9,
      "join.pair_tests"     -> l.pairTests.toDouble,
      "join.pair_hits"      -> l.pairHits.toDouble,
      "join.hit_ratio"      -> ratio(l.pairHits, l.pairTests),
      "join.aborts"         -> l.joinAborts.toDouble,
      "materialize.s"       -> l.materializeNs / 1e9,
      "materialize.matches" -> l.matches.toDouble,
      "expiry.s"            -> l.expiryNs / 1e9,
      "expiry.chain_s"      -> l.expiryChainNs / 1e9,
      "expiry.join_s"       -> l.expiryJoinNs / 1e9,
      "expiry.removed"      -> l.removed.toDouble,
      "trace.advance_s"     -> advanceNs / 1e9,
      "trace.self_ratio"    -> l.selfNs.toDouble / advanceNs,
    )

  // ------------------------------------------------------------- statistics

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** Nearest-rank percentile of sorted samples. */
  private def percentile(sorted: Array[Long], p: Double): Long =
    sorted(math.min(sorted.length - 1, math.ceil(p * sorted.length).toInt - 1).max(0))

  private def medianOf(passes: Seq[Pass], key: String): Double =
    median(passes.map(_.extra.find(_._1 == key).get._2))

  // -------------------------------------------------------------------- run

  /** Runs the workload and returns the result lines, tab-separated:
    * `meta <key> <value>`, `problem <message>`, `attempted <n>`,
    * `failed <n>` and `metric <name> <value> <unit>`.
    */
  def execute(): Seq[String] = {
    val d = Decomposer.decompose(q)

    checkPin("generator", w.generator)
    checkPin("pass_edges", n.toString)
    checkPin("window", w.window.toString)
    checkPin("query", in.queryText)
    checkPin("k", d.k.toString)
    checkPin("decomposition", d.subqueries.map(_.seq.mkString(" ")).mkString(" | "))
    checkPin("stream_digest", in.streamDigest)
    Gate.paperFixture().foreach(problem)

    val tv = System.nanoTime()
    serialPass(null, null, validate = true)
    System.err.println(f"[perfbench] ${w.name}: validation pass ${(System.nanoTime() - tv) / 1e9}%.1f s")

    val deadline = System.nanoTime() + seconds * 1000000000L
    val metrics: Seq[(String, Double, String)] =
      if (!trace) {
        val lat      = new Array[Long](n)
        val passes   = mutable.ArrayBuffer[Pass]()
        val p50, p99 = mutable.ArrayBuffer[Double]()
        while (passes.isEmpty || System.nanoTime() < deadline) {
          passes += serialPass(lat, null, validate = false)
          java.util.Arrays.sort(lat)
          p50 += percentile(lat, 0.50) / 1e3
          p99 += percentile(lat, 0.99) / 1e3
        }
        System.err.println(s"[perfbench] ${w.name}: ${passes.size} passes of $n edges, " +
          s"percentiles per pass over $n samples (${n / 100} beyond p99); edges/s per pass " +
          passes.map(p => f"${n / (p.wallNs / 1e9)}%.0f").mkString(" "))
        Seq(
          ("edges_per_s", median(passes.map(p => n / (p.wallNs / 1e9)).toSeq), "edges/s"),
          ("latency_p50_us", median(p50.toSeq), "us"),
          ("latency_p99_us", median(p99.toSeq), "us"),
          ("state_mb", median(passes.map(_.stateBytes / 1e6).toSeq), "MB"),
        )
      } else {
        val plain, traced, conc = mutable.ArrayBuffer[Pass]()
        while (traced.isEmpty || System.nanoTime() < deadline) {
          plain += serialPass(null, null, validate = false)
          traced += serialPass(null, new Layers(d), validate = false)
          conc += concurrentPass()
        }
        System.err.println(s"[perfbench] ${w.name}: ${traced.size} trace rounds of $n edges")
        val selfRatio = medianOf(traced.toSeq, "trace.self_ratio")
        if (math.abs(1 - selfRatio) > TraceTolerance)
          problem(f"trace self times add up to $selfRatio%.4f of traced advance time (tolerance $TraceTolerance)")
        def unit(k: String): String =
          if (k.endsWith("_s") || k.endsWith(".s")) "s"
          else if (k.endsWith("_mb")) "MB"
          else if (k.endsWith("ratio") || k.endsWith("share")) "ratio"
          else "count"
        val keys = traced.head.extra.map(_._1)
        keys.map(k => (k, medianOf(traced.toSeq, k), unit(k))) ++
          // GC time is counted in whole milliseconds, so the JVM figures are
          // means over the untraced passes rather than medians.
          plain.head.extra.map(_._1).map(k =>
            (k, plain.map(_.extra.find(_._1 == k).get._2).sum / plain.size, unit(k))) ++
          conc.head.extra.map(_._1).map(k => (k, medianOf(conc.toSeq, k), unit(k))) :+
          (("trace.overhead", median(traced.map(_.wallNs.toDouble).toSeq) /
            median(plain.map(_.wallNs.toDouble).toSeq), "ratio"))
      }

    val cpus = Runtime.getRuntime.availableProcessors
    Seq(
      s"meta\tpass_edges\t$n",
      s"meta\tnproc\t$cpus",
      s"meta\tjvm\t${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
      s"meta\tmax_heap_mb\t${Runtime.getRuntime.maxMemory / (1 << 20)}",
      s"meta\toversubscribed\t${trace && ConcurrentThreads + 1 > cpus}",
    ) ++ problems.map(p => s"problem\t${p.replace('\t', ' ').replace('\n', ' ')}") ++ Seq(
      s"attempted\t$attempted",
      s"failed\t$failed",
    ) ++ metrics.map { case (k, v, u) => s"metric\t$k\t$v\t$u" }
  }
}

object Run {

  /** Workers of the concurrent engine in trace rounds: with the dispatching
    * main thread this makes four threads, one per core of the 4-core
    * reference box.
    */
  val ConcurrentThreads = 3

  /** Time to build the system under test for query `q`: `Decomposer.decompose`
    * and `TimingEngine` construction. Called once in a fresh JVM, it includes
    * the loading and first interpretation of the engine's classes.
    */
  def coldSetupNs(q: QueryGraph): Long = {
    val t0 = System.nanoTime()
    val e  = new TimingEngine(q, Decomposer.decompose(q), StoreMode.MsTree)
    val t1 = System.nanoTime()
    Reference.reachabilityFence(e)
    t1 - t0
  }
}
