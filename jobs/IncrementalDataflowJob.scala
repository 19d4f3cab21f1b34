package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.data.{GraphStreams, QueryGenerator}
import repro.spark.IncrementalDataflow

/** spark-submit entrypoint: the windowed-state incremental dataflow over a
  * micro-batched synthetic stream (the Structured-Streaming-style job).
  *
  * Usage: IncrementalDataflowJob [nEdges] [window] [batch] [querySize] [seed]
  */
object IncrementalDataflowJob {
  def main(args: Array[String]): Unit = {
    val n      = args.lift(0).map(_.toInt).getOrElse(4000)
    val window = args.lift(1).map(_.toLong).getOrElse(800L)
    val batch  = args.lift(2).map(_.toInt).getOrElse(400)
    val size   = args.lift(3).map(_.toInt).getOrElse(5)
    val seed   = args.lift(4).map(_.toLong).getOrElse(42L)

    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro-incremental-dataflow")
      .getOrCreate()

    val stream = GraphStreams.traffic(n, n / 40)
    val q = QueryGenerator
      .fromStream(stream, size, QueryGenerator.RandomOrder, seed, window)
      .getOrElse(sys.error("query generation failed; try another seed"))
    println(s"query: $q")

    val flow = new IncrementalDataflow(spark, q, window)
    stream.grouped(batch).foreach { b =>
      val now   = b.last.ts
      val delta = flow.advanceBatch(b, now)
      println(s"batch ending t=$now: ${delta.count()} new matches, state=${flow.currentMatches.count()}")
    }
    spark.stop()
  }
}
