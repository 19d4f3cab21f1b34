package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.data.{GraphStreams, QueryGenerator}
import repro.spark.{EdgeStreams, SnapshotMatcher}

/** spark-submit entrypoint: declarative time-constrained matching over one
  * snapshot of a synthetic stream via Catalyst self-joins.
  *
  * Usage: SnapshotSearchJob [nEdges] [window] [querySize] [seed]
  */
object SnapshotSearchJob {
  def main(args: Array[String]): Unit = {
    val n      = args.lift(0).map(_.toInt).getOrElse(20000)
    val window = args.lift(1).map(_.toLong).getOrElse(1500L)
    val size   = args.lift(2).map(_.toInt).getOrElse(6)
    val seed   = args.lift(3).map(_.toLong).getOrElse(42L)

    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro-snapshot-search")
      .getOrCreate()

    val stream = GraphStreams.traffic(n, n / 40)
    val q = QueryGenerator
      .fromStream(stream, size, QueryGenerator.RandomOrder, seed, window)
      .getOrElse(sys.error("query generation failed; try another seed"))
    println(s"query: $q")

    val edges = EdgeStreams.toDf(spark, stream)
    val snap  = EdgeStreams.snapshot(edges, n.toLong, window)
    val m     = SnapshotMatcher.matches(snap, q)
    println(s"matches in snapshot (t=$n, |W|=$window): ${m.count()}")
    m.show(20, truncate = false)
    spark.stop()
  }
}
