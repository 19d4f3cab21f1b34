package repro.spark

import repro.core.QueryGraph
import repro.spark.MatchPlan._

/** Renders [[MatchPlan]] as the DuckDB SQL equivalent of
  * [[SnapshotMatcher.matches]], for `repro.Oracle.assertEquivalent`. The
  * oracle stores every column as VARCHAR, so timestamp comparisons cast
  * explicitly.
  */
object MatchSql {

  /** SELECT returning one row per time-constrained match of `q` over the
    * edge table `table` (schema = [[EdgeStreams.schema]], all VARCHAR),
    * with columns `m_<queryEdgeId>` in ascending query-edge-id order.
    * Optional window bounds filter `lo < ts <= hi`.
    */
  def matchesSql(q: QueryGraph, table: String, window: Option[(Long, Long)] = None): String = {
    val plan = new MatchPlan(q)
    def c(r: Ref) =
      if (r.field == "ts") s"CAST(e${r.p}.ts AS BIGINT)" else s"e${r.p}.${r.field}"
    val preds = plan.order.indices.flatMap(p => plan.local(p) ++ plan.cross(p)).map {
      case Is(r, l) => s"${c(r)} = '${l.replace("'", "''")}'"
      case Eq(a, b) => s"${c(a)} = ${c(b)}"
      case Ne(a, b) => s"${c(a)} <> ${c(b)}"
      case Lt(a, b) => s"${c(a)} < ${c(b)}"
    } ++ window.toSeq.flatMap { case (lo, hi) =>
      plan.order.indices.map(p => s"${c(Ref(p, "ts"))} > $lo AND ${c(Ref(p, "ts"))} <= $hi")
    }
    val selects = plan.outputs.map { case (qeid, p) => s"e$p.id AS m_$qeid" }
    val from    = plan.order.indices.map(p => s"$table e$p").mkString(", ")
    s"SELECT ${selects.mkString(", ")} FROM $from WHERE ${preds.mkString(" AND ")}"
  }
}
