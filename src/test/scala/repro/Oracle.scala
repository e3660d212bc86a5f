package repro

import java.sql.DriverManager
import org.apache.spark.sql.{DataFrame, Row}

/** DuckDB correctness oracle.
  *
  * ``assertEquivalent(sparkDf, sql, tables)`` runs ``sql`` on DuckDB
  * (via JDBC, in-process) over ``tables`` and asserts the sorted rows
  * match ``sparkDf``, floating cells to within [[Tol]]. This catches
  * wrong results from a rewritten plan or a custom operator — "it ran"
  * is not "it is correct".
  *
  * Alias every output column identically on both sides (Spark names
  * ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``). Project
  * to scalar columns — array/map/struct are not comparable here.
  */
object Oracle {

  /** Largest difference allowed between a Spark and a DuckDB floating value:
    * half of what two equal 6-decimal strings can hide, and two sums one ulp
    * apart pass even where they would round to different strings.
    */
  val Tol = 5e-7

  /** Rows as cells in sorted column order: floating values as `Double`, all
    * else as strings. Rows sort on their string cells first, so rows that
    * differ in the last bits of a floating cell still pair up.
    */
  private def canon(rows: Seq[Row], cols: Seq[String]): Seq[Seq[Any]] = {
    val order = cols.sorted
    val idx   = order.map(cols.indexOf)
    rows
      .map(r => idx.map { i =>
        r.get(i) match {
          case null                     => "∅"
          case d: Double                => d
          case f: Float                 => f.toDouble
          case bd: java.math.BigDecimal => bd.doubleValue
          case x                        => x.toString
        }
      })
      .sortBy(r => (r.collect { case s: String => s }.mkString("\u0000"), r.collect { case d: Double => d }))(
        Ordering.Tuple2(Ordering.String, Ordering.Implicits.seqOrdering(Ordering.Double.TotalOrdering)))
  }

  private def same(a: Seq[Any], b: Seq[Any]): Boolean =
    a.size == b.size && a.zip(b).forall {
      case (x: Double, y: Double) => x == y || math.abs(x - y) <= Tol
      case (x, y)                 => x == y
    }

  def assertEquivalent(sparkDf: DataFrame, sql: String, tables: (String, DataFrame)*): Unit = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      for ((name, df) <- tables) {
        val cols = df.columns
        conn.createStatement.execute(
          s"CREATE TABLE $name (${cols.map(c => s"$c VARCHAR").mkString(", ")})"
        )
        // Collect once; this is an oracle, not a bench — keep tables small.
        val ps = conn.prepareStatement(
          s"INSERT INTO $name VALUES (${cols.map(_ => "?").mkString(",")})"
        )
        df.collect().foreach { r =>
          cols.indices.foreach(i => ps.setString(i + 1, Option(r.get(i)).map(_.toString).orNull))
          ps.addBatch()
        }
        ps.executeBatch(); ps.close()
      }
      val rs   = conn.createStatement.executeQuery(sql)
      val meta = rs.getMetaData
      val dCols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
      val dRows = Iterator
        .continually(rs)
        .takeWhile(_.next())
        .map(r => Row.fromSeq((1 to dCols.size).map(r.getObject)))
        .toSeq
      val sCols = sparkDf.columns.toSeq
      require(
        dCols.map(_.toLowerCase).toSet == sCols.map(_.toLowerCase).toSet,
        s"column mismatch: spark=${sCols.sorted} duckdb=${dCols.sorted} — alias every output column"
      )
      val got = canon(sparkDf.collect().toSeq, sCols)
      val exp = canon(dRows, dCols)
      val unpaired = got.zip(exp).filterNot { case (g, e) => same(g, e) }
      require(got.size == exp.size && unpaired.isEmpty,
        s"result mismatch (${got.size} vs ${exp.size} rows):\n" +
        s"  first (spark, duck) pairs that differ: ${unpaired.take(3)}"
      )
    } finally conn.close()
  }
}
