package repro

import org.apache.spark.sql.functions._

/** Wiring checks for the DuckDB oracle itself. */
class OracleSpec extends SparkSpec {
  import spark.implicits._

  private lazy val df = Seq((1, "a", 1.5), (2, "b", 2.5), (3, "a", 3.5)).toDF("k", "g", "v")

  test("equivalent aggregation passes") {
    val got = df.groupBy("g").agg(sum("v").as("s"), count(lit(1)).as("c"))
    Oracle.assertEquivalent(
      got,
      "SELECT g, SUM(CAST(v AS DOUBLE)) AS s, COUNT(*) AS c FROM t GROUP BY g",
      "t" -> df)
  }

  test("row mismatch is detected") {
    val got = df.groupBy("g").agg(sum("v").as("s"))
    assertThrows[IllegalArgumentException] {
      Oracle.assertEquivalent(
        got,
        "SELECT g, SUM(CAST(v AS DOUBLE)) + 1 AS s FROM t GROUP BY g",
        "t" -> df)
    }
  }

  test("column-name mismatch is detected") {
    val got = df.groupBy("g").agg(sum("v").as("s"))
    assertThrows[IllegalArgumentException] {
      Oracle.assertEquivalent(
        got,
        "SELECT g, SUM(CAST(v AS DOUBLE)) AS wrong FROM t GROUP BY g",
        "t" -> df)
    }
  }

  test("null values round-trip") {
    val withNull = Seq((1, Some(1.0)), (2, None)).toDF("k", "v")
    Oracle.assertEquivalent(
      withNull,
      "SELECT CAST(k AS INT) AS k, CAST(v AS DOUBLE) AS v FROM t",
      "t" -> withNull)
  }

  test("join queries validate across two tables") {
    val a = Seq((1, 10.0), (2, 20.0)).toDF("k", "x")
    val b = Seq((1, "u"), (2, "w")).toDF("k", "tag")
    val got = a.join(b, "k").select(col("tag"), (col("x") * 2).as("xx"))
    Oracle.assertEquivalent(
      got,
      "SELECT tag, CAST(x AS DOUBLE) * 2 AS xx FROM a JOIN b ON a.k = b.k",
      "a" -> a, "b" -> b)
  }

  test("floating cells compare by value, not by their 6-decimal rounding") {
    // 12.0390625 sits on a rounding edge: it prints as 12.039063 and the
    // next double below it as 12.039062, yet the two are one ulp apart
    val exact = Seq((1, 12.0390625), (2, 0.5)).toDF("k", "v")
    val sql = "SELECT CAST(k AS INT) AS k, CAST(v AS DOUBLE) AS v FROM t"
    Oracle.assertEquivalent(Seq((2, 0.5), (1, math.nextDown(12.0390625))).toDF("k", "v"), sql, "t" -> exact)
    assertThrows[IllegalArgumentException] {
      Oracle.assertEquivalent(Seq((1, 12.0390625 + 1e-6), (2, 0.5)).toDF("k", "v"), sql, "t" -> exact)
    }
  }
}
