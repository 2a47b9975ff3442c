package repro.perfbench

import org.apache.spark.sql.DataFrame
import repro.core.QueryResult
import repro.tag.ValueKey

/** The correctness gate: a TAG-join result must equal the Spark SQL result
  * of the same SQL text.
  *
  * Column names, the number of rows and every integer, string, date and NULL
  * must match exactly. A pair of numbers where either side is floating point
  * matches when it differs by at most [[RelTol]] of the larger magnitude, or
  * by at most [[AbsTol]]: the two engines sum in different orders, so the
  * last digits of a large SUM differ (q1 at SF 0.02 gives …204500 against
  * …204499 in the sixth decimal), while every generated price has two
  * decimals, so a real error is far above both tolerances.
  */
object Gate {
  val RelTol = 1e-9
  val AbsTol = 1e-6

  /** A result in canonical form: columns sorted by name, values normalized
    * the way TAG attribute values are, rows sorted.
    */
  final case class Rows(columns: Vector[String], rows: Vector[Vector[Any]])

  def expected(df: DataFrame): Rows = {
    val cols = df.columns.toVector
    val order = cols.indices.sortBy(cols).toVector
    canonical(order.map(cols), df.collect().toVector.map(r => order.map(i => canon(r.get(i)))))
  }

  def actual(r: QueryResult): Rows = {
    val cols = r.columns.toVector.sorted
    canonical(cols, r.rows.map(t => cols.map(c => canon(t.getOrElse(c, null)))))
  }

  /** None when `got` passes the gate, else the first difference. */
  def diff(exp: Rows, got: Rows): Option[String] =
    if (exp.columns != got.columns) Some(s"columns ${got.columns} != expected ${exp.columns}")
    else if (exp.rows.size != got.rows.size) Some(s"${got.rows.size} rows, expected ${exp.rows.size}")
    else exp.rows.indices.find(i => !exp.rows(i).corresponds(got.rows(i))(same))
      .map(i => s"row $i: ${got.rows(i)} != expected ${exp.rows(i)}")

  /** Shows the gate is live: each reference must pass, and each altered copy
    * must fail: a row dropped, a number moved by 1e-6 of itself or by a cent,
    * whichever is more, a string changed, a column renamed. Every kind of
    * alteration has to be applied to at least one reference. Returns the
    * faults found; empty means sound.
    */
  def selfTest(refs: Seq[Rows]): Seq[String] = {
    val applied = scala.collection.mutable.Set.empty[String]
    val faults = refs.flatMap { ref =>
      val accepts = diff(ref, ref).map(d => s"reference rejected itself: $d").toSeq
      val rejects = alterations(ref).flatMap { case (kind, bad) =>
        applied += kind
        if (diff(ref, canonical(bad.columns, bad.rows)).isEmpty) Some(s"gate accepted '$kind'") else None
      }
      accepts ++ rejects
    }
    faults ++ (AlterationKinds.toSet -- applied).map(k => s"no reference had a cell for '$k'")
  }

  private val AlterationKinds = Seq("drop row", "move number", "change string", "rename column")

  private def alterations(ref: Rows): Seq[(String, Rows)] = {
    def firstCell(p: Any => Boolean): Option[(Int, Int)] =
      ref.rows.indices.iterator.flatMap(i => ref.rows(i).indices.find(j => p(ref.rows(i)(j))).map(i -> _))
        .nextOption()
    def replaced(at: (Int, Int), f: Any => Any): Rows = {
      val (i, j) = at
      ref.copy(rows = ref.rows.updated(i, ref.rows(i).updated(j, f(ref.rows(i)(j)))))
    }
    Seq(
      Option.when(ref.rows.nonEmpty)("drop row" -> ref.copy(rows = ref.rows.dropRight(1))),
      firstCell(v => v.isInstanceOf[Double] || v.isInstanceOf[Long]).map(at =>
        "move number" -> replaced(at, {
          case d: Double => d + math.max(math.abs(d) * 1e-6, 0.01)
          case l: Long   => l + 1
        })),
      firstCell(_.isInstanceOf[String]).map(at => "change string" -> replaced(at, _.toString + "*")),
      Option.when(ref.columns.nonEmpty)(
        "rename column" -> ref.copy(columns = ref.columns.updated(0, ref.columns(0) + "_x"))),
    ).flatten
  }

  private def canon(v: Any): Any = ValueKey.normalize(v) match {
    case f: Float                => f.toDouble
    case b: java.math.BigDecimal => b.doubleValue
    case other                   => other
  }

  private def same(a: Any, b: Any): Boolean = (a, b) match {
    case (x: Long, y: Long)     => x == y
    case (x: Double, y: Double) => close(x, y)
    case (x: Long, y: Double)   => close(x.toDouble, y)
    case (x: Double, y: Long)   => close(x, y.toDouble)
    case _                      => a == b
  }

  private def close(x: Double, y: Double): Boolean =
    x == y || (x.isNaN && y.isNaN) ||
      math.abs(x - y) <= math.max(AbsTol, RelTol * math.max(math.abs(x), math.abs(y)))

  private def canonical(cols: Vector[String], rows: Vector[Vector[Any]]): Rows =
    Rows(cols, rows.sorted(RowOrder))

  /** NULL < booleans < numbers (by value) < dates < strings, per column. */
  private object RowOrder extends Ordering[Vector[Any]] {
    private def rank(v: Any): Int = v match {
      case null                     => 0
      case _: Boolean               => 1
      case _: Long | _: Double      => 2
      case _: ValueKey.DateKey      => 3
      case _: String                => 4
      case _                        => 5
    }
    private def cell(a: Any, b: Any): Int = {
      val r = Integer.compare(rank(a), rank(b))
      if (r != 0) r
      else (a, b) match {
        case (x: Long, y: Long)                       => java.lang.Long.compare(x, y)
        case (x: Long, y: Double)                     => java.lang.Double.compare(x.toDouble, y)
        case (x: Double, y: Long)                     => java.lang.Double.compare(x, y.toDouble)
        case (x: Double, y: Double)                   => java.lang.Double.compare(x, y)
        case (x: Boolean, y: Boolean)                 => java.lang.Boolean.compare(x, y)
        case (ValueKey.DateKey(x), ValueKey.DateKey(y)) => java.lang.Long.compare(x, y)
        case (null, null)                             => 0
        case _                                        => a.toString.compareTo(b.toString)
      }
    }
    def compare(a: Vector[Any], b: Vector[Any]): Int = {
      var i = 0
      val n = math.min(a.size, b.size)
      while (i < n) { val c = cell(a(i), b(i)); if (c != 0) return c; i += 1 }
      Integer.compare(a.size, b.size)
    }
  }
}
