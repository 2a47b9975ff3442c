package repro.perfbench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory
import java.util.concurrent.Executors

import org.apache.commons.math3.distribution.BetaDistribution
import org.apache.spark.sql.SparkSession
import repro.bsp.{BspEngine, LocalBspEngine}
import repro.core.{QueryResult, TagJoinExecutor}
import repro.tag.{TagGraphBuilder, TagRelation}
import repro.workload.{BenchQuery, Workload}

import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

/** The TAG-join benchmark: seeded inputs, set-up, a closed loop of one
  * client over every query of the workload, the correctness gate on every
  * execution, and one JSON line of metrics.
  *
  * Usage: `Bench --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>`.
  * Start it through `perfbench/run.py`, which builds it first.
  */
object Bench {

  /** Set-ups per run; `setup_s` and `heap_mb` are their medians. */
  val SetupRepeats = 3
  /** Untimed passes over all queries before the timed loop. */
  val WarmupPasses = 2
  /** No-op engine runs behind `bsp.noop_run_ms`. */
  val NoopRuns = 15

  final case class Args(workload: BenchWorkload, seed: Long, seconds: Int, trace: Boolean, out: File)

  /** One timed `Workload.runTag` call. */
  final case class Sample(query: String, pass: Int, traced: Boolean, ns: Long, gcNs: Long)

  /** A metric as printed: value, unit, and how many samples it rests on. */
  final case class Metric(name: String, value: Double, unit: String, samples: Int)

  def main(argv: Array[String]): Unit = {
    val args = parse(argv.toList, Map.empty)
    val spark = SparkSession.builder
      .master("local[*]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", "4")
      .config("spark.local.dir", new File(args.out, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new File(args.out, "warehouse").getPath)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val code =
      try run(spark, args)
      finally spark.stop()
    sys.exit(code)
  }

  private def parse(rest: List[String], acc: Map[String, String]): Args = rest match {
    case k :: v :: tail if k.startsWith("--") => parse(tail, acc + (k.drop(2) -> v))
    case Nil =>
      def need(k: String) = acc.getOrElse(k, usage(s"missing --$k"))
      val w = Workloads.all.find(_.name == need("workload"))
        .getOrElse(usage(s"unknown workload ${need("workload")}"))
      val trace = need("trace") match {
        case "0" => false
        case "1" => true
        case t   => usage(s"--trace must be 0 or 1, not $t")
      }
      val seconds = need("seconds").toInt
      if (seconds < 1) usage("--seconds must be at least 1")
      Args(w, need("seed").toLong, seconds, trace, new File(need("out")))
    case other => usage(s"cannot parse ${other.mkString(" ")}")
  }

  private def usage(msg: String): Nothing = {
    Console.err.println(s"perfbench: $msg\nusage: --workload <" +
      Workloads.all.map(_.name).mkString("|") + "> --seed <n> --seconds <s> --trace <0|1> --out <dir>")
    sys.exit(2)
  }

  // ------------------------------------------------------------------ run

  /** A ready executor and what it cost to build. */
  private final case class Setup(ex: TagJoinExecutor, engineOf: Seq[TagRelation] => BspEngine,
      seconds: Double, heapBytes: Long)

  def run(spark: SparkSession, a: Args): Int = {
    val started = System.nanoTime()
    def phase(name: String): Unit =
      Console.err.println(f"perfbench: ${name} done at ${(System.nanoTime() - started) / 1e9}%.1f s")
    val wl = a.workload.make(spark, a.workload.sf, a.seed)

    // Inputs are generated and cached outside every clock.
    wl.tables.foreach { case (n, df) => df.cache().createOrReplaceTempView(n) }
    fourAtATime(wl.tables.values.toSeq)(_.count())
    phase("inputs")

    // Set-up, repeated; the last executor serves the queries.
    Trace.on = a.trace
    val setups = ArrayBuffer.empty[(Double, Long)]
    var current: Setup = null
    (1 to SetupRepeats).foreach { _ =>
      current = null // unreachable before the next heap reading
      current = setup(wl, a.trace)
      setups += current.seconds -> current.heapBytes
    }
    Trace.on = false
    phase("set-up")
    val setupSpans = Trace.spans.toVector
    val ex = current.ex

    def execute(q: BenchQuery): (Long, Long, Either[Throwable, QueryResult]) = {
      Trace.exec += 1
      val gc0 = gcNs()
      val t0 = System.nanoTime()
      val res =
        try Right(Trace.span("workload.runTag", q.name)(Workload.runTag(ex, q)))
        catch { case NonFatal(e) => Left(e) }
      (System.nanoTime() - t0, gcNs() - gc0, res)
    }

    // The Spark SQL reference results are computed while the warm-up runs,
    // after every heap reading and outside every clock. The warm-up passes
    // keep JIT compilation out of the loop; a traced run warms both modes.
    val pool = Executors.newFixedThreadPool(4)
    val (warmup, expected) =
      try {
        val reference = wl.queries.map(q => pool.submit(() => q.name -> Gate.expected(spark.sql(q.sql))))
        val warmup = (1 to WarmupPasses).flatMap { i =>
          Trace.on = a.trace && i % 2 == 0
          wl.queries.map(q => q -> execute(q)._3)
        }
        Trace.on = false
        (warmup, reference.map(_.get()).toMap)
      } finally pool.shutdown()
    val gateFaults = Gate.selfTest(expected.values.toSeq)
    if (gateFaults.nonEmpty) {
      gateFaults.foreach(f => Console.err.println(s"perfbench: gate self-test: $f"))
      return 3
    }

    var attempted = 0
    var failed = 0
    def check(q: BenchQuery, res: Either[Throwable, QueryResult]): Unit = {
      val fault = res.fold(e => Some(s"threw $e"), r => Gate.diff(expected(q.name), Gate.actual(r)))
      attempted += 1
      fault.foreach { f =>
        failed += 1
        if (failed <= 5) Console.err.println(s"perfbench: ${q.name} failed the gate: ${f.take(400)}")
      }
    }
    warmup.foreach { case (q, res) => check(q, res) }
    val noopMs =
      if (!a.trace) Vector.empty
      else {
        val base = ex.baseEngine.asInstanceOf[TracedEngine].inner
        (0 to NoopRuns).map { _ =>
          val t0 = System.nanoTime()
          base.run(NoopProgram)
          (System.nanoTime() - t0) / 1e6
        }.drop(1).toVector
      }
    Trace.reset()
    phase("warm-up and reference results")

    // The timed loop: whole passes over every query until `seconds` is up.
    // A traced run alternates untraced and traced passes and ends on a pair.
    val samples = ArrayBuffer.empty[Sample]
    val deadline = System.nanoTime() + a.seconds * 1000000000L
    var pass = 0
    while (System.nanoTime() < deadline || (a.trace && pass % 2 == 1)) {
      val traced = a.trace && pass % 2 == 1
      Trace.on = traced
      wl.queries.foreach { q =>
        val (ns, gc, res) = execute(q)
        Trace.on = false // the gate runs outside every span
        check(q, res)
        Trace.on = traced
        samples += Sample(q.name, pass, traced, ns, gc)
      }
      Trace.on = false
      pass += 1
    }

    phase("timed loop")
    val plain = samples.filterNot(_.traced).toVector
    val endToEnd = endToEndMetrics(plain, setups.toVector)
    val perLayer =
      if (a.trace) layerMetrics(wl, samples.toVector, setupSpans, current, noopMs) else Vector.empty
    val printed = if (a.trace) perLayer else endToEnd

    val report = writeReport(a, wl, samples.toVector, setups.toVector, endToEnd ++ perLayer, attempted, failed)
    printTable(a, wl, endToEnd ++ perLayer, plain, samples.toVector, attempted, failed, report)
    println(resultLine(failed == 0, attempted, failed, printed))
    0
  }

  /** `f` over `xs` on four threads (Spark runs concurrent jobs), in order. */
  private def fourAtATime[A, B](xs: Seq[A])(f: A => B): Seq[B] = {
    val pool = Executors.newFixedThreadPool(4)
    try xs.map(x => pool.submit(() => f(x))).map(_.get())
    finally pool.shutdown()
  }

  private def setup(wl: Workload, traced: Boolean): Setup = {
    val before = usedHeapAfterGc()
    val t0 = System.nanoTime()
    val rels = Trace.span("tag.relations") {
      wl.relationSpecs.map { case (n, df, ac) => TagRelation.fromDataFrame(n, df, ac) }
    }
    val engineOf: Seq[TagRelation] => BspEngine =
      if (traced) new LocalEngineOf
      else rs => new LocalBspEngine(TagGraphBuilder.local(rs))
    val ex = new TagJoinExecutor(rels, engineOf)
    ex.baseEngine
    val secs = (System.nanoTime() - t0) / 1e9
    Setup(ex, engineOf, secs, usedHeapAfterGc() - before)
  }

  /** Time the JVM spent collecting garbage so far. */
  private def gcNs(): Long = {
    val it = ManagementFactory.getGarbageCollectorMXBeans.iterator()
    var ms = 0L
    while (it.hasNext) ms += math.max(0L, it.next().getCollectionTime)
    ms * 1000000L
  }

  private def usedHeapAfterGc(): Long = {
    Thread.sleep(300) // let Spark's listener bus drain the events of the last collect
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
  }

  // -------------------------------------------------------------- metrics

  private def endToEndMetrics(plain: Vector[Sample], setups: Vector[(Double, Long)]): Vector[Metric] = {
    val lat = plain.map(_.ns / 1e6)
    Vector(
      Metric("setup_s", Stats.median(setups.map(_._1)), "s", setups.size),
      Metric("queries_per_s", lat.size / (lat.sum / 1e3), "1/s", lat.size),
      Metric("query_p50_ms", Stats.quantile(lat, 0.5), "ms", lat.size),
      Metric("query_p90_ms", Stats.quantile(lat, 0.9), "ms", lat.size),
      Metric("heap_mb", Stats.median(setups.map(_._2 / 1e6)), "MB", setups.size),
    )
  }

  /** Per-layer metrics from the traced passes; totals are per pass over the
    * workload's queries, so they compare across runs of different lengths.
    */
  private def layerMetrics(wl: Workload, samples: Vector[Sample], setupSpans: Vector[Trace.Span],
      setup: Setup, noopMs: Vector[Double]): Vector[Metric] = {
    val tracedPasses = samples.filter(_.traced).map(_.pass).distinct.size
    val n = tracedPasses.toDouble
    val spans = Trace.spans.toVector
    def total(name: String, kind: String = null): Double =
      spans.filter(s => s.name == name && (kind == null || s.kind == kind)).map(_.ns).sum / 1e9
    val byParent = spans.groupBy(_.parent)
    val coreSelf = spans.filter(_.name == "workload.runTag")
      .map(s => Trace.selfNs(s, byParent.getOrElse(s.id, Vector.empty))).sum / 1e9
    val runs = Trace.runs.toVector
    val supersteps = runs.map(_.supersteps.toLong).sum
    val runSeconds = total("bsp.run")
    val g = setup.engineOf.asInstanceOf[LocalEngineOf].base
    val maxDegree = (0 until g.numVertices).iterator.map(g.degree).max
    val setupMedian = (name: String) =>
      Stats.median(setupSpans.filter(_.name == name).map(_.ns / 1e9))
    val plainPass = Stats.mean(passTimes(samples, traced = false))
    val tracedPass = Stats.mean(passTimes(samples, traced = true))
    val pp = tracedPasses
    Vector(
      Metric("tag.relations_s", setupMedian("tag.relations"), "s", SetupRepeats),
      Metric("tag.graph_build_s", setupMedian("tag.graph_build"), "s", SetupRepeats),
      Metric("tag.vertices", g.numVertices, "count", 1),
      Metric("tag.edges", g.numEdges, "count", 1),
      Metric("tag.max_degree", maxDegree, "count", 1),
      Metric("tag.rebuilds", spans.count(_.name == "tag.rebuild") / n, "count/pass", pp),
      Metric("tag.rebuild_s", total("tag.rebuild") / n, "s/pass", pp),
      Metric("bsp.runs", runs.size / n, "count/pass", pp),
      Metric("bsp.run_s", runSeconds / n, "s/pass", pp),
      Metric("bsp.run_s.scan", total("bsp.run", "scan") / n, "s/pass", pp),
      Metric("bsp.run_s.acyclic", total("bsp.run", "acyclic") / n, "s/pass", pp),
      Metric("bsp.run_s.cycle", total("bsp.run", "cycle") / n, "s/pass", pp),
      Metric("bsp.supersteps", supersteps / n, "count/pass", pp),
      Metric("bsp.messages", runs.map(_.messages).sum / n, "count/pass", pp),
      Metric("bsp.messages_to_aggregator", Trace.toAggregator.sum / n, "count/pass", pp),
      Metric("bsp.superstep_ms", runSeconds * 1e3 / supersteps, "ms", supersteps.toInt),
      Metric("bsp.noop_run_ms", Stats.median(noopMs), "ms", noopMs.size),
      Metric("bsp.active_frac", Trace.computeCalls.sum.toDouble / runs.map(_.scanned).sum, "ratio", pp),
      Metric("bsp.compute_calls", Trace.computeCalls.sum / n, "count/pass", pp),
      Metric("bsp.compute_cpu_s", Trace.computeNs.sum / 1e9 / n, "s/pass", pp),
      Metric("bsp.merge_calls", Trace.mergeCalls.sum / n, "count/pass", pp),
      Metric("bsp.merge_cpu_s", Trace.mergeNs.sum / 1e9 / n, "s/pass", pp),
      Metric("bsp.aggregator_s", Trace.aggregatorNs.sum / 1e9 / n, "s/pass", pp),
      Metric("bsp.collect_s", total("bsp.collect") / n, "s/pass", pp),
      Metric("core.self_s", coreSelf / n, "s/pass", pp),
      Metric("trace.overhead", tracedPass / plainPass - 1, "ratio", pp),
    )
  }

  private def passTimes(samples: Vector[Sample], traced: Boolean): Vector[Double] =
    samples.filter(_.traced == traced).groupBy(_.pass).values.map(_.map(_.ns).sum / 1e9).toVector

  // --------------------------------------------------------------- output

  private def perQuery(wl: Workload, samples: Vector[Sample]): Vector[(String, Double, Int)] =
    wl.queries.map { q =>
      val xs = samples.filter(_.query == q.name).map(_.ns / 1e6)
      (q.name, if (xs.isEmpty) Double.NaN else Stats.median(xs), xs.size)
    }.toVector

  private def printTable(a: Args, wl: Workload, metrics: Vector[Metric], plain: Vector[Sample],
      samples: Vector[Sample], attempted: Int, failed: Int, report: File): Unit = {
    val w = a.workload
    println(f"# perfbench ${w.name} sf=${w.sf} seed=${a.seed} seconds=${a.seconds} trace=${if (a.trace) 1 else 0}")
    println(f"${"metric"}%-28s ${"value"}%14s  ${"unit"}%-10s samples")
    metrics.foreach(m => println(f"${m.name}%-28s ${m.value}%14.4f  ${m.unit}%-10s ${m.samples}"))
    val lat = plain.map(_.ns / 1e6)
    val p90 = Stats.quantile(lat, 0.9)
    println(s"query_p90_ms has ${lat.count(_ > p90)} samples beyond it")
    println(f"error_rate ${failed.toDouble / attempted}%.4f ($failed of $attempted executions failed)")
    println("per-query median ms (untraced / traced):")
    val traced = perQuery(wl, samples.filter(_.traced)).map(t => t._1 -> t).toMap
    perQuery(wl, plain).foreach { case (q, ms, k) =>
      val t = traced.get(q).filter(_._3 > 0).map(t => f" / ${t._2}%.2f").getOrElse("")
      println(f"  ${"query." + q + "_ms"}%-16s $ms%10.2f$t%s  (n=$k)")
    }
    println("seconds per pass, in order (* = traced): " + samples.groupBy(_.pass).toVector.sortBy(_._1)
      .map { case (_, xs) => f"${xs.map(_.ns).sum / 1e9}%.3f" + (if (xs.head.traced) "*" else "") }
      .mkString(" "))
    println(s"report: ${report.getPath}")
  }

  /** The whole run, spans included, as JSON under the output directory. */
  private def writeReport(a: Args, wl: Workload, samples: Vector[Sample], setups: Vector[(Double, Long)],
      metrics: Vector[Metric], attempted: Int, failed: Int): File = {
    val f = new File(a.out, s"report-${a.workload.name}-seed${a.seed}-trace${if (a.trace) 1 else 0}.json")
    f.getParentFile.mkdirs()
    val q = Json.str _
    val metricJson = metrics.map(m =>
      s"${q(m.name)}: {\"value\": ${Json.num(m.value)}, \"unit\": ${q(m.unit)}, \"samples\": ${m.samples}}")
    val queries = (perQuery(wl, samples.filterNot(_.traced)) ++
      perQuery(wl, samples.filter(_.traced)).map(t => t.copy(_1 = t._1 + ".traced"))).filter(_._3 > 0)
      .map { case (n, ms, k) => s"${q(n)}: {\"median_ms\": ${Json.num(ms)}, \"samples\": $k}" }
    val passes = samples.groupBy(_.pass).toVector.sortBy(_._1).map { case (p, xs) =>
      s"{\"pass\": $p, \"traced\": ${xs.head.traced}, \"seconds\": ${Json.num(xs.map(_.ns).sum / 1e9)}}"
    }
    val raw = samples.map(s => s"[${q(s.query)}, ${s.pass}, ${s.traced}, ${s.ns}, ${s.gcNs}]")
    val runs = Trace.runs.map(r =>
      s"{\"exec\": ${r.exec}, \"kind\": ${q(r.kind)}, \"supersteps\": ${r.supersteps}, " +
        s"\"messages\": ${r.messages}, \"scanned\": ${r.scanned}}")
    val spans = Trace.spans.map(s =>
      s"{\"id\": ${s.id}, \"parent\": ${s.parent}, \"exec\": ${s.exec}, \"name\": ${q(s.name)}, " +
        s"\"kind\": ${q(s.kind)}, \"start_ns\": ${s.startNs}, \"end_ns\": ${s.endNs}}")
    val pw = new PrintWriter(f, "UTF-8")
    try pw.print(
      s"{\"workload\": ${q(a.workload.name)}, \"sf\": ${a.workload.sf}, \"seed\": ${a.seed}, " +
        s"\"seconds\": ${a.seconds}, \"trace\": ${a.trace}, \"attempted\": $attempted, \"failed\": $failed,\n" +
        s"\"metrics\": {${metricJson.mkString(",\n ")}},\n\"queries\": {${queries.mkString(",\n ")}},\n" +
        s"\"setups\": [${setups.map { case (t, b) => s"{\"seconds\": ${Json.num(t)}, \"heap_bytes\": $b}" }.mkString(", ")}],\n" +
        s"\"passes\": [${passes.mkString(",\n ")}],\n" +
        s"\"samples\": [${raw.mkString(",\n ")}],\n\"runs\": [${runs.mkString(",\n ")}],\n" +
        s"\"spans\": [${spans.mkString(",\n ")}]}\n")
    finally pw.close()
    f
  }

  private def resultLine(correct: Boolean, attempted: Int, failed: Int, metrics: Vector[Metric]): String = {
    val ms = metrics.map(m =>
      s"${Json.str(m.name)}: {\"value\": ${Json.num(m.value)}, \"unit\": ${Json.str(m.unit)}}")
    s"{\"correct\": $correct, \"attempted\": $attempted, \"failed\": $failed, \"metrics\": {${ms.mkString(", ")}}}"
  }
}

object Stats {
  def mean(xs: Seq[Double]): Double = xs.sum / xs.size

  /** Median by interpolation between the middle order statistics. */
  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted.toVector
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Harrell–Davis estimate of the `p` quantile: a mean of all order
    * statistics, weighted by a Beta(p(n+1), (1-p)(n+1)) density. Latencies
    * of different queries form separate clusters; a quantile that falls
    * between two clusters would otherwise rest on the one extreme sample of
    * each and jump from run to run.
    */
  def quantile(xs: Seq[Double], p: Double): Double = {
    val s = xs.sorted.toVector
    val n = s.size
    if (n == 1) return s.head
    val beta = new BetaDistribution(null, p * (n + 1), (1 - p) * (n + 1))
    var prev = 0.0
    var sum = 0.0
    for (i <- 1 to n) {
      val cdf = beta.cumulativeProbability(i.toDouble / n)
      sum += (cdf - prev) * s(i - 1)
      prev = cdf
    }
    sum
  }
}

object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'            => "\\\""
      case '\\'           => "\\\\"
      case c if c < ' '   => f"\\u${c.toInt}%04x"
      case c              => c.toString
    } + "\""

  /** Full precision; JSON has no NaN, so an undefined value is null. */
  def num(d: Double): String = if (d.isNaN || d.isInfinite) "null" else d.toString
}
