package repro.perfbench

import java.util.concurrent.atomic.LongAdder

import repro.bsp._
import repro.core.{AcyclicJoinProgram, CyclePassProgram, ScanProgram}
import repro.tag.{LocalTagGraph, TagGraphBuilder, TagRelation}

import scala.collection.mutable.ArrayBuffer
import scala.reflect.ClassTag

/** Spans and per-call counters, recorded from the benchmark's side of the
  * public calls into each layer and kept in memory until the run ends.
  *
  * Spans are opened only on the benchmark's own thread (every `run`,
  * `mapStates` and `engineOf` call happens there). The vertex-program callbacks run on the
  * engine's worker threads, so they feed counters, not spans. While [[on]]
  * is false every decorator below passes straight through.
  */
object Trace {
  @volatile var on = false

  /** One layer-boundary interval. `parent` is -1 for a root span; `exec`
    * is the query execution it belongs to (0 during set-up).
    */
  final case class Span(id: Int, parent: Int, exec: Int, name: String, kind: String,
      startNs: Long, endNs: Long) {
    def ns: Long = endNs - startNs
  }

  /** The exact work of one `BspEngine.run` in query execution `exec`:
    * `scanned` is vertices × supersteps.
    */
  final case class RunWork(exec: Int, kind: String, supersteps: Int, messages: Long, scanned: Long)

  val spans = ArrayBuffer.empty[Span]
  val runs = ArrayBuffer.empty[RunWork]
  var exec = 0
  private var nextId = 0
  private var open: List[Int] = Nil

  val computeCalls, computeNs, mergeCalls, mergeNs, aggregatorNs, toAggregator = new LongAdder

  def span[A](name: String, kind: String = "")(body: => A): A =
    if (!on) body
    else {
      val id = nextId
      nextId += 1
      val parent = open.headOption.getOrElse(-1)
      open = id :: open
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        open = open.tail
        spans += Span(id, parent, exec, name, kind, t0, t1)
      }
    }

  def reset(): Unit = {
    spans.clear(); runs.clear()
    Seq(computeCalls, computeNs, mergeCalls, mergeNs, aggregatorNs, toAggregator).foreach(_.reset())
  }

  /** Duration of `s` not covered by its direct children. */
  def selfNs(s: Span, children: Seq[Span]): Long = {
    var covered = 0L
    var reach = s.startNs
    children.sortBy(_.startNs).foreach { c =>
      val lo = math.max(c.startNs, reach)
      val hi = math.min(c.endNs, s.endNs)
      if (hi > lo) { covered += hi - lo; reach = hi }
    }
    s.ns - covered
  }

  def kindOf(p: VertexProgram[_, _]): String = p match {
    case _: ScanProgram        => "scan"
    case _: AcyclicJoinProgram => "acyclic"
    case _: CyclePassProgram   => "cycle"
    case _                     => "other"
  }
}

/** The executor's `engineOf`: the CSR graph plus the shared-memory engine,
  * exactly as `TagJoinExecutor.local` builds them. The first call builds the
  * base graph; later calls are the §6.4 re-encodings of an intermediate bag.
  */
final class LocalEngineOf extends (Seq[TagRelation] => BspEngine) {
  private var calls = 0
  /** The base graph, for the size counters. */
  var base: LocalTagGraph = _

  def apply(rels: Seq[TagRelation]): BspEngine = {
    calls += 1
    val span = if (calls == 1) "tag.graph_build" else "tag.rebuild"
    val (g, engine) = Trace.span(span) {
      val g = TagGraphBuilder.local(rels)
      (g, new LocalBspEngine(g))
    }
    if (calls == 1) base = g
    new TracedEngine(engine, g.numVertices.toLong)
  }
}

/** Spans each `run` (labelled by program class) and decorates the program
  * and the returned run while tracing is on.
  */
final class TracedEngine(val inner: BspEngine, vertices: Long) extends BspEngine {
  override def run[S, M](program: VertexProgram[S, M])(implicit
      st: ClassTag[S], mt: ClassTag[M]): BspRun[S, M] =
    if (!Trace.on) inner.run(program)
    else {
      val kind = Trace.kindOf(program)
      val r = Trace.span("bsp.run", kind)(inner.run(new TracedProgram(program)))
      Trace.runs += Trace.RunWork(Trace.exec, kind, r.stats.supersteps, r.stats.totalMessages,
        vertices * r.stats.supersteps)
      new TracedRun(r)
    }
}

final class TracedRun[S, M](r: BspRun[S, M]) extends BspRun[S, M] {
  def mapStates[O: ClassTag](f: (VertexInfo, S) => IterableOnce[O]): Vector[O] =
    Trace.span("bsp.collect")(r.mapStates(f))
  def aggregate: Option[M] = {
    val t0 = System.nanoTime()
    try Trace.span("bsp.aggregate")(r.aggregate)
    finally Trace.aggregatorNs.add(System.nanoTime() - t0)
  }
  def stats: BspStats = r.stats
}

/** Times `compute`, `merge` and `aggregatorCompute` and counts messages to
  * the aggregator vertex. The local engine delivers a message inside
  * `send`, so a `compute` interval includes delivering what it sends.
  */
final class TracedProgram[S, M](p: VertexProgram[S, M]) extends VertexProgram[S, M] {
  override val maxSteps: Int = p.maxSteps
  def initialState(v: VertexInfo): S = p.initialState(v)
  def initiallyActive(v: VertexInfo, s: S, edges: IndexedSeq[OutEdge]): Boolean =
    p.initiallyActive(v, s, edges)

  def compute(step: Int, v: VertexInfo, s: S, msg: Option[M],
      edges: IndexedSeq[OutEdge], ctx: SendCtx[M]): S = {
    val t0 = System.nanoTime()
    val out = p.compute(step, v, s, msg, edges, new CountingCtx(ctx))
    Trace.computeNs.add(System.nanoTime() - t0)
    Trace.computeCalls.increment()
    out
  }

  def merge(a: M, b: M): M = {
    val t0 = System.nanoTime()
    val out = p.merge(a, b)
    Trace.mergeNs.add(System.nanoTime() - t0)
    Trace.mergeCalls.increment()
    out
  }

  /** Materializes the answers so that producing them is inside the interval. */
  override def aggregatorCompute(step: Int, merged: M): Iterator[(Long, M)] = {
    val t0 = System.nanoTime()
    val answers = p.aggregatorCompute(step, merged).toVector
    Trace.aggregatorNs.add(System.nanoTime() - t0)
    answers.iterator
  }
}

final class CountingCtx[M](ctx: SendCtx[M]) extends SendCtx[M] {
  def send(target: Long, m: M): Unit = {
    if (target == VertexProgram.AggregatorId) Trace.toAggregator.increment()
    ctx.send(target, m)
  }
}

/** A program that does nothing: one superstep over every vertex, no vertex
  * active, no message — the engine's fixed cost per run.
  */
object NoopProgram extends VertexProgram[Null, Null] {
  val maxSteps = 1
  def initialState(v: VertexInfo): Null = null
  def initiallyActive(v: VertexInfo, s: Null, edges: IndexedSeq[OutEdge]): Boolean = false
  def compute(step: Int, v: VertexInfo, s: Null, msg: Option[Null],
      edges: IndexedSeq[OutEdge], ctx: SendCtx[Null]): Null = null
  def merge(a: Null, b: Null): Null = null
}
