package repro.bsp

import java.util.concurrent.{CountDownLatch, ExecutorService, Executors}
import java.util.concurrent.atomic.{AtomicInteger, AtomicReference}

import repro.tag.LocalTagGraph

import scala.collection.mutable.ArrayBuilder
import scala.reflect.ClassTag

/** Shared-memory vertex-centric BSP engine.
  *
  * This is our substitute for TigerGraph's single-server mode (§8.1.2): each
  * "vertex processor" of the abstract model (§2) is simulated by one of
  * `threads` workers, the calling thread being one of them. A superstep
  * iterates an active frontier, as Ligra does: superstep 0 covers every
  * vertex (any may be initially active), each later one only the vertices
  * that received a message. Workers claim fixed-size chunks of that range
  * from a shared cursor, so one relation's tuples, which sit next to each
  * other in the CSR layout, still spread over all workers.
  *
  * Messages to a vertex are combined in its inbox slot under a lock stripe;
  * the sender that fills an empty slot adds the vertex to the next
  * frontier. Messages to the global aggregator vertex are combined per
  * worker without a lock, as Pregel's combiners do, and merged at the
  * barrier. The first exception a worker raises ends the run once the
  * barrier is reached; it is rethrown from [[run]].
  *
  * The engine counts every sent message (the paper's §2 communication-cost
  * measure) and supports direct-to-id messaging plus the global aggregator
  * vertex used by §6.3 and the §7 global-aggregation scheme.
  */
final class LocalBspEngine(val graph: LocalTagGraph,
    threads: Int = Runtime.getRuntime.availableProcessors()) extends BspEngine {
  import LocalBspEngine._
  require(threads >= 1, s"threads must be positive: $threads")

  override def run[S, M](program: VertexProgram[S, M])(implicit
      st: ClassTag[S], mt: ClassTag[M]): BspRun[S, M] = {
    val n = graph.numVertices
    val infos = new Array[VertexInfo](n)
    val states = new Array[Any](n)
    var v = 0
    while (v < n) { infos(v) = graph.info(v); states(v) = program.initialState(infos(v)); v += 1 }

    // inbox(v) == null means "no message"; a worker clears each slot it
    // consumes, so both arrays are all null again when their step ends.
    var inbox = new Array[Any](n)
    var next = new Array[Any](n)
    val locks = Array.fill(256)(new Object)

    /** One message source: a worker slot, or the driver answering for the
      * aggregator vertex. Only its own thread touches its fields.
      */
    final class Sender extends SendCtx[M] {
      var sent = 0L
      var toAggregator: Option[M] = None
      val woken = new ArrayBuilder.ofInt // vertices whose next-step inbox this sender filled first

      def send(target: Long, m: M): Unit = {
        sent += 1
        if (target == VertexProgram.AggregatorId)
          toAggregator = Some(toAggregator.fold(m)(program.merge(_, m)))
        else {
          val t = target.toInt
          val nextArr = next
          locks(t & 255).synchronized {
            val prev = nextArr(t)
            if (prev == null) { nextArr(t) = m; woken += t }
            else nextArr(t) = program.merge(prev.asInstanceOf[M], m)
          }
        }
      }
    }

    val senders = Array.fill(threads + 1)(new Sender)
    val driver = senders(threads)
    val cursor = new AtomicInteger
    val failure = new AtomicReference[Throwable]

    /** Worker `w` at `step`: claims chunks of `0 until size`, a position in
      * `frontier`, or a vertex id when `frontier` is null (superstep 0).
      */
    def work(w: Int, step: Int, frontier: Array[Int], size: Int): Unit = {
      val ctx = senders(w)
      val inArr = inbox
      try {
        var lo = cursor.getAndAdd(Chunk)
        while (lo < size && failure.get == null) {
          val hi = math.min(size, lo + Chunk)
          var i = lo
          while (i < hi) {
            val u = if (frontier == null) i else frontier(i)
            val m = inArr(u)
            val edges = graph.outEdges(u)
            val msg = if (m == null) None else { inArr(u) = null; Some(m.asInstanceOf[M]) }
            if (m != null ||
                frontier == null && program.initiallyActive(infos(u), states(u).asInstanceOf[S], edges))
              states(u) = program.compute(step, infos(u), states(u).asInstanceOf[S], msg, edges, ctx)
            i += 1
          }
          lo = cursor.getAndAdd(Chunk)
        }
      } catch { case e: Throwable => failure.compareAndSet(null, e) }
    }

    val perStep = Vector.newBuilder[Long]
    var aggAll: Option[M] = None // everything the aggregator received, over the whole run
    var frontier: Array[Int] = null
    var step = 0
    var halted = false
    while (!halted && step < program.maxSteps) {
      val size = if (frontier == null) n else frontier.length
      val tasks = math.max(1, math.min(threads, (size + Chunk - 1) / Chunk))
      val latch = new CountDownLatch(tasks - 1)
      val f = frontier
      val curStep = step
      cursor.set(0)
      var w = 1
      while (w < tasks) {
        val slot = w
        workers.execute { () => try work(slot, curStep, f, size) finally latch.countDown() }
        w += 1
      }
      work(0, curStep, f, size)
      latch.await()
      val err = failure.get
      if (err != null) throw err

      // Aggregator vertex: merges its inbox in sender order, then may
      // answer with direct messages, delivered next superstep.
      var merged: Option[M] = None
      senders.foreach { s =>
        s.toAggregator.foreach(m => merged = Some(merged.fold(m)(program.merge(_, m))))
        s.toAggregator = None
      }
      merged.foreach { mm =>
        aggAll = Some(aggAll.fold(mm)(program.merge(_, mm)))
        val it = program.aggregatorCompute(step, mm)
        while (it.hasNext) { val (d, x) = it.next(); driver.send(d, x) }
      }

      val sent = senders.iterator.map(_.sent).sum
      frontier = Array.concat(senders.toSeq.map(_.woken.result()): _*)
      senders.foreach { s => s.sent = 0; s.woken.clear() }
      perStep += sent
      val tmp = inbox; inbox = next; next = tmp
      step += 1
      if (sent == 0) halted = true
    }

    val finalStats = BspStats(step, perStep.result())
    val aggregateResult = aggAll
    new BspRun[S, M] {
      def mapStates[O: ClassTag](f: (VertexInfo, S) => IterableOnce[O]): Vector[O] = {
        val b = Vector.newBuilder[O]
        var i = 0
        while (i < n) { b ++= f(infos(i), states(i).asInstanceOf[S]); i += 1 }
        b.result()
      }
      def aggregate: Option[M] = aggregateResult
      def stats: BspStats = finalStats
    }
  }
}

object LocalBspEngine {
  /** Worker threads shared by every run of every engine; the caller of
    * `run` is its first worker. A thread idle for a minute exits.
    */
  private lazy val workers: ExecutorService = Executors.newCachedThreadPool { r =>
    val t = new Thread(r, "bsp-worker")
    t.setDaemon(true)
    t
  }

  /** Vertices a worker claims at a time. */
  private val Chunk = 64
}
