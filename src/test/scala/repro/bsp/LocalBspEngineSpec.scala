package repro.bsp

import org.scalatest.funsuite.AnyFunSuite
import repro.core.TestDb

/** Engine semantics: supersteps, activation, merging, halting, aggregator. */
class LocalBspEngineSpec extends AnyFunSuite {

  private val r = TestDb.rel("R", Seq("a"), Seq("a"), Seq(Seq(1), Seq(2), Seq(2)))
  private val s = TestDb.rel("S", Seq("a"), Seq("a"), Seq(Seq(2), Seq(3)))
  private def engine = TestDb.engine(r, s)

  /** Flood from R tuples: count hops reached per vertex. */
  private class Flood(hops: Int) extends VertexProgram[Int, Int] {
    def initialState(v: VertexInfo): Int = -1
    def initiallyActive(v: VertexInfo, s: Int, e: IndexedSeq[OutEdge]): Boolean =
      v.isTuple && v.label == "R"
    def merge(a: Int, b: Int): Int = math.min(a, b)
    val maxSteps: Int = hops
    def compute(step: Int, v: VertexInfo, s: Int, msg: Option[Int],
        edges: IndexedSeq[OutEdge], ctx: SendCtx[Int]): Int = {
      edges.foreach(e => ctx.send(e.dst, step))
      msg.getOrElse(if (step == 0) 0 else s)
    }
  }

  test("initially active vertices run at superstep 0 with no inbox") {
    val run = engine.run(new Flood(1))
    val reached = run.mapStates((v, s) => if (s >= 0) Some(v.label) else None)
    assert(reached.count(_ == "R") == 3)
  }

  test("messages activate recipients next superstep; counts are recorded") {
    val run = engine.run(new Flood(2))
    // step 0: 3 R tuples send on their single edge each = 3 messages
    assert(run.stats.messagesPerStep.head == 3)
    assert(run.stats.supersteps == 2)
  }

  test("merge combines concurrent messages to one target") {
    // two R tuples with a=2 message the same attribute vertex; min-merge
    val run = engine.run(new Flood(2))
    val attrStates = run.mapStates((v, s) => if (!v.isTuple) Some((v.value, s)) else None)
    assert(attrStates.toMap.apply(2L) == 0)
  }

  test("engine halts when no messages are sent") {
    val run = engine.run(new Flood(100))
    // flood ping-pongs forever through the bipartite graph, but a program
    // sending nothing halts immediately:
    class Silent extends Flood(100) {
      override def compute(step: Int, v: VertexInfo, s: Int, msg: Option[Int],
          edges: IndexedSeq[OutEdge], ctx: SendCtx[Int]): Int = 7
    }
    val r2 = engine.run(new Silent)
    assert(r2.stats.supersteps == 1 && r2.stats.totalMessages == 0)
    assert(run.stats.supersteps == 100) // and the flood really does keep going
  }

  test("direct messages reach arbitrary known ids") {
    class SelfPing extends VertexProgram[Int, Int] {
      def initialState(v: VertexInfo) = 0
      def initiallyActive(v: VertexInfo, s: Int, e: IndexedSeq[OutEdge]) = v.isTuple
      def merge(a: Int, b: Int) = a + b
      val maxSteps = 3
      def compute(step: Int, v: VertexInfo, s: Int, msg: Option[Int],
          edges: IndexedSeq[OutEdge], ctx: SendCtx[Int]): Int = {
        if (step < 2) ctx.send(v.id, 1)
        s + msg.getOrElse(0)
      }
    }
    val run = engine.run(new SelfPing)
    val totals = run.mapStates((v, s) => if (v.isTuple) Some(s) else None)
    assert(totals.forall(_ == 2)) // received own ping twice
  }

  test("aggregator vertex merges traffic and can answer") {
    class Register extends VertexProgram[Int, Int] {
      def initialState(v: VertexInfo) = 0
      def initiallyActive(v: VertexInfo, s: Int, e: IndexedSeq[OutEdge]) = v.isTuple
      def merge(a: Int, b: Int) = a + b
      val maxSteps = 4
      override def aggregatorCompute(step: Int, merged: Int): Iterator[(Long, Int)] =
        if (step == 0) Iterator((0L, merged * 10)) else Iterator.empty
      def compute(step: Int, v: VertexInfo, s: Int, msg: Option[Int],
          edges: IndexedSeq[OutEdge], ctx: SendCtx[Int]): Int = {
        if (step == 0) ctx.send(VertexProgram.AggregatorId, 1)
        s + msg.getOrElse(0)
      }
    }
    val run = engine.run(new Register)
    assert(run.aggregate.contains(5)) // 5 tuple vertices registered
    val v0 = run.mapStates((v, s) => if (v.id == 0L) Some(s) else None)
    assert(v0 == Vector(50)) // aggregator answered vertex 0 with 5*10
  }

  test("per-step message counts sum to the total") {
    val run = engine.run(new Flood(5))
    assert(run.stats.messagesPerStep.sum == run.stats.totalMessages)
    assert(run.stats.messagesPerStep.size == run.stats.supersteps)
  }

  test("single-threaded and multi-threaded runs agree") {
    val g = TestDb.graph(r, s)
    val one = new LocalBspEngine(g, threads = 1).run(new Flood(4))
    val many = new LocalBspEngine(g, threads = 8).run(new Flood(4))
    assert(one.stats == many.stats)
    assert(one.mapStates((v, s) => Some(v.id -> s)).toMap ==
      many.mapStates((v, s) => Some(v.id -> s)).toMap)
  }

  // A graph much larger than one claimed chunk: filler relations P and Q on
  // both sides of R, whose tuples are the only initially active vertices.
  private def bigRel(name: String, rows: Int, mod: Int) =
    TestDb.rel(name, Seq("a"), Seq("a"), (0 until rows).map(i => Seq(i % mod)))
  private val p = bigRel("P", 1500, 7)
  private val big = bigRel("R", 3000, 50)
  private val q = bigRel("Q", 1500, 11)
  private lazy val bigGraph = TestDb.graph(p, big, q)
  private val wake = 10L // a P tuple that no vertex ever messages

  /** R tuples keep themselves running until step 4 by pinging themselves,
    * count themselves at the aggregator on steps 0-3, and message their
    * attribute vertices on steps 1 and 3 only. The aggregator answers the
    * step-0 count to vertex `wake`. Every vertex records (step, inbox).
    */
  private class Probe extends VertexProgram[List[(Int, Int)], Int] {
    def initialState(v: VertexInfo): List[(Int, Int)] = Nil
    def initiallyActive(v: VertexInfo, s: List[(Int, Int)], e: IndexedSeq[OutEdge]): Boolean =
      v.isTuple && v.label == "R"
    def merge(a: Int, b: Int): Int = a + b
    val maxSteps: Int = 8
    override def aggregatorCompute(step: Int, merged: Int): Iterator[(Long, Int)] =
      if (step == 0) Iterator(wake -> merged) else Iterator.empty
    def compute(step: Int, v: VertexInfo, s: List[(Int, Int)], msg: Option[Int],
        edges: IndexedSeq[OutEdge], ctx: SendCtx[Int]): List[(Int, Int)] = {
      if (v.isTuple && v.label == "R") {
        if (step < 4) { ctx.send(v.id, 1); ctx.send(VertexProgram.AggregatorId, 1) }
        if (step == 1 || step == 3) edges.foreach(e => ctx.send(e.dst, 1))
      }
      (step, msg.getOrElse(0)) :: s
    }
  }

  test("work claiming: 1 and 4 threads agree on a graph of many chunks") {
    val one = new LocalBspEngine(bigGraph, threads = 1).run(new Probe)
    val four = new LocalBspEngine(bigGraph, threads = 4).run(new Probe)
    assert(one.stats == four.stats)
    assert(one.stats.supersteps == 5)
    assert(one.aggregate == Some(4 * 3000)) // per-worker accumulators lose nothing
    assert(four.aggregate == one.aggregate)
    assert(one.mapStates((v, s) => Some(v.id -> s)).toMap ==
      four.mapStates((v, s) => Some(v.id -> s)).toMap)
  }

  test("frontier: aggregator replies wake vertices and inbox slots do not leak") {
    val run = new LocalBspEngine(bigGraph, threads = 4).run(new Probe)
    val byId = run.mapStates((v, s) => Some(v.id -> (v, s.reverse))).toMap
    // woken only by the aggregator's answer to step 0: runs at step 1 alone
    assert(byId(wake)._2 == List((1, 3000)))
    val rTrace = List((0, 0), (1, 1), (2, 1), (3, 1), (4, 1))
    assert(byId.values.count { case (v, t) => v.label == "R" && t == rTrace } == 3000)
    // an R-side attribute vertex: messaged at steps 1 and 3, so it runs at
    // steps 2 and 4, not 3, and each inbox holds only that step's messages
    val (_, trace) = byId.values.find { case (v, _) => !v.isTuple && v.value == 0L }.get
    assert(trace == List((2, 60), (4, 60)))
    // no vertex messages the other filler tuples, so they never run
    assert(byId.values.forall { case (v, t) => !(v.isTuple && v.label != "R" && v.id != wake) || t.isEmpty })
  }

  test("a throwing compute fails the run instead of returning a partial result") {
    class Boom extends VertexProgram[Int, Int] {
      def initialState(v: VertexInfo) = 0
      def initiallyActive(v: VertexInfo, s: Int, e: IndexedSeq[OutEdge]) = v.isTuple && v.label == "R"
      def merge(a: Int, b: Int) = a + b
      val maxSteps = 3
      def compute(step: Int, v: VertexInfo, s: Int, msg: Option[Int],
          edges: IndexedSeq[OutEdge], ctx: SendCtx[Int]): Int = {
        if (v.id == 2000L) throw new IllegalStateException("boom at 2000")
        ctx.send(VertexProgram.AggregatorId, 1)
        s
      }
    }
    for (t <- Seq(1, 4)) {
      val e = intercept[IllegalStateException](new LocalBspEngine(bigGraph, threads = t).run(new Boom))
      assert(e.getMessage == "boom at 2000")
    }
  }
}
