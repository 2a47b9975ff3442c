package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.SynthData
import repro.workload.{DsData, DsQueries, TpchQueries, Workload}

/** One benchmark workload: a seeded generator at a fixed scale factor. */
final case class BenchWorkload(name: String, sf: Double, make: (SparkSession, Double, Long) => Workload)

/** Seeded inputs. `TpchQueries.workload` and `DsQueries.workload` take no
  * seed, so the benchmark assembles the same tables itself with `seed` added
  * to each generator's default seed: seed 0 reproduces the repo's data, any
  * other seed gives a fresh database of the same shape and size. The queries
  * and attribute columns are the repo's own.
  */
object Workloads {

  /** TPC-H-lite; the defaults shifted here are lineitem 0, orders 1,
    * customer 2, part 5, supplier 6 (see [[repro.SynthData]]).
    */
  def tpch(spark: SparkSession, sf: Double, seed: Long): Workload = Workload("tpch",
    Map(
      "lineitem" -> SynthData.lineitem(spark, sf, seed),
      "orders"   -> SynthData.orders(spark, sf, 1 + seed),
      "customer" -> SynthData.customer(spark, sf, 2 + seed),
      "part"     -> SynthData.part(spark, sf, 5 + seed),
      "supplier" -> SynthData.supplier(spark, sf, 6 + seed),
      "nation"   -> SynthData.nation(spark),
      "region"   -> SynthData.region(spark),
    ),
    TpchQueries.attrCols, TpchQueries.queries)

  /** TPC-DS-lite; the defaults shifted here are 20–24 for the dimensions and
    * 30–33 for the facts (see [[repro.workload.DsData]]).
    */
  def tpcds(spark: SparkSession, sf: Double, seed: Long): Workload = Workload("tpcds",
    Map(
      "date_dim"         -> DsData.dateDim(spark),
      "item"             -> DsData.item(spark, sf, 20 + seed),
      "customer"         -> DsData.customer(spark, sf, 21 + seed),
      "customer_address" -> DsData.customerAddress(spark, sf, 22 + seed),
      "store"            -> DsData.store(spark, sf, 23 + seed),
      "warehouse"        -> DsData.warehouse(spark, sf, 24 + seed),
      "store_sales"      -> DsData.storeSales(spark, sf, 30 + seed),
      "catalog_sales"    -> DsData.catalogSales(spark, sf, 31 + seed),
      "web_sales"        -> DsData.webSales(spark, sf, 32 + seed),
      "inventory"        -> DsData.inventory(spark, sf, 33 + seed),
    ),
    DsQueries.attrCols, DsQueries.queries)

  /** Why each workload exists is recorded in perfbench/README.md. */
  val all: Seq[BenchWorkload] = Seq(
    BenchWorkload("tpch-local", 0.02, tpch),
    BenchWorkload("tpcds-local", 0.02, tpcds),
  )
}
