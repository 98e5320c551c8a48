//! OLTP workloads for the PACMAN reproduction.
//!
//! * [`bank`] — the paper's running example (Figs. 2-10): `Transfer` and
//!   `Deposit` over Family/Current/Saving/Stats;
//! * [`smallbank`] — the Smallbank benchmark used throughout §6;
//! * [`tpcc`] — TPC-C with inserts disabled, exactly as the paper
//!   configures it ("we disabled the insert operations in the original
//!   benchmark so that the database size will not grow without bound",
//!   §6.1.1): NewOrder, Payment and Delivery are the logged procedures,
//!   OrderStatus and StockLevel are read-only;
//! * [`driver`] — the multi-threaded transaction driver with group-commit
//!   latency tracking, ad-hoc tagging and per-second throughput timelines
//!   (the measurement harness behind Figs. 11-12 and Tables 1-3).

pub mod bank;
pub mod driver;
pub mod smallbank;
pub mod tpcc;

pub use driver::{run_ramp, run_workload, DriverConfig, DriverResult, RampConfig, RampResult};

use pacman_common::{Key, Row, TableId};
use pacman_engine::{Catalog, Database};
use pacman_sproc::{Params, ProcRegistry};
use rand::rngs::SmallRng;

/// Receives a workload's initial population one table at a time.
pub type SeedSink<'a> = dyn FnMut(TableId, &mut dyn Iterator<Item = (Key, Row)>) + 'a;

/// A benchmark workload: schema, procedures, initial population and a
/// transaction generator.
pub trait Workload: Send + Sync {
    /// Workload name (result tables).
    fn name(&self) -> &str;
    /// Table schema.
    fn catalog(&self) -> Catalog;
    /// Stored procedures (ids dense from 0).
    fn registry(&self) -> ProcRegistry;
    /// The initial population: `seed(table, rows)` once per table. Rows in
    /// ascending key order spare seeding a sort.
    fn populate(&self, seed: &mut SeedSink<'_>);
    /// Populate the initial database (timestamp-0 rows, not logged), each
    /// table through [`Database::seed_rows`], so every shard is built in
    /// one piece.
    fn load(&self, db: &Database) {
        self.populate(&mut |table, rows| {
            db.seed_rows(table, rows).expect("seed");
        });
    }
    /// Draw the next transaction: `(procedure, params)`.
    fn next_txn(&self, rng: &mut SmallRng) -> (pacman_common::ProcId, Params);
}
