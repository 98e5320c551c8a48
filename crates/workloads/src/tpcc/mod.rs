//! TPC-C (inserts disabled), the paper's primary evaluation workload.

pub mod keys;
pub mod procs;
pub mod schema;

use crate::{SeedSink, Workload};
use pacman_common::{ProcId, Value};
use pacman_engine::Catalog;
use pacman_sproc::{Params, ProcRegistry};
use rand::rngs::SmallRng;
use rand::Rng;

/// Scale configuration. The defaults are laptop-scale; the paper's 200
/// warehouses / 20 GB configuration is approached by raising `warehouses`
/// (see DESIGN.md on scaling substitutions).
#[derive(Clone, Debug)]
pub struct TpccConfig {
    /// Number of warehouses.
    pub warehouses: u64,
    /// Districts per warehouse (TPC-C standard: 10).
    pub districts_per_warehouse: u64,
    /// Customers per district (standard: 3000; scaled down).
    pub customers_per_district: u64,
    /// Items / stock rows per warehouse (standard: 100k; scaled down).
    pub items: u64,
    /// Pre-seeded orders per district.
    pub orders_per_district: u64,
    /// Bytes of customer filler data (drives tuple-log record size).
    pub customer_data_bytes: usize,
    /// Bytes of stock filler data.
    pub stock_data_bytes: usize,
    /// Fraction of remote (cross-warehouse) stock accesses in NewOrder.
    pub remote_fraction: f64,
    /// Transaction-mix weights `[NewOrder, Payment, Delivery, OrderStatus,
    /// StockLevel]` (need not sum to 100). The default is the standard-ish
    /// 45/43/4/4/4.
    pub mix: [u32; 5],
}

impl TpccConfig {
    /// Small configuration for unit tests.
    pub fn small() -> Self {
        TpccConfig {
            warehouses: 2,
            districts_per_warehouse: 4,
            customers_per_district: 16,
            items: 64,
            orders_per_district: 8,
            customer_data_bytes: 64,
            stock_data_bytes: 16,
            remote_fraction: 0.01,
            mix: TpccConfig::STANDARD_MIX,
        }
    }

    /// Benchmark configuration (used by the figure harnesses).
    pub fn bench(warehouses: u64) -> Self {
        TpccConfig {
            warehouses,
            districts_per_warehouse: 10,
            customers_per_district: 96,
            items: 2_000,
            orders_per_district: 64,
            customer_data_bytes: 200,
            stock_data_bytes: 40,
            remote_fraction: 0.01,
            mix: TpccConfig::STANDARD_MIX,
        }
    }

    /// The standard-ish mix: 45% NewOrder, 43% Payment, 4% Delivery,
    /// 4% OrderStatus, 4% StockLevel.
    pub const STANDARD_MIX: [u32; 5] = [45, 43, 4, 4, 4];

    /// The *block-skewed* restart scenario: replay cost concentrates in
    /// NewOrder's stock/order-line blocks (70% NewOrder, Delivery nearly
    /// absent), so the customer/orders blocks that Payment, OrderStatus
    /// and Delivery touch carry only a small slice of the replay work.
    /// This is the regime instant restart exploits: a waiting
    /// Payment/OrderStatus footprint can be redone on demand long before
    /// the stock backlog drains, while offline recovery holds every
    /// transaction behind the full replay.
    pub fn skewed_restart(mut self) -> Self {
        self.mix = [70, 20, 2, 6, 2];
        self.customer_data_bytes = 24;
        self.stock_data_bytes = 12;
        self
    }

    /// A read-heavy mix: 80% read-only traffic (OrderStatus + StockLevel)
    /// over a thin update stream. The regime where the engine's latch-free
    /// read path — shared row images, newest-slot validation, lock-free
    /// read-only commits — carries the throughput.
    pub fn read_heavy(mut self) -> Self {
        self.mix = [10, 8, 2, 40, 40];
        self
    }
}

impl Default for TpccConfig {
    fn default() -> Self {
        TpccConfig::bench(4)
    }
}

/// The TPC-C workload.
#[derive(Clone, Debug, Default)]
pub struct Tpcc {
    /// Scale configuration.
    pub cfg: TpccConfig,
}

impl Tpcc {
    /// Create with a config.
    pub fn new(cfg: TpccConfig) -> Self {
        Tpcc { cfg }
    }

    fn gen_new_order(&self, rng: &mut SmallRng) -> Params {
        let w = rng.gen_range(0..self.cfg.warehouses);
        let d = rng.gen_range(1..=self.cfg.districts_per_warehouse);
        let ol_cnt = rng.gen_range(5..=15u64);
        let mut params: Vec<Value> = Vec::with_capacity(3 + 3 * ol_cnt as usize);
        params.extend([
            Value::Int(w as i64),
            Value::Int(d as i64),
            Value::Int(ol_cnt as i64),
        ]);
        for _ in 0..ol_cnt {
            let item = rng.gen_range(0..self.cfg.items);
            let supply = if self.cfg.warehouses > 1 && rng.gen_bool(self.cfg.remote_fraction) {
                let mut s = rng.gen_range(0..self.cfg.warehouses);
                if s == w {
                    s = (s + 1) % self.cfg.warehouses;
                }
                s
            } else {
                w
            };
            params.push(Value::Int(item as i64));
            params.push(Value::Int(supply as i64));
            params.push(Value::Int(rng.gen_range(1..=10)));
        }
        params.into()
    }

    fn gen_payment(&self, rng: &mut SmallRng) -> Params {
        let w = rng.gen_range(0..self.cfg.warehouses);
        let d = rng.gen_range(1..=self.cfg.districts_per_warehouse);
        let (c_w, c_d) = if self.cfg.warehouses > 1 && rng.gen_bool(0.15) {
            let mut rw = rng.gen_range(0..self.cfg.warehouses);
            if rw == w {
                rw = (rw + 1) % self.cfg.warehouses;
            }
            (rw, rng.gen_range(1..=self.cfg.districts_per_warehouse))
        } else {
            (w, d)
        };
        let c = rng.gen_range(0..self.cfg.customers_per_district);
        vec![
            Value::Int(w as i64),
            Value::Int(d as i64),
            Value::Int(c_w as i64),
            Value::Int(c_d as i64),
            Value::Int(c as i64),
            Value::Float((rng.gen_range(100..500_000) as f64) / 100.0),
        ]
        .into()
    }

    fn gen_delivery(&self, rng: &mut SmallRng) -> Params {
        let w = rng.gen_range(0..self.cfg.warehouses);
        let carrier = rng.gen_range(1..=10i64);
        let districts = self.cfg.districts_per_warehouse;
        let mut params: Vec<Value> = Vec::with_capacity(2 + 2 * districts as usize);
        params.extend([Value::Int(w as i64), Value::Int(carrier)]);
        for _ in 0..districts {
            let o = rng.gen_range(1..=self.cfg.orders_per_district);
            params.push(Value::Int(o as i64));
            params.push(Value::Int(schema::order_customer(&self.cfg, o) as i64));
        }
        params.into()
    }

    fn gen_order_status(&self, rng: &mut SmallRng) -> Params {
        let w = rng.gen_range(0..self.cfg.warehouses);
        let d = rng.gen_range(1..=self.cfg.districts_per_warehouse);
        vec![
            Value::Int(w as i64),
            Value::Int(d as i64),
            Value::Int(rng.gen_range(0..self.cfg.customers_per_district) as i64),
            Value::Int(rng.gen_range(1..=self.cfg.orders_per_district) as i64),
        ]
        .into()
    }

    fn gen_stock_level(&self, rng: &mut SmallRng) -> Params {
        let w = rng.gen_range(0..self.cfg.warehouses);
        let d = rng.gen_range(1..=self.cfg.districts_per_warehouse);
        let mut params: Vec<Value> = vec![Value::Int(w as i64), Value::Int(d as i64)];
        for _ in 0..5 {
            params.push(Value::Int(rng.gen_range(0..self.cfg.items) as i64));
        }
        params.into()
    }
}

impl Workload for Tpcc {
    fn name(&self) -> &str {
        "tpcc"
    }

    fn catalog(&self) -> Catalog {
        schema::catalog()
    }

    fn registry(&self) -> ProcRegistry {
        procs::registry(self.cfg.districts_per_warehouse)
    }

    fn populate(&self, seed: &mut SeedSink<'_>) {
        schema::populate(&self.cfg, seed);
    }

    /// Draw from the configured mix (default: 45% NewOrder, 43% Payment,
    /// 4% Delivery, 4% OrderStatus, 4% StockLevel).
    fn next_txn(&self, rng: &mut SmallRng) -> (ProcId, Params) {
        let total: u32 = self.cfg.mix.iter().sum();
        assert!(total > 0, "TPC-C mix weights must not all be zero");
        let mut draw = rng.gen_range(0..total);
        let mut which = 0;
        for (i, &w) in self.cfg.mix.iter().enumerate() {
            if draw < w {
                which = i;
                break;
            }
            draw -= w;
        }
        match which {
            0 => (procs::NEW_ORDER, self.gen_new_order(rng)),
            1 => (procs::PAYMENT, self.gen_payment(rng)),
            2 => (procs::DELIVERY, self.gen_delivery(rng)),
            3 => (procs::ORDER_STATUS, self.gen_order_status(rng)),
            _ => (procs::STOCK_LEVEL, self.gen_stock_level(rng)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::schema::{d_col, DISTRICT, WAREHOUSE};
    use super::*;
    use pacman_engine::{run_procedure, Database};
    use rand::SeedableRng;

    #[test]
    fn mixed_workload_executes() {
        let tpcc = Tpcc::new(TpccConfig::small());
        let db = Database::new(tpcc.catalog());
        tpcc.load(&db);
        let reg = tpcc.registry();
        let mut rng = SmallRng::seed_from_u64(99);
        let mut per_proc = [0u64; 5];
        for _ in 0..300 {
            let (pid, params) = tpcc.next_txn(&mut rng);
            match run_procedure(&db, reg.get(pid).unwrap(), &params) {
                Ok(_) => per_proc[pid.index()] += 1,
                Err(pacman_common::Error::TxnAborted(_)) => {}
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(per_proc[0] > 50, "NewOrder count {per_proc:?}");
        assert!(per_proc[1] > 50, "Payment count {per_proc:?}");
        assert!(per_proc[2] > 0, "Delivery never ran: {per_proc:?}");
    }

    #[test]
    fn payment_updates_warehouse_district_ytd() {
        let tpcc = Tpcc::new(TpccConfig::small());
        let db = Database::new(tpcc.catalog());
        tpcc.load(&db);
        let reg = tpcc.registry();
        let params: Params = vec![
            Value::Int(0),
            Value::Int(1),
            Value::Int(0),
            Value::Int(1),
            Value::Int(3),
            Value::Float(250.0),
        ]
        .into();
        run_procedure(&db, reg.get(procs::PAYMENT).unwrap(), &params).unwrap();
        let mut t = db.begin();
        let w = t.read(WAREHOUSE, 0).unwrap();
        assert_eq!(w.col(0).as_float().unwrap(), 250.0);
        let d = t.read(DISTRICT, keys::district_key(0, 1)).unwrap();
        assert_eq!(d.col(d_col::YTD).as_float().unwrap(), 250.0);
    }

    #[test]
    fn new_order_advances_next_o_id_and_stock() {
        let tpcc = Tpcc::new(TpccConfig::small());
        let db = Database::new(tpcc.catalog());
        tpcc.load(&db);
        let reg = tpcc.registry();
        let params: Params = vec![
            Value::Int(0),
            Value::Int(2),
            Value::Int(2), // two lines
            Value::Int(5),
            Value::Int(0),
            Value::Int(3), // item 5, local, qty 3
            Value::Int(9),
            Value::Int(0),
            Value::Int(2), // item 9, local, qty 2
        ]
        .into();
        let dkey = keys::district_key(0, 2);
        let before = {
            let mut t = db.begin();
            t.read(DISTRICT, dkey)
                .unwrap()
                .col(d_col::NEXT_O_ID)
                .as_int()
                .unwrap()
        };
        run_procedure(&db, reg.get(procs::NEW_ORDER).unwrap(), &params).unwrap();
        let mut t = db.begin();
        assert_eq!(
            t.read(DISTRICT, dkey)
                .unwrap()
                .col(d_col::NEXT_O_ID)
                .as_int()
                .unwrap(),
            before + 1
        );
        let s = t.read(super::schema::STOCK, keys::stock_key(0, 5)).unwrap();
        // Seeded quantity for item 5 is 55; 55-3=52 (no refill branch).
        assert_eq!(s.col(0).as_int().unwrap(), 52);
        assert_eq!(s.col(1).as_float().unwrap(), 3.0);
        assert_eq!(s.col(2).as_int().unwrap(), 1);
    }

    #[test]
    fn delivery_sets_carrier_and_pays_customers() {
        let cfg = TpccConfig {
            districts_per_warehouse: 10, // delivery touches all ten
            ..TpccConfig::small()
        };
        let tpcc = Tpcc::new(cfg.clone());
        let db = Database::new(tpcc.catalog());
        tpcc.load(&db);
        let reg = tpcc.registry();
        let o = 3u64;
        let c = schema::order_customer(&cfg, o);
        let mut params: Vec<Value> = vec![Value::Int(0), Value::Int(7)];
        for _ in 0..10 {
            params.push(Value::Int(o as i64));
            params.push(Value::Int(c as i64));
        }
        run_procedure(&db, reg.get(procs::DELIVERY).unwrap(), &params.into()).unwrap();
        let mut t = db.begin();
        for d in 1..=10u64 {
            let ord = t
                .read(super::schema::ORDER, keys::order_key(0, d, o))
                .unwrap();
            assert_eq!(ord.col(0).as_int().unwrap(), 7, "carrier in district {d}");
            let cust = t
                .read(super::schema::CUSTOMER, keys::customer_key(0, d, c))
                .unwrap();
            assert_eq!(cust.col(c_col_delivery()).as_int().unwrap(), 1);
        }
    }

    fn c_col_delivery() -> usize {
        super::schema::c_col::DELIVERY_CNT
    }

    #[test]
    fn read_only_procedures_produce_no_writes() {
        let tpcc = Tpcc::new(TpccConfig::small());
        let db = Database::new(tpcc.catalog());
        tpcc.load(&db);
        let reg = tpcc.registry();
        let mut rng = SmallRng::seed_from_u64(5);
        let params = tpcc.gen_order_status(&mut rng);
        let info = run_procedure(&db, reg.get(procs::ORDER_STATUS).unwrap(), &params).unwrap();
        assert!(info.writes.is_empty());
        let params = tpcc.gen_stock_level(&mut rng);
        let info = run_procedure(&db, reg.get(procs::STOCK_LEVEL).unwrap(), &params).unwrap();
        assert!(info.writes.is_empty());
    }
}
