//! TPC-C schema and initial population.
//!
//! Nine standard tables collapse to seven here: HISTORY is never written
//! (the paper disables inserts) and ORDER-LINE is folded into ORDER's
//! `total` column, which is what Delivery actually consumes. Customer rows
//! carry a ~200-byte data column so tuple-level logging pays a realistic
//! per-write footprint (the Table 1 log-size ratios hinge on this).

use super::keys::{customer_key, district_key, order_key, stock_key};
use super::TpccConfig;
use crate::SeedSink;
use pacman_common::{Row, TableId, Value};
use pacman_engine::Catalog;

/// WAREHOUSE table id.
pub const WAREHOUSE: TableId = TableId::new(0);
/// DISTRICT table id.
pub const DISTRICT: TableId = TableId::new(1);
/// CUSTOMER table id.
pub const CUSTOMER: TableId = TableId::new(2);
/// STOCK table id.
pub const STOCK: TableId = TableId::new(3);
/// ITEM table id (read-only).
pub const ITEM: TableId = TableId::new(4);
/// ORDER table id (pre-seeded; carrier updated by Delivery).
pub const ORDER: TableId = TableId::new(5);

/// Warehouse columns.
pub mod w_col {
    /// Year-to-date payments.
    pub const YTD: usize = 0;
    /// Sales tax.
    pub const TAX: usize = 1;
    /// Name payload.
    pub const NAME: usize = 2;
}

/// District columns.
pub mod d_col {
    /// Year-to-date payments.
    pub const YTD: usize = 0;
    /// Sales tax.
    pub const TAX: usize = 1;
    /// Next order id counter (the classic hot column).
    pub const NEXT_O_ID: usize = 2;
    /// Name payload.
    pub const NAME: usize = 3;
}

/// Customer columns.
pub mod c_col {
    /// Balance.
    pub const BALANCE: usize = 0;
    /// Year-to-date payment.
    pub const YTD_PAYMENT: usize = 1;
    /// Payment count.
    pub const PAYMENT_CNT: usize = 2;
    /// Delivery count.
    pub const DELIVERY_CNT: usize = 3;
    /// Data payload (~200 B).
    pub const DATA: usize = 4;
}

/// Stock columns.
pub mod s_col {
    /// Quantity on hand.
    pub const QUANTITY: usize = 0;
    /// Year-to-date quantity sold.
    pub const YTD: usize = 1;
    /// Order count.
    pub const ORDER_CNT: usize = 2;
    /// Remote order count.
    pub const REMOTE_CNT: usize = 3;
    /// Data payload (~40 B).
    pub const DATA: usize = 4;
}

/// Item columns.
pub mod i_col {
    /// Price.
    pub const PRICE: usize = 0;
    /// Name payload.
    pub const NAME: usize = 1;
}

/// Order columns.
pub mod o_col {
    /// Carrier id (0 = undelivered).
    pub const CARRIER: usize = 0;
    /// Ordering customer.
    pub const C_ID: usize = 1;
    /// Order total amount (stands in for the order-line sum).
    pub const TOTAL: usize = 2;
    /// Entry date surrogate.
    pub const ENTRY_D: usize = 3;
}

/// Build the TPC-C catalog.
pub fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_table_sharded("warehouse", 3, 2);
    c.add_table_sharded("district", 4, 4);
    c.add_table_sharded("customer", 5, 6);
    c.add_table_sharded("stock", 5, 6);
    c.add_table_sharded("item", 2, 6);
    c.add_table_sharded("order", 4, 6);
    c
}

/// The deterministic customer an order belongs to — shared between the
/// loader and the Delivery parameter generator so command-log replay stays
/// deterministic (§5).
pub fn order_customer(cfg: &TpccConfig, o: u64) -> u64 {
    (o * 7 + 3) % cfg.customers_per_district
}

/// The initial population, table by table, each in ascending key order
/// (the packers keep `(w, d, …)` order): `seed(table, rows)`.
pub fn populate(cfg: &TpccConfig, seed: &mut SeedSink<'_>) {
    let c_data = "c".repeat(cfg.customer_data_bytes);
    let s_data = "s".repeat(cfg.stock_data_bytes);
    let (c_data, s_data) = (c_data.as_str(), s_data.as_str());
    let districts =
        || (0..cfg.warehouses).flat_map(|w| (1..=cfg.districts_per_warehouse).map(move |d| (w, d)));
    seed(
        WAREHOUSE,
        &mut (0..cfg.warehouses).map(|w| {
            let row = Row::from([
                Value::Float(0.0),
                Value::Float(0.05 + w as f64 * 0.001),
                Value::str(&format!("warehouse-{w:04}")),
            ]);
            (w, row)
        }),
    );
    seed(
        DISTRICT,
        &mut districts().map(|(w, d)| {
            let row = Row::from([
                Value::Float(0.0),
                Value::Float(0.07),
                Value::Int(cfg.orders_per_district as i64 + 1),
                Value::str(&format!("district-{w:04}-{d:02}")),
            ]);
            (district_key(w, d), row)
        }),
    );
    seed(
        CUSTOMER,
        &mut districts().flat_map(|(w, d)| {
            (0..cfg.customers_per_district).map(move |c| {
                let row = Row::from([
                    Value::Float(-10.0),
                    Value::Float(10.0),
                    Value::Int(1),
                    Value::Int(0),
                    Value::str(c_data),
                ]);
                (customer_key(w, d, c), row)
            })
        }),
    );
    seed(
        ORDER,
        &mut districts().flat_map(|(w, d)| {
            (1..=cfg.orders_per_district).map(move |o| {
                let row = Row::from([
                    Value::Int(0),
                    Value::Int(order_customer(cfg, o) as i64),
                    Value::Float(20.0 + (o % 50) as f64),
                    Value::Int(o as i64),
                ]);
                (order_key(w, d, o), row)
            })
        }),
    );
    seed(
        STOCK,
        &mut (0..cfg.warehouses).flat_map(|w| {
            (0..cfg.items).map(move |i| {
                let row = Row::from([
                    Value::Int(50 + (i % 50) as i64),
                    Value::Float(0.0),
                    Value::Int(0),
                    Value::Int(0),
                    Value::str(s_data),
                ]);
                (stock_key(w, i), row)
            })
        }),
    );
    seed(
        ITEM,
        &mut (0..cfg.items).map(|i| {
            let row = Row::from([
                Value::Float(1.0 + (i % 100) as f64 / 10.0),
                Value::str(&format!("item-{i:06}")),
            ]);
            (i, row)
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::Bank;
    use crate::smallbank::Smallbank;
    use crate::tpcc::Tpcc;
    use crate::Workload;
    use pacman_engine::{Database, ShardLoad};

    #[test]
    fn load_populates_expected_counts() {
        let cfg = TpccConfig {
            warehouses: 2,
            ..TpccConfig::small()
        };
        let db = Database::new(catalog());
        Tpcc::new(cfg.clone()).load(&db);
        let expect = |t: TableId| db.table(t).unwrap().num_keys();
        assert_eq!(expect(WAREHOUSE), 2);
        assert_eq!(expect(DISTRICT), (2 * cfg.districts_per_warehouse) as usize);
        assert_eq!(
            expect(CUSTOMER),
            (2 * cfg.districts_per_warehouse * cfg.customers_per_district) as usize
        );
        assert_eq!(expect(STOCK), (2 * cfg.items) as usize);
        assert_eq!(expect(ITEM), cfg.items as usize);
        assert_eq!(
            expect(ORDER),
            (2 * cfg.districts_per_warehouse * cfg.orders_per_district) as usize
        );
    }

    /// Every loader's rows, seeded in bulk the way `load` seeds them, build
    /// every shard in one piece and reach the state row-at-a-time seeding
    /// reaches.
    #[test]
    fn bulk_seeding_matches_per_row_seeding() {
        let workloads: [&dyn Workload; 3] = [
            &Tpcc::new(TpccConfig::small()),
            &Smallbank::default(),
            &Bank::default(),
        ];
        for w in workloads {
            let (bulk, per_row) = (Database::new(w.catalog()), Database::new(w.catalog()));
            let mut loads: Vec<ShardLoad> = Vec::new();
            w.populate(&mut |t, rows| loads.extend(bulk.seed_rows(t, rows).unwrap()));
            w.populate(&mut |t, rows| {
                for (k, row) in rows {
                    per_row.seed_row(t, k, row).unwrap();
                }
            });
            assert_eq!(bulk.fingerprint(), per_row.fingerprint(), "{}", w.name());
            let tuples: u64 = loads.iter().map(|l| l.tuples).sum();
            assert_eq!(tuples as usize, per_row.total_tuples(), "{}", w.name());
            assert!(loads.iter().all(|l| l.bulk), "{}: {loads:?}", w.name());
            let loaded = Database::new(w.catalog());
            w.load(&loaded);
            assert_eq!(loaded.fingerprint(), per_row.fingerprint(), "{}", w.name());
        }
    }

    #[test]
    fn order_customer_is_stable() {
        let cfg = TpccConfig::small();
        for o in 0..100 {
            assert!(order_customer(&cfg, o) < cfg.customers_per_district);
            assert_eq!(order_customer(&cfg, o), order_customer(&cfg, o));
        }
    }
}
