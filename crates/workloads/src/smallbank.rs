//! The Smallbank benchmark (§6: one of the two evaluated workloads).
//!
//! Three tables (Accounts, Savings, Checking) and the six standard
//! procedures; `Balance` is read-only and therefore produces no log
//! records. A configurable hotspot concentrates a fraction of accesses on
//! the first accounts, producing the cross-transaction conflicts that make
//! recovery parallelism non-trivial.

use crate::{SeedSink, Workload};
use pacman_common::{ProcId, Row, TableId, Value};
use pacman_engine::{Catalog, Database};
use pacman_sproc::{Expr, Params, ProcBuilder, ProcRegistry};
use rand::rngs::SmallRng;
use rand::Rng;

/// Account directory (read-only at runtime).
pub const ACCOUNTS: TableId = TableId::new(0);
/// Savings balances.
pub const SAVINGS: TableId = TableId::new(1);
/// Checking balances.
pub const CHECKING: TableId = TableId::new(2);

/// `TransactSavings(custid, amount)`.
pub const TRANSACT_SAVINGS: ProcId = ProcId::new(0);
/// `DepositChecking(custid, amount)`.
pub const DEPOSIT_CHECKING: ProcId = ProcId::new(1);
/// `SendPayment(src, dst, amount)`.
pub const SEND_PAYMENT: ProcId = ProcId::new(2);
/// `WriteCheck(custid, amount)`.
pub const WRITE_CHECK: ProcId = ProcId::new(3);
/// `Amalgamate(src, dst)`.
pub const AMALGAMATE: ProcId = ProcId::new(4);
/// `Balance(custid)` — read-only.
pub const BALANCE: ProcId = ProcId::new(5);

/// The Smallbank workload.
#[derive(Clone, Debug)]
pub struct Smallbank {
    /// Number of customers.
    pub accounts: u64,
    /// Fraction of accesses hitting the hot set.
    pub hot_fraction: f64,
    /// Size of the hot set.
    pub hot_accounts: u64,
}

impl Default for Smallbank {
    fn default() -> Self {
        Smallbank {
            accounts: 4096,
            hot_fraction: 0.25,
            hot_accounts: 64,
        }
    }
}

impl Smallbank {
    fn pick(&self, rng: &mut SmallRng) -> i64 {
        if rng.gen_bool(self.hot_fraction) {
            rng.gen_range(0..self.hot_accounts.min(self.accounts)) as i64
        } else {
            rng.gen_range(0..self.accounts) as i64
        }
    }

    /// Total money across savings + checking (conservation tests; only
    /// `SendPayment`/`Amalgamate` conserve, others add/remove known sums).
    pub fn total_money(db: &Database) -> f64 {
        let mut sum = 0.0;
        for t in [SAVINGS, CHECKING] {
            db.table(t).expect("table").for_each_newest(|_, _, row| {
                sum += row.col(0).as_float().unwrap_or(0.0);
            });
        }
        sum
    }
}

impl Workload for Smallbank {
    fn name(&self) -> &str {
        "smallbank"
    }

    fn catalog(&self) -> Catalog {
        let mut c = Catalog::new();
        c.add_table("accounts", 2);
        c.add_table("savings", 1);
        c.add_table("checking", 1);
        c
    }

    fn registry(&self) -> ProcRegistry {
        let mut reg = ProcRegistry::new();

        // TransactSavings: savings += amount.
        let mut b = ProcBuilder::new(TRANSACT_SAVINGS, "TransactSavings", 2);
        let _name = b.read(ACCOUNTS, Expr::param(0), 0);
        let s = b.read(SAVINGS, Expr::param(0), 0);
        b.write(
            SAVINGS,
            Expr::param(0),
            0,
            Expr::add(Expr::var(s), Expr::param(1)),
        );
        reg.register(b.build().expect("valid")).expect("register");

        // DepositChecking: checking += amount.
        let mut b = ProcBuilder::new(DEPOSIT_CHECKING, "DepositChecking", 2);
        let _name = b.read(ACCOUNTS, Expr::param(0), 0);
        let c = b.read(CHECKING, Expr::param(0), 0);
        b.write(
            CHECKING,
            Expr::param(0),
            0,
            Expr::add(Expr::var(c), Expr::param(1)),
        );
        reg.register(b.build().expect("valid")).expect("register");

        // SendPayment: checking[src] -= amount; checking[dst] += amount.
        let mut b = ProcBuilder::new(SEND_PAYMENT, "SendPayment", 3);
        let _src = b.read(ACCOUNTS, Expr::param(0), 0);
        let _dst = b.read(ACCOUNTS, Expr::param(1), 0);
        let cs = b.read(CHECKING, Expr::param(0), 0);
        b.write(
            CHECKING,
            Expr::param(0),
            0,
            Expr::sub(Expr::var(cs), Expr::param(2)),
        );
        let cd = b.read(CHECKING, Expr::param(1), 0);
        b.write(
            CHECKING,
            Expr::param(1),
            0,
            Expr::add(Expr::var(cd), Expr::param(2)),
        );
        reg.register(b.build().expect("valid")).expect("register");

        // WriteCheck: checking -= amount (+1 overdraft penalty when the
        // combined balance is insufficient).
        let mut b = ProcBuilder::new(WRITE_CHECK, "WriteCheck", 2);
        let _name = b.read(ACCOUNTS, Expr::param(0), 0);
        let s = b.read(SAVINGS, Expr::param(0), 0);
        let c = b.read(CHECKING, Expr::param(0), 0);
        let low = Expr::gt(Expr::param(1), Expr::add(Expr::var(s), Expr::var(c)));
        b.guarded(low.clone(), |b| {
            b.write(
                CHECKING,
                Expr::param(0),
                0,
                Expr::sub(Expr::var(c), Expr::add(Expr::param(1), Expr::int(1))),
            );
        });
        b.guarded(Expr::not(low), |b| {
            b.write(
                CHECKING,
                Expr::param(0),
                0,
                Expr::sub(Expr::var(c), Expr::param(1)),
            );
        });
        reg.register(b.build().expect("valid")).expect("register");

        // Amalgamate: move savings+checking of src into checking of dst.
        let mut b = ProcBuilder::new(AMALGAMATE, "Amalgamate", 2);
        let _src = b.read(ACCOUNTS, Expr::param(0), 0);
        let _dst = b.read(ACCOUNTS, Expr::param(1), 0);
        let s = b.read(SAVINGS, Expr::param(0), 0);
        b.write(SAVINGS, Expr::param(0), 0, Expr::int(0));
        let c = b.read(CHECKING, Expr::param(0), 0);
        b.write(CHECKING, Expr::param(0), 0, Expr::int(0));
        let cd = b.read(CHECKING, Expr::param(1), 0);
        b.write(
            CHECKING,
            Expr::param(1),
            0,
            Expr::add(Expr::var(cd), Expr::add(Expr::var(s), Expr::var(c))),
        );
        reg.register(b.build().expect("valid")).expect("register");

        // Balance: read-only.
        let mut b = ProcBuilder::new(BALANCE, "Balance", 1);
        let _name = b.read(ACCOUNTS, Expr::param(0), 0);
        let _s = b.read(SAVINGS, Expr::param(0), 0);
        let _c = b.read(CHECKING, Expr::param(0), 0);
        reg.register(b.build().expect("valid")).expect("register");

        reg
    }

    fn populate(&self, seed: &mut SeedSink<'_>) {
        seed(
            ACCOUNTS,
            &mut (0..self.accounts).map(|k| {
                let name = Value::str(&format!("cust{k:08}"));
                (k, Row::from([Value::Int(k as i64), name]))
            }),
        );
        for table in [SAVINGS, CHECKING] {
            seed(
                table,
                &mut (0..self.accounts).map(|k| (k, Row::from([Value::Float(1_000.0)]))),
            );
        }
    }

    fn next_txn(&self, rng: &mut SmallRng) -> (ProcId, Params) {
        let a = self.pick(rng);
        match rng.gen_range(0..100) {
            0..=19 => (
                TRANSACT_SAVINGS,
                vec![Value::Int(a), Value::Float(rng.gen_range(1.0..50.0))].into(),
            ),
            20..=39 => (
                DEPOSIT_CHECKING,
                vec![Value::Int(a), Value::Float(rng.gen_range(1.0..50.0))].into(),
            ),
            40..=59 => {
                let mut b2 = self.pick(rng);
                if b2 == a {
                    b2 = (b2 + 1) % self.accounts as i64;
                }
                (
                    SEND_PAYMENT,
                    vec![
                        Value::Int(a),
                        Value::Int(b2),
                        Value::Float(rng.gen_range(1.0..20.0)),
                    ]
                    .into(),
                )
            }
            60..=79 => (
                WRITE_CHECK,
                vec![Value::Int(a), Value::Float(rng.gen_range(1.0..60.0))].into(),
            ),
            80..=89 => {
                let mut b2 = self.pick(rng);
                if b2 == a {
                    b2 = (b2 + 1) % self.accounts as i64;
                }
                (AMALGAMATE, vec![Value::Int(a), Value::Int(b2)].into())
            }
            _ => (BALANCE, vec![Value::Int(a)].into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_core::static_analysis::GlobalGraph;
    use rand::SeedableRng;

    #[test]
    fn registry_analyzes_cleanly() {
        let sb = Smallbank::default();
        let reg = sb.registry();
        let gdg = GlobalGraph::analyze(reg.all()).unwrap();
        // One block per written table. Every procedure opens with Accounts
        // reads whose value feeds no write: replay drops them, so they form
        // no blocks of their own and Balance has nothing left to replay.
        assert_eq!(gdg.num_blocks(), 2, "{}", gdg.pretty());
        assert!(gdg.block_for_write(SAVINGS).is_some());
        assert!(gdg.block_for_write(CHECKING).is_some());
        assert_ne!(gdg.block_for_write(SAVINGS), gdg.block_for_write(CHECKING));
        assert!(gdg.block_for_write(ACCOUNTS).is_none());
        let pieces: Vec<usize> = reg
            .all()
            .iter()
            .map(|p| gdg.templates_for(p.id).len())
            .collect();
        // TransactSavings, DepositChecking, SendPayment, WriteCheck,
        // Amalgamate, Balance.
        assert_eq!(pieces, [1, 1, 1, 2, 2, 0]);
    }

    #[test]
    fn send_payment_and_amalgamate_conserve_money() {
        let sb = Smallbank {
            accounts: 128,
            ..Smallbank::default()
        };
        let db = Database::new(sb.catalog());
        sb.load(&db);
        let reg = sb.registry();
        let before = Smallbank::total_money(&db);
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            let (pid, params) = match rng.gen_bool(0.5) {
                true => sb.next_txn(&mut rng),
                false => {
                    let a = rng.gen_range(0..128);
                    let b = (a + 1) % 128;
                    (AMALGAMATE, vec![Value::Int(a), Value::Int(b)].into())
                }
            };
            if pid == SEND_PAYMENT || pid == AMALGAMATE || pid == BALANCE {
                let _ = pacman_engine::run_procedure(&db, reg.get(pid).unwrap(), &params);
            }
        }
        let after = Smallbank::total_money(&db);
        assert!(
            (before - after).abs() < 1e-6,
            "money not conserved: {before} -> {after}"
        );
    }

    #[test]
    fn balance_is_read_only() {
        let sb = Smallbank::default();
        let reg = sb.registry();
        let db = Database::new(sb.catalog());
        sb.load(&db);
        let info = pacman_engine::run_procedure(
            &db,
            reg.get(BALANCE).unwrap(),
            &vec![Value::Int(5)].into(),
        )
        .unwrap();
        assert!(info.writes.is_empty());
    }

    #[test]
    fn write_check_overdraft_penalty() {
        let sb = Smallbank {
            accounts: 4,
            ..Smallbank::default()
        };
        let db = Database::new(sb.catalog());
        sb.load(&db);
        let reg = sb.registry();
        // Balance is 1000 + 1000; a check of 2500 overdraws: -2501.
        pacman_engine::run_procedure(
            &db,
            reg.get(WRITE_CHECK).unwrap(),
            &vec![Value::Int(1), Value::Float(2_500.0)].into(),
        )
        .unwrap();
        let mut t = db.begin();
        let c = t.read(CHECKING, 1).unwrap().col(0).as_float().unwrap();
        assert!((c - (1_000.0 - 2_501.0)).abs() < 1e-9, "checking = {c}");
        // A small check has no penalty.
        pacman_engine::run_procedure(
            &db,
            reg.get(WRITE_CHECK).unwrap(),
            &vec![Value::Int(2), Value::Float(100.0)].into(),
        )
        .unwrap();
        let mut t = db.begin();
        let c = t.read(CHECKING, 2).unwrap().col(0).as_float().unwrap();
        assert!((c - 900.0).abs() < 1e-9);
    }

    #[test]
    fn generator_covers_all_procedures() {
        let sb = Smallbank::default();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            let (pid, _) = sb.next_txn(&mut rng);
            seen[pid.index()] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "not all procedures drawn: {seen:?}"
        );
    }
}
