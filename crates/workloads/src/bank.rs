//! The paper's bank example (Figs. 2-5): `Transfer` and `Deposit`.
//!
//! Used by the examples, the quickstart and a large portion of the tests —
//! its global dependency graph is exactly Fig. 5(c), which makes assertions
//! about schedules and piece-sets easy to read.

use crate::{SeedSink, Workload};
use pacman_common::{ProcId, Row, TableId, Value};
use pacman_engine::{Catalog, Database};
use pacman_sproc::{Expr, Params, ProcBuilder, ProcRegistry};
use rand::rngs::SmallRng;
use rand::Rng;

/// Family table: spouse reference or `"NULL"` (read-only at runtime).
pub const FAMILY: TableId = TableId::new(0);
/// Current accounts: one balance column.
pub const CURRENT: TableId = TableId::new(1);
/// Saving accounts: one balance column.
pub const SAVING: TableId = TableId::new(2);
/// Per-nation deposit statistics.
pub const STATS: TableId = TableId::new(3);

/// Procedure id of `Transfer(src, amount)`.
pub const TRANSFER: ProcId = ProcId::new(0);
/// Procedure id of `Deposit(name, amount, nation)`.
pub const DEPOSIT: ProcId = ProcId::new(1);

/// The bank workload.
#[derive(Clone, Debug)]
pub struct Bank {
    /// Number of customer accounts.
    pub accounts: u64,
    /// Number of nations in the stats table.
    pub nations: u64,
    /// Balance threshold for the deposit bonus branch (Fig. 4 uses 10000).
    pub rich_threshold: i64,
}

impl Default for Bank {
    fn default() -> Self {
        Bank {
            accounts: 1024,
            nations: 16,
            rich_threshold: 10_000,
        }
    }
}

impl Bank {
    /// Build the `Transfer` procedure of Fig. 2a.
    pub fn transfer_proc() -> pacman_sproc::ProcedureDef {
        let mut b = ProcBuilder::new(TRANSFER, "Transfer", 2);
        let dst = b.read(FAMILY, Expr::param(0), 0); // line 2
        b.guarded(Expr::not_null(Expr::var(dst)), |b| {
            let src_val = b.read(CURRENT, Expr::param(0), 0); // line 4
            b.write(
                CURRENT,
                Expr::param(0),
                0,
                Expr::sub(Expr::var(src_val), Expr::param(1)),
            ); // line 5
            let dst_val = b.read(CURRENT, Expr::var(dst), 0); // line 6
            b.write(
                CURRENT,
                Expr::var(dst),
                0,
                Expr::add(Expr::var(dst_val), Expr::param(1)),
            ); // line 7
            let bonus = b.read(SAVING, Expr::param(0), 0); // line 8
            b.write(
                SAVING,
                Expr::param(0),
                0,
                Expr::add(Expr::var(bonus), Expr::int(1)),
            ); // line 9
        });
        b.build().expect("Transfer is valid")
    }

    /// Build the `Deposit` procedure of Fig. 4.
    pub fn deposit_proc(rich_threshold: i64) -> pacman_sproc::ProcedureDef {
        let mut b = ProcBuilder::new(DEPOSIT, "Deposit", 3);
        let tmp = b.read(CURRENT, Expr::param(0), 0);
        b.write(
            CURRENT,
            Expr::param(0),
            0,
            Expr::add(Expr::var(tmp), Expr::param(1)),
        );
        let rich = Expr::gt(
            Expr::add(Expr::var(tmp), Expr::param(1)),
            Expr::int(rich_threshold),
        );
        b.guarded(rich.clone(), |b| {
            let bonus = b.read(SAVING, Expr::param(0), 0);
            b.write(
                SAVING,
                Expr::param(0),
                0,
                Expr::add(Expr::var(bonus), Expr::int(2)),
            );
        });
        b.guarded(rich, |b| {
            let count = b.read(STATS, Expr::param(2), 0);
            b.write(
                STATS,
                Expr::param(2),
                0,
                Expr::add(Expr::var(count), Expr::int(1)),
            );
        });
        b.build().expect("Deposit is valid")
    }

    /// Sum of all Current balances (conservation checks in tests).
    pub fn total_current(db: &Database) -> i64 {
        let mut sum = 0i64;
        db.table(CURRENT)
            .expect("current table")
            .for_each_newest(|_, _, row| {
                sum += row.col(0).as_int().unwrap_or(0);
            });
        sum
    }
}

impl Workload for Bank {
    fn name(&self) -> &str {
        "bank"
    }

    fn catalog(&self) -> Catalog {
        let mut c = Catalog::new();
        c.add_table("family", 1);
        c.add_table("current", 1);
        c.add_table("saving", 1);
        c.add_table("stats", 1);
        c
    }

    fn registry(&self) -> ProcRegistry {
        let mut reg = ProcRegistry::new();
        reg.register(Self::transfer_proc()).expect("register");
        reg.register(Self::deposit_proc(self.rich_threshold))
            .expect("register");
        reg
    }

    fn populate(&self, seed: &mut SeedSink<'_>) {
        let accounts = self.accounts;
        seed(
            FAMILY,
            &mut (0..accounts).map(|k| {
                // Even accounts are married to the next odd account; odd
                // accounts and the last one have no spouse.
                let spouse = if k % 2 == 0 && k + 1 < accounts {
                    Value::Int((k + 1) as i64)
                } else {
                    Value::str("NULL")
                };
                (k, Row::from([spouse]))
            }),
        );
        let int_rows = |n: u64, v: i64| (0..n).map(move |k| (k, Row::from([Value::Int(v)])));
        seed(CURRENT, &mut int_rows(accounts, 5_000));
        seed(SAVING, &mut int_rows(accounts, 100));
        seed(STATS, &mut int_rows(self.nations, 0));
    }

    fn next_txn(&self, rng: &mut SmallRng) -> (ProcId, Params) {
        if rng.gen_bool(0.6) {
            let src = rng.gen_range(0..self.accounts) as i64;
            let amount = rng.gen_range(1..100) as i64;
            (TRANSFER, vec![Value::Int(src), Value::Int(amount)].into())
        } else {
            let name = rng.gen_range(0..self.accounts) as i64;
            let amount = rng.gen_range(1..8_000) as i64;
            let nation = rng.gen_range(0..self.nations) as i64;
            (
                DEPOSIT,
                vec![Value::Int(name), Value::Int(amount), Value::Int(nation)].into(),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_core::static_analysis::GlobalGraph;
    use rand::SeedableRng;

    #[test]
    fn gdg_matches_fig5c() {
        let bank = Bank::default();
        let reg = bank.registry();
        let gdg = GlobalGraph::analyze(reg.all()).unwrap();
        assert_eq!(gdg.num_blocks(), 4);
        assert_eq!(gdg.templates_for(TRANSFER).len(), 3);
        assert_eq!(gdg.templates_for(DEPOSIT).len(), 3);
    }

    #[test]
    fn load_and_run_transactions() {
        let bank = Bank {
            accounts: 64,
            ..Bank::default()
        };
        let db = Database::new(bank.catalog());
        bank.load(&db);
        let reg = bank.registry();
        let before = Bank::total_current(&db);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut commits = 0;
        let mut deposited = 0i64;
        for _ in 0..200 {
            let (pid, params) = bank.next_txn(&mut rng);
            let proc = reg.get(pid).unwrap();
            if let Ok(info) = pacman_engine::run_procedure(&db, proc, &params) {
                commits += 1;
                if pid == DEPOSIT {
                    deposited += params[1].as_int().unwrap();
                }
                assert!(info.ts > 0);
            }
        }
        assert!(commits > 150, "only {commits} commits");
        // Transfers conserve Current; deposits add to it.
        assert_eq!(Bank::total_current(&db), before + deposited);
    }
}
