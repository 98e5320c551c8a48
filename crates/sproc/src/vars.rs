//! Per-transaction variable stores: cross-piece hand-offs.
//!
//! During recovery a transaction's pieces execute on different threads;
//! variables produced by an upstream piece (e.g. `dst` in the bank-transfer
//! example, Fig. 7) are delivered to downstream pieces through a write-once
//! [`VarStore`]. The block-level ordering enforced by the scheduler
//! establishes the happens-before edge; `OnceLock` makes the hand-off safe.
//!
//! Hand-offs are all a store holds. A variable lives in the register of the
//! plan whose read defines it ([`crate::code`]); the read publishes it here
//! only when the compiled plan says an operation *outside* the plan uses it,
//! and a plan looks here only for variables it does not define itself. A
//! plan that covers every user of its variables — the whole procedure on
//! the commit path, most replay pieces — never touches its store, and runs
//! against [`VarStore::shared_empty`].

use pacman_common::{Value, VarId};
use std::sync::{Mutex, OnceLock};

/// Write-once variable slots for one transaction instance.
///
/// Loop-local variables get one binding *per loop iteration* (the
/// foreign-key pattern of §4.3.1 can span slices inside a loop — e.g.
/// TPC-C Delivery reads an order's amount and credits the customer from a
/// different piece), stored in the indexed side table — a handful of
/// entries per transaction, scanned.
#[derive(Debug, Default)]
pub struct VarStore {
    slots: Vec<OnceLock<Value>>,
    indexed: Mutex<Vec<(u32, u64, Value)>>,
}

static EMPTY: VarStore = VarStore {
    slots: Vec::new(),
    indexed: Mutex::new(Vec::new()),
};

impl VarStore {
    /// A store with `n` slots (the procedure's variable count).
    pub fn new(n: usize) -> Self {
        VarStore {
            slots: (0..n).map(|_| OnceLock::new()).collect(),
            indexed: Mutex::new(Vec::new()),
        }
    }

    /// The store of a transaction none of whose plans hands a variable
    /// over: no slots, so nothing can be bound and every lookup misses.
    pub fn shared_empty() -> &'static VarStore {
        &EMPTY
    }

    /// Bind a variable. Binding twice is a logic error (each variable has
    /// exactly one defining operation) and is ignored with a debug assert.
    pub fn set(&self, v: VarId, val: Value) {
        let won = self.slots[v.index()].set(val).is_ok();
        debug_assert!(won, "variable {v} bound twice");
    }

    /// Read a variable, if bound.
    pub fn get(&self, v: VarId) -> Option<Value> {
        self.slots.get(v.index()).and_then(|s| s.get().cloned())
    }

    /// Bind a loop-local variable for iteration `iter`.
    pub fn set_indexed(&self, v: VarId, iter: u64, val: Value) {
        // Like `set`, out of range is a bug — and must not reach the side
        // table of the shared empty store.
        assert!(v.index() < self.slots.len(), "no slot for {v}");
        let mut indexed = self.indexed.lock().expect("varstore poisoned");
        debug_assert!(
            !indexed.iter().any(|e| (e.0, e.1) == (v.0, iter)),
            "loop variable {v}@{iter} bound twice"
        );
        indexed.push((v.0, iter, val));
    }

    /// Read a loop-local variable for iteration `iter`, if bound.
    pub fn get_indexed(&self, v: VarId, iter: u64) -> Option<Value> {
        self.indexed
            .lock()
            .expect("varstore poisoned")
            .iter()
            .find(|e| (e.0, e.1) == (v.0, iter))
            .map(|e| e.2.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_then_get() {
        let vs = VarStore::new(3);
        assert_eq!(vs.get(VarId::new(1)), None);
        vs.set(VarId::new(1), Value::Int(7));
        assert_eq!(vs.get(VarId::new(1)), Some(Value::Int(7)));
    }

    #[test]
    fn out_of_range_get_is_none() {
        let vs = VarStore::new(1);
        assert_eq!(vs.get(VarId::new(9)), None);
    }

    #[test]
    fn concurrent_readers_see_the_single_write() {
        let vs = std::sync::Arc::new(VarStore::new(1));
        vs.set(VarId::new(0), Value::str("x"));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let vs = std::sync::Arc::clone(&vs);
                std::thread::spawn(move || vs.get(VarId::new(0)).unwrap())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), Value::str("x"));
        }
    }
}
