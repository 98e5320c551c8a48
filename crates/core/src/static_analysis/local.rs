//! Intra-procedure analysis: slice decomposition (Algorithm 1, §4.1.1).
//!
//! A procedure is cut into a *maximal* set of slices such that
//!
//! 1. mutually data-dependent operations share a slice, and
//! 2. if two flow-dependent operations share a slice, every operation
//!    between them is in that slice too (contiguity);
//!
//! then slices are connected by flow-dependency edges and mutually
//! reachable slices are contracted (cycle breaking), yielding the local
//! dependency graph — Fig. 5(a)/(b) for the bank example.
//!
//! The graph describes what *replay* executes, so it is built over the
//! procedure's replay-live operations only
//! ([`ProcedureDef::is_replay_live`]): a read whose value reaches no write
//! belongs to no slice. Everything a live operation flow-depends on is
//! live too, so no edge is lost by leaving the dead reads out.

use super::ops_data_dependent;
use super::union_find::UnionFind;
use pacman_common::SliceId;
use pacman_sproc::ProcedureDef;

/// One slice: a set of operation indices of the procedure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Slice {
    /// Slice id (position in the local graph, ordered by first op).
    pub id: SliceId,
    /// Op indices in program order.
    pub ops: Vec<usize>,
}

/// The local dependency graph of one procedure.
#[derive(Clone, Debug)]
pub struct LocalGraph {
    /// Slices ordered by their first operation.
    pub slices: Vec<Slice>,
    /// Direct edges `(from, to)`: `to` contains an op flow-dependent on an
    /// op in `from`.
    pub edges: Vec<(SliceId, SliceId)>,
}

impl LocalGraph {
    /// Run Algorithm 1 on a procedure's replay-live operations.
    pub fn analyze(proc: &ProcedureDef) -> LocalGraph {
        // The union-find and every index below are positions in `ops`.
        let ops: Vec<usize> = proc.replay_plan().op_indices().collect();
        let n = ops.len();
        let pos_of = |op: usize| {
            ops.binary_search(&op)
                .expect("a live op flow-depends on live ops only")
        };
        let flow_deps: Vec<Vec<usize>> = ops
            .iter()
            .map(|&o| {
                proc.flow_deps_of(o)
                    .iter()
                    .map(|d| pos_of(d.index()))
                    .collect()
            })
            .collect();
        let mut uf = UnionFind::new(n);

        // Merge slices: mutually data-dependent ops into the same slice.
        for i in 0..n {
            for j in (i + 1)..n {
                if ops_data_dependent(&proc.ops[ops[i]], &proc.ops[ops[j]]) {
                    uf.union(i, j);
                }
            }
        }

        // Property (2): contiguity between flow-dependent ops of one slice.
        // Merging can create new in-slice flow pairs, so iterate to fixpoint.
        loop {
            let mut changed = false;
            for (j, deps) in flow_deps.iter().enumerate() {
                for &i in deps {
                    if uf.same(i, j) {
                        for k in (i + 1)..j {
                            changed |= uf.union(i, k);
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // Break cycles: contract mutually (indirectly) dependent slices.
        // Slice-level edges come from op-level flow deps; a cycle can only
        // arise between interleaved slices. Iterate SCC contraction to
        // fixpoint (contraction can introduce new contiguity violations,
        // which are themselves cycles of length ≥ 1 in the flow relation —
        // handled by re-running both rules).
        loop {
            let groups = uf.groups();
            let id_of = |uf: &mut UnionFind, op: usize| -> usize {
                let root = uf.find(op);
                groups
                    .iter()
                    .position(|g| uf.find(g[0]) == root)
                    .expect("op in some group")
            };
            // Build slice-level adjacency.
            let m = groups.len();
            let mut adj = vec![vec![false; m]; m];
            for (j, deps) in flow_deps.iter().enumerate() {
                for &i in deps {
                    let (si, sj) = (id_of(&mut uf, i), id_of(&mut uf, j));
                    if si != sj {
                        adj[si][sj] = true;
                    }
                }
            }
            // Transitive closure (procedures are small).
            let mut reach = adj.clone();
            // Floyd-Warshall closure: the index form is the algorithm.
            #[allow(clippy::needless_range_loop)]
            for k in 0..m {
                for i in 0..m {
                    if reach[i][k] {
                        for j in 0..m {
                            if reach[k][j] {
                                reach[i][j] = true;
                            }
                        }
                    }
                }
            }
            let mut changed = false;
            for i in 0..m {
                for j in (i + 1)..m {
                    if reach[i][j] && reach[j][i] {
                        changed |= uf.union(groups[i][0], groups[j][0]);
                    }
                }
            }
            if !changed {
                break;
            }
            // Re-apply contiguity after contraction.
            loop {
                let mut c2 = false;
                for (j, deps) in flow_deps.iter().enumerate() {
                    for &i in deps {
                        if uf.same(i, j) {
                            for k in (i + 1)..j {
                                c2 |= uf.union(i, k);
                            }
                        }
                    }
                }
                if !c2 {
                    break;
                }
            }
        }

        // Materialize slices and edges.
        let groups = uf.groups();
        let slices: Vec<Slice> = groups
            .iter()
            .enumerate()
            .map(|(i, members)| Slice {
                id: SliceId::new(i as u32),
                ops: members.iter().map(|&k| ops[k]).collect(),
            })
            .collect();
        let slice_of = |k: usize| -> SliceId {
            SliceId::new(
                groups
                    .iter()
                    .position(|g| g.contains(&k))
                    .expect("op in a slice") as u32,
            )
        };
        let mut edges = Vec::new();
        for (j, deps) in flow_deps.iter().enumerate() {
            for &i in deps {
                let (si, sj) = (slice_of(i), slice_of(j));
                if si != sj && !edges.contains(&(si, sj)) {
                    edges.push((si, sj));
                }
            }
        }
        edges.sort();
        LocalGraph { slices, edges }
    }

    /// The slice containing op index `op`.
    ///
    /// # Panics
    ///
    /// Panics for a replay-dead op: it is in no slice.
    pub fn slice_of(&self, op: usize) -> SliceId {
        self.slices
            .iter()
            .find(|s| s.ops.contains(&op))
            .map(|s| s.id)
            .expect("op not in any slice")
    }

    /// Number of slices.
    pub fn len(&self) -> usize {
        self.slices.len()
    }

    /// Whether the procedure decomposed into zero slices (it writes
    /// nothing, so replay has nothing to run for it).
    pub fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_common::{ProcId, TableId};
    use pacman_sproc::{Expr, ProcBuilder};

    const FAMILY: TableId = TableId::new(0);
    const CURRENT: TableId = TableId::new(1);
    const SAVING: TableId = TableId::new(2);

    /// Fig. 2a / Fig. 3: Transfer decomposes into exactly T1{op0},
    /// T2{ops1-4}, T3{ops5,6}.
    fn transfer() -> ProcedureDef {
        let mut b = ProcBuilder::new(ProcId::new(0), "Transfer", 2);
        let dst = b.read(FAMILY, Expr::param(0), 0);
        b.guarded(Expr::not_null(Expr::var(dst)), |b| {
            let src_val = b.read(CURRENT, Expr::param(0), 0);
            b.write(
                CURRENT,
                Expr::param(0),
                0,
                Expr::sub(Expr::var(src_val), Expr::param(1)),
            );
            let dst_val = b.read(CURRENT, Expr::var(dst), 0);
            b.write(
                CURRENT,
                Expr::var(dst),
                0,
                Expr::add(Expr::var(dst_val), Expr::param(1)),
            );
            let bonus = b.read(SAVING, Expr::param(0), 0);
            b.write(
                SAVING,
                Expr::param(0),
                0,
                Expr::add(Expr::var(bonus), Expr::int(1)),
            );
        });
        b.build().unwrap()
    }

    #[test]
    fn transfer_decomposes_like_fig3() {
        let g = LocalGraph::analyze(&transfer());
        let op_sets: Vec<Vec<usize>> = g.slices.iter().map(|s| s.ops.clone()).collect();
        assert_eq!(op_sets, vec![vec![0], vec![1, 2, 3, 4], vec![5, 6]]);
    }

    #[test]
    fn transfer_edges_match_fig5a() {
        // T2 and T3 are both flow-dependent on T1; no edge T2->T3.
        let g = LocalGraph::analyze(&transfer());
        assert_eq!(
            g.edges,
            vec![
                (SliceId::new(0), SliceId::new(1)),
                (SliceId::new(0), SliceId::new(2)),
            ]
        );
    }

    /// Fig. 4: Deposit decomposes into D1{0,1}, D2{2,3}, D3{4,5} with edges
    /// D1->D2 and D1->D3.
    fn deposit() -> ProcedureDef {
        const STATS: TableId = TableId::new(3);
        let mut b = ProcBuilder::new(ProcId::new(1), "Deposit", 3);
        let tmp = b.read(CURRENT, Expr::param(0), 0);
        b.write(
            CURRENT,
            Expr::param(0),
            0,
            Expr::add(Expr::var(tmp), Expr::param(1)),
        );
        let rich = Expr::gt(Expr::add(Expr::var(tmp), Expr::param(1)), Expr::int(10000));
        b.guarded(rich.clone(), |b| {
            let bonus = b.read(SAVING, Expr::param(0), 0);
            b.write(
                SAVING,
                Expr::param(0),
                0,
                Expr::add(
                    Expr::var(bonus),
                    Expr::mul(
                        Expr::var(tmp),
                        Expr::Const(pacman_common::Value::Float(0.02)),
                    ),
                ),
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
        b.build().unwrap()
    }

    #[test]
    fn deposit_decomposes_like_fig4() {
        let g = LocalGraph::analyze(&deposit());
        let op_sets: Vec<Vec<usize>> = g.slices.iter().map(|s| s.ops.clone()).collect();
        assert_eq!(op_sets, vec![vec![0, 1], vec![2, 3], vec![4, 5]]);
        assert_eq!(
            g.edges,
            vec![
                (SliceId::new(0), SliceId::new(1)),
                (SliceId::new(0), SliceId::new(2)),
            ]
        );
    }

    #[test]
    fn interleaved_rmw_merges_for_contiguity() {
        // read A; read B; write A(using A's read); write B(using B's read):
        // A-ops and B-ops are data-dependent pairs; the in-slice flow pair
        // (op0, op2) spans op1, so contiguity pulls op1 (and then op3 joins
        // via data dependence with op1).
        let ta = TableId::new(0);
        let tb = TableId::new(1);
        let mut b = ProcBuilder::new(ProcId::new(0), "X", 2);
        let va = b.read(ta, Expr::param(0), 0);
        let vb = b.read(tb, Expr::param(1), 0);
        b.write(ta, Expr::param(0), 0, Expr::var(va));
        b.write(tb, Expr::param(1), 0, Expr::var(vb));
        let p = b.build().unwrap();
        let g = LocalGraph::analyze(&p);
        assert_eq!(g.len(), 1, "interleaving forces a single slice: {g:?}");
    }

    #[test]
    fn independent_single_table_groups_stay_separate() {
        // Two RMW pairs on two tables, not interleaved: two slices, no edges.
        let ta = TableId::new(0);
        let tb = TableId::new(1);
        let mut b = ProcBuilder::new(ProcId::new(0), "Y", 2);
        let va = b.read(ta, Expr::param(0), 0);
        b.write(ta, Expr::param(0), 0, Expr::var(va));
        let vb = b.read(tb, Expr::param(1), 0);
        b.write(tb, Expr::param(1), 0, Expr::var(vb));
        let p = b.build().unwrap();
        let g = LocalGraph::analyze(&p);
        assert_eq!(g.len(), 2);
        assert!(
            g.edges.is_empty(),
            "no cross-slice flow deps: {:?}",
            g.edges
        );
    }

    #[test]
    fn read_only_ops_on_same_table_do_not_merge() {
        let t = TableId::new(0);
        let other = TableId::new(1);
        let mut b = ProcBuilder::new(ProcId::new(0), "R", 2);
        let v1 = b.read(t, Expr::param(0), 0);
        let v2 = b.read(t, Expr::param(1), 0);
        b.write(
            other,
            Expr::param(0),
            0,
            Expr::add(Expr::var(v1), Expr::var(v2)),
        );
        let p = b.build().unwrap();
        let g = LocalGraph::analyze(&p);
        // Two read slices (no data dep between reads) + one write slice.
        assert_eq!(g.len(), 3);
        // The write depends on both reads.
        assert_eq!(
            g.edges,
            vec![
                (SliceId::new(0), SliceId::new(2)),
                (SliceId::new(1), SliceId::new(2)),
            ]
        );
    }

    #[test]
    fn slice_of_resolves_membership() {
        let g = LocalGraph::analyze(&transfer());
        assert_eq!(g.slice_of(0), SliceId::new(0));
        assert_eq!(g.slice_of(3), SliceId::new(1));
        assert_eq!(g.slice_of(6), SliceId::new(2));
    }
}
