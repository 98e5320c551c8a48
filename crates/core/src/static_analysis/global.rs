//! Inter-procedure analysis: the global dependency graph (Algorithm 2,
//! §4.1.2).
//!
//! Slices from all procedures' local graphs are merged into *blocks*:
//! data-dependent slices share a block, mutually-reachable blocks are
//! contracted, and two slices of the same procedure that land in one block
//! merge into a single slice (properties 1-4). The result — Fig. 5(c) for
//! the bank example — drives both schedule construction and the per-block
//! core assignment of the recovery runtime.
//!
//! The last step compiles every piece template into a
//! [`PiecePlan`] (loop groups and deduplicated access sites), so that
//! replay-time parameter checking and execution walk prepared plans instead
//! of regrouping op lists and re-evaluating key expressions per operation.
//!
//! Slices, blocks, templates and plans are formed from **replay-live**
//! operations only ([`ProcedureDef::is_replay_live`]): a read whose value
//! reaches no write is not replayed, a procedure that writes nothing has no
//! template, and a block that would hold nothing but such reads does not
//! exist. The graph is therefore a description of *replay*; what a running
//! transaction may touch is a different question, answered from the full
//! operation list by `recovery::gate::GateMap::blocks`.

use super::local::LocalGraph;
use super::ops_data_dependent;
use super::union_find::UnionFind;
use pacman_common::{BlockId, Error, ProcId, Result, SliceId, TableId};
use pacman_sproc::{PiecePlan, ProcedureDef};
use std::collections::HashMap;
use std::sync::Arc;

/// One node of the global dependency graph.
#[derive(Clone, Debug)]
pub struct Block {
    /// Block id (topological-friendly dense index).
    pub id: BlockId,
    /// Member slices as `(procedure, slice)` pairs.
    pub slices: Vec<(ProcId, SliceId)>,
}

/// The ops a given procedure contributes to a given block — one *piece* of
/// any transaction instantiated from that procedure (property 4 merged).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PieceTemplate {
    /// Block the piece belongs to.
    pub block: BlockId,
    /// Op indices (program order) executed by this piece.
    pub ops: Vec<usize>,
}

/// The global dependency graph over a set of stored procedures.
#[derive(Clone, Debug)]
pub struct GlobalGraph {
    /// Blocks ordered by their smallest member slice.
    pub blocks: Vec<Block>,
    /// Direct edges (deduped, sorted).
    pub edges: Vec<(BlockId, BlockId)>,
    preds: Vec<Vec<BlockId>>,
    succs: Vec<Vec<BlockId>>,
    reach: Vec<Vec<bool>>,
    templates: Vec<Vec<PieceTemplate>>,
    /// Compiled plans mirroring `templates` (one `Arc` clone per piece at
    /// schedule construction).
    plans: Vec<Vec<Arc<PiecePlan>>>,
    write_block: HashMap<TableId, BlockId>,
    locals: Vec<LocalGraph>,
    procs: Vec<Arc<ProcedureDef>>,
}

impl GlobalGraph {
    /// Run Algorithm 2 over the registered procedures (indexed by
    /// `ProcId`), including the §5 key-computability validation.
    pub fn analyze(procs: &[Arc<ProcedureDef>]) -> Result<GlobalGraph> {
        let locals: Vec<LocalGraph> = procs.iter().map(|p| LocalGraph::analyze(p)).collect();
        Self::build(procs, locals, true)
    }

    /// Build the graph from an *arbitrary* per-procedure decomposition
    /// (each inner `Vec<usize>` is one piece's op set). Used to drive the
    /// recovery runtime with the transaction-chopping baseline of Fig. 18.
    /// Key-computability is not enforced: coarser pieces may keep a key's
    /// defining read inside the same piece, which only matters to dynamic
    /// analysis (such pieces degrade to conservative scheduling).
    pub fn analyze_decomposition(
        procs: &[Arc<ProcedureDef>],
        decomposition: &[Vec<Vec<usize>>],
    ) -> Result<GlobalGraph> {
        let locals: Vec<LocalGraph> = procs
            .iter()
            .zip(decomposition)
            .map(|(p, pieces)| local_from_pieces(p, pieces))
            .collect();
        Self::build(procs, locals, false)
    }

    fn build(
        procs: &[Arc<ProcedureDef>],
        locals: Vec<LocalGraph>,
        validate_keys: bool,
    ) -> Result<GlobalGraph> {
        // Flatten the slice universe.
        let mut universe: Vec<(usize, usize)> = Vec::new(); // (proc idx, slice idx)
        let mut base: Vec<usize> = Vec::with_capacity(procs.len());
        for (pi, lg) in locals.iter().enumerate() {
            base.push(universe.len());
            for si in 0..lg.len() {
                universe.push((pi, si));
            }
        }
        let flat = |pi: usize, si: usize| base[pi] + si;
        let n = universe.len();
        let mut uf = UnionFind::new(n);

        // Merge blocks: data-dependent slices share a block.
        for a in 0..n {
            for b in (a + 1)..n {
                let (pa, sa) = universe[a];
                let (pb, sb) = universe[b];
                let slice_a = &locals[pa].slices[sa];
                let slice_b = &locals[pb].slices[sb];
                let dep = slice_a.ops.iter().any(|&oa| {
                    slice_b
                        .ops
                        .iter()
                        .any(|&ob| ops_data_dependent(&procs[pa].ops[oa], &procs[pb].ops[ob]))
                });
                if dep {
                    uf.union(a, b);
                }
            }
        }

        // Build graph + break cycles, iterating contraction to fixpoint.
        loop {
            let groups = uf.groups();
            let m = groups.len();
            let mut root_to_group: HashMap<usize, usize> = HashMap::new();
            for (gi, g) in groups.iter().enumerate() {
                root_to_group.insert(uf.find(g[0]), gi);
            }
            let mut adj = vec![vec![false; m]; m];
            for (pi, lg) in locals.iter().enumerate() {
                for &(from, to) in &lg.edges {
                    let a = root_to_group[&uf.find(flat(pi, from.index()))];
                    let b = root_to_group[&uf.find(flat(pi, to.index()))];
                    if a != b {
                        adj[a][b] = true;
                    }
                }
            }
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
        }

        // Materialize blocks.
        let groups = uf.groups();
        let mut blocks: Vec<Block> = groups
            .iter()
            .enumerate()
            .map(|(bi, g)| Block {
                id: BlockId::new(bi as u32),
                slices: g
                    .iter()
                    .map(|&u| {
                        let (pi, si) = universe[u];
                        (procs[pi].id, SliceId::new(si as u32))
                    })
                    .collect(),
            })
            .collect();
        // Block 0 always exists: tuple-level records (ad-hoc transactions,
        // §4.5) are replayed through the schedule too,
        // and with no procedure writing anything they still need a block to
        // be dispatched to ([`GlobalGraph::install_block`]).
        if blocks.is_empty() {
            blocks.push(Block {
                id: BlockId::new(0),
                slices: Vec::new(),
            });
        }
        let mut block_of = vec![0usize; n];
        for (bi, g) in groups.iter().enumerate() {
            for &u in g {
                block_of[u] = bi;
            }
        }

        // Edges over final blocks.
        let m = blocks.len();
        let mut adj = vec![vec![false; m]; m];
        for (pi, lg) in locals.iter().enumerate() {
            for &(from, to) in &lg.edges {
                let a = block_of[flat(pi, from.index())];
                let b = block_of[flat(pi, to.index())];
                if a != b {
                    adj[a][b] = true;
                }
            }
        }
        let mut edges = Vec::new();
        let mut preds = vec![Vec::new(); m];
        let mut succs = vec![Vec::new(); m];
        for a in 0..m {
            for b in 0..m {
                if adj[a][b] {
                    edges.push((BlockId::new(a as u32), BlockId::new(b as u32)));
                    succs[a].push(BlockId::new(b as u32));
                    preds[b].push(BlockId::new(a as u32));
                }
            }
        }
        edges.sort();
        let mut reach = adj;
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

        // Property (4): per procedure, merge its slices within one block
        // into a single piece template. Templates are ordered by block id.
        let mut templates: Vec<Vec<PieceTemplate>> = Vec::with_capacity(procs.len());
        for (pi, lg) in locals.iter().enumerate() {
            let mut per_block: HashMap<usize, Vec<usize>> = HashMap::new();
            for (si, slice) in lg.slices.iter().enumerate() {
                per_block
                    .entry(block_of[flat(pi, si)])
                    .or_default()
                    .extend(slice.ops.iter().copied());
            }
            let mut list: Vec<PieceTemplate> = per_block
                .into_iter()
                .map(|(b, mut ops)| {
                    ops.sort_unstable();
                    PieceTemplate {
                        block: BlockId::new(b as u32),
                        ops,
                    }
                })
                .collect();
            list.sort_by_key(|t| t.block);
            templates.push(list);
        }

        // Written tables map to exactly one block (data-dependent slices
        // merged), recorded for ad-hoc write dispatch (§4.5).
        let mut write_block: HashMap<TableId, BlockId> = HashMap::new();
        for (pi, proc) in procs.iter().enumerate() {
            for (oi, op) in proc.ops.iter().enumerate() {
                if op.is_write() {
                    let si = locals[pi].slice_of(oi);
                    let b = BlockId::new(block_of[flat(pi, si.index())] as u32);
                    if let Some(prev) = write_block.insert(op.table, b) {
                        debug_assert_eq!(prev, b, "written table {} owned by two blocks", op.table);
                    }
                }
            }
        }

        let plans = templates
            .iter()
            .zip(procs)
            .map(|(list, proc)| {
                list.iter()
                    .map(|t| Arc::new(proc.replay_piece(&t.ops)))
                    .collect()
            })
            .collect();
        let graph = GlobalGraph {
            blocks,
            edges,
            preds,
            succs,
            reach,
            templates,
            plans,
            write_block,
            locals,
            procs: procs.to_vec(),
        };
        if validate_keys {
            graph.validate_key_computability()?;
        }
        Ok(graph)
    }

    /// §5: every op's key and loop count must be computable from the
    /// procedure parameters plus variables produced by *other* pieces —
    /// otherwise dynamic analysis cannot derive read/write sets at replay
    /// time and the procedure is rejected.
    fn validate_key_computability(&self) -> Result<()> {
        for (pi, proc) in self.procs.iter().enumerate() {
            for tmpl in &self.templates[pi] {
                for &oi in &tmpl.ops {
                    let op = &proc.ops[oi];
                    let mut vars = Vec::new();
                    op.key.collect_vars(&mut vars);
                    if let Some(c) = &op.loop_count {
                        c.collect_vars(&mut vars);
                    }
                    for v in vars {
                        let def = proc.defining_op(v);
                        if tmpl.ops.contains(&def) {
                            return Err(Error::InvalidProcedure(format!(
                                "{}: key/count of op {} depends on {v} defined in \
                                 the same piece — read/write sets not computable (§5)",
                                proc.name, op.id
                            )));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Number of blocks (at least one).
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Piece templates of a procedure, ordered by block id.
    pub fn templates_for(&self, proc: ProcId) -> &[PieceTemplate] {
        &self.templates[proc.index()]
    }

    /// Compiled plans of a procedure's piece templates, in the order of
    /// [`GlobalGraph::templates_for`].
    pub fn plans_for(&self, proc: ProcId) -> &[Arc<PiecePlan>] {
        &self.plans[proc.index()]
    }

    /// Direct predecessor blocks.
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        &self.preds[b.index()]
    }

    /// Direct successor blocks.
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        &self.succs[b.index()]
    }

    /// Whether `a` is a (transitive) ancestor of `b` — if neither is an
    /// ancestor of the other, their piece-sets may run in parallel (§4.1.2).
    pub fn is_ancestor(&self, a: BlockId, b: BlockId) -> bool {
        self.reach[a.index()][b.index()]
    }

    /// The block owning writes to `table`, if any procedure writes it.
    pub fn block_for_write(&self, table: TableId) -> Option<BlockId> {
        self.write_block.get(&table).copied()
    }

    /// The block in which replay installs tuple-level writes to `table`
    /// (ad-hoc dispatch, §4.5): its owner, or block 0 for a table no
    /// procedure writes. Writes to one table always share a block, so the
    /// per-key chains of dynamic analysis order them.
    pub fn install_block(&self, table: TableId) -> BlockId {
        self.block_for_write(table).unwrap_or(BlockId::new(0))
    }

    /// The local dependency graph of a procedure.
    pub fn local(&self, proc: ProcId) -> &LocalGraph {
        &self.locals[proc.index()]
    }

    /// The analyzed procedures.
    pub fn procs(&self) -> &[Arc<ProcedureDef>] {
        &self.procs
    }

    /// What the tools print about replay: per procedure its replay-live and
    /// replay-dead op counts and its pieces, then the block count and the
    /// mean number of pieces per logged transaction over `mix` — procedure
    /// ids as the workload's generator draws them; a procedure with nothing
    /// to replay logs nothing and is left out of the mean.
    pub fn replay_summary(&self, mix: impl IntoIterator<Item = ProcId>) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for p in &self.procs {
            let live = p.replay_plan().op_indices().count();
            let _ = writeln!(
                s,
                "{}: {live} live + {} dead ops, {} pieces",
                p.name,
                p.ops.len() - live,
                self.templates_for(p.id).len()
            );
        }
        let (mut pieces, mut logged) = (0usize, 0usize);
        for proc in mix {
            let n = self.templates_for(proc).len();
            if n > 0 {
                pieces += n;
                logged += 1;
            }
        }
        let _ = writeln!(
            s,
            "replay: {} blocks, {:.2} pieces per logged transaction",
            self.num_blocks(),
            pieces as f64 / logged.max(1) as f64
        );
        s
    }

    /// Render the GDG in the style of Fig. 21 (blocks with their member
    /// slices, then the edges).
    pub fn pretty(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for b in &self.blocks {
            let _ = write!(s, "Block B{} {{ ", b.id.0);
            for (i, (p, sl)) in b.slices.iter().enumerate() {
                if i > 0 {
                    let _ = write!(s, ", ");
                }
                let _ = write!(s, "{}#{}", self.procs[p.index()].name, sl.0);
            }
            let _ = writeln!(s, " }}");
        }
        for (a, b) in &self.edges {
            let _ = writeln!(s, "B{} -> B{}", a.0, b.0);
        }
        s
    }
}

/// Wrap an arbitrary piece decomposition as a local graph: the replay-live
/// ops of each piece become a slice (ordered by first op; a piece left
/// with none is dropped) and edges come from op-level flow deps.
fn local_from_pieces(proc: &ProcedureDef, pieces: &[Vec<usize>]) -> LocalGraph {
    let mut ordered: Vec<Vec<usize>> = pieces
        .iter()
        .map(|p| {
            let mut live: Vec<usize> = p
                .iter()
                .copied()
                .filter(|&op| proc.is_replay_live(op))
                .collect();
            live.sort_unstable();
            live
        })
        .filter(|p| !p.is_empty())
        .collect();
    ordered.sort_by_key(|p| p[0]);
    let slice_of = |op: usize| -> usize {
        ordered
            .iter()
            .position(|p| p.contains(&op))
            .expect("op covered by decomposition")
    };
    let mut edges = Vec::new();
    for j in proc.replay_plan().op_indices() {
        for dep in proc.flow_deps_of(j) {
            let (a, b) = (slice_of(dep.index()), slice_of(j));
            if a != b {
                let e = (
                    pacman_common::SliceId::new(a as u32),
                    pacman_common::SliceId::new(b as u32),
                );
                if !edges.contains(&e) {
                    edges.push(e);
                }
            }
        }
    }
    edges.sort();
    LocalGraph {
        slices: ordered
            .into_iter()
            .enumerate()
            .map(|(i, ops)| crate::static_analysis::local::Slice {
                id: pacman_common::SliceId::new(i as u32),
                ops,
            })
            .collect(),
        edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_common::Value;
    use pacman_sproc::{Expr, ProcBuilder};

    const FAMILY: TableId = TableId::new(0);
    const CURRENT: TableId = TableId::new(1);
    const SAVING: TableId = TableId::new(2);
    const STATS: TableId = TableId::new(3);

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

    fn deposit() -> ProcedureDef {
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
                    Expr::mul(Expr::var(tmp), Expr::Const(Value::Float(0.02))),
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

    fn bank_gdg() -> GlobalGraph {
        GlobalGraph::analyze(&[Arc::new(transfer()), Arc::new(deposit())]).unwrap()
    }

    #[test]
    fn bank_example_blocks_match_fig5c() {
        let g = bank_gdg();
        // Bα{T1}, Bβ{T2,D1}, Bγ{T3,D2}, Bδ{D3}.
        let member_sets: Vec<Vec<(u32, u32)>> = g
            .blocks
            .iter()
            .map(|b| b.slices.iter().map(|(p, s)| (p.0, s.0)).collect())
            .collect();
        assert_eq!(
            member_sets,
            vec![
                vec![(0, 0)],         // Bα = {T1}
                vec![(0, 1), (1, 0)], // Bβ = {T2, D1}
                vec![(0, 2), (1, 1)], // Bγ = {T3, D2}
                vec![(1, 2)],         // Bδ = {D3}
            ]
        );
    }

    #[test]
    fn bank_example_edges_match_fig5c() {
        let g = bank_gdg();
        let e: Vec<(u32, u32)> = g.edges.iter().map(|(a, b)| (a.0, b.0)).collect();
        // Fig. 5c shows α→β, β→γ, β→δ and notes α→γ is implied; our direct
        // edge set keeps α→γ explicitly (T1→T3 is a real flow dependency).
        assert_eq!(e, vec![(0, 1), (0, 2), (1, 2), (1, 3)]);
        assert!(g.is_ancestor(BlockId::new(0), BlockId::new(3)));
        assert!(!g.is_ancestor(BlockId::new(2), BlockId::new(3)));
        assert!(!g.is_ancestor(BlockId::new(3), BlockId::new(2)));
    }

    #[test]
    fn piece_templates_follow_property_four() {
        let g = bank_gdg();
        let t = g.templates_for(ProcId::new(0));
        assert_eq!(
            t,
            &[
                PieceTemplate {
                    block: BlockId::new(0),
                    ops: vec![0]
                },
                PieceTemplate {
                    block: BlockId::new(1),
                    ops: vec![1, 2, 3, 4]
                },
                PieceTemplate {
                    block: BlockId::new(2),
                    ops: vec![5, 6]
                },
            ]
        );
        let d = g.templates_for(ProcId::new(1));
        assert_eq!(d.len(), 3);
        assert_eq!(d[0].block, BlockId::new(1), "D1 lands in Bβ");
    }

    #[test]
    fn written_tables_map_to_unique_blocks() {
        let g = bank_gdg();
        assert_eq!(g.block_for_write(CURRENT), Some(BlockId::new(1)));
        assert_eq!(g.block_for_write(SAVING), Some(BlockId::new(2)));
        assert_eq!(g.block_for_write(STATS), Some(BlockId::new(3)));
        assert_eq!(g.block_for_write(FAMILY), None, "Family is read-only");
    }

    #[test]
    fn single_procedure_gdg_mirrors_local_graph() {
        let g = GlobalGraph::analyze(&[Arc::new(transfer())]).unwrap();
        assert_eq!(g.num_blocks(), 3);
        assert_eq!(g.edges.len(), 2);
    }

    #[test]
    fn key_computability_violation_rejected() {
        // Key of the write comes from a read in the same slice (same table
        // → data-dependent → same piece): must be rejected per §5.
        let t = TableId::new(0);
        let mut b = ProcBuilder::new(ProcId::new(0), "Bad", 1);
        let v = b.read(t, Expr::param(0), 0);
        b.write(t, Expr::var(v), 0, Expr::int(1));
        let p = b.build().unwrap();
        let r = GlobalGraph::analyze(&[Arc::new(p)]);
        assert!(matches!(r, Err(Error::InvalidProcedure(_))));
    }

    #[test]
    fn pretty_renders_blocks_and_edges() {
        let g = bank_gdg();
        let s = g.pretty();
        assert!(s.contains("Block B0 { Transfer#0 }"), "{s}");
        assert!(s.contains("B1 -> B2"), "{s}");
    }

    #[test]
    fn mutually_dependent_blocks_contract() {
        // Proc A: read t0 -> write t1 ; Proc B: read t1 -> write t0.
        // A's slices: {r0}, {w1}; B's: {r1}, {w0}. Data deps: A.w1~B.r1,
        // B.w0~A.r0 → blocks {A.r0,B.w0} and {A.w1,B.r1}; edges both ways →
        // contracted into one block.
        let t0 = TableId::new(0);
        let t1 = TableId::new(1);
        let mut a = ProcBuilder::new(ProcId::new(0), "A", 1);
        let va = a.read(t0, Expr::param(0), 0);
        a.write(t1, Expr::param(0), 0, Expr::var(va));
        let mut b = ProcBuilder::new(ProcId::new(1), "B", 1);
        let vb = b.read(t1, Expr::param(0), 0);
        b.write(t0, Expr::param(0), 0, Expr::var(vb));
        let g = GlobalGraph::analyze(&[Arc::new(a.build().unwrap()), Arc::new(b.build().unwrap())])
            .unwrap();
        assert_eq!(g.num_blocks(), 1, "{}", g.pretty());
        assert!(g.edges.is_empty());
        // Property 4: each proc contributes exactly one merged piece.
        assert_eq!(g.templates_for(ProcId::new(0)).len(), 1);
        assert_eq!(g.templates_for(ProcId::new(0))[0].ops, vec![0, 1]);
    }
}
