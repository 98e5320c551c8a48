//! Compile-time analysis of stored procedures (§4.1).

pub mod chopping;
pub mod global;
pub mod local;
mod union_find;

pub use chopping::ChoppingGraph;
pub use global::{Block, GlobalGraph, PieceTemplate};
pub use local::{LocalGraph, Slice};
pub use union_find::UnionFind;

use pacman_sproc::OpDef;

/// §4.1.1: "two operations are data-dependent if both operations access the
/// same table and at least one of them is a modification operation."
/// Inserts and deletes count as modifications.
pub fn ops_data_dependent(a: &OpDef, b: &OpDef) -> bool {
    a.table == b.table && (a.is_write() || b.is_write())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_common::{OpId, TableId, VarId};
    use pacman_sproc::{Expr, OpKind};

    fn op(table: u32, write: bool) -> OpDef {
        OpDef {
            id: OpId::new(0),
            table: TableId::new(table),
            key: Expr::param(0),
            kind: if write {
                OpKind::Write {
                    col: 0,
                    value: Expr::int(1),
                }
            } else {
                OpKind::Read {
                    col: 0,
                    out: VarId::new(0),
                }
            },
            guard: None,
            loop_id: None,
            loop_count: None,
        }
    }

    #[test]
    fn data_dependence_is_table_granular() {
        assert!(ops_data_dependent(&op(0, true), &op(0, false)));
        assert!(ops_data_dependent(&op(0, true), &op(0, true)));
        assert!(
            !ops_data_dependent(&op(0, false), &op(0, false)),
            "read-read"
        );
        assert!(
            !ops_data_dependent(&op(0, true), &op(1, true)),
            "different tables"
        );
    }
}
