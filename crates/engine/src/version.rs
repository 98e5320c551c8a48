//! Version lists: the per-tuple MVCC state.
//!
//! A [`Row`] is one shared immutable image, so every read path —
//! transactional reads, the latch-free newest slot on
//! [`crate::chain::TupleChain`] — hands out a refcount bump instead of
//! materializing a copy (Larson et al.'s shared-row-image discipline), and
//! the checkpoint scan copies the image's bytes without even that.

use pacman_common::{Row, Timestamp};

/// One tuple version. `row == None` is a tombstone (deleted at `ts`).
#[derive(Clone, Debug)]
pub struct VersionEntry {
    /// Commit timestamp of the transaction that installed this version.
    pub ts: Timestamp,
    /// The shared tuple image, or `None` for a delete.
    pub row: Option<Row>,
}

/// Versions of one tuple, sorted by ascending timestamp (newest last).
///
/// Normal commits append (timestamps arrive in order per tuple because
/// installation happens under the tuple latch after the timestamp is
/// drawn). Multi-version *recovery* may install out of order — parallel
/// LLR threads restore different versions of the same tuple (§6.2) — so
/// [`VersionList::install_mv`] insert-sorts when needed.
#[derive(Clone, Debug, Default)]
pub struct VersionList {
    entries: Vec<VersionEntry>,
}

impl VersionList {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// A list holding one version, allocated for exactly that one: most
    /// restored tuples are never written again.
    pub fn seeded(ts: Timestamp, row: Option<Row>) -> Self {
        VersionList {
            entries: vec![VersionEntry { ts, row }],
        }
    }

    /// Number of versions retained.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the tuple has no versions at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Latest version with `ts <= at`, if any. The entries are sorted by
    /// timestamp, so this is a binary search: `partition_point` finds the
    /// first entry past `at`, and its predecessor is the visible version.
    pub fn visible_at(&self, at: Timestamp) -> Option<&VersionEntry> {
        let i = self.entries.partition_point(|e| e.ts <= at);
        if i == 0 {
            None
        } else {
            Some(&self.entries[i - 1])
        }
    }

    /// The newest version.
    pub fn newest(&self) -> Option<&VersionEntry> {
        self.entries.last()
    }

    /// Timestamp of the newest version (0 if none).
    pub fn newest_ts(&self) -> Timestamp {
        self.entries.last().map(|e| e.ts).unwrap_or(0)
    }

    /// Append a committed version. Debug-asserts monotonicity (commit path
    /// guarantees it).
    pub fn install_committed(&mut self, ts: Timestamp, row: Option<Row>) {
        debug_assert!(
            self.newest_ts() < ts || self.entries.is_empty(),
            "non-monotonic commit install: {} then {ts}",
            self.newest_ts()
        );
        self.entries.push(VersionEntry { ts, row });
    }

    /// Multi-version recovery install: insert preserving timestamp order,
    /// tolerating out-of-order arrival. Duplicate timestamps overwrite
    /// (idempotent replay).
    pub fn install_mv(&mut self, ts: Timestamp, row: Option<Row>) {
        match self.entries.binary_search_by(|e| e.ts.cmp(&ts)) {
            Ok(i) => self.entries[i] = VersionEntry { ts, row },
            Err(i) => self.entries.insert(i, VersionEntry { ts, row }),
        }
    }

    /// Single-version last-writer-wins install: the list keeps exactly one
    /// entry, replaced only by a newer-or-equal timestamp.
    pub fn install_lww(&mut self, ts: Timestamp, row: Option<Row>) {
        match self.entries.last_mut() {
            Some(e) if e.ts <= ts => {
                *e = VersionEntry { ts, row };
                // A recovered single-version state never holds history.
                if self.entries.len() > 1 {
                    self.entries.drain(..self.entries.len() - 1);
                }
            }
            Some(_) => {} // stale write loses
            None => self.entries.push(VersionEntry { ts, row }),
        }
    }

    /// Drop versions no snapshot can see: keeps every version with
    /// `ts >= floor` plus the newest older one (the version a snapshot at
    /// `floor` reads). Returns how many versions were dropped.
    pub fn prune(&mut self, floor: Timestamp) -> usize {
        if self.entries.len() <= 1 {
            return 0;
        }
        // Index of the newest entry with ts <= floor.
        let keep_from = match self.entries.iter().rposition(|e| e.ts <= floor) {
            Some(i) => i,
            None => return 0,
        };
        if keep_from > 0 {
            self.entries.drain(..keep_from);
        }
        keep_from
    }

    /// Iterate all versions (oldest first).
    pub fn iter(&self) -> std::slice::Iter<'_, VersionEntry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_common::{Row, Value};

    fn row(i: i64) -> Option<Row> {
        Some(Row::from([Value::Int(i)]))
    }

    #[test]
    fn visibility_picks_latest_not_after() {
        let mut vl = VersionList::new();
        vl.install_committed(5, row(50));
        vl.install_committed(9, row(90));
        assert!(vl.visible_at(4).is_none());
        assert_eq!(vl.visible_at(5).unwrap().ts, 5);
        assert_eq!(vl.visible_at(7).unwrap().ts, 5);
        assert_eq!(vl.visible_at(100).unwrap().ts, 9);
        assert_eq!(vl.newest_ts(), 9);
    }

    #[test]
    fn visible_at_binary_search_agrees_with_linear_scan() {
        // Dense and sparse timestamp layouts, probed at every boundary.
        let mut vl = VersionList::new();
        for ts in [3u64, 4, 9, 10, 250] {
            vl.install_committed(ts, row(ts as i64));
        }
        for at in 0..260 {
            let linear = vl.iter().rev().find(|e| e.ts <= at).map(|e| e.ts);
            assert_eq!(
                vl.visible_at(at).map(|e| e.ts),
                linear,
                "divergence at ts {at}"
            );
        }
    }

    #[test]
    fn mv_install_tolerates_out_of_order() {
        let mut vl = VersionList::new();
        vl.install_mv(9, row(90));
        vl.install_mv(5, row(50));
        vl.install_mv(7, row(70));
        let ts: Vec<_> = vl.iter().map(|e| e.ts).collect();
        assert_eq!(ts, vec![5, 7, 9]);
        // Idempotent on duplicate ts.
        vl.install_mv(7, row(71));
        assert_eq!(vl.len(), 3);
        assert_eq!(
            vl.visible_at(7).unwrap().row.as_ref().unwrap().col(0),
            Value::Int(71)
        );
    }

    #[test]
    fn lww_keeps_single_newest() {
        let mut vl = VersionList::new();
        vl.install_lww(5, row(50));
        vl.install_lww(3, row(30)); // stale, ignored
        assert_eq!(vl.len(), 1);
        assert_eq!(vl.newest_ts(), 5);
        vl.install_lww(8, row(80));
        assert_eq!(vl.len(), 1);
        assert_eq!(vl.newest_ts(), 8);
    }

    #[test]
    fn tombstones_are_versions() {
        let mut vl = VersionList::new();
        vl.install_committed(2, row(1));
        vl.install_committed(4, None);
        assert!(vl.visible_at(5).unwrap().row.is_none());
        assert!(vl.visible_at(3).unwrap().row.is_some());
    }

    #[test]
    fn prune_keeps_snapshot_visible_version() {
        let mut vl = VersionList::new();
        for ts in [2, 4, 6, 8] {
            vl.install_committed(ts, row(ts as i64));
        }
        assert_eq!(vl.prune(5), 1);
        let ts: Vec<_> = vl.iter().map(|e| e.ts).collect();
        assert_eq!(ts, vec![4, 6, 8], "version at 4 still visible to ts=5");
        assert_eq!(vl.prune(100), 2);
        assert_eq!(vl.len(), 1);
        assert_eq!(vl.newest_ts(), 8);
    }

    #[test]
    fn prune_with_all_newer_is_noop() {
        let mut vl = VersionList::new();
        vl.install_committed(10, row(1));
        vl.install_committed(20, row(2));
        assert_eq!(vl.prune(5), 0);
        assert_eq!(vl.len(), 2);
    }
}
