//! Log record formats.
//!
//! One record per committed transaction. The three schemes differ only in
//! the payload:
//!
//! * `Command` — `(proc id, params)`: tiny, independent of the write-set
//!   size (the 10×+ size advantage of Table 1);
//! * `Logical` — the write set's after-images;
//! * `Physical` — after-images plus the old/new version locations a
//!   physical scheme must record (§6.1.1: "physical logging yields an even
//!   larger log size because it must record the locations of the old and
//!   new versions of every modified tuple"). Our stand-in for a location is
//!   `(prev_ts, slot)` pairs, 24 bytes per write.
//! * `AdHoc` — logical payload logged under command logging for
//!   transactions not issued from stored procedures (§4.5).

use pacman_common::codec::{put_u32, put_u64, put_varint, skip_row, skip_value, Cursor};
use pacman_common::{Decoder, Encoder, Error, ProcId, Result, Row, TableId, Timestamp, Value};
use pacman_engine::{WriteKind, WriteRecord};
use pacman_sproc::Params;
use std::ops::Range;

/// A transaction's log record.
#[derive(Clone, Debug, PartialEq)]
pub struct TxnLogRecord {
    /// Commit timestamp (encodes the epoch in its upper bits).
    pub ts: Timestamp,
    /// Scheme-dependent payload.
    pub payload: LogPayload,
}

/// The payload of a [`TxnLogRecord`].
#[derive(Clone, Debug, PartialEq)]
pub enum LogPayload {
    /// Command logging: the transaction's logic.
    Command {
        /// Stored procedure invoked.
        proc: ProcId,
        /// Invocation arguments.
        params: Params,
    },
    /// Tuple-level logging: the write set.
    Writes {
        /// After-images in write order.
        writes: Vec<WriteRecord>,
        /// Whether locations are included (physical logging).
        physical: bool,
        /// Whether this is an ad-hoc transaction logged under command
        /// logging (replayed as a write-only transaction, §4.5).
        adhoc: bool,
    },
}

impl TxnLogRecord {
    /// The epoch this record belongs to.
    pub fn epoch(&self) -> u64 {
        pacman_common::clock::epoch_of(self.ts)
    }

    /// Borrow the payload for encoding without cloning it first.
    pub fn payload_ref(&self) -> PayloadRef<'_> {
        match &self.payload {
            LogPayload::Command { proc, params } => PayloadRef::Command {
                proc: *proc,
                params: &params[..],
            },
            LogPayload::Writes {
                writes,
                physical,
                adhoc,
            } => PayloadRef::Writes {
                writes,
                physical: *physical,
                adhoc: *adhoc,
            },
        }
    }
}

/// A borrowed [`LogPayload`]: lets the commit path encode a record
/// straight out of the transaction's own write set / parameter list
/// without first cloning it into an owned payload.
#[derive(Clone, Copy, Debug)]
pub enum PayloadRef<'a> {
    /// Command logging: the transaction's logic.
    Command {
        /// Stored procedure invoked.
        proc: ProcId,
        /// Invocation arguments.
        params: &'a [Value],
    },
    /// Tuple-level logging: the write set.
    Writes {
        /// After-images in write order.
        writes: &'a [WriteRecord],
        /// Whether locations are included (physical logging).
        physical: bool,
        /// Ad-hoc transaction under command logging (§4.5).
        adhoc: bool,
    },
}

impl PayloadRef<'_> {
    /// Append the full wire form of a record with timestamp `ts` and this
    /// payload to `buf`. Byte-identical to `TxnLogRecord::encode`.
    pub fn encode_record(&self, ts: Timestamp, buf: &mut Vec<u8>) {
        match self {
            PayloadRef::Command { proc, params } => {
                buf.push(1);
                put_u64(buf, ts);
                put_u32(buf, proc.0);
                put_varint(buf, params.len() as u64);
                for p in params.iter() {
                    p.encode(buf);
                }
            }
            PayloadRef::Writes {
                writes,
                physical,
                adhoc,
            } => {
                buf.push(match (physical, adhoc) {
                    (false, false) => 2,
                    (true, false) => 3,
                    (false, true) => 4,
                    (true, true) => 5, // not produced in practice
                });
                put_u64(buf, ts);
                put_varint(buf, writes.len() as u64);
                for w in writes.iter() {
                    encode_write(buf, w, *physical);
                }
            }
        }
    }
}

fn encode_write(buf: &mut Vec<u8>, w: &WriteRecord, physical: bool) {
    put_u32(buf, w.table.0);
    put_u64(buf, w.key);
    buf.push(match w.kind {
        WriteKind::Update => 0,
        WriteKind::Insert => 1,
        WriteKind::Delete => 2,
    });
    match &w.after {
        Some(row) => {
            buf.push(1);
            row.encode(buf);
        }
        None => buf.push(0),
    }
    if physical {
        // Old/new "locations": previous version timestamp + a slot token.
        put_u64(buf, w.prev_ts);
        put_u64(buf, w.key ^ 0xA5A5_A5A5_A5A5_A5A5); // fabricated slot address
        put_u64(buf, w.prev_ts.wrapping_add(1)); // fabricated new location
    }
}

fn write_kind(byte: u8) -> Result<WriteKind> {
    match byte {
        0 => Ok(WriteKind::Update),
        1 => Ok(WriteKind::Insert),
        2 => Ok(WriteKind::Delete),
        t => Err(Error::Corrupt(format!("bad write kind {t}"))),
    }
}

/// Decode one encoded write, its after-image through `row`: the validating
/// [`Row::decode`] for the owned decoder, [`Row::from_validated`] for a
/// span [`RecordView::parse`] has walked.
fn decode_write(
    cur: &mut Cursor<'_>,
    physical: bool,
    row: impl FnOnce(&mut Cursor<'_>) -> Result<Row>,
) -> Result<WriteRecord> {
    let table = TableId::new(cur.read_u32()?);
    let key = cur.read_u64()?;
    let kind = write_kind(cur.read_u8()?)?;
    let after = match cur.read_u8()? {
        1 => Some(row(cur)?),
        0 => None,
        t => return Err(Error::Corrupt(format!("bad after flag {t}"))),
    };
    let mut prev_ts = 0;
    if physical {
        prev_ts = cur.read_u64()?;
        let _slot = cur.read_u64()?;
        let _new_loc = cur.read_u64()?;
    }
    Ok(WriteRecord {
        table,
        key,
        kind,
        after,
        prev_ts,
    })
}

impl Encoder for TxnLogRecord {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.payload_ref().encode_record(self.ts, buf);
    }
}

/// The owned decoder is the reference [`RecordView::parse`] is tested
/// against (`tests/prop_recovery.rs`): same bytes consumed, same errors,
/// same fields. Replay reads views; nothing in the product decodes to an
/// owned record.
impl Decoder for TxnLogRecord {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self> {
        let tag = cur.read_u8()?;
        let ts = cur.read_u64()?;
        let payload = match tag {
            1 => {
                let proc = ProcId::new(cur.read_u32()?);
                let n = cur.read_varint()? as usize;
                if n > 1 << 22 {
                    return Err(Error::Corrupt(format!("implausible param count {n}")));
                }
                let mut params = Vec::with_capacity(n);
                for _ in 0..n {
                    params.push(Value::decode(cur)?);
                }
                LogPayload::Command {
                    proc,
                    params: params.into(),
                }
            }
            2..=5 => {
                let physical = tag == 3 || tag == 5;
                let adhoc = tag == 4 || tag == 5;
                let n = cur.read_varint()? as usize;
                if n > 1 << 22 {
                    return Err(Error::Corrupt(format!("implausible write count {n}")));
                }
                let mut writes = Vec::with_capacity(n);
                for _ in 0..n {
                    writes.push(decode_write(cur, physical, Row::decode)?);
                }
                LogPayload::Writes {
                    writes,
                    physical,
                    adhoc,
                }
            }
            t => return Err(Error::Corrupt(format!("bad record tag {t}"))),
        };
        Ok(TxnLogRecord { ts, payload })
    }
}

/// One write of a tuple-level record, as [`RecordView::parse_with`] meets
/// it: the header fields and where the still-encoded after-image sits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WriteSpan {
    /// Commit timestamp of the record the write belongs to.
    pub ts: Timestamp,
    /// Table written.
    pub table: TableId,
    /// Primary key written.
    pub key: u64,
    /// The encoded after-image, as positions in the parsed cursor's slice
    /// (`None` = tombstone). Decode it with [`decode_after_image`].
    pub after: Option<Range<usize>>,
}

/// Walk one encoded write with the same validation as [`decode_write`],
/// then hand it to `sink`.
fn walk_write(
    cur: &mut Cursor<'_>,
    ts: Timestamp,
    physical: bool,
    sink: &mut impl FnMut(WriteSpan),
) -> Result<()> {
    let table = TableId::new(cur.read_u32()?);
    let key = cur.read_u64()?;
    write_kind(cur.read_u8()?)?;
    let after = match cur.read_u8()? {
        1 => {
            let at = cur.position();
            skip_row(cur)?;
            Some(at..cur.position())
        }
        0 => None,
        t => return Err(Error::Corrupt(format!("bad after flag {t}"))),
    };
    if physical {
        cur.read_u64()?; // prev_ts
        cur.read_u64()?; // slot
        cur.read_u64()?; // new location
    }
    sink(WriteSpan {
        ts,
        table,
        key,
        after,
    });
    Ok(())
}

/// The payload shape of a [`RecordView`], without the payload itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PayloadKind {
    /// A command record (`proc` identifies the procedure).
    Command {
        /// Stored procedure invoked.
        proc: ProcId,
    },
    /// A tuple-level record.
    Writes {
        /// Whether locations are included (physical logging).
        physical: bool,
        /// Ad-hoc transaction under command logging.
        adhoc: bool,
    },
}

/// A borrowed view of one encoded [`TxnLogRecord`] inside a sealed batch
/// buffer.
///
/// [`RecordView::parse`] walks the record once, applying *exactly* the
/// validation the owned decoder applies — same count guards, same tag /
/// kind / flag byte checks, same UTF-8 checks — but allocates nothing: a
/// truncated or torn tail errors on the view if and only if it errors on
/// the owned decode (`tests/prop_recovery.rs` holds this property). The
/// bytes stay owned by the batch buffer; consumers copy at the last
/// possible moment: a command's parameter list via [`RecordView::params`],
/// a tuple-level record's writes one at a time via [`RecordView::writes`].
#[derive(Clone, Copy, Debug)]
pub struct RecordView<'a> {
    ts: Timestamp,
    kind: PayloadKind,
    /// The full encoded span (tag byte through last payload byte).
    bytes: &'a [u8],
    /// Offset of the write/param count varint within `bytes`.
    body_at: usize,
}

impl<'a> RecordView<'a> {
    /// Parse (and fully validate) the next record in `cur`, advancing the
    /// cursor past it. Returns a borrowed view over the record's span.
    pub fn parse(cur: &mut Cursor<'a>) -> Result<RecordView<'a>> {
        Self::parse_with(cur, |_| {})
    }

    /// [`RecordView::parse`], handing each write of a tuple-level record
    /// to `sink` from the same validating walk, so a consumer that needs
    /// only where each image sits walks the record once. A record that
    /// fails validation part-way has already sunk its earlier writes: on
    /// an error the caller discards what the sink collected.
    pub fn parse_with(
        cur: &mut Cursor<'a>,
        mut sink: impl FnMut(WriteSpan),
    ) -> Result<RecordView<'a>> {
        let full = cur.rest();
        let start = cur.position();
        let tag = cur.read_u8()?;
        let ts = cur.read_u64()?;
        let kind = match tag {
            1 => PayloadKind::Command {
                proc: ProcId::new(cur.read_u32()?),
            },
            2..=5 => PayloadKind::Writes {
                physical: tag == 3 || tag == 5,
                adhoc: tag == 4 || tag == 5,
            },
            t => return Err(Error::Corrupt(format!("bad record tag {t}"))),
        };
        let body_at = cur.position() - start;
        let n = cur.read_varint()? as usize;
        if n > 1 << 22 {
            return Err(match kind {
                PayloadKind::Command { .. } => {
                    Error::Corrupt(format!("implausible param count {n}"))
                }
                _ => Error::Corrupt(format!("implausible write count {n}")),
            });
        }
        match kind {
            PayloadKind::Command { .. } => {
                for _ in 0..n {
                    skip_value(cur)?;
                }
            }
            PayloadKind::Writes { physical, .. } => {
                for _ in 0..n {
                    walk_write(cur, ts, physical, &mut sink)?;
                }
            }
        }
        Ok(RecordView {
            ts,
            kind,
            bytes: &full[..cur.position() - start],
            body_at,
        })
    }

    /// Rebuild the view [`RecordView::parse`] returned for `bytes` from the
    /// header fields it extracted — for spans validated once and revisited
    /// (`MergedBatchView::iter`), so a record is walked once, not per visit.
    pub(crate) fn from_validated(
        ts: Timestamp,
        kind: PayloadKind,
        bytes: &'a [u8],
        body_at: usize,
    ) -> RecordView<'a> {
        RecordView {
            ts,
            kind,
            bytes,
            body_at,
        }
    }

    /// Offset of the count varint within the span (see `from_validated`).
    pub(crate) fn body_at(&self) -> usize {
        self.body_at
    }

    /// Commit timestamp.
    pub fn ts(&self) -> Timestamp {
        self.ts
    }

    /// The epoch this record belongs to.
    pub fn epoch(&self) -> u64 {
        pacman_common::clock::epoch_of(self.ts)
    }

    /// Payload shape.
    pub fn kind(&self) -> PayloadKind {
        self.kind
    }

    /// The record's full encoded span (for zero-copy retention: a kept
    /// record is appended verbatim instead of decode + re-encode).
    pub fn as_bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Decode a command record's parameter list (`None` for tuple-level
    /// records): one decode straight into the shared list, no
    /// intermediate owned record.
    pub fn params(&self) -> Option<Params> {
        let PayloadKind::Command { .. } = self.kind else {
            return None;
        };
        let mut cur = Cursor::new(&self.bytes[self.body_at..]);
        let n = cur.read_varint().expect("validated by parse") as usize;
        Some(
            (0..n)
                .map(|_| Value::decode(&mut cur).expect("span validated by parse"))
                .collect(),
        )
    }

    /// Iterate this record's writes, decoding each at the point of use
    /// (tuple-level payloads only). The iterator is the install-time copy
    /// point for replay: one owned [`WriteRecord`] per write, no
    /// intermediate owned record.
    pub fn writes(&self) -> Option<WritesIter<'a>> {
        let physical = match self.kind {
            PayloadKind::Writes { physical, .. } => physical,
            PayloadKind::Command { .. } => return None,
        };
        let mut cur = Cursor::new(&self.bytes[self.body_at..]);
        let remaining = cur.read_varint().expect("validated by parse") as usize;
        Some(WritesIter {
            cur,
            remaining,
            physical,
        })
    }
}

/// Lazy write iterator over a validated [`RecordView`] span.
pub struct WritesIter<'a> {
    cur: Cursor<'a>,
    remaining: usize,
    physical: bool,
}

impl Iterator for WritesIter<'_> {
    type Item = WriteRecord;

    fn next(&mut self) -> Option<WriteRecord> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let row = |cur: &mut Cursor<'_>| Ok(Row::from_validated(cur));
        Some(decode_write(&mut self.cur, self.physical, row).expect("span validated by parse"))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for WritesIter<'_> {}

/// Decode an after-image delimited by [`RecordView::parse_with`] (one
/// [`WriteSpan::after`]): a walk of tags and lengths that fills the
/// image's column offsets, then one copy of `bytes` — one allocation.
pub fn decode_after_image(bytes: &[u8]) -> Row {
    Row::from_validated(&mut Cursor::new(bytes))
}

// `WriteRecord` equality is needed by the round-trip tests but lives in the
// engine crate without `PartialEq`; compare field-wise here.
impl TxnLogRecord {
    /// Structural equality helper used by tests (WriteRecord lacks Eq).
    pub fn structurally_equal(&self, other: &Self) -> bool {
        if self.ts != other.ts {
            return false;
        }
        match (&self.payload, &other.payload) {
            (
                LogPayload::Command {
                    proc: p1,
                    params: a1,
                },
                LogPayload::Command {
                    proc: p2,
                    params: a2,
                },
            ) => p1 == p2 && a1 == a2,
            (
                LogPayload::Writes {
                    writes: w1,
                    physical: f1,
                    adhoc: h1,
                },
                LogPayload::Writes {
                    writes: w2,
                    physical: f2,
                    adhoc: h2,
                },
            ) => {
                f1 == f2
                    && h1 == h2
                    && w1.len() == w2.len()
                    && w1.iter().zip(w2).all(|(x, y)| {
                        x.table == y.table
                            && x.key == y.key
                            && x.kind == y.kind
                            && x.after == y.after
                            && (!f1 || x.prev_ts == y.prev_ts)
                    })
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_common::TableId;

    fn roundtrip(r: &TxnLogRecord) {
        let bytes = r.to_bytes();
        let mut cur = Cursor::new(&bytes);
        let back = TxnLogRecord::decode(&mut cur).expect("decode");
        assert!(cur.is_empty());
        assert!(r.structurally_equal(&back), "{r:?} != {back:?}");
    }

    fn write(key: u64, val: i64) -> WriteRecord {
        WriteRecord {
            table: TableId::new(1),
            key,
            kind: WriteKind::Update,
            after: Some(Row::from([Value::Int(val), Value::str("pad")])),
            prev_ts: 7,
        }
    }

    #[test]
    fn command_roundtrip() {
        roundtrip(&TxnLogRecord {
            ts: pacman_common::clock::epoch_floor(3) | 42,
            payload: LogPayload::Command {
                proc: ProcId::new(2),
                params: vec![Value::Int(1), Value::str("x"), Value::Float(0.5)].into(),
            },
        });
    }

    #[test]
    fn logical_and_physical_roundtrip() {
        for physical in [false, true] {
            roundtrip(&TxnLogRecord {
                ts: 99,
                payload: LogPayload::Writes {
                    writes: vec![write(1, 10), write(2, 20)],
                    physical,
                    adhoc: false,
                },
            });
        }
    }

    #[test]
    fn adhoc_flag_survives() {
        let r = TxnLogRecord {
            ts: 5,
            payload: LogPayload::Writes {
                writes: vec![write(9, 1)],
                physical: false,
                adhoc: true,
            },
        };
        let bytes = r.to_bytes();
        let back = TxnLogRecord::decode(&mut Cursor::new(&bytes)).unwrap();
        match back.payload {
            LogPayload::Writes { adhoc, .. } => assert!(adhoc),
            _ => panic!("wrong payload"),
        }
    }

    #[test]
    fn deletes_encode_without_after_image() {
        roundtrip(&TxnLogRecord {
            ts: 8,
            payload: LogPayload::Writes {
                writes: vec![WriteRecord {
                    table: TableId::new(0),
                    key: 3,
                    kind: WriteKind::Delete,
                    after: None,
                    prev_ts: 2,
                }],
                physical: true,
                adhoc: false,
            },
        });
    }

    #[test]
    fn physical_records_are_larger_than_logical() {
        let writes = vec![write(1, 10), write(2, 20), write(3, 30)];
        let ll = TxnLogRecord {
            ts: 1,
            payload: LogPayload::Writes {
                writes: writes.clone(),
                physical: false,
                adhoc: false,
            },
        };
        let pl = TxnLogRecord {
            ts: 1,
            payload: LogPayload::Writes {
                writes,
                physical: true,
                adhoc: false,
            },
        };
        let (lb, pb) = (ll.to_bytes().len(), pl.to_bytes().len());
        assert_eq!(
            pb,
            lb + 3 * 24,
            "physical adds 24 bytes/write: {lb} vs {pb}"
        );
    }

    #[test]
    fn command_records_are_much_smaller_than_logical_for_wide_writes() {
        let writes: Vec<WriteRecord> = (0..20).map(|i| write(i, i as i64)).collect();
        let ll = TxnLogRecord {
            ts: 1,
            payload: LogPayload::Writes {
                writes,
                physical: false,
                adhoc: false,
            },
        }
        .to_bytes()
        .len();
        let cl = TxnLogRecord {
            ts: 1,
            payload: LogPayload::Command {
                proc: ProcId::new(0),
                params: vec![Value::Int(1), Value::Int(2), Value::Int(3)].into(),
            },
        }
        .to_bytes()
        .len();
        assert!(ll > 8 * cl, "LL {ll}B should dwarf CL {cl}B");
    }

    #[test]
    fn epoch_extraction() {
        let r = TxnLogRecord {
            ts: pacman_common::clock::epoch_floor(9) | 123,
            payload: LogPayload::Command {
                proc: ProcId::new(0),
                params: vec![].into(),
            },
        };
        assert_eq!(r.epoch(), 9);
    }

    #[test]
    fn invalid_utf8_in_an_image_is_rejected_by_parse() {
        let bytes = TxnLogRecord {
            ts: 5,
            payload: LogPayload::Writes {
                writes: vec![write(1, 10)],
                physical: false,
                adhoc: false,
            },
        }
        .to_bytes();
        let at = bytes.windows(3).position(|w| w == b"pad").expect("string");
        let mut bad = bytes.clone();
        bad[at] = 0xFF;
        assert!(RecordView::parse(&mut Cursor::new(&bytes)).is_ok());
        let mut sunk = 0;
        assert!(RecordView::parse_with(&mut Cursor::new(&bad), |_| sunk += 1).is_err());
        assert_eq!(sunk, 0, "the bad image's write never reaches the sink");
        assert!(TxnLogRecord::decode(&mut Cursor::new(&bad)).is_err());
    }

    #[test]
    fn corrupt_tag_rejected() {
        let mut cur = Cursor::new(&[99u8, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert!(TxnLogRecord::decode(&mut cur).is_err());
    }

    #[test]
    fn unknown_tags_fail_view_and_owned_decode_alike() {
        // 6 was the retired proc-tagged record; 0 and 7 flank the live
        // tags 1..=5.
        let good = TxnLogRecord {
            ts: 5,
            payload: LogPayload::Writes {
                writes: vec![write(1, 10)],
                physical: false,
                adhoc: true,
            },
        }
        .to_bytes();
        for tag in [0u8, 6, 7] {
            let mut bytes = good.clone();
            bytes[0] = tag;
            let want = format!("bad record tag {tag}");
            let view = RecordView::parse(&mut Cursor::new(&bytes)).unwrap_err();
            let owned = TxnLogRecord::decode(&mut Cursor::new(&bytes)).unwrap_err();
            assert_eq!(view.to_string(), owned.to_string());
            assert!(view.to_string().contains(&want), "{view}");
        }
    }
}
