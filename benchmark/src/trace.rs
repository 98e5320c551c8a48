//! In-memory spans around the benchmark's calls into each layer.
//!
//! The spans are recorded from the benchmark's own files (the program under
//! test is not instrumented): one span per call into a layer's public
//! function — name, start, end, the span that caused it, and the
//! transaction or repetition it belongs to. They stay in memory during the
//! run; the last repetition's spans are written out when the run ends.

use std::io::Write;
use std::time::Instant;

/// The layer call a span wraps. The discriminant is the `name` field of
/// the on-disk record; [`Name::ALL`] is the name table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum Name {
    /// One repetition (root).
    Rep,
    /// `Workload::load` + `Durability::start` + initial checkpoint.
    Setup,
    /// `pacman_wal::run_checkpoint` inside set-up.
    InitialCheckpoint,
    /// The commit window (first submit → last acknowledgement).
    CommitWindow,
    /// `Workload::next_txn`.
    Gen,
    /// `run_procedure_with_epoch`, all attempts of one transaction.
    Exec,
    /// `log_commit_buffered` + `flush_before_ack` (+ epoch entry).
    Stage,
    /// `Durability::crash`.
    Crash,
    /// `Database::fingerprint`.
    Fingerprint,
    /// `pacman_core::recovery::recover`.
    Recover,
    /// `GlobalGraph::analyze`, standalone.
    StaticAnalysis,
    /// `SimDisk::read` of every log file, standalone.
    Reload,
    /// `merged_view_from_buffers` + iterating every `RecordView`.
    Decode,
}

impl Name {
    pub const ALL: [(Name, &'static str); 13] = [
        (Name::Rep, "bench.rep"),
        (Name::Setup, "bench.setup"),
        (Name::InitialCheckpoint, "wal.run_checkpoint"),
        (Name::CommitWindow, "bench.commit_window"),
        (Name::Gen, "workloads.next_txn"),
        (Name::Exec, "engine.run_procedure_with_epoch"),
        (Name::Stage, "wal.stage"),
        (Name::Crash, "wal.crash"),
        (Name::Fingerprint, "common.fingerprint"),
        (Name::Recover, "core.recovery.recover"),
        (Name::StaticAnalysis, "core.static_analysis.analyze"),
        (Name::Reload, "storage.read"),
        (Name::Decode, "wal.decode"),
    ];
}

/// No parent (a root span).
pub const NO_PARENT: u32 = u32::MAX;

/// One span. Times are nanoseconds since the trace was created.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Transaction index inside the commit window, thread count for
    /// `Recover`, repetition for the rest.
    pub id: u32,
    pub name: Name,
}

/// The span buffer of one process.
pub struct Trace {
    base: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            base: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the trace was created.
    #[inline]
    pub fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Drop the previous repetition's spans, keeping the capacity, and make
    /// room for `n` more so the commit window never reallocates.
    pub fn reset(&mut self, n: usize) {
        self.spans.clear();
        self.spans.reserve(n);
    }

    /// Record a finished span and return its index.
    #[inline]
    pub fn push(&mut self, name: Name, parent: u32, id: u32, start_ns: u64, end_ns: u64) -> u32 {
        self.spans.push(Span {
            start_ns,
            end_ns,
            parent,
            id,
            name,
        });
        (self.spans.len() - 1) as u32
    }

    /// Open a span whose end is not known yet (close it with [`Trace::close`]).
    pub fn open(&mut self, name: Name, parent: u32, id: u32) -> u32 {
        let now = self.now();
        self.push(name, parent, id, now, now)
    }

    /// Close a span opened with [`Trace::open`]; returns its duration.
    pub fn close(&mut self, span: u32) -> u64 {
        let now = self.now();
        let s = &mut self.spans[span as usize];
        s.end_ns = now;
        now - s.start_ns
    }

    /// Run `f` inside a span.
    pub fn scoped<T>(&mut self, name: Name, parent: u32, id: u32, f: impl FnOnce() -> T) -> T {
        let span = self.open(name, parent, id);
        let out = f();
        self.close(span);
        out
    }

    /// Total nanoseconds of the direct children of `parent` named `name`.
    pub fn children_ns(&self, parent: u32, name: Name) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == parent && s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// A span's self time: its duration minus what its direct children
    /// cover.
    pub fn self_ns(&self, span: u32) -> u64 {
        let s = &self.spans[span as usize];
        let covered: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == span)
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(covered)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as a 32-byte little-endian record: `start_ns: u64,
    /// end_ns: u64, parent: u32, id: u32, name: u16`, six zero bytes.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let mut rec = [0u8; 32];
            rec[0..8].copy_from_slice(&s.start_ns.to_le_bytes());
            rec[8..16].copy_from_slice(&s.end_ns.to_le_bytes());
            rec[16..20].copy_from_slice(&s.parent.to_le_bytes());
            rec[20..24].copy_from_slice(&s.id.to_le_bytes());
            rec[24..26].copy_from_slice(&(s.name as u16).to_le_bytes());
            out.write_all(&rec)?;
        }
        out.flush()
    }
}
