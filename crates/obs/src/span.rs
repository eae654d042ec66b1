//! Causal span tracing: parent/child event records with stable IDs.
//!
//! Where [`crate::trace`] records what happened to one packet-level flow,
//! spans record **why** things happened across the whole run: every span
//! carries the id of the span that caused it, so a completed (or killed)
//! flow can be walked back through its admission decision to the arrival
//! or fault event at the root. The chaos experiment uses exactly this
//! walk to charge kills and SLO breaches to fault events
//! (`experiments::attribution`).
//!
//! # Determinism contract
//!
//! Span ids are a per-thread monotonic counter starting at 1 (0 means
//! "no parent" / "recording off"). Timestamps are simulated nanoseconds.
//! Parallel sweeps capture spans per work unit via the same
//! `begin_unit`/`end_unit`/`replay` shape as the trace ring; on absorb,
//! a unit's ids are **re-based** onto the absorbing thread's counter so
//! the merged stream is byte-identical to the serial run at any
//! `--threads N`.
//!
//! # Enablement
//!
//! Recording is a separate thread-local flag ([`set_span_recording`]),
//! deliberately independent of [`crate::enabled`]: experiments emit
//! spans (and attribute faults) even in plain runs without `--metrics`.
//! The disabled path is one `Cell<bool>` read.

use std::cell::{Cell, RefCell};
use std::fmt;

/// Ring capacity. A chaos smoke run emits a few hundred thousand spans;
/// the ring keeps the most recent window and counts what it overwrote.
/// Experiments drain at every epoch boundary and whenever the ring is
/// more than half full ([`buffered_spans`]), so it never wraps.
pub const SPAN_CAPACITY: usize = 32768;

/// What kind of event a span marks. Operand meanings (`a`, `b`) are
/// kind-specific and documented per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A flow entered the system (`subject` = flow id, `a` = tenant,
    /// `b` = requested bytes). Root span: parent 0.
    FlowArrive,
    /// Admission + broker path decision (`subject` = flow id, `a` =
    /// decision: 0 deny / 1 direct / 2 overlay, `b` = relay index + 1,
    /// or 0 for deny/direct). Parent: the arrival or retry span.
    Admit,
    /// The flow finished (`subject` = flow id, `a` = latency in ns,
    /// `b` = bytes delivered). Parent: the admit span.
    FlowComplete,
    /// A fault killed the flow mid-transfer (`subject` = flow id, `a` =
    /// bytes lost, `b` = relay index). Parent: the fault span.
    FlowKill,
    /// A killed flow re-entered after detection (`subject` = flow id,
    /// `a` = bytes left to move). Parent: the kill span.
    FlowRetry,
    /// An SLO objective was violated (`subject` = flow id, `a` = tenant,
    /// `b` = breach mask: 1 ratio / 2 latency / 3 both / 4 denial).
    /// Parent: the completion span (or the deny admit span for `b`=4).
    SloBreach,
    /// A fault-schedule event fired (`subject` = schedule index, `a` =
    /// `FaultKind` discriminant, `b` = target index). Root span.
    FaultInject,
    /// The autoscaler changed the fleet (`subject` = epoch, `a` =
    /// scale-ups, `b` = drains this epoch). Root span.
    FleetScale,
}

impl SpanKind {
    /// The stable on-disk name (the `kind` column of span TSVs).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::FlowArrive => "flow_arrive",
            SpanKind::Admit => "admit",
            SpanKind::FlowComplete => "flow_complete",
            SpanKind::FlowKill => "flow_kill",
            SpanKind::FlowRetry => "flow_retry",
            SpanKind::SloBreach => "slo_breach",
            SpanKind::FaultInject => "fault_inject",
            SpanKind::FleetScale => "fleet_scale",
        }
    }

    /// Parses the on-disk name back into a kind.
    #[must_use]
    pub fn from_name(s: &str) -> Option<SpanKind> {
        Some(match s {
            "flow_arrive" => SpanKind::FlowArrive,
            "admit" => SpanKind::Admit,
            "flow_complete" => SpanKind::FlowComplete,
            "flow_kill" => SpanKind::FlowKill,
            "flow_retry" => SpanKind::FlowRetry,
            "slo_breach" => SpanKind::SloBreach,
            "fault_inject" => SpanKind::FaultInject,
            "fleet_scale" => SpanKind::FleetScale,
            _ => return None,
        })
    }
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One causal event record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Simulated time in nanoseconds.
    pub t_ns: u64,
    /// This span's id (monotonic from 1 within a run).
    pub id: u64,
    /// The id of the span that caused this one; 0 for roots.
    pub parent: u64,
    /// Event kind.
    pub kind: SpanKind,
    /// What the span is about (flow id, schedule index, or epoch).
    pub subject: u64,
    /// First kind-specific operand (see [`SpanKind`]).
    pub a: u64,
    /// Second kind-specific operand.
    pub b: u64,
}

impl SpanRecord {
    /// Renders as one TSV row: `t_ns  id  parent  kind  subject  a  b`.
    #[must_use]
    pub fn to_tsv(&self) -> String {
        crate::emit::tsv_row([
            self.t_ns.to_string(),
            self.id.to_string(),
            self.parent.to_string(),
            self.kind.to_string(),
            self.subject.to_string(),
            self.a.to_string(),
            self.b.to_string(),
        ])
    }

    /// Parses one TSV row written by [`SpanRecord::to_tsv`].
    #[must_use]
    pub fn from_tsv(line: &str) -> Option<SpanRecord> {
        let mut f = line.split('\t');
        let rec = SpanRecord {
            t_ns: f.next()?.parse().ok()?,
            id: f.next()?.parse().ok()?,
            parent: f.next()?.parse().ok()?,
            kind: SpanKind::from_name(f.next()?)?,
            subject: f.next()?.parse().ok()?,
            a: f.next()?.parse().ok()?,
            b: f.next()?.parse().ok()?,
        };
        if f.next().is_some() {
            return None;
        }
        Some(rec)
    }
}

struct SpanRing {
    buf: Vec<SpanRecord>,
    head: usize,
    dropped: u64,
    next_id: u64,
}

impl SpanRing {
    const fn new() -> SpanRing {
        SpanRing {
            buf: Vec::new(),
            head: 0,
            dropped: 0,
            next_id: 1,
        }
    }

    fn push(&mut self, rec: SpanRecord) {
        if self.buf.len() < SPAN_CAPACITY {
            self.buf.push(rec);
        } else {
            let head = self.head;
            self.buf[head] = rec;
            self.head = (head + 1) % SPAN_CAPACITY;
            self.dropped += 1;
        }
    }
}

thread_local! {
    static RECORDING: Cell<bool> = const { Cell::new(false) };
    static RING: RefCell<SpanRing> = const { RefCell::new(SpanRing::new()) };
}

/// Turns span recording on or off for this thread. Independent of
/// [`crate::enabled`]; buffered spans are kept either way.
pub fn set_span_recording(on: bool) {
    RECORDING.with(|r| r.set(on));
}

/// Whether span recording is on for this thread.
#[inline]
#[must_use]
pub fn span_recording() -> bool {
    RECORDING.with(Cell::get)
}

/// Clears the ring and restarts ids at 1. Recording stays as set.
pub fn reset_spans() {
    RING.with(|r| {
        let mut r = r.borrow_mut();
        r.buf.clear();
        r.head = 0;
        r.dropped = 0;
        r.next_id = 1;
    });
}

/// Emits one span and returns its assigned id (0 when recording is off —
/// safe to pass as a parent: it reads as "no parent").
#[inline]
pub fn span(t_ns: u64, parent: u64, kind: SpanKind, subject: u64, a: u64, b: u64) -> u64 {
    if !span_recording() {
        return 0;
    }
    RING.with(|r| {
        let mut r = r.borrow_mut();
        let id = r.next_id;
        r.next_id += 1;
        r.push(SpanRecord {
            t_ns,
            id,
            parent,
            kind,
            subject,
            a,
            b,
        });
        id
    })
}

/// How many spans the ring holds since the last drain (at most
/// [`SPAN_CAPACITY`]). A long run drains before this reaches the
/// capacity so the ring never overwrites a record.
#[inline]
#[must_use]
pub fn buffered_spans() -> usize {
    RING.with(|r| r.borrow().buf.len())
}

/// Takes all buffered spans in emission order, leaving the ring empty.
/// Ids keep increasing across drains within a run. Returns the records
/// and how many older ones the ring overwrote since the last drain.
pub fn drain_spans() -> (Vec<SpanRecord>, u64) {
    RING.with(|r| {
        let mut r = r.borrow_mut();
        let head = r.head;
        let mut out = r.buf.split_off(0);
        let pivot = head % out.len().max(1);
        out.rotate_left(pivot);
        let dropped = r.dropped;
        r.head = 0;
        r.dropped = 0;
        (out, dropped)
    })
}

/// Saved ring state from [`begin_unit`]; restored by [`end_unit`].
pub(crate) struct SavedSpans {
    buf: Vec<SpanRecord>,
    head: usize,
    dropped: u64,
    next_id: u64,
}

/// Empties this thread's span ring and restarts ids at 1 so the unit
/// emits a self-contained stream; returns the previous state.
pub(crate) fn begin_unit() -> SavedSpans {
    RING.with(|r| {
        let mut r = r.borrow_mut();
        SavedSpans {
            buf: std::mem::take(&mut r.buf),
            head: std::mem::replace(&mut r.head, 0),
            dropped: std::mem::replace(&mut r.dropped, 0),
            next_id: std::mem::replace(&mut r.next_id, 1),
        }
    })
}

/// Restores the state saved by [`begin_unit`] and returns what the unit
/// emitted: its spans in order, its overwrite count, and how many ids it
/// consumed (including overwritten spans).
pub(crate) fn end_unit(saved: SavedSpans) -> (Vec<SpanRecord>, u64, u64) {
    RING.with(|r| {
        let mut r = r.borrow_mut();
        let mut buf = std::mem::replace(&mut r.buf, saved.buf);
        let head = std::mem::replace(&mut r.head, saved.head);
        let dropped = std::mem::replace(&mut r.dropped, saved.dropped);
        let ids_used = std::mem::replace(&mut r.next_id, saved.next_id) - 1;
        if !buf.is_empty() {
            let pivot = head % buf.len();
            buf.rotate_left(pivot);
        }
        (buf, dropped, ids_used)
    })
}

/// Replays a unit's spans into this thread's ring, re-basing the unit's
/// ids (which start at 1) onto this thread's counter so the merged
/// stream matches what a serial run would have emitted. `ids_used` must
/// be the unit's total id consumption (spans emitted, including any the
/// unit's own ring overwrote) so later units re-base correctly.
pub(crate) fn replay(records: &[SpanRecord], dropped: u64, ids_used: u64) {
    RING.with(|r| {
        let mut r = r.borrow_mut();
        let offset = r.next_id - 1;
        r.dropped += dropped;
        for &rec in records {
            let mut rec = rec;
            rec.id += offset;
            if rec.parent > 0 {
                rec.parent += offset;
            }
            r.push(rec);
        }
        r.next_id += ids_used;
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_work(base_t: u64) {
        let root = span(base_t, 0, SpanKind::FlowArrive, 9, 0, 1000);
        let admit = span(base_t + 1, root, SpanKind::Admit, 9, 2, 3);
        span(base_t + 2, admit, SpanKind::FlowComplete, 9, 2, 1000);
    }

    #[test]
    fn ids_are_monotonic_and_parents_link() {
        let _guard = crate::test_guard();
        reset_spans();
        set_span_recording(true);
        unit_work(100);
        let (recs, dropped) = drain_spans();
        set_span_recording(false);
        assert_eq!(dropped, 0);
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].id, 1);
        assert_eq!(recs[0].parent, 0);
        assert_eq!(recs[1].parent, recs[0].id);
        assert_eq!(recs[2].parent, recs[1].id);
    }

    #[test]
    fn recording_off_is_silent_and_returns_zero() {
        let _guard = crate::test_guard();
        reset_spans();
        set_span_recording(false);
        assert_eq!(span(1, 0, SpanKind::FlowArrive, 1, 0, 0), 0);
        assert!(drain_spans().0.is_empty());
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let _guard = crate::test_guard();
        reset_spans();
        set_span_recording(true);
        let n = SPAN_CAPACITY as u64 + 16;
        for i in 0..n {
            span(i, 0, SpanKind::FlowArrive, i, 0, 0);
        }
        let (recs, dropped) = drain_spans();
        set_span_recording(false);
        assert_eq!(recs.len(), SPAN_CAPACITY);
        assert_eq!(dropped, 16);
        assert_eq!(recs[0].t_ns, 16, "oldest surviving span");
        assert_eq!(recs.last().unwrap().id, n);
        assert!(recs.windows(2).all(|w| w[0].id < w[1].id));
    }

    #[test]
    fn buffered_count_follows_emits_and_drains() {
        let _guard = crate::test_guard();
        reset_spans();
        set_span_recording(true);
        assert_eq!(buffered_spans(), 0);
        span(1, 0, SpanKind::FlowArrive, 1, 0, 0);
        span(2, 0, SpanKind::FlowArrive, 2, 0, 0);
        assert_eq!(buffered_spans(), 2);
        drain_spans();
        set_span_recording(false);
        assert_eq!(buffered_spans(), 0);
    }

    #[test]
    fn ids_keep_increasing_across_drains() {
        let _guard = crate::test_guard();
        reset_spans();
        set_span_recording(true);
        span(1, 0, SpanKind::FlowArrive, 1, 0, 0);
        let (first, _) = drain_spans();
        span(2, 0, SpanKind::FlowArrive, 2, 0, 0);
        let (second, _) = drain_spans();
        set_span_recording(false);
        assert_eq!(first[0].id, 1);
        assert_eq!(second[0].id, 2);
    }

    #[test]
    fn captured_units_rebase_to_the_serial_stream() {
        let _guard = crate::test_guard();
        // Serial reference.
        reset_spans();
        set_span_recording(true);
        for u in 0..3 {
            unit_work(u * 10);
        }
        let (serial, _) = drain_spans();
        // Captured: each unit in its own shard, absorbed in order.
        reset_spans();
        let shards: Vec<_> = (0..3)
            .map(|u| {
                let saved = begin_unit();
                unit_work(u * 10);
                end_unit(saved)
            })
            .collect();
        for (recs, dropped, ids) in &shards {
            replay(recs, *dropped, *ids);
        }
        let (merged, _) = drain_spans();
        set_span_recording(false);
        assert_eq!(serial, merged, "unit re-basing diverged from serial");
    }

    #[test]
    fn tsv_roundtrip() {
        let rec = SpanRecord {
            t_ns: 42,
            id: 7,
            parent: 3,
            kind: SpanKind::FlowKill,
            subject: 9,
            a: 512,
            b: 2,
        };
        let row = rec.to_tsv();
        assert_eq!(row, "42\t7\t3\tflow_kill\t9\t512\t2");
        assert_eq!(SpanRecord::from_tsv(&row), Some(rec));
        assert_eq!(SpanRecord::from_tsv("not a span"), None);
    }
}
