//! Fault attribution: charging kills, lost bytes, and SLO breaches to
//! the fault events that caused them by walking span causality.
//!
//! The chaos run emits a causal span stream (`obs::span`): every
//! `flow_kill` points at the `fault_inject` span that crashed its relay,
//! every `flow_retry` points at its kill, every `admit` points at the
//! arrival or retry it served, and every `slo_breach` points at the
//! completion (or deny-admission) that broke the objective. Attribution
//! is then a parent walk: follow a breach back through
//! completion → admission → retry → kill until a `fault_inject` root is
//! reached. A chain that ends at a plain arrival carried no fault, so
//! its breach is **unattributed** — explicitly counted, never silently
//! dropped. The same goes for chains broken by span-ring overwrites.
//!
//! The walk runs forward, as the run drains its span ring: the
//! [`Attributor`] remembers which span ids reach a fault, so each breach
//! is charged when it is absorbed and the run never holds its whole
//! stream. [`Attribution::attribute`] is the same walk over one batch.
//!
//! When a flow is killed more than once, the walk charges the breach to
//! the **proximate** (most recent) kill's fault: the last admission in
//! the chain is a retry of that kill by construction.
//!
//! The output is one [`FaultCharge`] row per scheduled fault event —
//! including zero-impact faults, so the table's shape is the schedule's
//! shape — plus one `unattributed` row, exported as
//! `results/attribution.tsv`.

use std::collections::HashMap;

use obs::{SpanKind, SpanRecord};

/// What one scheduled fault event is charged with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultCharge {
    /// Index of the fault in the schedule (the `fault_inject` span's
    /// subject).
    pub fault_idx: u64,
    /// Injection instant, simulated nanoseconds.
    pub t_ns: u64,
    /// Fault-kind name (stable, from the discriminant).
    pub kind: &'static str,
    /// Target index the fault names (relay slot, link salt, 0 global).
    pub target: u64,
    /// Flows this fault killed mid-transfer.
    pub killed: u64,
    /// Bytes those kills lost (the un-delivered remainder).
    pub bytes_lost: u64,
    /// SLO violations whose causal chain ends at this fault. Weighted
    /// like the ledger: a completion breaching both objectives counts
    /// twice, a denial once.
    pub breaches: u64,
}

/// The fault-kind name for a `fault_inject` span's discriminant operand.
#[must_use]
pub fn fault_kind_name(discriminant: u64) -> &'static str {
    match discriminant {
        0 => "relay_crash",
        1 => "relay_restore",
        2 => "link_degrade",
        3 => "link_clear",
        4 => "probe_blackhole_start",
        5 => "probe_blackhole_end",
        6 => "cache_poison",
        _ => "unknown",
    }
}

/// The number of ledger violations one `slo_breach` span represents:
/// denial masks (bit 2) count one, completion masks count one per
/// breached objective bit.
fn breach_weight(mask: u64) -> u64 {
    if mask & 4 != 0 {
        1
    } else {
        (mask & 3).count_ones().into()
    }
}

/// The completed attribution join over one run's span stream.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// One row per scheduled fault event, in schedule order.
    pub charges: Vec<FaultCharge>,
    /// Kills whose fault span was lost (span-ring overwrite).
    pub unattributed_killed: u64,
    /// Lost bytes belonging to unattributed kills.
    pub unattributed_bytes_lost: u64,
    /// Breaches whose causal chain reaches no fault: clean-path flows
    /// that missed their objective anyway, plus broken chains.
    pub unattributed_breaches: u64,
}

impl Attribution {
    /// Walks a whole span stream and builds the per-fault charge table:
    /// one [`Attributor`] absorbing the stream as a single batch.
    #[must_use]
    pub fn attribute(spans: &[SpanRecord]) -> Attribution {
        let mut a = Attributor::default();
        a.absorb(spans);
        a.finish()
    }

    /// Appends another run's charge table: its rows follow this one's
    /// and the unattributed counts add up. The sharded chaos fabric
    /// merges its regions' tables this way, in region order, so every
    /// region's faults keep their own rows.
    pub fn absorb(&mut self, other: &Attribution) {
        self.charges.extend_from_slice(&other.charges);
        self.unattributed_killed += other.unattributed_killed;
        self.unattributed_bytes_lost += other.unattributed_bytes_lost;
        self.unattributed_breaches += other.unattributed_breaches;
    }

    /// Total kills charged to fault events.
    #[must_use]
    pub fn attributed_killed(&self) -> u64 {
        self.charges.iter().map(|c| c.killed).sum()
    }

    /// Total breaches charged to fault events.
    #[must_use]
    pub fn attributed_breaches(&self) -> u64 {
        self.charges.iter().map(|c| c.breaches).sum()
    }

    /// Total lost bytes charged to fault events.
    #[must_use]
    pub fn attributed_bytes_lost(&self) -> u64 {
        self.charges.iter().map(|c| c.bytes_lost).sum()
    }

    /// The charge table as TSV: a `#` header, one row per fault event in
    /// schedule order, and a final `unattributed` row — so every kill
    /// and breach in the run appears in exactly one row.
    #[must_use]
    pub fn to_tsv(&self) -> String {
        let mut out = obs::Tsv::new();
        out.raw_line("# fault\tt_ns\tkind\ttarget\tkilled\tbytes_lost\tbreaches");
        for c in &self.charges {
            out.row([
                c.fault_idx.to_string(),
                c.t_ns.to_string(),
                c.kind.to_string(),
                c.target.to_string(),
                c.killed.to_string(),
                c.bytes_lost.to_string(),
                c.breaches.to_string(),
            ]);
        }
        out.row([
            "unattributed".to_string(),
            "0".to_string(),
            "-".to_string(),
            "0".to_string(),
            self.unattributed_killed.to_string(),
            self.unattributed_bytes_lost.to_string(),
            self.unattributed_breaches.to_string(),
        ]);
        out.finish()
    }
}

/// Incremental attribution over a span stream that arrives in drained
/// batches. It keeps only the fault spans and the ids of spans whose
/// causal chain reaches one (kill → retry → admit → completion), so a
/// breach is charged the moment it is absorbed and memory follows the
/// faults' reach, not the stream's length. Parents precede children in
/// every emitted stream, which is all the walk needs: a span whose
/// parent was never absorbed (or was overwritten in the ring) roots no
/// chain.
#[derive(Debug, Default)]
pub struct Attributor {
    /// Charge rows in stream order (sorted by fault index at finish).
    out: Attribution,
    /// `fault_inject` span id → its charge row.
    faults: HashMap<u64, usize>,
    /// Id of a walkable span (completion, admission, retry, kill) whose
    /// chain reaches a fault → that fault's charge row.
    reached: HashMap<u64, usize>,
}

impl Attributor {
    /// Charges one drained batch; batches must arrive in stream order.
    pub fn absorb(&mut self, spans: &[SpanRecord]) {
        for s in spans {
            match s.kind {
                SpanKind::FaultInject => {
                    self.faults.insert(s.id, self.out.charges.len());
                    self.out.charges.push(FaultCharge {
                        fault_idx: s.subject,
                        t_ns: s.t_ns,
                        kind: fault_kind_name(s.a),
                        target: s.b,
                        killed: 0,
                        bytes_lost: 0,
                        breaches: 0,
                    });
                }
                SpanKind::FlowKill => {
                    // A kill's parent IS the fault span.
                    match self.faults.get(&s.parent) {
                        Some(&row) => {
                            self.out.charges[row].killed += 1;
                            self.out.charges[row].bytes_lost += s.a;
                        }
                        None => {
                            self.out.unattributed_killed += 1;
                            self.out.unattributed_bytes_lost += s.a;
                        }
                    }
                    self.extend_chain(s);
                }
                SpanKind::FlowComplete | SpanKind::Admit | SpanKind::FlowRetry => {
                    self.extend_chain(s);
                }
                SpanKind::SloBreach => {
                    let weight = breach_weight(s.b);
                    match self.root(s.parent) {
                        Some(row) => self.out.charges[row].breaches += weight,
                        None => self.out.unattributed_breaches += weight,
                    }
                }
                // Faultless roots: chains through them reach no fault.
                SpanKind::FlowArrive | SpanKind::FleetScale => {}
            }
        }
    }

    /// The charge row of the fault that span `id` is or descends from.
    fn root(&self, id: u64) -> Option<usize> {
        self.faults
            .get(&id)
            .or_else(|| self.reached.get(&id))
            .copied()
    }

    /// Records that a walkable span continues its parent's chain.
    fn extend_chain(&mut self, s: &SpanRecord) {
        if let Some(row) = self.root(s.parent) {
            self.reached.insert(s.id, row);
        }
    }

    /// The charge table, one row per fault in schedule order.
    #[must_use]
    pub fn finish(self) -> Attribution {
        let mut out = self.out;
        out.charges.sort_by_key(|c| c.fault_idx);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, kind: SpanKind, subject: u64, a: u64, b: u64) -> SpanRecord {
        SpanRecord {
            t_ns: id * 10,
            id,
            parent,
            kind,
            subject,
            a,
            b,
        }
    }

    /// One fault kills a flow; the retry completes late, breaching both
    /// objectives. A clean flow breaches ratio on its own.
    fn sample_stream() -> Vec<SpanRecord> {
        vec![
            sp(1, 0, SpanKind::FaultInject, 3, 0, 2), // fault #3: relay_crash on relay 2
            sp(2, 0, SpanKind::FlowArrive, 100, 0, 5000),
            sp(3, 2, SpanKind::Admit, 100, 2, 3),
            sp(4, 1, SpanKind::FlowKill, 100, 4000, 2), // 4000 bytes lost
            sp(5, 4, SpanKind::FlowRetry, 100, 4000, 0),
            sp(6, 5, SpanKind::Admit, 100, 1, 0),
            sp(7, 6, SpanKind::FlowComplete, 100, 9999, 4000),
            sp(8, 7, SpanKind::SloBreach, 100, 0, 3), // both objectives
            sp(9, 0, SpanKind::FlowArrive, 200, 1, 800),
            sp(10, 9, SpanKind::Admit, 200, 1, 0),
            sp(11, 10, SpanKind::FlowComplete, 200, 50, 800),
            sp(12, 11, SpanKind::SloBreach, 200, 1, 1), // ratio only, no fault
        ]
    }

    #[test]
    fn kills_and_breaches_charge_the_causing_fault() {
        let a = Attribution::attribute(&sample_stream());
        assert_eq!(a.charges.len(), 1);
        let c = a.charges[0];
        assert_eq!(c.fault_idx, 3);
        assert_eq!(c.kind, "relay_crash");
        assert_eq!(c.target, 2);
        assert_eq!(c.killed, 1);
        assert_eq!(c.bytes_lost, 4000);
        assert_eq!(c.breaches, 2, "both-objective breach counts twice");
        assert_eq!(a.unattributed_breaches, 1, "clean-path ratio breach");
        assert_eq!(a.unattributed_killed, 0);
    }

    #[test]
    fn denial_breaches_walk_through_the_deny_admit() {
        let spans = vec![
            sp(1, 0, SpanKind::FaultInject, 0, 0, 1),
            sp(2, 0, SpanKind::FlowArrive, 7, 0, 100),
            sp(3, 2, SpanKind::Admit, 7, 2, 2),
            sp(4, 1, SpanKind::FlowKill, 7, 100, 1),
            sp(5, 4, SpanKind::FlowRetry, 7, 100, 0),
            sp(6, 5, SpanKind::Admit, 7, 0, 0),     // retry denied
            sp(7, 6, SpanKind::SloBreach, 7, 0, 4), // denial mask
        ];
        let a = Attribution::attribute(&spans);
        assert_eq!(a.charges[0].breaches, 1);
        assert_eq!(a.unattributed_breaches, 0);
    }

    #[test]
    fn orphaned_chains_land_in_the_unattributed_row() {
        // Ring-wrap truncation: the kill and fault spans were
        // overwritten; the retry's parent is missing.
        let spans = vec![
            sp(5, 4, SpanKind::FlowRetry, 9, 300, 0), // parent 4 missing
            sp(6, 5, SpanKind::Admit, 9, 1, 0),
            sp(7, 6, SpanKind::FlowComplete, 9, 1234, 300),
            sp(8, 7, SpanKind::SloBreach, 9, 0, 2),
            sp(9, 3, SpanKind::FlowKill, 11, 50, 0), // parent 3 missing
        ];
        let a = Attribution::attribute(&spans);
        assert!(a.charges.is_empty());
        assert_eq!(a.unattributed_breaches, 1);
        assert_eq!(a.unattributed_killed, 1);
        assert_eq!(a.unattributed_bytes_lost, 50);
    }

    /// The whole-stream walk the incremental attributor replaced: index
    /// every span by id, then walk each breach's parents to a fault.
    fn reference_walk(spans: &[SpanRecord]) -> Attribution {
        let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
        let root = |breach: &SpanRecord| -> Option<u64> {
            let mut at = by_id.get(&breach.parent)?;
            for _ in 0..16 {
                match at.kind {
                    SpanKind::FaultInject => return Some(at.subject),
                    SpanKind::FlowComplete
                    | SpanKind::Admit
                    | SpanKind::FlowRetry
                    | SpanKind::FlowKill => at = by_id.get(&at.parent)?,
                    _ => return None,
                }
            }
            None
        };
        let mut out = Attribution::default();
        for s in spans.iter().filter(|s| s.kind == SpanKind::FaultInject) {
            out.charges.push(FaultCharge {
                fault_idx: s.subject,
                t_ns: s.t_ns,
                kind: fault_kind_name(s.a),
                target: s.b,
                killed: 0,
                bytes_lost: 0,
                breaches: 0,
            });
        }
        out.charges.sort_by_key(|c| c.fault_idx);
        let row = |idx: u64| {
            out.charges
                .iter()
                .position(|c| c.fault_idx == idx)
                .expect("a fault row per schedule index")
        };
        let mut charges = out.charges.clone();
        for s in spans {
            match s.kind {
                SpanKind::FlowKill => match by_id
                    .get(&s.parent)
                    .filter(|p| p.kind == SpanKind::FaultInject)
                {
                    Some(f) => {
                        charges[row(f.subject)].killed += 1;
                        charges[row(f.subject)].bytes_lost += s.a;
                    }
                    None => {
                        out.unattributed_killed += 1;
                        out.unattributed_bytes_lost += s.a;
                    }
                },
                SpanKind::SloBreach => match root(s) {
                    Some(idx) => charges[row(idx)].breaches += breach_weight(s.b),
                    None => out.unattributed_breaches += breach_weight(s.b),
                },
                _ => {}
            }
        }
        out.charges = charges;
        out
    }

    /// Absorbs `spans` in batches cut at `cuts` (sorted offsets).
    fn in_batches(spans: &[SpanRecord], cuts: &[usize]) -> Attribution {
        let mut a = Attributor::default();
        let mut from = 0;
        for &to in cuts.iter().chain(std::iter::once(&spans.len())) {
            a.absorb(&spans[from..to]);
            from = to;
        }
        a.finish()
    }

    #[test]
    fn batch_boundaries_do_not_move_a_charge() {
        let spans = sample_stream();
        let whole = Attribution::attribute(&spans).to_tsv();
        assert_eq!(whole, reference_walk(&spans).to_tsv());
        for cut in 0..=spans.len() {
            assert_eq!(in_batches(&spans, &[cut]).to_tsv(), whole, "cut at {cut}");
        }
        let singles: Vec<usize> = (1..spans.len()).collect();
        assert_eq!(in_batches(&spans, &singles).to_tsv(), whole);
    }

    /// Real chaos streams — the smoke day at every golden seed — split
    /// at random batch points attribute exactly like the whole-stream
    /// walk.
    #[test]
    fn smoke_streams_split_anywhere_attribute_like_the_whole_walk() {
        let cfg = crate::chaos::ChaosConfig::smoke();
        for seed in [7u64, 11, 13] {
            let r = crate::chaos::tests::recorded(|| crate::chaos::chaos(&cfg, seed));
            assert_eq!(r.span_dropped, 0);
            let whole = reference_walk(&r.spans).to_tsv();
            assert_eq!(r.attribution.to_tsv(), whole, "seed {seed}: streamed run");
            let mut rng = simcore::SimRng::seed_from(seed);
            for round in 0..8 {
                let mut cuts: Vec<usize> = (0..1 + rng.index(40))
                    .map(|_| rng.index(r.spans.len() + 1))
                    .collect();
                cuts.sort_unstable();
                assert_eq!(
                    in_batches(&r.spans, &cuts).to_tsv(),
                    whole,
                    "seed {seed} round {round}: cuts {cuts:?}"
                );
            }
        }
    }

    /// The full paper chaos day drops no span, so its retained stream is
    /// complete, and the table built as the ring drained equals the walk
    /// over that whole stream.
    #[test]
    fn paper_day_attributes_the_same_streamed_as_retained() {
        let r = crate::chaos::tests::recorded(|| {
            crate::chaos::chaos(&crate::chaos::ChaosConfig::paper(), 7)
        });
        assert_eq!(r.span_dropped, 0, "the ring wrapped");
        assert_eq!(r.spans.len() as u64, r.span_count);
        assert_eq!(
            r.attribution.to_tsv(),
            Attribution::attribute(&r.spans).to_tsv()
        );
        assert_eq!(r.attribution.attributed_killed(), r.killed);
    }

    #[test]
    fn absorbing_tables_concatenates_rows_and_sums_the_rest() {
        let mut a = Attribution::attribute(&sample_stream());
        let b = a.clone();
        a.absorb(&b);
        assert_eq!(a.charges.len(), 2);
        assert_eq!(a.charges[0], a.charges[1]);
        assert_eq!(a.unattributed_breaches, 2);
        assert_eq!(a.attributed_killed(), 2);
    }

    #[test]
    fn zero_impact_faults_still_get_rows() {
        let spans = vec![
            sp(1, 0, SpanKind::FaultInject, 0, 6, 0),
            sp(2, 0, SpanKind::FaultInject, 1, 4, 0),
        ];
        let a = Attribution::attribute(&spans);
        assert_eq!(a.charges.len(), 2);
        assert!(a.charges.iter().all(|c| c.killed == 0 && c.breaches == 0));
        let tsv = a.to_tsv();
        assert!(tsv.contains("0\t10\tcache_poison\t0\t0\t0\t0"));
        assert!(tsv.ends_with("unattributed\t0\t-\t0\t0\t0\t0\n"));
    }
}
