//! System-wide invariant checker for fault-injected runs.
//!
//! [`Invariants`] is a passive observer: the experiment reports every
//! relevant transition (flow lifecycle, relay crashes/restores, fleet
//! state changes) and the checker records any violation of the
//! properties the system must keep *under arbitrary fault schedules*:
//!
//! 1. **No double billing** — a flow reaches a terminal state
//!    (completed or denied) exactly once.
//! 2. **No flows on unavailable relays** — a flow is never admitted to
//!    a relay that is draining, crashed, or released; in particular the
//!    broker never routes via a crashed relay once its probe is stale.
//! 3. **Conservation of bytes** — across kills and retries, the bytes
//!    delivered by every segment of a flow sum exactly to the bytes
//!    requested, NAT and relay hops included.
//! 4. **Bounded recovery** — every crashed relay is restored within the
//!    schedule's MTTR cap, and no crash is left open at the end.
//!
//! Violations accumulate rather than panic, so one run can report all
//! of them; [`Invariants::assert_clean`] converts them into a panic for
//! use in tests (including `#[should_panic]` negative tests that prove
//! the checker actually fires). Each recorded [`Violation`] is stamped
//! with the sim-time and causal span id that were current when it was
//! detected (see [`Invariants::context`]), so a minimized fuzzer repro
//! is self-describing: the report names *when* the invariant broke and
//! *which* span to look up in the causal stream.
//!
//! The checker holds only live flows: a flow leaves its map the moment
//! it turns terminal, and its id moves to a compact append-only list
//! that is read only when a report names a flow the map does not hold.
//! Memory therefore follows the flows in flight, not the length of the
//! run, and every verdict is the one a never-forgetting map would give.
//!
//! The checker also counts how often each of its check sites fired
//! ([`Invariants::site_counts`]); the fuzzer's coverage map keys on
//! these counts alongside the broker and fleet counters.

use std::collections::HashMap;

use control::RelayState;
use simcore::{SimDuration, SimTime};

/// One detected violation of a system invariant (the *kind*; see
/// [`Violation`] for the stamped record).
#[derive(Debug, Clone, PartialEq)]
pub enum InvariantViolation {
    /// A flow reached a terminal state twice.
    DoubleBilling {
        /// The flow id.
        flow: u64,
    },
    /// A flow was admitted to a relay that cannot accept work.
    FlowOnUnavailableRelay {
        /// The flow id.
        flow: u64,
        /// The relay slot.
        relay: usize,
        /// The slot's state at admission time.
        state: RelayState,
    },
    /// A flow's delivered segments do not sum to its requested bytes.
    BytesNotConserved {
        /// The flow id.
        flow: u64,
        /// Bytes the flow requested.
        expected: u64,
        /// Bytes accounted across all segments.
        accounted: u64,
    },
    /// A relay stayed down longer than the schedule's MTTR cap.
    RecoveryExceededMttr {
        /// The relay slot.
        relay: usize,
        /// How long it was down.
        down_for: SimDuration,
        /// The bound it had to meet.
        cap: SimDuration,
    },
    /// A relay crashed and was never restored by the end of the run.
    CrashNeverRecovered {
        /// The relay slot.
        relay: usize,
    },
    /// A lifecycle report arrived for a flow the checker never saw
    /// requested — the experiment's bookkeeping itself is broken.
    UnknownFlow {
        /// The flow id.
        flow: u64,
    },
}

impl InvariantViolation {
    /// Stable kebab-case tag, used by the fuzz corpus format's `expect`
    /// header and the soak/fuzz finding file names.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            InvariantViolation::DoubleBilling { .. } => "double-billing",
            InvariantViolation::FlowOnUnavailableRelay { .. } => "flow-on-unavailable-relay",
            InvariantViolation::BytesNotConserved { .. } => "bytes-not-conserved",
            InvariantViolation::RecoveryExceededMttr { .. } => "recovery-exceeded-mttr",
            InvariantViolation::CrashNeverRecovered { .. } => "crash-never-recovered",
            InvariantViolation::UnknownFlow { .. } => "unknown-flow",
        }
    }
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvariantViolation::DoubleBilling { flow } => {
                write!(f, "flow {flow} was billed to a terminal state twice")
            }
            InvariantViolation::FlowOnUnavailableRelay { flow, relay, state } => {
                write!(
                    f,
                    "flow {flow} admitted to relay {relay} in state {state:?}"
                )
            }
            InvariantViolation::BytesNotConserved {
                flow,
                expected,
                accounted,
            } => write!(
                f,
                "flow {flow} requested {expected} B but segments account for {accounted} B"
            ),
            InvariantViolation::RecoveryExceededMttr {
                relay,
                down_for,
                cap,
            } => write!(
                f,
                "relay {relay} down for {down_for:?}, past the {cap:?} MTTR cap"
            ),
            InvariantViolation::CrashNeverRecovered { relay } => {
                write!(f, "relay {relay} crashed and never recovered")
            }
            InvariantViolation::UnknownFlow { flow } => {
                write!(f, "lifecycle report for unknown flow {flow}")
            }
        }
    }
}

/// A recorded violation, stamped with the sim-time and causal span id
/// that were current when the checker detected it (the experiment sets
/// them via [`Invariants::context`]). The stamp makes a minimized repro
/// self-describing: `at` names the failing instant on the simulation
/// timeline and `span` the causal record to chase in the span stream
/// (0 when no span was in scope).
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// What broke.
    pub kind: InvariantViolation,
    /// Sim-time at detection.
    pub at: SimTime,
    /// The causal span id in scope at detection (0 = none).
    pub span: u64,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [t=+{:.3}s span {}]",
            self.kind,
            self.at.as_secs_f64(),
            self.span
        )
    }
}

/// Names of the checker's call sites, in [`Invariants::site_counts`]
/// order. Published as `faults.check.<name>` counters so the fuzzer's
/// coverage map can key on which checks a schedule actually reached.
pub const CHECK_SITES: [&str; 10] = [
    "flow_requested",
    "admit_direct",
    "admit_relay",
    "admit_chain",
    "flow_killed",
    "flow_completed",
    "flow_denied",
    "relay_crashed",
    "relay_restored",
    "finish",
];

const SITE_FLOW_REQUESTED: usize = 0;
const SITE_ADMIT_DIRECT: usize = 1;
const SITE_ADMIT_RELAY: usize = 2;
const SITE_ADMIT_CHAIN: usize = 3;
const SITE_FLOW_KILLED: usize = 4;
const SITE_FLOW_COMPLETED: usize = 5;
const SITE_FLOW_DENIED: usize = 6;
const SITE_RELAY_CRASHED: usize = 7;
const SITE_RELAY_RESTORED: usize = 8;
const SITE_FINISH: usize = 9;

/// A live (requested, not yet terminal) flow's byte ledger.
#[derive(Debug, Clone, Copy)]
struct FlowTrack {
    requested: u64,
    accounted: u64,
}

/// Accumulating invariant checker. See the module docs for the
/// properties it enforces.
#[derive(Debug)]
pub struct Invariants {
    relay_state: Vec<RelayState>,
    down_since: Vec<Option<SimTime>>,
    mttr_cap: SimDuration,
    /// Live flows only; a terminal flow moves to `retired`.
    flows: HashMap<u64, FlowTrack>,
    /// Ids of flows that reached a terminal state, in retirement order.
    /// Consulted only when a report misses `flows`, which a correct run
    /// never does, so the linear scan stays off the hot path.
    retired: Vec<u64>,
    violations: Vec<Violation>,
    ctx_at: SimTime,
    ctx_span: u64,
    sites: [u64; CHECK_SITES.len()],
}

impl Invariants {
    /// Creates a checker for `relays` fleet slots and the schedule's
    /// recovery bound. All slots start [`RelayState::Released`],
    /// mirroring a fresh [`control::Fleet`].
    #[must_use]
    pub fn new(relays: usize, mttr_cap: SimDuration) -> Invariants {
        Invariants {
            relay_state: vec![RelayState::Released; relays],
            down_since: vec![None; relays],
            mttr_cap,
            flows: HashMap::new(),
            retired: Vec::new(),
            violations: Vec::new(),
            ctx_at: SimTime::ZERO,
            ctx_span: 0,
            sites: [0; CHECK_SITES.len()],
        }
    }

    /// Sets the causal context every subsequently recorded violation is
    /// stamped with: the current sim-time and the span id of the event
    /// being processed (0 when none). The experiment calls this once
    /// per event, not per check, so the checker's report methods keep
    /// their signatures.
    pub fn context(&mut self, at: SimTime, span: u64) {
        self.ctx_at = at;
        self.ctx_span = span;
    }

    fn report(&mut self, kind: InvariantViolation) {
        self.violations.push(Violation {
            kind,
            at: self.ctx_at,
            span: self.ctx_span,
        });
    }

    /// Mirrors a fleet state transition (rent, drain, release) so
    /// admission checks see what the fleet sees. Crashes and restores
    /// go through [`Invariants::relay_crashed`] / [`Invariants::relay_restored`]
    /// instead, which also track the recovery bound.
    pub fn set_relay_state(&mut self, relay: usize, state: RelayState) {
        self.relay_state[relay] = state;
    }

    /// Whether `flow` reached a terminal state earlier (and was not
    /// requested again since: a live entry shadows a retired id).
    fn is_retired(&self, flow: u64) -> bool {
        self.retired.contains(&flow)
    }

    /// Moves a flow that just turned terminal out of the live map.
    fn retire(&mut self, flow: u64) -> Option<FlowTrack> {
        let t = self.flows.remove(&flow)?;
        self.retired.push(flow);
        Some(t)
    }

    /// Flows requested and not yet terminal: the checker's live map.
    /// A loop that reports every lifecycle step holds exactly this many
    /// flows in flight (admitted or awaiting a retry).
    #[must_use]
    pub fn live_flows(&self) -> usize {
        self.flows.len()
    }

    /// A new flow asked for `bytes` bytes of transfer. Requesting an id
    /// again starts a fresh ledger for it, terminal or not.
    pub fn flow_requested(&mut self, flow: u64, bytes: u64) {
        self.sites[SITE_FLOW_REQUESTED] += 1;
        self.flows.insert(
            flow,
            FlowTrack {
                requested: bytes,
                accounted: 0,
            },
        );
    }

    /// The flow was admitted; `relay` is `Some(slot)` for overlay
    /// routing, `None` for the direct path. Admission to anything but
    /// an `Active` slot is a violation — drained, crashed, and released
    /// slots must receive no new flows. A terminal flow's admission is
    /// still checked against the relay but changes nothing else.
    pub fn flow_admitted(&mut self, flow: u64, relay: Option<usize>) {
        self.sites[if relay.is_some() {
            SITE_ADMIT_RELAY
        } else {
            SITE_ADMIT_DIRECT
        }] += 1;
        if !self.flows.contains_key(&flow) && !self.is_retired(flow) {
            self.report(InvariantViolation::UnknownFlow { flow });
            return;
        }
        if let Some(r) = relay {
            let state = self.relay_state[r];
            if state != RelayState::Active {
                self.report(InvariantViolation::FlowOnUnavailableRelay {
                    flow,
                    relay: r,
                    state,
                });
            }
        }
    }

    /// The flow was admitted onto a multi-hop relay chain: every relay
    /// slot on the chain must be `Active`. Equivalent to one
    /// [`Invariants::flow_admitted`] check per hop (an empty chain is a
    /// direct-path admission).
    pub fn flow_admitted_path(&mut self, flow: u64, relays: &[usize]) {
        if relays.is_empty() {
            self.flow_admitted(flow, None);
            return;
        }
        self.sites[SITE_ADMIT_CHAIN] += 1;
        for &r in relays {
            self.flow_admitted(flow, Some(r));
        }
    }

    /// A fault killed the flow mid-transfer after `delivered` bytes; a
    /// retry segment is expected to carry the rest. Killing a terminal
    /// flow is a no-op: its ledger is closed.
    pub fn flow_killed(&mut self, flow: u64, delivered: u64) {
        self.sites[SITE_FLOW_KILLED] += 1;
        if let Some(t) = self.flows.get_mut(&flow) {
            t.accounted += delivered;
        } else if !self.is_retired(flow) {
            self.report(InvariantViolation::UnknownFlow { flow });
        }
    }

    /// The flow's final segment finished, delivering `segment` bytes.
    /// Checks terminal-once (double billing) and byte conservation.
    pub fn flow_completed(&mut self, flow: u64, segment: u64) {
        self.sites[SITE_FLOW_COMPLETED] += 1;
        let Some(t) = self.retire(flow) else {
            self.terminal_miss(flow);
            return;
        };
        let accounted = t.accounted + segment;
        if accounted != t.requested {
            self.report(InvariantViolation::BytesNotConserved {
                flow,
                expected: t.requested,
                accounted,
            });
        }
    }

    /// The flow was denied admission (terminal, no bytes move).
    pub fn flow_denied(&mut self, flow: u64) {
        self.sites[SITE_FLOW_DENIED] += 1;
        if self.retire(flow).is_none() {
            self.terminal_miss(flow);
        }
    }

    /// A terminal report for a flow not in the live map: billing it a
    /// second time if it already retired, unknown otherwise.
    fn terminal_miss(&mut self, flow: u64) {
        if self.is_retired(flow) {
            self.report(InvariantViolation::DoubleBilling { flow });
        } else {
            self.report(InvariantViolation::UnknownFlow { flow });
        }
    }

    /// Relay `relay` crashed at `at`.
    pub fn relay_crashed(&mut self, relay: usize, at: SimTime) {
        self.sites[SITE_RELAY_CRASHED] += 1;
        self.relay_state[relay] = RelayState::Failed;
        self.down_since[relay] = Some(at);
    }

    /// Relay `relay` was restored at `at`; checks the recovery bound.
    pub fn relay_restored(&mut self, relay: usize, at: SimTime) {
        self.sites[SITE_RELAY_RESTORED] += 1;
        self.relay_state[relay] = RelayState::Released;
        if let Some(since) = self.down_since[relay].take() {
            let down_for = at - since;
            if down_for > self.mttr_cap {
                self.report(InvariantViolation::RecoveryExceededMttr {
                    relay,
                    down_for,
                    cap: self.mttr_cap,
                });
            }
        }
    }

    /// End-of-run checks: every crash window must have closed.
    pub fn finish(&mut self) {
        self.sites[SITE_FINISH] += 1;
        for relay in 0..self.down_since.len() {
            if self.down_since[relay].is_some() {
                self.report(InvariantViolation::CrashNeverRecovered { relay });
            }
        }
    }

    /// All violations recorded so far, in detection order, each stamped
    /// with the sim-time and span id current at detection.
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// The violation kinds alone (detection order), for tests that
    /// assert on the kind without caring about the context stamp.
    #[must_use]
    pub fn kinds(&self) -> Vec<InvariantViolation> {
        self.violations.iter().map(|v| v.kind.clone()).collect()
    }

    /// How often each check site fired, as `(site name, count)` in
    /// [`CHECK_SITES`] order. Experiments publish these as
    /// `faults.check.<name>` counters; the fuzzer's coverage map keys
    /// on them.
    #[must_use]
    pub fn site_counts(&self) -> [(&'static str, u64); CHECK_SITES.len()] {
        let mut out = [("", 0u64); CHECK_SITES.len()];
        for (i, name) in CHECK_SITES.iter().enumerate() {
            out[i] = (name, self.sites[i]);
        }
        out
    }

    /// Panics with the full violation list if any invariant was broken.
    ///
    /// # Panics
    ///
    /// Panics when [`Invariants::violations`] is non-empty.
    pub fn assert_clean(&self) {
        assert!(
            self.violations.is_empty(),
            "{} invariant violation(s):\n{}",
            self.violations.len(),
            self.violations
                .iter()
                .map(|v| format!("  - {v}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn clean_lifecycle_records_nothing() {
        let mut inv = Invariants::new(2, SimDuration::from_secs(60));
        inv.set_relay_state(0, RelayState::Active);
        inv.flow_requested(1, 1000);
        inv.flow_admitted(1, Some(0));
        inv.flow_completed(1, 1000);
        inv.flow_requested(2, 500);
        inv.flow_admitted(2, None);
        inv.flow_killed(2, 200);
        inv.flow_completed(2, 300);
        inv.relay_crashed(0, t(10));
        inv.relay_restored(0, t(40));
        inv.finish();
        assert!(inv.violations().is_empty(), "{:?}", inv.violations());
        inv.assert_clean();
    }

    #[test]
    fn double_completion_is_double_billing() {
        let mut inv = Invariants::new(1, SimDuration::from_secs(60));
        inv.flow_requested(7, 10);
        inv.flow_completed(7, 10);
        inv.flow_completed(7, 10);
        assert_eq!(
            inv.kinds(),
            vec![InvariantViolation::DoubleBilling { flow: 7 }]
        );
    }

    #[test]
    fn deny_after_complete_is_double_billing() {
        let mut inv = Invariants::new(1, SimDuration::from_secs(60));
        inv.flow_requested(7, 10);
        inv.flow_completed(7, 10);
        inv.flow_denied(7);
        inv.flow_denied(8);
        assert_eq!(
            inv.kinds(),
            vec![
                InvariantViolation::DoubleBilling { flow: 7 },
                InvariantViolation::UnknownFlow { flow: 8 },
            ]
        );
    }

    #[test]
    fn admit_and_kill_after_terminal_change_nothing() {
        let mut inv = Invariants::new(2, SimDuration::from_secs(60));
        inv.set_relay_state(0, RelayState::Active);
        inv.flow_requested(4, 100);
        inv.flow_denied(4);
        // Known (retired) flow: no unknown-flow report, kill is a no-op.
        inv.flow_admitted(4, Some(0));
        inv.flow_killed(4, 60);
        assert!(inv.violations().is_empty(), "{:?}", inv.violations());
        // The relay check still runs on a retired flow's admission.
        inv.flow_admitted(4, Some(1));
        assert_eq!(
            inv.kinds(),
            vec![InvariantViolation::FlowOnUnavailableRelay {
                flow: 4,
                relay: 1,
                state: RelayState::Released,
            }]
        );
        assert_eq!(inv.live_flows(), 0, "terminal flows leave the live map");
    }

    #[test]
    fn a_retired_id_requested_again_starts_a_fresh_ledger() {
        let mut inv = Invariants::new(1, SimDuration::from_secs(60));
        inv.flow_requested(5, 100);
        inv.flow_killed(5, 30);
        inv.flow_completed(5, 70);
        inv.flow_requested(5, 50);
        assert_eq!(inv.live_flows(), 1);
        inv.flow_completed(5, 50);
        inv.flow_completed(5, 50);
        assert_eq!(
            inv.kinds(),
            vec![InvariantViolation::DoubleBilling { flow: 5 }]
        );
    }

    /// The never-forgetting checker the live map replaced: every flow
    /// stays in one map with a terminal flag. Verdicts must match it.
    #[derive(Default)]
    struct Reference {
        flows: HashMap<u64, (u64, u64, bool)>,
        kinds: Vec<InvariantViolation>,
    }

    impl Reference {
        fn requested(&mut self, flow: u64, bytes: u64) {
            self.flows.insert(flow, (bytes, 0, false));
        }
        fn admitted(&mut self, flow: u64, relay: Option<usize>, states: &[RelayState]) {
            if !self.flows.contains_key(&flow) {
                self.kinds.push(InvariantViolation::UnknownFlow { flow });
                return;
            }
            if let Some(r) = relay {
                if states[r] != RelayState::Active {
                    self.kinds.push(InvariantViolation::FlowOnUnavailableRelay {
                        flow,
                        relay: r,
                        state: states[r],
                    });
                }
            }
        }
        fn killed(&mut self, flow: u64, delivered: u64) {
            match self.flows.get_mut(&flow) {
                Some(t) => t.1 += delivered,
                None => self.kinds.push(InvariantViolation::UnknownFlow { flow }),
            }
        }
        fn completed(&mut self, flow: u64, segment: u64) {
            let Some(t) = self.flows.get_mut(&flow) else {
                self.kinds.push(InvariantViolation::UnknownFlow { flow });
                return;
            };
            if t.2 {
                self.kinds.push(InvariantViolation::DoubleBilling { flow });
                return;
            }
            t.2 = true;
            t.1 += segment;
            if t.1 != t.0 {
                let (expected, accounted) = (t.0, t.1);
                self.kinds.push(InvariantViolation::BytesNotConserved {
                    flow,
                    expected,
                    accounted,
                });
            }
        }
        fn denied(&mut self, flow: u64) {
            let Some(t) = self.flows.get_mut(&flow) else {
                self.kinds.push(InvariantViolation::UnknownFlow { flow });
                return;
            };
            let was = std::mem::replace(&mut t.2, true);
            if was {
                self.kinds.push(InvariantViolation::DoubleBilling { flow });
            }
        }
    }

    /// Random lifecycle reports over a handful of ids — out of order,
    /// repeated, after terminal, re-requested — give the reference's
    /// verdicts in the same order.
    #[test]
    fn retiring_terminal_flows_keeps_every_verdict() {
        let states = [RelayState::Active, RelayState::Draining];
        for round in 0..200u64 {
            let mut rng = simcore::SimRng::seed_from(0x5EED + round);
            let mut inv = Invariants::new(2, SimDuration::from_secs(60));
            inv.set_relay_state(0, states[0]);
            inv.set_relay_state(1, states[1]);
            let mut reference = Reference::default();
            for _ in 0..60 {
                let flow = rng.index(6) as u64;
                let bytes = 10 * (1 + rng.index(3) as u64);
                match rng.index(5) {
                    0 => {
                        inv.flow_requested(flow, bytes);
                        reference.requested(flow, bytes);
                    }
                    1 => {
                        let relay = [None, Some(0), Some(1)][rng.index(3)];
                        inv.flow_admitted(flow, relay);
                        reference.admitted(flow, relay, &states);
                    }
                    2 => {
                        inv.flow_killed(flow, bytes / 2);
                        reference.killed(flow, bytes / 2);
                    }
                    3 => {
                        inv.flow_completed(flow, bytes);
                        reference.completed(flow, bytes);
                    }
                    _ => {
                        inv.flow_denied(flow);
                        reference.denied(flow);
                    }
                }
                let live = reference.flows.values().filter(|t| !t.2).count();
                assert_eq!(inv.live_flows(), live, "round {round}");
            }
            assert_eq!(inv.kinds(), reference.kinds, "round {round}");
        }
    }

    #[test]
    fn admission_to_failed_or_draining_relay_is_flagged() {
        let mut inv = Invariants::new(2, SimDuration::from_secs(60));
        inv.relay_crashed(0, t(1));
        inv.set_relay_state(1, RelayState::Draining);
        inv.flow_requested(1, 10);
        inv.flow_admitted(1, Some(0));
        inv.flow_requested(2, 10);
        inv.flow_admitted(2, Some(1));
        assert_eq!(
            inv.kinds(),
            vec![
                InvariantViolation::FlowOnUnavailableRelay {
                    flow: 1,
                    relay: 0,
                    state: RelayState::Failed,
                },
                InvariantViolation::FlowOnUnavailableRelay {
                    flow: 2,
                    relay: 1,
                    state: RelayState::Draining,
                },
            ]
        );
    }

    #[test]
    fn lost_bytes_break_conservation() {
        let mut inv = Invariants::new(1, SimDuration::from_secs(60));
        inv.flow_requested(3, 1000);
        inv.flow_killed(3, 400);
        inv.flow_completed(3, 500);
        assert_eq!(
            inv.kinds(),
            vec![InvariantViolation::BytesNotConserved {
                flow: 3,
                expected: 1000,
                accounted: 900,
            }]
        );
    }

    #[test]
    fn slow_recovery_breaks_the_mttr_bound() {
        let mut inv = Invariants::new(1, SimDuration::from_secs(30));
        inv.relay_crashed(0, t(0));
        inv.relay_restored(0, t(31));
        assert_eq!(
            inv.kinds(),
            vec![InvariantViolation::RecoveryExceededMttr {
                relay: 0,
                down_for: SimDuration::from_secs(31),
                cap: SimDuration::from_secs(30),
            }]
        );
    }

    #[test]
    fn open_crash_window_is_caught_at_finish() {
        let mut inv = Invariants::new(2, SimDuration::from_secs(30));
        inv.relay_crashed(1, t(5));
        inv.finish();
        assert_eq!(
            inv.kinds(),
            vec![InvariantViolation::CrashNeverRecovered { relay: 1 }]
        );
    }

    #[test]
    fn violations_carry_the_context_stamp() {
        let mut inv = Invariants::new(1, SimDuration::from_secs(30));
        inv.flow_requested(9, 10);
        inv.context(t(42), 777);
        inv.flow_completed(9, 10);
        inv.flow_completed(9, 10); // double billing, stamped (42 s, 777)
        let v = &inv.violations()[0];
        assert_eq!(v.kind, InvariantViolation::DoubleBilling { flow: 9 });
        assert_eq!(v.at, t(42));
        assert_eq!(v.span, 777);
        let shown = v.to_string();
        assert!(shown.contains("span 777"), "{shown}");
        assert!(shown.contains("t=+42.000s"), "{shown}");
    }

    #[test]
    fn site_counts_track_every_check_site() {
        let mut inv = Invariants::new(2, SimDuration::from_secs(60));
        inv.set_relay_state(0, RelayState::Active);
        inv.set_relay_state(1, RelayState::Active);
        inv.flow_requested(1, 10);
        inv.flow_admitted_path(1, &[0, 1]);
        inv.flow_completed(1, 10);
        inv.flow_requested(2, 10);
        inv.flow_admitted(2, None);
        inv.flow_denied(3); // unknown, still counts the site
        inv.finish();
        let counts: std::collections::HashMap<_, _> = inv.site_counts().into_iter().collect();
        assert_eq!(counts["flow_requested"], 2);
        assert_eq!(counts["admit_chain"], 1);
        assert_eq!(counts["admit_relay"], 2);
        assert_eq!(counts["admit_direct"], 1);
        assert_eq!(counts["flow_completed"], 1);
        assert_eq!(counts["flow_denied"], 1);
        assert_eq!(counts["finish"], 1);
        assert_eq!(counts["relay_crashed"], 0);
    }

    #[test]
    #[should_panic(expected = "invariant violation")]
    fn assert_clean_panics_on_violations() {
        let mut inv = Invariants::new(1, SimDuration::from_secs(30));
        inv.flow_requested(1, 10);
        inv.flow_completed(1, 10);
        inv.flow_completed(1, 10);
        inv.assert_clean();
    }

    #[test]
    fn every_violation_displays_meaningfully() {
        let samples = [
            InvariantViolation::DoubleBilling { flow: 1 },
            InvariantViolation::FlowOnUnavailableRelay {
                flow: 1,
                relay: 0,
                state: RelayState::Failed,
            },
            InvariantViolation::BytesNotConserved {
                flow: 1,
                expected: 2,
                accounted: 1,
            },
            InvariantViolation::RecoveryExceededMttr {
                relay: 0,
                down_for: SimDuration::from_secs(2),
                cap: SimDuration::from_secs(1),
            },
            InvariantViolation::CrashNeverRecovered { relay: 0 },
            InvariantViolation::UnknownFlow { flow: 9 },
        ];
        for kind in samples {
            assert!(!kind.to_string().is_empty());
            assert!(!kind.tag().is_empty());
            let v = Violation {
                kind,
                at: t(1),
                span: 2,
            };
            assert!(v.to_string().contains("span 2"));
        }
    }
}
