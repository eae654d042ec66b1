//! Hybrid-fidelity service and chaos loops (`--fidelity hybrid`).
//!
//! The full-DES loops in [`crate::service`] and [`crate::chaos`] schedule
//! one `Arrive` and one `Complete` event per flow — ~115k heap
//! operations per smoke day — even though the vast majority of flows
//! ride the direct Internet path and never touch a shared resource. This
//! module runs the same control plane (broker policy, fleet autoscaler,
//! SLO ledger, fault nemesis) at a blended fidelity:
//!
//! * **Overlay-riding flows stay exact.** They contend for relay slots,
//!   so admission order matters: each one holds a fleet slot, completes
//!   through a small binary heap, and (under chaos) can be killed by a
//!   relay crash and retried through the broker — with spans and
//!   invariant bookkeeping identical in structure to the DES loop.
//! * **Direct-path flows are settled at admission.** A direct flow's
//!   completion affects no shared state, so its completion time is
//!   computed analytically and charged into per-epoch ledger buckets
//!   (completions, violations, goodput ratio) immediately — no event,
//!   no heap traffic.
//!
//! The arrival process is a *statistical twin* of the DES workload, not
//! a replay: one Poisson draw per epoch on a dedicated substream gives
//! the arrival count, and per-flow attributes (client, tenant, pair,
//! bytes) are derived arithmetically from a SplitMix64 scramble of the
//! flow id, with flow sizes read from a precomputed 64-point
//! clamped-lognormal quantile table. This keeps the run a pure function
//! of `(config, seed)` at any thread count while removing all per-flow
//! RNG and sort costs.
//!
//! [`Fidelity::Analytic`](transport::Fidelity::Analytic) coincides with
//! hybrid at the service level: the distinction between the two only
//! matters for transport-level simulations ([`transport::hybrid`]),
//! where analytic mode also replaces the per-segment TCP event loop.
//!
//! Under chaos, severe link degradations (severity ≥ 0.9) additionally
//! exercise the incremental route-repair path: the warmed [`RouteCache`]
//! is patched around the degraded link with a delta-Dijkstra repair and
//! restored when the last degradation window on that link clears.
//!
//! Span output is restricted to the causal chains attribution needs
//! (faults, kills, retries, overlay admissions/completions, breaches);
//! per-direct-flow spans are intentionally omitted, so a hybrid chaos
//! report's attribution covers the fault-touched slice of the run.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};
use std::fmt;

use control::{Breach, BrokerConfig, BrokerStats, Fleet, RelayState, SloTarget, WorkloadConfig};
use cronets::eval::PairEval;
use cronets::select::{achieved, PathChoice};
use faults::{FaultKind, FaultSchedule, Invariants};
use obs::SpanKind;
use routing::{RouteCache, RouterPath};
use simcore::{SimDuration, SimRng, SimTime};
use topology::{LinkId, Network};
use transport::des::{CongestionAlg, CouplingAlg, DesPath, MptcpConfig, TransferConfig};
use transport::hybrid::HybridSim;
use transport::model::TcpParams;
use transport::Fidelity;

use crate::chaos::{
    availability_by_epoch, sync_states, ChaosConfig, ChaosReport, ChaosRow, SpanTap,
};
use crate::mptcp_exp::{prepared_pairs, MptcpExpConfig};
use crate::scenario::World;
use crate::service::{
    completion_time, epoch_truth, pair_of, prefetched_pairs, EpochRow, ServiceConfig, ServiceReport,
};

/// Substream label for the hybrid arrival-count draws, distinct from the
/// workload's `WORKLOAD_STREAM` so the two fidelities are statistically
/// independent twins rather than partial replays.
const HYBRID_STREAM: u64 = 0xA7B1;

/// Size of the clamped-lognormal flow-size quantile table.
const QUANTILES: usize = 64;

/// Link degradations at or above this severity trigger an incremental
/// route repair around the link (the control plane treats a ≥90% rate
/// collapse as a de-facto outage).
const REPAIR_SEVERITY: f64 = 0.9;

/// SplitMix64 finalizer: the per-flow attribute hash.
fn scramble(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Inverse standard-normal CDF (Acklam's rational approximation,
/// |relative error| < 1.15e-9 — far below the quantile-table
/// discretization error).
///
/// # Panics
///
/// Debug-asserts `p` in (0, 1); the quantile table only feeds midpoints.
fn inv_norm_cdf(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0);
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// The flow-size distribution as a quantile-midpoint table: entry `i`
/// is the clamped lognormal at probability `(i + 0.5) / QUANTILES`.
fn byte_quantiles(w: &WorkloadConfig) -> Vec<u64> {
    (0..QUANTILES)
        .map(|i| {
            let p = (i as f64 + 0.5) / QUANTILES as f64;
            let raw = (w.median_flow_bytes.ln() + w.flow_sigma * inv_norm_cdf(p)).exp();
            (raw as u64).clamp(w.min_flow_bytes, w.max_flow_bytes)
        })
        .collect()
}

/// Per-epoch arrival counts: the same mid-epoch Poisson mean the DES
/// workload uses, drawn on the hybrid substream.
fn epoch_counts(w: &WorkloadConfig, seed: u64) -> Vec<u64> {
    assert!(w.clients > 0, "workload needs a client population");
    assert!(w.tenants > 0, "workload needs at least one tenant");
    assert!(!w.epoch.is_zero(), "workload epoch must be positive");
    (0..w.epochs)
        .map(|e| {
            let start = SimTime::ZERO + w.epoch * u64::from(e);
            let mean = w.rate_at(start + w.epoch / 2) * w.epoch.as_secs_f64();
            SimRng::seed_from(seed)
                .fork(HYBRID_STREAM)
                .fork(u64::from(e))
                .poisson(mean)
        })
        .collect()
}

/// Arrival instant of flow `k` of `n` in an epoch: evenly spread at
/// interval midpoints (strictly inside the epoch, strictly increasing).
fn arrival_at(epoch_start: SimTime, k: u64, n: u64, epoch_ns: u64) -> SimTime {
    let frac = (k as f64 + 0.5) / n as f64;
    SimTime::from_nanos(epoch_start.as_nanos() + (frac * epoch_ns as f64) as u64)
}

/// Arithmetically derived flow attributes (no RNG draws).
struct Synth {
    tenant: u32,
    pair: usize,
    bytes: u64,
}

fn synth_flow(
    seed: u64,
    epoch: u32,
    k: u64,
    w: &WorkloadConfig,
    n_pairs: usize,
    quantiles: &[u64],
) -> Synth {
    let fid = (u64::from(epoch) << 32) | k;
    let h = scramble(fid.wrapping_add(scramble(seed)));
    let client = h % w.clients;
    let h2 = scramble(h);
    Synth {
        tenant: (client % u64::from(w.tenants)) as u32,
        pair: pair_of(client, n_pairs),
        bytes: quantiles[(h2 >> 58) as usize],
    }
}

/// The broker's probe-cache state for one pair, pre-digested for O(1)
/// steering: overlay candidates are pre-filtered to those that survive
/// both the strictly-better-than-direct selection rule and the margin
/// hysteresis, sorted by (probe throughput desc, node asc) — so the
/// first *free* entry is exactly `best_choice_filtered` + margin check.
#[derive(Clone, Default)]
struct PairPlan {
    has_probe: bool,
    probe_at: SimTime,
    direct_bps: f64,
    cands: Vec<(usize, f64)>,
}

impl PairPlan {
    fn fresh(&self, now: SimTime, max_age: SimDuration) -> bool {
        self.has_probe && now.saturating_duration_since(self.probe_at) <= max_age
    }
}

/// Refreshes every pair's plan from the current truth, mirroring
/// `Broker::observe` on a probe epoch.
fn refresh_plans(plans: &mut [PairPlan], truth: &[PairEval], at: SimTime, b: &BrokerConfig) {
    for (plan, tr) in plans.iter_mut().zip(truth) {
        let d = tr.direct.throughput_bps;
        plan.has_probe = true;
        plan.probe_at = at;
        plan.direct_bps = d;
        plan.cands.clear();
        for o in &tr.overlays {
            let bps = o.split.throughput_bps;
            if bps > d && bps >= b.overlay_margin * d {
                plan.cands.push((o.node, bps));
            }
        }
        plan.cands
            .sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
    }
}

/// The broker verdict for one flow, replicating `Broker::decide` exactly
/// (including the stale path's floor-free direct fallback).
enum Steer {
    Deny,
    Direct,
    Stale,
    Overlay(usize),
}

fn steer(plan: &PairPlan, now: SimTime, b: &BrokerConfig, fleet: &Fleet) -> Steer {
    if !plan.fresh(now, b.max_probe_age) {
        return Steer::Stale;
    }
    match plan.cands.iter().find(|&&(node, _)| fleet.is_free(node)) {
        Some(&(_, bps)) if bps < b.min_accept_bps => Steer::Deny,
        Some(&(node, _)) => Steer::Overlay(node),
        None if plan.direct_bps < b.min_accept_bps => Steer::Deny,
        None => Steer::Direct,
    }
}

/// Current-epoch ground truth for one pair, flattened for O(1) per-flow
/// access (what `achieved` and the DES admit path would compute).
struct TruthRow {
    direct_bps: f64,
    direct_rtt: SimDuration,
    node_bps: Vec<f64>,
    node_rtt: Vec<SimDuration>,
}

fn truth_rows(truth: &[PairEval], relays: usize) -> Vec<TruthRow> {
    truth
        .iter()
        .map(|tr| TruthRow {
            direct_bps: tr.direct.throughput_bps,
            direct_rtt: tr.direct.rtt,
            node_bps: (0..relays)
                .map(|n| achieved(tr, PathChoice::Overlay(n)))
                .collect(),
            node_rtt: (0..relays)
                .map(|n| {
                    tr.overlays
                        .iter()
                        .find(|o| o.node == n)
                        .map_or(tr.direct.rtt, |o| o.split.rtt)
                })
                .collect(),
        })
        .collect()
}

/// The SLO account plus per-epoch settlement buckets. Direct flows are
/// settled here at admission; their completions/violations/goodput are
/// charged to the epoch their (analytic) completion instant lands in —
/// the same epoch the DES loop would pop their completion event in.
struct Ledger {
    slo: control::SloAccount,
    completed_by_epoch: Vec<u64>,
    violations_by_epoch: Vec<u64>,
    ratio_sum_by_epoch: Vec<f64>,
    ratio_n_by_epoch: Vec<u64>,
    completed: u64,
    epoch_ns: u64,
    epochs: usize,
}

impl Ledger {
    fn new(targets: Vec<SloTarget>, epochs: usize, epoch_ns: u64) -> Ledger {
        Ledger {
            slo: control::SloAccount::new(targets),
            // One extra bucket for everything past the horizon (the
            // "tail": counted in totals, not in any epoch row).
            completed_by_epoch: vec![0; epochs + 1],
            violations_by_epoch: vec![0; epochs + 1],
            ratio_sum_by_epoch: vec![0.0; epochs + 1],
            ratio_n_by_epoch: vec![0; epochs + 1],
            completed: 0,
            epoch_ns,
            epochs,
        }
    }

    fn bucket(&self, t: SimTime) -> usize {
        ((t.as_nanos() / self.epoch_ns) as usize).min(self.epochs)
    }

    fn settle(&mut self, tenant: u32, ratio: f64, issued: SimTime, done: SimTime) -> Breach {
        let breach = self.slo.record_completion(tenant, ratio, done - issued);
        self.completed += 1;
        let ce = self.bucket(done);
        self.completed_by_epoch[ce] += 1;
        self.violations_by_epoch[ce] += u64::from(breach.ratio) + u64::from(breach.latency);
        self.ratio_sum_by_epoch[ce] += ratio;
        self.ratio_n_by_epoch[ce] += 1;
        breach
    }

    fn deny(&mut self, tenant: u32, at: SimTime) {
        self.slo.record_denial(tenant);
        let ce = self.bucket(at);
        self.violations_by_epoch[ce] += 1;
    }
}

fn publish_broker(stats: &BrokerStats) {
    obs::add_named("control.broker.admitted", stats.admitted);
    obs::add_named("control.broker.denied", stats.denied);
    obs::add_named("control.broker.overlay", stats.overlay);
    obs::add_named("control.broker.direct", stats.direct);
    obs::add_named("control.broker.stale_fallback", stats.stale_fallback);
}

/// An overlay flow's scheduled completion: `(done_ns, seq)` min-heap
/// keys into a dense payload vector (the heap itself stays `Copy`).
type CompletionHeap = BinaryHeap<Reverse<(u64, u64)>>;

/// Payload of a heap entry in the service loop.
struct Ov {
    tenant: u32,
    relay: usize,
    ratio: f64,
    issued: SimTime,
}

/// Pops every due completion (≤ `upto_ns` when `inclusive`, < otherwise),
/// freeing relay slots and settling the ledger; rent accrues to each
/// completion instant capped at the horizon.
#[allow(clippy::too_many_arguments)]
fn drain_completions(
    heap: &mut CompletionHeap,
    ovs: &[Ov],
    upto_ns: u64,
    inclusive: bool,
    fleet: &mut Fleet,
    led: &mut Ledger,
    billed_to: &mut SimTime,
    horizon: SimTime,
) {
    while let Some(&Reverse((done_ns, seq))) = heap.peek() {
        let due = if inclusive {
            done_ns <= upto_ns
        } else {
            done_ns < upto_ns
        };
        if !due {
            break;
        }
        heap.pop();
        let fl = &ovs[seq as usize];
        let done = SimTime::from_nanos(done_ns);
        let capped = done.min(horizon);
        fleet.accrue(capped.saturating_duration_since(*billed_to));
        *billed_to = capped.max(*billed_to);
        fleet.flow_finished(fl.relay);
        led.settle(fl.tenant, fl.ratio, fl.issued, done);
    }
}

/// The hybrid service loop. Same report shape and control-plane policy
/// as [`crate::service::service`]; see the module docs for what is
/// exact and what is settled analytically.
pub(crate) fn service_hybrid(cfg: &ServiceConfig, seed: u64) -> ServiceReport {
    assert!(cfg.probe_every >= 1, "probe_every must be at least 1");
    assert_eq!(
        cfg.workload.tenants as usize,
        cfg.slo.len(),
        "one SLO target per tenant"
    );
    let mut world = World::build(&cfg.scenario, seed);
    assert_eq!(
        cfg.fleet.relays,
        world.cronet.nodes().len(),
        "fleet slots must match the scenario's overlay nodes"
    );
    let relays = cfg.fleet.relays;
    let (cache, pairs) = prefetched_pairs(&world);

    let epochs = cfg.workload.epochs;
    let epoch_ns = cfg.workload.epoch.as_nanos();
    let counts = epoch_counts(&cfg.workload, seed);
    let total_arrivals: u64 = counts.iter().sum();
    let quantiles = byte_quantiles(&cfg.workload);

    let mut stats = BrokerStats::default();
    let mut fleet = Fleet::new(cfg.fleet);
    let mut led = Ledger::new(cfg.slo.clone(), epochs as usize, epoch_ns);
    let mut plans: Vec<PairPlan> = vec![PairPlan::default(); pairs.len()];

    let mut heap: CompletionHeap = BinaryHeap::new();
    let mut ovs: Vec<Ov> = Vec::new();

    let mut rows = Vec::with_capacity(epochs as usize);
    let mut billed_to = SimTime::ZERO;
    let horizon = SimTime::ZERO + cfg.workload.horizon();
    let (mut flows_exact, mut flows_aggregated) = (0u64, 0u64);

    for e in 0..epochs {
        if e > 0 {
            world.step_epoch(u64::from(e));
        }
        let epoch_start = SimTime::ZERO + cfg.workload.epoch * u64::from(e);
        let epoch_end = epoch_start + cfg.workload.epoch;
        let truth = epoch_truth(&world, &cache, &pairs);
        let rows_t = truth_rows(&truth, relays);
        if e % cfg.probe_every == 0 {
            refresh_plans(&mut plans, &truth, epoch_start, &cfg.broker);
        }
        let n = counts[e as usize];
        obs::add_named("control.workload.arrivals", n);
        let b0 = stats;

        for k in 0..n {
            let now = arrival_at(epoch_start, k, n, epoch_ns);
            drain_completions(
                &mut heap,
                &ovs,
                now.as_nanos(),
                true,
                &mut fleet,
                &mut led,
                &mut billed_to,
                horizon,
            );
            let sy = synth_flow(seed, e, k, &cfg.workload, pairs.len(), &quantiles);
            let tr = &rows_t[sy.pair];
            match steer(&plans[sy.pair], now, &cfg.broker, &fleet) {
                Steer::Deny => {
                    stats.denied += 1;
                    led.deny(sy.tenant, now);
                }
                verdict @ (Steer::Direct | Steer::Stale) => {
                    stats.admitted += 1;
                    if matches!(verdict, Steer::Stale) {
                        stats.stale_fallback += 1;
                    } else {
                        stats.direct += 1;
                    }
                    let done = now + completion_time(sy.bytes, tr.direct_bps, tr.direct_rtt);
                    led.settle(sy.tenant, 1.0, now, done);
                    flows_aggregated += 1;
                }
                Steer::Overlay(node) => {
                    stats.admitted += 1;
                    stats.overlay += 1;
                    fleet.flow_started(node);
                    let bps = tr.node_bps[node];
                    let done = now + completion_time(sy.bytes, bps, tr.node_rtt[node]);
                    let seq = ovs.len() as u64;
                    ovs.push(Ov {
                        tenant: sy.tenant,
                        relay: node,
                        ratio: bps / tr.direct_bps.max(1.0),
                        issued: now,
                    });
                    heap.push(Reverse((done.as_nanos(), seq)));
                    flows_exact += 1;
                }
            }
        }

        drain_completions(
            &mut heap,
            &ovs,
            epoch_end.as_nanos(),
            false,
            &mut fleet,
            &mut led,
            &mut billed_to,
            horizon,
        );
        fleet.accrue(epoch_end.saturating_duration_since(billed_to));
        billed_to = epoch_end;
        fleet.rebalance(horizon - epoch_end);
        rows.push(EpochRow {
            epoch: e,
            arrivals: n,
            overlay: stats.overlay - b0.overlay,
            direct: stats.direct - b0.direct,
            denied: stats.denied - b0.denied,
            stale: stats.stale_fallback - b0.stale_fallback,
            completed: led.completed_by_epoch[e as usize],
            violations: led.violations_by_epoch[e as usize],
            active: fleet.active(),
            draining: fleet.draining(),
            util: fleet.utilization(),
            spend_usd: fleet.spend_usd(),
        });
    }

    // Tail: overlay flows finishing past the horizon (no rent accrues
    // past the horizon; `billed_to` is already there).
    drain_completions(
        &mut heap,
        &ovs,
        u64::MAX,
        true,
        &mut fleet,
        &mut led,
        &mut billed_to,
        horizon,
    );

    publish_broker(&stats);
    fleet.publish();
    led.slo.publish();
    cache.publish();
    obs::add_named("hybrid.flows_exact", flows_exact);
    obs::add_named("hybrid.flows_aggregated", flows_aggregated);

    ServiceReport {
        rows,
        broker: stats,
        fleet: fleet.stats(),
        arrivals: total_arrivals,
        completed: led.completed,
        spend_usd: fleet.spend_usd(),
        budget_usd: cfg.fleet.budget_usd,
        slo: led.slo,
    }
}

/// A side event in the chaos loop's merged (time, seq) heap: faults,
/// exact overlay completions, and failover retries.
#[derive(Clone, Copy)]
enum SideEv {
    Fault(u32),
    Complete(u32),
    Retry(u32),
}

/// An exact overlay flow segment in the chaos loop. The heap cannot
/// cancel, so a relay crash tombstones the segment (`alive = false`)
/// and its stale heap entry is skipped on pop.
struct OvChaos {
    flow: u64,
    tenant: u32,
    relay: usize,
    pair: usize,
    ratio: f64,
    issued: SimTime,
    started: SimTime,
    bytes: u64,
    done_at: SimTime,
    span: u64,
    alive: bool,
}

/// A killed flow waiting for failure detection to fire.
struct RetryRec {
    flow: u64,
    tenant: u32,
    pair: usize,
    bytes_left: u64,
    issued: SimTime,
    crashed_at: SimTime,
    kill_span: u64,
}

/// Mutable state of a hybrid chaos run, bundled so the event handlers
/// can be methods (the world, route cache, and per-epoch truth are
/// passed as arguments — they are borrowed elsewhere between events).
struct ChaosRun<'a> {
    cfg: &'a ChaosConfig,
    flap_victims: &'a [LinkId],
    horizon: SimTime,

    stats: BrokerStats,
    fleet: Fleet,
    led: Ledger,
    inv: Invariants,
    plans: Vec<PairPlan>,

    heap: CompletionHeap,
    side: Vec<SideEv>,
    ovs: Vec<OvChaos>,
    rets: Vec<RetryRec>,
    /// Live overlay segments (by `ovs` index) per relay, ascending:
    /// crash kill order is deterministic.
    relay_ov: Vec<BTreeSet<u32>>,
    /// Open link-degradation windows: salt → (victim, severity floor).
    degraded: BTreeMap<u64, (LinkId, f64)>,
    /// Degradation windows that triggered a route repair: salt → link.
    repaired: BTreeMap<u64, LinkId>,
    blackhole_depth: u32,

    billed_to: SimTime,
    killed_total: u64,
    retries_total: u64,
    repairs: u64,
    flows_exact: u64,
    flows_aggregated: u64,

    ep_killed: u64,
    ep_retries: u64,
    ep_failover_ns: u128,
    ep_failover_n: u64,
}

impl ChaosRun<'_> {
    fn push_side(&mut self, at: SimTime, ev: SideEv) {
        let seq = self.side.len() as u64;
        self.side.push(ev);
        self.heap.push(Reverse((at.as_nanos(), seq)));
    }

    /// Processes every side event due by `upto_ns` (≤ when `inclusive`,
    /// < otherwise), in (time, scheduling order).
    #[allow(clippy::too_many_arguments)]
    fn drain_side(
        &mut self,
        upto_ns: u64,
        inclusive: bool,
        in_tail: bool,
        world: &mut World,
        cache: &mut RouteCache,
        truth: &[TruthRow],
        schedule: &FaultSchedule,
    ) {
        while let Some(&Reverse((at_ns, seq))) = self.heap.peek() {
            let due = if inclusive {
                at_ns <= upto_ns
            } else {
                at_ns < upto_ns
            };
            if !due {
                break;
            }
            self.heap.pop();
            let now = SimTime::from_nanos(at_ns);
            match self.side[seq as usize] {
                SideEv::Complete(i) => self.complete(i, now),
                SideEv::Retry(i) => self.retry(i, now, in_tail, truth),
                SideEv::Fault(i) => self.handle_fault(i, now, world, cache, schedule),
            }
        }
    }

    fn complete(&mut self, i: u32, now: SimTime) {
        let fl = &self.ovs[i as usize];
        if !fl.alive {
            return; // tombstoned by a relay crash; the retry took over
        }
        let (flow, tenant, relay, ratio, issued, bytes, span) = (
            fl.flow, fl.tenant, fl.relay, fl.ratio, fl.issued, fl.bytes, fl.span,
        );
        let capped = now.min(self.horizon);
        self.fleet
            .accrue(capped.saturating_duration_since(self.billed_to));
        self.billed_to = capped.max(self.billed_to);
        self.fleet.flow_finished(relay);
        self.relay_ov[relay].remove(&i);
        let done = obs::span(
            now.as_nanos(),
            span,
            SpanKind::FlowComplete,
            flow,
            (now - issued).as_nanos(),
            bytes,
        );
        let breach = self.led.settle(tenant, ratio, issued, now);
        if breach.any() {
            obs::span(
                now.as_nanos(),
                done,
                SpanKind::SloBreach,
                flow,
                u64::from(tenant),
                breach.mask(),
            );
        }
        self.inv.context(now, done);
        self.inv.flow_completed(flow, bytes);
    }

    fn retry(&mut self, i: u32, now: SimTime, in_tail: bool, truth: &[TruthRow]) {
        let r = &self.rets[i as usize];
        let (flow, tenant, pair, bytes_left, issued, crashed_at, kill_span) = (
            r.flow,
            r.tenant,
            r.pair,
            r.bytes_left,
            r.issued,
            r.crashed_at,
            r.kill_span,
        );
        self.retries_total += 1;
        if !in_tail {
            self.ep_retries += 1;
            self.ep_failover_ns += u128::from((now - crashed_at).as_nanos());
            self.ep_failover_n += 1;
        }
        let retry_span = obs::span(
            now.as_nanos(),
            kill_span,
            SpanKind::FlowRetry,
            flow,
            bytes_left,
            0,
        );
        self.admit(
            flow, tenant, pair, bytes_left, issued, now, retry_span, truth, false,
        );
    }

    /// One admission through the replicated broker policy. `first` marks
    /// a flow's first attempt: invariant tracking (and spans) only start
    /// once a flow touches the exact overlay machinery.
    #[allow(clippy::too_many_arguments)]
    fn admit(
        &mut self,
        flow: u64,
        tenant: u32,
        pi: usize,
        bytes: u64,
        issued: SimTime,
        now: SimTime,
        parent: u64,
        truth: &[TruthRow],
        first: bool,
    ) {
        let tr = &truth[pi];
        match steer(&self.plans[pi], now, &self.cfg.service.broker, &self.fleet) {
            Steer::Deny => {
                self.stats.denied += 1;
                self.led.deny(tenant, now);
                if !first {
                    // A denied retry still breaches: keep the causal
                    // chain back to the killing fault.
                    let admitted = obs::span(now.as_nanos(), parent, SpanKind::Admit, flow, 0, 0);
                    obs::span(
                        now.as_nanos(),
                        admitted,
                        SpanKind::SloBreach,
                        flow,
                        u64::from(tenant),
                        4,
                    );
                    self.inv.context(now, admitted);
                    self.inv.flow_denied(flow);
                }
            }
            verdict @ (Steer::Direct | Steer::Stale) => {
                self.stats.admitted += 1;
                if matches!(verdict, Steer::Stale) {
                    self.stats.stale_fallback += 1;
                } else {
                    self.stats.direct += 1;
                }
                let done = now + completion_time(bytes, tr.direct_bps, tr.direct_rtt);
                if !first {
                    // A retried flow is already under invariant watch;
                    // close its byte ledger here. Its completion span is
                    // stamped at the (analytic) done instant.
                    let admitted = obs::span(now.as_nanos(), parent, SpanKind::Admit, flow, 1, 0);
                    self.inv.context(now, admitted);
                    self.inv.flow_admitted(flow, None);
                    let done_span = obs::span(
                        done.as_nanos(),
                        admitted,
                        SpanKind::FlowComplete,
                        flow,
                        (done - issued).as_nanos(),
                        bytes,
                    );
                    let breach = self.led.settle(tenant, 1.0, issued, done);
                    if breach.any() {
                        obs::span(
                            done.as_nanos(),
                            done_span,
                            SpanKind::SloBreach,
                            flow,
                            u64::from(tenant),
                            breach.mask(),
                        );
                    }
                    self.inv.context(done, done_span);
                    self.inv.flow_completed(flow, bytes);
                } else {
                    self.led.settle(tenant, 1.0, issued, done);
                }
                self.flows_aggregated += 1;
            }
            Steer::Overlay(node) => {
                self.stats.admitted += 1;
                self.stats.overlay += 1;
                let parent = if first {
                    let arrive = obs::span(
                        now.as_nanos(),
                        0,
                        SpanKind::FlowArrive,
                        flow,
                        u64::from(tenant),
                        bytes,
                    );
                    self.inv.context(now, arrive);
                    self.inv.flow_requested(flow, bytes);
                    arrive
                } else {
                    parent
                };
                let admitted = obs::span(
                    now.as_nanos(),
                    parent,
                    SpanKind::Admit,
                    flow,
                    2,
                    node as u64 + 1,
                );
                self.fleet.flow_started(node);
                debug_assert_eq!(self.fleet.relay_state(node), RelayState::Active);
                self.inv.set_relay_state(node, self.fleet.relay_state(node));
                self.inv.context(now, admitted);
                self.inv.flow_admitted(flow, Some(node));
                let bps = tr.node_bps[node];
                let done = now + completion_time(bytes, bps, tr.node_rtt[node]);
                let seq = self.ovs.len() as u32;
                self.ovs.push(OvChaos {
                    flow,
                    tenant,
                    relay: node,
                    pair: pi,
                    ratio: bps / tr.direct_bps.max(1.0),
                    issued,
                    started: now,
                    bytes,
                    done_at: done,
                    span: admitted,
                    alive: true,
                });
                self.relay_ov[node].insert(seq);
                self.push_side(done, SideEv::Complete(seq));
                self.flows_exact += 1;
            }
        }
    }

    fn handle_fault(
        &mut self,
        idx: u32,
        now: SimTime,
        world: &mut World,
        cache: &mut RouteCache,
        schedule: &FaultSchedule,
    ) {
        let fault = schedule.events()[idx as usize];
        obs::trace(
            now.as_nanos(),
            0,
            obs::TraceKind::FaultInjected,
            fault.kind.discriminant(),
            fault.kind.target(),
        );
        let fault_span = obs::span(
            now.as_nanos(),
            0,
            SpanKind::FaultInject,
            u64::from(idx),
            fault.kind.discriminant(),
            fault.kind.target(),
        );
        self.inv.context(now, fault_span);
        match fault.kind {
            FaultKind::RelayCrash { relay } => {
                self.fleet
                    .accrue(now.saturating_duration_since(self.billed_to));
                self.billed_to = now.max(self.billed_to);
                let killed_flows = self.fleet.crash(relay);
                self.inv.relay_crashed(relay, now);
                let victims: Vec<u32> = self.relay_ov[relay].iter().copied().collect();
                debug_assert_eq!(killed_flows as usize, victims.len());
                self.relay_ov[relay].clear();
                for seq in victims {
                    let (flow, tenant, pair, bytes, issued, delivered) = {
                        let fl = &mut self.ovs[seq as usize];
                        fl.alive = false;
                        let total = (fl.done_at - fl.started).as_nanos().max(1);
                        let elapsed = (now - fl.started).as_nanos();
                        let delivered = ((u128::from(fl.bytes) * u128::from(elapsed))
                            / u128::from(total)) as u64;
                        (fl.flow, fl.tenant, fl.pair, fl.bytes, fl.issued, delivered)
                    };
                    let kill = obs::span(
                        now.as_nanos(),
                        fault_span,
                        SpanKind::FlowKill,
                        flow,
                        bytes - delivered,
                        relay as u64,
                    );
                    self.inv.context(now, kill);
                    self.inv.flow_killed(flow, delivered);
                    self.killed_total += 1;
                    self.ep_killed += 1;
                    let ri = self.rets.len() as u32;
                    self.rets.push(RetryRec {
                        flow,
                        tenant,
                        pair,
                        bytes_left: bytes - delivered,
                        issued,
                        crashed_at: now,
                        kill_span: kill,
                    });
                    self.push_side(now + self.cfg.detect_after, SideEv::Retry(ri));
                }
            }
            FaultKind::RelayRestore { relay } => {
                self.fleet.restore(relay);
                self.inv.relay_restored(relay, now);
            }
            FaultKind::LinkDegrade { salt, severity } => {
                if !self.flap_victims.is_empty() {
                    let link = self.flap_victims[(salt % self.flap_victims.len() as u64) as usize];
                    self.degraded.insert(salt, (link, severity));
                    {
                        let l = world.net.link_mut(link);
                        l.set_level(l.level().max(severity));
                    }
                    // A near-total rate collapse is an outage to the
                    // control plane: patch routes around the link now
                    // (delta-Dijkstra over the warmed cache) instead of
                    // waiting out the window.
                    if severity >= REPAIR_SEVERITY {
                        self.repairs += cache.repair(&world.net, &[link]) as u64;
                        self.repaired.insert(salt, link);
                    }
                }
            }
            FaultKind::LinkClear { salt } => {
                self.degraded.remove(&salt);
                if let Some(link) = self.repaired.remove(&salt) {
                    // Only un-repair when no other open window still
                    // holds this link down.
                    if !self.repaired.values().any(|&l| l == link) {
                        cache.restore(&world.net, &[link]);
                    }
                }
            }
            FaultKind::ProbeBlackholeStart => self.blackhole_depth += 1,
            FaultKind::ProbeBlackholeEnd => self.blackhole_depth -= 1,
            FaultKind::CachePoison { age } => {
                // Mirror `Broker::age_probes` on the plan cache.
                for p in &mut self.plans {
                    p.probe_at =
                        SimTime::ZERO + p.probe_at.saturating_duration_since(SimTime::ZERO + age);
                }
            }
        }
    }
}

/// The hybrid chaos loop. Same report shape, fault schedule, and
/// control-plane policy as [`crate::chaos::chaos`]; overlay segments,
/// kills, and retries are exact, the direct-path mass is settled
/// analytically, and severe link degradations exercise incremental
/// route repair on the warmed cache.
pub(crate) fn chaos_hybrid(cfg: &ChaosConfig, seed: u64) -> ChaosReport {
    let mut tap = SpanTap::start(obs::span_recording());

    let svc = &cfg.service;
    assert!(svc.probe_every >= 1, "probe_every must be at least 1");
    assert_eq!(
        svc.workload.tenants as usize,
        svc.slo.len(),
        "one SLO target per tenant"
    );
    assert_eq!(
        cfg.faults.relays, svc.fleet.relays,
        "fault schedule must cover exactly the fleet's slots"
    );
    assert_eq!(
        cfg.faults.horizon,
        svc.workload.horizon(),
        "fault schedule horizon must match the workload day"
    );
    let mut world = World::build(&svc.scenario, seed);
    assert_eq!(
        svc.fleet.relays,
        world.cronet.nodes().len(),
        "fleet slots must match the scenario's overlay nodes"
    );
    let relays = svc.fleet.relays;
    let (mut cache, pairs) = prefetched_pairs(&world);
    let flap_victims: Vec<LinkId> = world
        .net
        .links()
        .filter(|l| l.kind().is_inter_as())
        .map(|l| l.id())
        .collect();

    let epochs = svc.workload.epochs;
    let epoch_ns = svc.workload.epoch.as_nanos();
    let counts = epoch_counts(&svc.workload, seed);
    let total_arrivals: u64 = counts.iter().sum();
    let quantiles = byte_quantiles(&svc.workload);

    let schedule = FaultSchedule::generate(&cfg.faults, seed);
    let availability = availability_by_epoch(&schedule, cfg);
    let horizon = SimTime::ZERO + svc.workload.horizon();

    let mut run = ChaosRun {
        cfg,
        flap_victims: &flap_victims,
        horizon,
        stats: BrokerStats::default(),
        fleet: Fleet::new(svc.fleet),
        led: Ledger::new(svc.slo.clone(), epochs as usize, epoch_ns),
        inv: Invariants::new(relays, schedule.mttr_cap()),
        plans: vec![PairPlan::default(); pairs.len()],
        heap: BinaryHeap::new(),
        side: Vec::new(),
        ovs: Vec::new(),
        rets: Vec::new(),
        relay_ov: vec![BTreeSet::new(); relays],
        degraded: BTreeMap::new(),
        repaired: BTreeMap::new(),
        blackhole_depth: 0,
        billed_to: SimTime::ZERO,
        killed_total: 0,
        retries_total: 0,
        repairs: 0,
        flows_exact: 0,
        flows_aggregated: 0,
        ep_killed: 0,
        ep_retries: 0,
        ep_failover_ns: 0,
        ep_failover_n: 0,
    };
    // Faults first, in schedule order: ties against flow events break
    // the same way the DES queue's FIFO rule breaks them.
    for (i, ev) in schedule.events().iter().enumerate() {
        run.push_side(ev.at, SideEv::Fault(i as u32));
    }

    let mut rows = Vec::with_capacity(epochs as usize);
    let mut truth_r: Vec<TruthRow> = Vec::new();

    // The last iteration (e == epochs) is the tail phase: no arrivals,
    // no new truth — just draining completions and late retries.
    for e in 0..=epochs {
        let in_tail = e == epochs;
        let mut n = 0u64;
        let mut epoch_start = SimTime::ZERO;
        let mut epoch_end_ns = u64::MAX;
        if !in_tail {
            if e > 0 {
                world.step_epoch(u64::from(e));
            }
            // Re-impose open degradation windows after the epoch's
            // congestion step: the nemesis holds its floor.
            for &(link, severity) in run.degraded.values() {
                let l = world.net.link_mut(link);
                l.set_level(l.level().max(severity));
            }
            epoch_start = SimTime::ZERO + svc.workload.epoch * u64::from(e);
            epoch_end_ns = (epoch_start + svc.workload.epoch).as_nanos();
            let truth = epoch_truth(&world, &cache, &pairs);
            truth_r = truth_rows(&truth, relays);
            if e % svc.probe_every == 0 && run.blackhole_depth == 0 {
                refresh_plans(&mut run.plans, &truth, epoch_start, &svc.broker);
            }
            n = counts[e as usize];
            obs::add_named("control.workload.arrivals", n);
        }
        let b0 = run.stats;

        for k in 0..n {
            let now = arrival_at(epoch_start, k, n, epoch_ns);
            run.drain_side(
                now.as_nanos(),
                true,
                false,
                &mut world,
                &mut cache,
                &truth_r,
                &schedule,
            );
            let sy = synth_flow(seed, e, k, &svc.workload, pairs.len(), &quantiles);
            let flow = (u64::from(e) << 32) | k;
            run.admit(
                flow, sy.tenant, sy.pair, sy.bytes, now, now, 0, &truth_r, true,
            );
            tap.relieve();
        }
        run.drain_side(
            epoch_end_ns,
            in_tail,
            in_tail,
            &mut world,
            &mut cache,
            &truth_r,
            &schedule,
        );

        if !in_tail {
            let epoch_end = SimTime::from_nanos(epoch_end_ns);
            run.fleet
                .accrue(epoch_end.saturating_duration_since(run.billed_to));
            run.billed_to = epoch_end;
            sync_states(&mut run.inv, &run.fleet, relays);
            let fs0 = run.fleet.stats();
            run.fleet.rebalance(horizon - epoch_end);
            let fs1 = run.fleet.stats();
            if fs1.scale_ups != fs0.scale_ups || fs1.drains != fs0.drains {
                obs::span(
                    epoch_end_ns,
                    0,
                    SpanKind::FleetScale,
                    u64::from(e),
                    fs1.scale_ups - fs0.scale_ups,
                    fs1.drains - fs0.drains,
                );
            }
            let b1 = run.stats;
            let ei = e as usize;
            rows.push(ChaosRow {
                epoch: e,
                arrivals: n,
                retries: run.ep_retries,
                overlay: b1.overlay - b0.overlay,
                direct: b1.direct - b0.direct,
                denied: b1.denied - b0.denied,
                stale: b1.stale_fallback - b0.stale_fallback,
                completed: run.led.completed_by_epoch[ei],
                killed: run.ep_killed,
                violations: run.led.violations_by_epoch[ei],
                active: run.fleet.active(),
                failed: run.fleet.failed(),
                availability: availability[ei],
                failover_ms: if run.ep_failover_n == 0 {
                    0.0
                } else {
                    run.ep_failover_ns as f64 / run.ep_failover_n as f64 / 1e6
                },
                goodput_ratio: if run.led.ratio_n_by_epoch[ei] == 0 {
                    1.0
                } else {
                    run.led.ratio_sum_by_epoch[ei] / run.led.ratio_n_by_epoch[ei] as f64
                },
                spend_usd: run.fleet.spend_usd(),
            });
            run.ep_killed = 0;
            run.ep_retries = 0;
            run.ep_failover_ns = 0;
            run.ep_failover_n = 0;

            tap.drain();
        }
    }
    // End-of-run checks carry no span; stamp them with the horizon.
    run.inv.context(SimTime::ZERO + svc.workload.horizon(), 0);
    run.inv.finish();

    let spans = tap.finish();

    publish_broker(&run.stats);
    run.fleet.publish();
    run.led.slo.publish();
    cache.publish();
    let fault_counts = schedule.counts();
    obs::add_named("faults.injected", schedule.len() as u64);
    obs::add_named("faults.relay_crashes", fault_counts.crashes);
    obs::add_named("faults.relay_restores", fault_counts.restores);
    obs::add_named("faults.link_degradations", fault_counts.degradations);
    obs::add_named("faults.probe_blackholes", fault_counts.blackholes);
    obs::add_named("faults.cache_poisonings", fault_counts.poisons);
    obs::add_named("faults.flows_killed", run.killed_total);
    obs::add_named("faults.retries", run.retries_total);
    obs::add_named("obs.spans_dropped", spans.dropped);
    // Invariant check-site hit counts: the fuzzer's coverage map keys
    // on which checks a schedule actually reached.
    for (site, n) in run.inv.site_counts() {
        obs::add_named(&format!("faults.check.{site}"), n);
    }
    obs::add_named("hybrid.route_repairs", run.repairs);
    obs::add_named("hybrid.flows_exact", run.flows_exact);
    obs::add_named("hybrid.flows_aggregated", run.flows_aggregated);

    ChaosReport {
        rows,
        broker: run.stats,
        fleet: run.fleet.stats(),
        faults: fault_counts,
        arrivals: total_arrivals,
        killed: run.killed_total,
        retries: run.retries_total,
        completed: run.led.completed,
        spend_usd: run.fleet.spend_usd(),
        budget_usd: svc.fleet.budget_usd,
        invariant_violations: run.inv.violations().to_vec(),
        slo: run.led.slo,
        spans: spans.spans,
        span_count: spans.count,
        span_dropped: spans.dropped,
        attribution: spans.attribution,
    }
}

/// Maps router-level paths into one [`HybridSim`], instantiating every
/// topology link once so subflows contend where the real paths share
/// links (the same construction `cronets::select::mptcp` uses for its
/// [`transport::des::Netsim`]).
fn build_paths(sim: &mut HybridSim, net: &Network, paths: &[&RouterPath]) -> Vec<DesPath> {
    let mut index: HashMap<LinkId, usize> = HashMap::new();
    paths
        .iter()
        .map(|path| {
            let links = path
                .links()
                .iter()
                .map(|&l| {
                    *index.entry(l).or_insert_with(|| {
                        let link = net.link(l);
                        let queue = (link.capacity_bps() / 8 / 10).max(64 << 10);
                        sim.add_link(link.capacity_bps(), link.latency(), link.loss_prob(), queue)
                    })
                })
                .collect();
            DesPath::new(links)
        })
        .collect()
}

/// Single-path TCP goodput over one routed path at the given fidelity
/// (at [`Fidelity::Des`] this replays into a [`transport::des::Netsim`]
/// byte-identically).
fn tcp_at(
    net: &Network,
    path: &RouterPath,
    params: &TcpParams,
    duration: SimDuration,
    seed: u64,
    fidelity: Fidelity,
) -> f64 {
    let mut sim = HybridSim::new(seed, fidelity);
    let mut des_paths = build_paths(&mut sim, net, &[path]);
    let cfg = TransferConfig {
        duration,
        params: *params,
        cc: CongestionAlg::Reno,
        sample_interval: None,
    };
    let f = sim.add_tcp_flow(des_paths.remove(0), &cfg);
    sim.run().remove(f).goodput_bps
}

/// MPTCP aggregate goodput over all paths at the given fidelity.
fn mptcp_at(
    net: &Network,
    paths: &[&RouterPath],
    coupling: CouplingAlg,
    params: &TcpParams,
    duration: SimDuration,
    seed: u64,
    fidelity: Fidelity,
) -> f64 {
    let mut sim = HybridSim::new(seed, fidelity);
    let des_paths = build_paths(&mut sim, net, paths);
    let cfg = MptcpConfig {
        transfer: TransferConfig {
            duration,
            params: *params,
            cc: CongestionAlg::Cubic,
            sample_interval: None,
        },
        coupling,
    };
    let f = sim.add_mptcp_flow(des_paths, &cfg);
    sim.run().remove(f).goodput_bps
}

/// One figure quantity of Fig. 12/13, measured at both fidelities.
#[derive(Debug, Clone)]
pub struct AccuracyRow {
    /// Worst-direct pair index (the figure's x axis, 0-based).
    pub pair: usize,
    /// Which bar: `direct`, `max_overlay`, `mptcp_olia` or `mptcp_cubic`.
    pub quantity: &'static str,
    /// Goodput under full DES, bps.
    pub des_bps: f64,
    /// Goodput under hybrid fidelity, bps.
    pub hybrid_bps: f64,
}

impl AccuracyRow {
    /// Relative hybrid-vs-DES goodput error, percent.
    #[must_use]
    pub fn err_pct(&self) -> f64 {
        (self.hybrid_bps - self.des_bps).abs() / self.des_bps.max(1.0) * 100.0
    }
}

/// Hybrid-vs-DES goodput accuracy over the Fig. 12/13 scenario: every
/// figure bar (single-path direct TCP, best overlay, MPTCP under both
/// couplings) computed at both fidelities from identical routed paths.
#[derive(Debug, Clone)]
pub struct HybridAccuracy {
    /// One row per (pair, figure quantity).
    pub rows: Vec<AccuracyRow>,
}

impl HybridAccuracy {
    /// Worst relative error across all rows, percent.
    #[must_use]
    pub fn max_err_pct(&self) -> f64 {
        self.rows
            .iter()
            .map(AccuracyRow::err_pct)
            .fold(0.0, f64::max)
    }

    /// Mean relative error across all rows, percent.
    #[must_use]
    pub fn mean_err_pct(&self) -> f64 {
        self.rows.iter().map(AccuracyRow::err_pct).sum::<f64>() / self.rows.len().max(1) as f64
    }

    /// The accuracy table as TSV (with a `#`-prefixed header).
    #[must_use]
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("# pair\tquantity\tdes_bps\thybrid_bps\terr_pct\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{}\t{}\t{:.0}\t{:.0}\t{:.3}\n",
                r.pair,
                r.quantity,
                r.des_bps,
                r.hybrid_bps,
                r.err_pct()
            ));
        }
        out.push_str(&format!(
            "# max_err_pct\t{:.3}\tmean_err_pct\t{:.3}\n",
            self.max_err_pct(),
            self.mean_err_pct()
        ));
        out
    }
}

impl fmt::Display for HybridAccuracy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== hybrid-vs-DES goodput accuracy (Fig. 12/13 scenario) ==="
        )?;
        writeln!(
            f,
            "{:>4} {:>12} {:>12} {:>12} {:>8}",
            "pair", "quantity", "DES Mbps", "hybrid Mbps", "err"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>4} {:>12} {:>12.2} {:>12.2} {:>7.2}%",
                r.pair,
                r.quantity,
                r.des_bps / 1e6,
                r.hybrid_bps / 1e6,
                r.err_pct()
            )?;
        }
        writeln!(
            f,
            "max error {:.2}%, mean error {:.2}% over {} quantities",
            self.max_err_pct(),
            self.mean_err_pct(),
            self.rows.len()
        )
    }
}

/// Runs the Fig. 12/13 accuracy check: each kept worst-direct pair's
/// figure quantities at [`Fidelity::Des`] and [`Fidelity::Hybrid`],
/// with identical seeds and identical shared-link DES construction, so
/// every difference is attributable to the hybrid settlement itself.
#[must_use]
pub fn accuracy(config: &MptcpExpConfig) -> HybridAccuracy {
    let (world, params, prepared) = prepared_pairs(config);
    let world = &world;
    let prepared = &prepared;
    let per_pair = exec::parallel_map(prepared.len(), |i| {
        let p = &prepared[i];
        let seed = config.seed ^ ((i as u64) << 8);
        let at = |fid| tcp_at(&world.net, &p.direct, &params, config.duration, seed, fid);
        let best = |fid| {
            p.overlays
                .iter()
                .enumerate()
                .map(|(j, path)| {
                    tcp_at(
                        &world.net,
                        path,
                        &params,
                        config.duration,
                        seed ^ (j as u64 + 1),
                        fid,
                    )
                })
                .fold(0.0, f64::max)
        };
        let mut all_paths: Vec<&RouterPath> = vec![&p.direct];
        all_paths.extend(p.overlays.iter());
        let agg = |coupling, fid| {
            mptcp_at(
                &world.net,
                &all_paths,
                coupling,
                &params,
                config.duration,
                seed ^ 0xFF,
                fid,
            )
        };
        vec![
            AccuracyRow {
                pair: i,
                quantity: "direct",
                des_bps: at(Fidelity::Des),
                hybrid_bps: at(Fidelity::Hybrid),
            },
            AccuracyRow {
                pair: i,
                quantity: "max_overlay",
                des_bps: best(Fidelity::Des),
                hybrid_bps: best(Fidelity::Hybrid),
            },
            AccuracyRow {
                pair: i,
                quantity: "mptcp_olia",
                des_bps: agg(CouplingAlg::Olia, Fidelity::Des),
                hybrid_bps: agg(CouplingAlg::Olia, Fidelity::Hybrid),
            },
            AccuracyRow {
                pair: i,
                quantity: "mptcp_cubic",
                des_bps: agg(CouplingAlg::Uncoupled, Fidelity::Des),
                hybrid_bps: agg(CouplingAlg::Uncoupled, Fidelity::Hybrid),
            },
        ]
    });
    HybridAccuracy {
        rows: per_pair.into_iter().flatten().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::chaos;
    use crate::service::service;

    fn tiny_cfg() -> ServiceConfig {
        let mut cfg = ServiceConfig::smoke();
        cfg.workload.epochs = 8;
        cfg.workload.mean_rate_per_sec = 4.0;
        cfg.workload.diurnal_period = cfg.workload.epoch * 8;
        cfg.fidelity = Fidelity::Hybrid;
        cfg
    }

    fn tiny_chaos_cfg() -> ChaosConfig {
        let mut cfg = ChaosConfig::smoke();
        cfg.service.workload.epochs = 10;
        cfg.service.workload.mean_rate_per_sec = 4.0;
        cfg.service.workload.diurnal_period = cfg.service.workload.epoch * 10;
        cfg.service.fidelity = Fidelity::Hybrid;
        cfg.faults.horizon = cfg.service.workload.horizon();
        cfg.faults.relay_mtbf = SimDuration::from_secs(500);
        cfg.faults.relay_mttr = SimDuration::from_secs(120);
        cfg.faults.mttr_cap = SimDuration::from_secs(300);
        // Enough flap pressure that the short horizon still draws
        // degradation windows (smoke severity 0.95 ≥ REPAIR_SEVERITY,
        // so each one exercises the route-repair path).
        cfg.faults.link_flap_per_hour = 6.0;
        cfg
    }

    /// The Fig. 12/13 paths all run at WAN RTTs, so the hybrid engine
    /// promotes every figure flow to the packet engine and the
    /// goodput error against full DES is exactly zero.
    #[test]
    fn accuracy_meets_the_five_percent_bound() {
        let acc = accuracy(&MptcpExpConfig::quick(1));
        assert_eq!(acc.rows.len(), 3 * 4);
        assert!(
            acc.max_err_pct() <= 5.0,
            "hybrid-vs-DES error {:.2}% breaches the 5% bound",
            acc.max_err_pct()
        );
    }

    #[test]
    fn quantile_table_is_monotone_and_clamped() {
        let cfg = tiny_cfg();
        let q = byte_quantiles(&cfg.workload);
        assert_eq!(q.len(), QUANTILES);
        assert!(q.windows(2).all(|w| w[0] <= w[1]));
        assert!(q[0] >= cfg.workload.min_flow_bytes);
        assert!(q[QUANTILES - 1] <= cfg.workload.max_flow_bytes);
        // The clamp must not collapse the table.
        assert!(q[0] < q[QUANTILES - 1]);
    }

    #[test]
    fn inverse_cdf_brackets_the_median() {
        assert!(inv_norm_cdf(0.5).abs() < 1e-9);
        assert!((inv_norm_cdf(0.975) - 1.96).abs() < 1e-2);
        assert!((inv_norm_cdf(0.025) + 1.96).abs() < 1e-2);
    }

    #[test]
    fn hybrid_service_balances_its_ledgers() {
        let r = service(&tiny_cfg(), 11);
        assert_eq!(r.rows.len(), 8);
        let admitted = r.broker.overlay + r.broker.direct + r.broker.stale_fallback;
        assert_eq!(r.broker.admitted, admitted);
        assert_eq!(r.arrivals, r.broker.admitted + r.broker.denied);
        assert_eq!(
            r.completed, r.broker.admitted,
            "every admitted flow settles"
        );
        assert_eq!(r.completed, r.slo.completed());
        assert!(r.spend_usd <= r.budget_usd + 1e-9, "spend over budget");
        assert!(r.broker.overlay > 0, "no overlay admissions");
        assert!(r.broker.stale_fallback > 0, "staleness never bit");
    }

    #[test]
    fn hybrid_service_is_deterministic() {
        let a = service(&tiny_cfg(), 5);
        let b = service(&tiny_cfg(), 5);
        assert_eq!(a.to_tsv(), b.to_tsv());
        assert_eq!(format!("{a}"), format!("{b}"));
    }

    #[test]
    fn hybrid_seeds_change_the_run() {
        let a = service(&tiny_cfg(), 5);
        let b = service(&tiny_cfg(), 6);
        assert_ne!(a.to_tsv(), b.to_tsv());
    }

    #[test]
    fn analytic_coincides_with_hybrid_at_service_level() {
        let mut an = tiny_cfg();
        an.fidelity = Fidelity::Analytic;
        assert_eq!(service(&tiny_cfg(), 7).to_tsv(), service(&an, 7).to_tsv());
    }

    #[test]
    fn hybrid_tracks_the_des_run_in_aggregate() {
        let mut des = tiny_cfg();
        des.fidelity = Fidelity::Des;
        let d = service(&des, 11);
        let h = service(&tiny_cfg(), 11);
        // Different streams, same process: totals agree statistically.
        let ratio = h.arrivals as f64 / d.arrivals as f64;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "arrival mass diverged: {ratio}"
        );
        assert!(h.broker.overlay > 0 && d.broker.overlay > 0);
        let stale_h = h.broker.stale_fallback as f64 / h.arrivals as f64;
        let stale_d = d.broker.stale_fallback as f64 / d.arrivals as f64;
        assert!(
            (stale_h - stale_d).abs() < 0.1,
            "stale share diverged: {stale_h} vs {stale_d}"
        );
    }

    #[test]
    fn hybrid_chaos_survives_and_keeps_its_invariants() {
        let r = chaos(&tiny_chaos_cfg(), 7);
        assert_eq!(r.rows.len(), 10);
        assert!(r.faults.crashes > 0, "no crashes injected");
        assert!(r.killed > 0, "no flow ever rode a crashing relay");
        assert_eq!(r.killed, r.retries, "every kill re-enters exactly once");
        assert!(r.completed > 0);
        assert!(r.spend_usd <= r.budget_usd + 1e-9, "spend over budget");
        assert!(
            r.invariant_violations.is_empty(),
            "{:?}",
            r.invariant_violations
        );
        assert!(r.faults.degradations > 0, "repair path never exercised");
    }

    #[test]
    fn hybrid_chaos_is_deterministic() {
        let a = crate::chaos::tests::recorded(|| chaos(&tiny_chaos_cfg(), 5));
        let b = crate::chaos::tests::recorded(|| chaos(&tiny_chaos_cfg(), 5));
        assert!(!a.spans.is_empty());
        assert_eq!(a.to_tsv(), b.to_tsv());
        let dump = |r: &ChaosReport| {
            r.spans
                .iter()
                .map(obs::SpanRecord::to_tsv)
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(dump(&a), dump(&b));
        assert_eq!(a.attribution.to_tsv(), b.attribution.to_tsv());
    }

    #[test]
    fn hybrid_chaos_attributes_kills_to_faults() {
        let r = chaos(&tiny_chaos_cfg(), 7);
        assert_eq!(r.span_dropped, 0, "per-epoch drains keep the ring empty");
        assert!(r.killed > 0);
        assert_eq!(
            r.attribution.attributed_killed() + r.attribution.unattributed_killed,
            r.killed
        );
        assert_eq!(r.attribution.unattributed_killed, 0);
        assert!(r.attribution.charges.iter().any(|c| c.killed > 0));
    }
}
