//! The online overlay service: workload → broker → flow DES → SLO/spend.
//!
//! Closes the loop the paper sketches in §VI–§VII: CRONets run *as a
//! service*. An open-loop workload ([`control::workload`]) issues flow
//! requests against server/client pairs; an admission broker
//! ([`control::broker`]) steers each flow onto the direct path or a
//! one-hop overlay using a staleness-bounded probe cache; admitted flows
//! run as discrete events on [`simcore::EventQueue`] and occupy relay
//! capacity until they complete; a fleet autoscaler ([`control::fleet`])
//! rents and drains relays against a cloud budget at every epoch
//! boundary; and an SLO ledger ([`control::slo`]) charges per-tenant
//! violations.
//!
//! # Determinism
//!
//! The run is a pure function of `(config, seed)` at any `--threads N`:
//!
//! * per-epoch arrivals come from `(seed, epoch)` substreams, generated
//!   at the start of each epoch and merged into the event queue's
//!   `(time, seq)` order without being scheduled (see
//!   [`ServiceLoop::run_epoch`]), so memory holds one epoch of requests;
//! * per-epoch path truth is evaluated with one work unit per pair over
//!   a read-only [`RouteCache`], merged in pair order;
//! * the event loop itself is serial, and [`simcore::EventQueue`] breaks
//!   time ties FIFO, so the decision sequence is schedule-independent;
//! * telemetry flows through `obs` unit shards absorbed in unit order.

use std::fmt;

use cloud::{PortSpeed, TrafficPlan};
use control::{
    Broker, BrokerConfig, Decision, Fleet, FleetConfig, FlowRequest, PathsPolicy, ShardMsg,
    SloAccount, SloTarget, WorkloadConfig,
};
use cronets::eval::{modes_from_segments, quality, Measurement, OverlayEval, PairEval};
use cronets::select::{achieved, PathChoice};
use paths::{relay_hop_price_per_gb, ArmEval, BanditConfig, Candidate, EnumerateConfig, Hops};
use routing::{NodeAddr, RouteCache, RouterPath};
use simcore::{EventQueue, Merged, SimDuration, SimTime};
use topology::RouterId;
use transport::model::tcp_throughput;
use transport::Fidelity;

use crate::scenario::{ScenarioConfig, World};

/// Full configuration of a service run.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The world to build (topology, cloud footprint, endpoints).
    pub scenario: ScenarioConfig,
    /// The open-loop arrival process.
    pub workload: WorkloadConfig,
    /// Admission / path-selection policy.
    pub broker: BrokerConfig,
    /// Relay autoscaling policy. `fleet.relays` must match the
    /// scenario's overlay node count.
    pub fleet: FleetConfig,
    /// Per-tenant SLO targets; `workload.tenants` must equal
    /// `slo.len()`.
    pub slo: Vec<SloTarget>,
    /// Probe cadence: the broker's path cache is refreshed every
    /// `probe_every` epochs (1 = every epoch, i.e. an always-fresh
    /// oracle). Ignored under [`PathsPolicy::MultiHop`], where the
    /// bandit's probe budget replaces the flat cadence.
    pub probe_every: u32,
    /// Path-selection engine: the paper's one-hop broker (default) or
    /// the k-hop bandit engine from the `paths` crate.
    pub paths: PathsPolicy,
    /// Maximum relay hops per chain under the multihop policy (1..=3).
    pub khops: usize,
    /// Simulation fidelity. [`Fidelity::Des`] (the default) runs the
    /// exact per-flow event loop; [`Fidelity::Hybrid`] and
    /// [`Fidelity::Analytic`] run the blended loop in [`crate::hybrid`],
    /// which keeps overlay-riding flows exact and settles the direct-path
    /// mass arithmetically (the two coincide at the service level).
    pub fidelity: Fidelity,
}

impl ServiceConfig {
    /// CI-sized configuration: a tiny world under a ~115k-arrival day.
    /// Tuned so a smoke run still exercises every control-plane path —
    /// overlay admissions, stale fallbacks, at least one scale-up and
    /// one drain/release — in a few seconds.
    #[must_use]
    pub fn smoke() -> ServiceConfig {
        let epoch = SimDuration::from_secs(150);
        let epochs = 48;
        ServiceConfig {
            scenario: ScenarioConfig::tiny(),
            workload: WorkloadConfig {
                clients: 50_000,
                tenants: 4,
                epochs,
                epoch,
                mean_rate_per_sec: 16.0,
                diurnal_amplitude: 0.7,
                diurnal_period: epoch * u64::from(epochs),
                median_flow_bytes: 6e6,
                flow_sigma: 1.2,
                min_flow_bytes: 64 * 1024,
                max_flow_bytes: 64 * 1024 * 1024,
            },
            broker: BrokerConfig {
                // 1.5 epochs: with probe_every = 2 the second half of
                // every unprobed epoch runs on stale state and falls
                // back to direct.
                max_probe_age: epoch.mul_f64(1.5),
                min_accept_bps: 200_000.0,
                overlay_margin: 1.05,
            },
            fleet: FleetConfig {
                relays: 5,
                capacity_per_relay: 2,
                min_active: 1,
                port: PortSpeed::Mbps100,
                plan: TrafficPlan::Gb5000,
                budget_usd: 0.60,
                scale_up_util: 0.75,
                scale_down_util: 0.30,
            },
            slo: vec![
                SloTarget {
                    min_throughput_ratio: 0.95,
                    max_completion: SimDuration::from_secs(30),
                },
                SloTarget {
                    min_throughput_ratio: 0.90,
                    max_completion: SimDuration::from_secs(60),
                },
                SloTarget {
                    min_throughput_ratio: 0.75,
                    max_completion: SimDuration::from_secs(120),
                },
                SloTarget {
                    min_throughput_ratio: 0.50,
                    max_completion: SimDuration::from_secs(300),
                },
            ],
            probe_every: 2,
            paths: PathsPolicy::OneHop,
            khops: 2,
            fidelity: Fidelity::Des,
        }
    }

    /// Paper-scale configuration: the §II-A web-server world under a
    /// ~1M-arrival day (one diurnal cycle over 24 simulated hours).
    #[must_use]
    pub fn paper() -> ServiceConfig {
        let epoch = SimDuration::from_secs(900);
        let epochs = 96;
        ServiceConfig {
            scenario: ScenarioConfig::web_server(),
            workload: WorkloadConfig {
                clients: 1_000_000,
                tenants: 8,
                epochs,
                epoch,
                mean_rate_per_sec: 11.6,
                diurnal_amplitude: 0.7,
                diurnal_period: epoch * u64::from(epochs),
                median_flow_bytes: 1.5e6,
                flow_sigma: 1.2,
                min_flow_bytes: 64 * 1024,
                max_flow_bytes: 64 * 1024 * 1024,
            },
            broker: BrokerConfig {
                max_probe_age: epoch.mul_f64(1.5),
                min_accept_bps: 200_000.0,
                overlay_margin: 1.05,
            },
            fleet: FleetConfig {
                relays: 5,
                capacity_per_relay: 8,
                min_active: 1,
                port: PortSpeed::Gbps1,
                plan: TrafficPlan::Gb20000,
                budget_usd: 30.0,
                scale_up_util: 0.75,
                scale_down_util: 0.30,
            },
            slo: vec![
                SloTarget {
                    min_throughput_ratio: 0.95,
                    max_completion: SimDuration::from_secs(30),
                },
                SloTarget {
                    min_throughput_ratio: 0.95,
                    max_completion: SimDuration::from_secs(60),
                },
                SloTarget {
                    min_throughput_ratio: 0.90,
                    max_completion: SimDuration::from_secs(60),
                },
                SloTarget {
                    min_throughput_ratio: 0.90,
                    max_completion: SimDuration::from_secs(120),
                },
                SloTarget {
                    min_throughput_ratio: 0.75,
                    max_completion: SimDuration::from_secs(120),
                },
                SloTarget {
                    min_throughput_ratio: 0.75,
                    max_completion: SimDuration::from_secs(300),
                },
                SloTarget {
                    min_throughput_ratio: 0.50,
                    max_completion: SimDuration::from_secs(300),
                },
                SloTarget {
                    min_throughput_ratio: 0.50,
                    max_completion: SimDuration::from_secs(600),
                },
            ],
            probe_every: 2,
            paths: PathsPolicy::OneHop,
            khops: 2,
            fidelity: Fidelity::Des,
        }
    }
}

/// One epoch's aggregate activity (a row of `results/service.tsv`).
#[derive(Debug, Clone, Copy)]
pub struct EpochRow {
    /// Epoch index.
    pub epoch: u32,
    /// Flow requests issued this epoch.
    pub arrivals: u64,
    /// Admissions steered through an overlay relay.
    pub overlay: u64,
    /// Admissions on the direct path (fresh probe).
    pub direct: u64,
    /// Admissions denied.
    pub denied: u64,
    /// Stale-probe fallbacks to direct.
    pub stale: u64,
    /// Flows that completed during this epoch.
    pub completed: u64,
    /// SLO violations charged during this epoch.
    pub violations: u64,
    /// Active relays at epoch end (after rebalance).
    pub active: usize,
    /// Draining relays at epoch end.
    pub draining: usize,
    /// Active-relay utilization at epoch end.
    pub util: f64,
    /// Cumulative cloud spend at epoch end, USD.
    pub spend_usd: f64,
}

/// The completed service run.
#[derive(Debug)]
pub struct ServiceReport {
    /// One row per epoch.
    pub rows: Vec<EpochRow>,
    /// Decision counters.
    pub broker: control::BrokerStats,
    /// Scaling-event counters.
    pub fleet: control::FleetStats,
    /// The per-tenant SLO ledger.
    pub slo: SloAccount,
    /// Total flow arrivals.
    pub arrivals: u64,
    /// Total completions (includes flows finishing after the horizon).
    pub completed: u64,
    /// Final cloud spend, USD.
    pub spend_usd: f64,
    /// The configured budget, USD.
    pub budget_usd: f64,
}

impl ServiceReport {
    /// The epoch table as TSV (with a `#`-prefixed header).
    #[must_use]
    pub fn to_tsv(&self) -> String {
        let mut out = String::from(
            "# epoch\tarrivals\toverlay\tdirect\tdenied\tstale\tcompleted\tviolations\tactive\tdraining\tutil\tspend_usd\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.4}\t{:.6}\n",
                r.epoch,
                r.arrivals,
                r.overlay,
                r.direct,
                r.denied,
                r.stale,
                r.completed,
                r.violations,
                r.active,
                r.draining,
                r.util,
                r.spend_usd,
            ));
        }
        out
    }
}

impl fmt::Display for ServiceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "service: {} arrivals over {} epochs, {} completed, {} denied",
            self.arrivals,
            self.rows.len(),
            self.completed,
            self.broker.denied,
        )?;
        writeln!(
            f,
            "broker: {} overlay admissions, {} direct, {} stale fallbacks",
            self.broker.overlay, self.broker.direct, self.broker.stale_fallback,
        )?;
        if self.broker.probe_refreshes > 0 {
            writeln!(
                f,
                "paths: {} chain admissions, {} probes over {} bandit refreshes",
                self.broker.chain, self.broker.probe_spent, self.broker.probe_refreshes,
            )?;
        }
        writeln!(
            f,
            "fleet: {} scale-ups, {} drains, {} releases; spend ${:.4} of ${:.4} budget",
            self.fleet.scale_ups,
            self.fleet.drains,
            self.fleet.releases,
            self.spend_usd,
            self.budget_usd,
        )?;
        writeln!(f, "slo: {} violations", self.slo.violations())?;
        for (i, (t, acct)) in self
            .slo
            .targets()
            .iter()
            .zip(self.slo.tenants())
            .enumerate()
        {
            writeln!(
                f,
                "  tenant {i} (ratio>={:.2}, t<={}): {} completed, mean ratio {:.2}, {} violations",
                t.min_throughput_ratio,
                t.max_completion,
                acct.completed,
                acct.mean_ratio(),
                acct.violations(),
            )?;
        }
        Ok(())
    }
}

/// The relay *slots* a flow holds, in traversal order. Distinct from
/// [`Hops`] (which packs overlay-node indices into `u8`s): a grouped
/// fleet has many slots per node — up to 320 in the planetary config —
/// so slot ids need 16 bits.
#[derive(Debug, Clone, Copy)]
struct SlotHops {
    slots: [u16; 3],
    len: u8,
}

impl SlotHops {
    const EMPTY: SlotHops = SlotHops {
        slots: [0; 3],
        len: 0,
    };

    fn push(&mut self, slot: usize) {
        assert!(slot <= usize::from(u16::MAX), "relay slot id overflows u16");
        self.slots[usize::from(self.len)] = slot as u16;
        self.len += 1;
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots[..usize::from(self.len)]
            .iter()
            .map(|&s| s.into())
    }
}

/// Claims one slot per hop group, in traversal order.
fn claim_slots(fleet: &mut Fleet, hops: &Hops) -> SlotHops {
    let mut s = SlotHops::EMPTY;
    for g in hops.iter() {
        s.push(fleet.start_in_group(g));
    }
    s
}

/// A flow-level discrete event.
enum Ev {
    /// Arrival `idx` of the current epoch reaches the broker. Never
    /// queued: the loop merges the epoch's sorted arrivals with the
    /// queue and dispatches them through this variant.
    Arrive { idx: u32 },
    /// An admitted flow finishes.
    Complete {
        tenant: u32,
        /// The relay slots the flow holds (empty for the direct path,
        /// one entry for the paper's one-hop overlay).
        slots: SlotHops,
        /// Achieved/direct throughput ratio (ground truth at admission).
        ratio: f64,
        issued: SimTime,
    },
    /// The egress leg of a cross-region flow finishes; the remainder is
    /// handed to the destination region at the next epoch barrier.
    RemoteEgress {
        flow: u64,
        /// Destination region index.
        dst: u32,
        tenant: u32,
        slots: SlotHops,
        /// Bytes the egress leg delivered.
        handed: u64,
        /// Bytes handed to the destination region.
        remaining: u64,
        /// Origin direct-path estimate, for a bounced retry.
        direct_bps: f64,
        rtt: SimDuration,
        issued: SimTime,
    },
    /// The ingress leg of a flow handed off *to* this region finishes;
    /// a `Done` goes back to the origin at the next barrier.
    RemoteComplete {
        flow: u64,
        origin: u32,
        tenant: u32,
        slots: SlotHops,
        ratio: f64,
        remaining: u64,
        issued: SimTime,
    },
}

/// Cross-region behaviour of one shard of the sharded service; `None`
/// in the classic single-region loop.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RemoteCfg {
    /// This shard's region index.
    pub region: u32,
    /// Total regions in the run.
    pub regions: u32,
    /// Per-mille of arrivals whose client is in another region.
    pub permille: u32,
    /// Record the byte-conservation ledger ([`RemoteEvent`]).
    pub ledger: bool,
}

impl RemoteCfg {
    /// Deterministically classifies an arrival: `None` keeps the flow
    /// region-local; `Some((gid, dst))` marks it cross-region with a
    /// globally unique flow id and a destination region. Pure in
    /// `(region, request id)` — a SplitMix64 finalizer, no RNG draws,
    /// so sharding never perturbs the workload substreams.
    fn split(&self, req_id: u64) -> Option<(u64, u32)> {
        if self.regions < 2 || self.permille == 0 {
            return None;
        }
        let mut z = req_id ^ (u64::from(self.region) << 44) ^ 0x5EED_C0FF_EE00_0000;
        z = z.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        if z % 1000 >= u64::from(self.permille) {
            return None;
        }
        let mut d = ((z >> 10) % u64::from(self.regions - 1)) as u32;
        if d >= self.region {
            d += 1;
        }
        Some(((u64::from(self.region) << 48) | req_id, d))
    }
}

/// One entry of the cross-region byte-conservation ledger, recorded in
/// deterministic processing order when [`RemoteCfg::ledger`] is on. The
/// shard-invariance tests replay it into `faults::Invariants` to prove
/// a handed-off (and possibly bounced) flow accounts for every byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoteEvent {
    /// A cross-region flow arrived at its origin broker.
    Requested {
        /// Global flow id.
        flow: u64,
        /// Total bytes requested.
        bytes: u64,
    },
    /// The origin broker denied the flow (terminal, no bytes moved).
    Denied {
        /// Global flow id.
        flow: u64,
    },
    /// The egress leg delivered `delivered` bytes and handed the rest off.
    HandedOff {
        /// Global flow id.
        flow: u64,
        /// Bytes the egress leg delivered.
        delivered: u64,
    },
    /// The destination bounced the flow back for a direct retry.
    Retried {
        /// Global flow id.
        flow: u64,
    },
    /// The remainder was delivered (by the destination or the retry).
    Completed {
        /// Global flow id.
        flow: u64,
        /// Bytes delivered by this terminal segment.
        delivered: u64,
    },
}

/// Ground-truth path evaluation for every pair under the current
/// congestion state, over the read-only cache. One work unit per pair,
/// merged in pair order.
pub(crate) fn epoch_truth(
    world: &World,
    cache: &RouteCache,
    pairs: &[(RouterId, RouterId)],
) -> Vec<PairEval> {
    let net = &world.net;
    let params = *world.cronet.params();
    let tunnel = world.cronet.tunnel();
    let nodes = world.cronet.nodes();
    exec::parallel_map(pairs.len(), |pi| {
        let (server, client) = pairs[pi];
        // Pairs are pre-filtered to routable at build time, but a
        // post-fault route repair can sever the direct route later; a
        // dead direct path is scored as zero throughput / total loss
        // (overlays may still reach the client — the paper's story).
        let (direct, direct_path) = match cache.route(net, server, client) {
            Some(direct_path) => {
                let q_direct = quality(net, &direct_path);
                let direct = Measurement {
                    throughput_bps: tcp_throughput(&q_direct, &params),
                    rtt: q_direct.rtt,
                    loss: q_direct.loss,
                };
                (direct, direct_path)
            }
            None => (
                Measurement {
                    throughput_bps: 0.0,
                    rtt: SimDuration::ZERO,
                    loss: 1.0,
                },
                RouterPath::trivial(server),
            ),
        };
        let mut overlays = Vec::with_capacity(nodes.len());
        for (ni, node) in nodes.iter().enumerate() {
            let Some(seg1) = cache.route(net, server, node.vm()) else {
                continue;
            };
            let Some(seg2) = cache.route(net, node.vm(), client) else {
                continue;
            };
            let q_a = quality(net, &seg1);
            let q_b = quality(net, &seg2);
            let (plain, split, discrete_bps) =
                modes_from_segments(&q_a, &q_b, node, tunnel, &params);
            overlays.push(OverlayEval {
                node: ni,
                plain,
                split,
                discrete_bps,
                path: seg1.join(seg2),
            });
        }
        PairEval {
            direct,
            direct_path,
            overlays,
        }
    })
}

/// Completion latency of a flow: one path RTT of setup plus the
/// transfer at the achieved rate.
pub(crate) fn completion_time(bytes: u64, bps: f64, rtt: SimDuration) -> SimDuration {
    rtt + SimDuration::from_secs_f64(bytes as f64 * 8.0 / bps.max(1.0))
}

/// Builds the service's warmed route cache and pair catalogue: every
/// routable (server, client) combination, plus prefetched relay legs.
/// Shared by the DES loop, the chaos harness, and the hybrid loop so
/// all fidelities price the same catalogue.
///
/// # Panics
///
/// Panics if no server/client pair is routable.
pub(crate) fn prefetched_pairs(world: &World) -> (RouteCache, Vec<(RouterId, RouterId)>) {
    let mut cache = RouteCache::build(&world.net);
    let mut keys: Vec<(RouterId, RouterId)> = Vec::new();
    for &s in &world.servers {
        keys.extend(world.clients.iter().map(|&c| (s, c)));
        keys.extend(world.cronet.nodes().iter().map(|n| (s, n.vm())));
    }
    for n in world.cronet.nodes() {
        keys.extend(world.clients.iter().map(|&c| (n.vm(), c)));
    }
    cache.prefetch(&world.net, &keys);
    let pairs: Vec<(RouterId, RouterId)> = world
        .servers
        .iter()
        .flat_map(|&s| world.clients.iter().map(move |&c| (s, c)))
        .filter(|&(s, c)| cache.route(&world.net, s, c).is_some())
        .collect();
    assert!(!pairs.is_empty(), "no routable server/client pair");
    (cache, pairs)
}

/// Maps a virtual workload client onto the pair catalogue. Mixes the
/// client id first (SplitMix64 finalizer) so the pair is decorrelated
/// from `client % tenants` — otherwise each tenant would own a fixed
/// subset of pairs whenever the tenant count divides the pair count.
pub(crate) fn pair_of(client: u64, n_pairs: usize) -> usize {
    let mut z = client.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % n_pairs as u64) as usize
}

/// The service loop as a steppable state machine: the classic
/// [`service`] entry point drives it epoch by epoch with empty
/// mailboxes, and the sharded engine (`crate::sharded`) drives one per
/// region with epoch-barriered cross-shard messages in between.
pub(crate) struct ServiceLoop {
    cfg: ServiceConfig,
    world: World,
    cache: RouteCache,
    pairs: Vec<(RouterId, RouterId)>,
    multihop: bool,
    cands: Vec<Vec<Candidate>>,
    seed: u64,
    /// The current epoch's arrivals, sorted by `(at, id)`.
    arrivals: Vec<FlowRequest>,
    total_arrivals: u64,
    broker: Broker,
    fleet: Fleet,
    slo: SloAccount,
    queue: EventQueue<Ev>,
    rows: Vec<EpochRow>,
    // Exact billing: accrue rent up to `billed_to` before every fleet
    // state change, so mid-epoch releases stop the meter mid-epoch.
    billed_to: SimTime,
    horizon: SimTime,
    completed_total: u64,
    remote: Option<RemoteCfg>,
    outbox: Vec<ShardMsg>,
    ledger: Vec<RemoteEvent>,
    handoffs: u64,
    retries: u64,
}

impl ServiceLoop {
    /// Builds the loop's world, pair catalogue and control-plane state.
    /// Arrivals are generated one epoch at a time by
    /// [`ServiceLoop::run_epoch`]. `remote` turns on the cross-region
    /// protocol for one shard of the sharded service.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (tenant counts
    /// differ, fleet slots don't group evenly over the overlay nodes,
    /// zero probe cadence, or no routable server/client pair).
    pub(crate) fn new(cfg: &ServiceConfig, seed: u64, remote: Option<RemoteCfg>) -> ServiceLoop {
        assert_eq!(cfg.fidelity, Fidelity::Des, "ServiceLoop is the DES path");
        assert!(cfg.probe_every >= 1, "probe_every must be at least 1");
        assert_eq!(
            cfg.workload.tenants as usize,
            cfg.slo.len(),
            "one SLO target per tenant"
        );
        let world = World::build(&cfg.scenario, seed);
        let nodes_n = world.cronet.nodes().len();
        assert!(
            cfg.fleet.relays.is_multiple_of(nodes_n),
            "fleet slots must group evenly over the scenario's overlay nodes"
        );

        // The service's pair catalogue: every routable (server, client)
        // combination; virtual workload clients map onto it round-robin.
        let (mut cache, pairs) = prefetched_pairs(&world);

        // Multihop policy: fix each pair's candidate chains once (static
        // pruning keeps arm indices stable for the bandits' whole run)
        // and warm the relay-mesh legs the chains ride on.
        let multihop = cfg.paths == PathsPolicy::MultiHop;
        let mut cands: Vec<Vec<Candidate>> = Vec::new();
        if multihop {
            let mesh: Vec<(RouterId, RouterId)> = world
                .cronet
                .nodes()
                .iter()
                .flat_map(|a| {
                    world
                        .cronet
                        .nodes()
                        .iter()
                        .filter(move |b| b.vm() != a.vm())
                        .map(move |b| (a.vm(), b.vm()))
                })
                .collect();
            cache.prefetch(&world.net, &mesh);
            let ecfg = EnumerateConfig::khops(cfg.khops);
            let hop_price = relay_hop_price_per_gb(cfg.fleet.port, cfg.fleet.plan);
            let (net, nodes) = (&world.net, world.cronet.nodes());
            let shared = &cache;
            cands = exec::parallel_map(pairs.len(), |pi| {
                let (s, c) = pairs[pi];
                paths::enumerate(net, shared, nodes, s, c, &ecfg, hop_price)
            });
        }

        let mut broker = Broker::new(cfg.broker);
        if multihop {
            broker.enable_multihop(cands.clone(), BanditConfig::service(), seed);
        }
        let fleet = Fleet::grouped(cfg.fleet, nodes_n);
        let slo = SloAccount::new(cfg.slo.clone());
        let horizon = SimTime::ZERO + cfg.workload.horizon();
        ServiceLoop {
            cfg: cfg.clone(),
            world,
            cache,
            pairs,
            multihop,
            cands,
            seed,
            arrivals: Vec::new(),
            total_arrivals: 0,
            broker,
            fleet,
            slo,
            queue: EventQueue::new(),
            rows: Vec::with_capacity(cfg.workload.epochs as usize),
            billed_to: SimTime::ZERO,
            horizon,
            completed_total: 0,
            remote,
            outbox: Vec::new(),
            ledger: Vec::new(),
            handoffs: 0,
            retries: 0,
        }
    }

    /// Runs epoch `e`: arrival generation, congestion step, path truth,
    /// probe refresh, inbound cross-shard messages, the flow event loop,
    /// billing and rebalance. `inbox` is empty in the classic
    /// single-region run.
    ///
    /// The epoch's arrivals, pure in `(seed, e)` and sorted by
    /// `(at, id)`, are never scheduled. The loop merges them with the
    /// queue in the order scheduling them all where the epoch's events
    /// begin (sequence number `base`, before the inbox) would have
    /// produced: the next arrival goes first when it is earlier than
    /// the queue head, or ties with a head scheduled at or after
    /// `base`.
    pub(crate) fn run_epoch(&mut self, e: u32, inbox: Vec<ShardMsg>) {
        self.arrivals = self.cfg.workload.epoch_arrivals(self.seed, e);
        self.total_arrivals += self.arrivals.len() as u64;
        if e > 0 {
            self.world.step_epoch(u64::from(e));
        }
        let epoch_start = SimTime::ZERO + self.cfg.workload.epoch * u64::from(e);
        let epoch_end = epoch_start + self.cfg.workload.epoch;
        let multihop = self.multihop;
        let truth = if multihop {
            Vec::new()
        } else {
            epoch_truth(&self.world, &self.cache, &self.pairs)
        };
        // Multihop ground truth: one work unit per pair scoring that
        // pair's fixed arms under the current congestion state.
        let ptruth: Vec<Vec<ArmEval>> = if multihop {
            let net = &self.world.net;
            let params = *self.world.cronet.params();
            let tunnel = self.world.cronet.tunnel();
            let nodes = self.world.cronet.nodes();
            let (shared, arms) = (&self.cache, &self.cands);
            let pairs = &self.pairs;
            exec::parallel_map(pairs.len(), |pi| {
                let (s, c) = pairs[pi];
                paths::evaluate(net, shared, nodes, s, c, tunnel, &params, &arms[pi])
            })
        } else {
            Vec::new()
        };
        let Self {
            cfg,
            pairs,
            arrivals,
            broker,
            fleet,
            slo,
            queue,
            rows,
            billed_to,
            horizon,
            completed_total,
            remote,
            outbox,
            ledger,
            handoffs,
            retries,
            ..
        } = self;
        let horizon = *horizon;
        if multihop {
            // Budgeted, uncertainty-driven refresh replaces the flat
            // probe cadence: epoch 0 seeds every arm, after which each
            // pair only spends its probe budget per epoch.
            for (pi, pt) in ptruth.iter().enumerate() {
                if e == 0 {
                    broker.seed_paths(pi, pt);
                } else {
                    broker.probe_paths(pi, pt);
                }
            }
        } else if e.is_multiple_of(cfg.probe_every) {
            for (pi, &(s, c)) in pairs.iter().enumerate() {
                broker.observe(s, c, epoch_start, truth[pi].clone());
            }
        }
        let base = queue.next_seq();

        let b0 = broker.stats();
        let (done0, viol0) = (slo.completed(), slo.violations());
        let lg = remote.as_ref().is_some_and(|r| r.ledger);

        // Cross-shard mailbox, delivered at the epoch barrier in
        // (sender, emission) order. Handoffs are admitted against this
        // region's relay pool at epoch start; Done/Retry settle the
        // origin's SLO ledger.
        for msg in inbox {
            match msg {
                ShardMsg::Handoff {
                    flow,
                    dst: _,
                    origin,
                    tenant,
                    remaining,
                    handed: _,
                    direct_bps,
                    rtt,
                    issued,
                } => {
                    let pi = pair_of(flow, pairs.len());
                    // The ingress leg must ride this region's relays: a
                    // handoff is only worth taking onto overlay
                    // capacity. No spare relay (or a deny) bounces the
                    // flow back to the origin for a direct retry.
                    let admitted = if multihop {
                        let (decision, arm) = broker.decide_paths(pi, |n| fleet.group_free(n));
                        match decision {
                            Decision::Overlay { node, .. } => Some((Hops::single(node), arm)),
                            Decision::Chain { hops, .. } => Some((hops, arm)),
                            _ => None,
                        }
                        .map(|(hops, arm)| {
                            let slots = claim_slots(fleet, &hops);
                            let at = ptruth[pi][arm];
                            broker.learn_path(pi, arm, at.bps);
                            (slots, at.bps, at.rtt, ptruth[pi][0].bps)
                        })
                    } else {
                        let (s, c) = pairs[pi];
                        match broker.decide(s, c, epoch_start, |n| fleet.group_free(n)) {
                            Decision::Overlay { node, .. } => {
                                let tr = &truth[pi];
                                let slots = claim_slots(fleet, &Hops::single(node));
                                let bps_true = achieved(tr, PathChoice::Overlay(node));
                                let leg_rtt = tr
                                    .overlays
                                    .iter()
                                    .find(|o| o.node == node)
                                    .map_or(tr.direct.rtt, |o| o.split.rtt);
                                Some((slots, bps_true, leg_rtt, tr.direct.throughput_bps))
                            }
                            _ => None,
                        }
                    };
                    match admitted {
                        Some((slots, bps, leg_rtt, direct_true)) => {
                            let done = epoch_start + completion_time(remaining, bps, leg_rtt);
                            queue.schedule(
                                done,
                                Ev::RemoteComplete {
                                    flow,
                                    origin,
                                    tenant,
                                    slots,
                                    ratio: bps / direct_true.max(1.0),
                                    remaining,
                                    issued,
                                },
                            );
                        }
                        None => outbox.push(ShardMsg::Retry {
                            flow,
                            origin,
                            tenant,
                            remaining,
                            direct_bps,
                            rtt,
                            issued,
                        }),
                    }
                }
                ShardMsg::Done {
                    flow,
                    origin: _,
                    tenant,
                    remaining,
                    ratio,
                    latency,
                } => {
                    slo.record_completion(tenant, ratio, latency);
                    *completed_total += 1;
                    if lg {
                        ledger.push(RemoteEvent::Completed {
                            flow,
                            delivered: remaining,
                        });
                    }
                }
                ShardMsg::Retry {
                    flow,
                    origin: _,
                    tenant,
                    remaining,
                    direct_bps,
                    rtt,
                    issued,
                } => {
                    // Settle the remainder on the origin's direct path.
                    *retries += 1;
                    let done = epoch_start + completion_time(remaining, direct_bps, rtt);
                    slo.record_completion(tenant, 1.0, done - issued);
                    *completed_total += 1;
                    if lg {
                        ledger.push(RemoteEvent::Retried { flow });
                        ledger.push(RemoteEvent::Completed {
                            flow,
                            delivered: remaining,
                        });
                    }
                }
            }
        }

        let mut next = 0u32;
        while let Some(step) =
            queue.pop_merged(arrivals.get(next as usize).map(|r| r.at), base, epoch_end)
        {
            let (now, ev) = match step {
                Merged::Stream => {
                    let idx = next;
                    next += 1;
                    (arrivals[idx as usize].at, Ev::Arrive { idx })
                }
                Merged::Queue(t, ev) => (t, ev),
            };
            match ev {
                Ev::Arrive { idx } if multihop => {
                    let req = &arrivals[idx as usize];
                    let pi = pair_of(req.client, pairs.len());
                    let (decision, arm) = broker.decide_paths(pi, |n| fleet.group_free(n));
                    let split = remote.as_ref().and_then(|rc| rc.split(req.id));
                    if decision == Decision::Deny {
                        slo.record_denial(req.tenant);
                        if lg {
                            if let Some((gid, _)) = split {
                                ledger.push(RemoteEvent::Requested {
                                    flow: gid,
                                    bytes: req.bytes,
                                });
                                ledger.push(RemoteEvent::Denied { flow: gid });
                            }
                        }
                        continue;
                    }
                    let hops = match decision {
                        Decision::Direct { .. } => Hops::direct(),
                        Decision::Overlay { node, .. } => Hops::single(node),
                        Decision::Chain { hops, .. } => hops,
                        Decision::Deny => unreachable!(),
                    };
                    let slots = claim_slots(fleet, &hops);
                    // Ground truth for the chosen arm, not the bandit's
                    // estimate — a stale belief earns the real rate. The
                    // carried flow's rate also feeds the bandit for free.
                    let at = ptruth[pi][arm];
                    broker.learn_path(pi, arm, at.bps);
                    match split {
                        Some((gid, dst)) => {
                            let handed = req.bytes / 2;
                            if lg {
                                ledger.push(RemoteEvent::Requested {
                                    flow: gid,
                                    bytes: req.bytes,
                                });
                            }
                            let done = now + completion_time(handed, at.bps, at.rtt);
                            queue.schedule(
                                done,
                                Ev::RemoteEgress {
                                    flow: gid,
                                    dst,
                                    tenant: req.tenant,
                                    slots,
                                    handed,
                                    remaining: req.bytes - handed,
                                    direct_bps: ptruth[pi][0].bps,
                                    rtt: ptruth[pi][0].rtt,
                                    issued: now,
                                },
                            );
                        }
                        None => {
                            let ratio = if hops.is_empty() {
                                1.0
                            } else {
                                at.bps / ptruth[pi][0].bps.max(1.0)
                            };
                            let done = now + completion_time(req.bytes, at.bps, at.rtt);
                            queue.schedule(
                                done,
                                Ev::Complete {
                                    tenant: req.tenant,
                                    slots,
                                    ratio,
                                    issued: now,
                                },
                            );
                        }
                    }
                }
                Ev::Arrive { idx } => {
                    let req = &arrivals[idx as usize];
                    let pi = pair_of(req.client, pairs.len());
                    let (s, c) = pairs[pi];
                    let decision = broker.decide(s, c, now, |n| fleet.group_free(n));
                    let tr = &truth[pi];
                    let direct_true = tr.direct.throughput_bps;
                    let split = remote.as_ref().and_then(|rc| rc.split(req.id));
                    let (slots, bps_true, leg_rtt) = match decision {
                        Decision::Deny => {
                            slo.record_denial(req.tenant);
                            if lg {
                                if let Some((gid, _)) = split {
                                    ledger.push(RemoteEvent::Requested {
                                        flow: gid,
                                        bytes: req.bytes,
                                    });
                                    ledger.push(RemoteEvent::Denied { flow: gid });
                                }
                            }
                            continue;
                        }
                        Decision::Chain { .. } => {
                            unreachable!("one-hop broker never emits chains")
                        }
                        Decision::Direct { .. } => (SlotHops::EMPTY, direct_true, tr.direct.rtt),
                        Decision::Overlay { node, .. } => {
                            let slots = claim_slots(fleet, &Hops::single(node));
                            // Ground truth, not the (possibly stale)
                            // probe: a stale steer earns a stale rate.
                            let bps_true = achieved(tr, PathChoice::Overlay(node));
                            let leg_rtt = tr
                                .overlays
                                .iter()
                                .find(|o| o.node == node)
                                .map_or(tr.direct.rtt, |o| o.split.rtt);
                            (slots, bps_true, leg_rtt)
                        }
                    };
                    match split {
                        Some((gid, dst)) => {
                            let handed = req.bytes / 2;
                            if lg {
                                ledger.push(RemoteEvent::Requested {
                                    flow: gid,
                                    bytes: req.bytes,
                                });
                            }
                            let done = now + completion_time(handed, bps_true, leg_rtt);
                            queue.schedule(
                                done,
                                Ev::RemoteEgress {
                                    flow: gid,
                                    dst,
                                    tenant: req.tenant,
                                    slots,
                                    handed,
                                    remaining: req.bytes - handed,
                                    direct_bps: direct_true,
                                    rtt: tr.direct.rtt,
                                    issued: now,
                                },
                            );
                        }
                        None => {
                            let ratio = if slots.is_empty() {
                                1.0
                            } else {
                                bps_true / direct_true.max(1.0)
                            };
                            let done = now + completion_time(req.bytes, bps_true, leg_rtt);
                            queue.schedule(
                                done,
                                Ev::Complete {
                                    tenant: req.tenant,
                                    slots,
                                    ratio,
                                    issued: now,
                                },
                            );
                        }
                    }
                }
                Ev::Complete {
                    tenant,
                    slots,
                    ratio,
                    issued,
                } => {
                    if !slots.is_empty() {
                        // A completed drain stops these relays' meters now.
                        fleet.accrue(now.min(horizon).saturating_duration_since(*billed_to));
                        *billed_to = now.min(horizon).max(*billed_to);
                        for r in slots.iter() {
                            fleet.flow_finished(r);
                        }
                    }
                    slo.record_completion(tenant, ratio, now - issued);
                    *completed_total += 1;
                }
                Ev::RemoteEgress {
                    flow,
                    dst,
                    tenant,
                    slots,
                    handed,
                    remaining,
                    direct_bps,
                    rtt,
                    issued,
                } => {
                    if !slots.is_empty() {
                        fleet.accrue(now.min(horizon).saturating_duration_since(*billed_to));
                        *billed_to = now.min(horizon).max(*billed_to);
                        for r in slots.iter() {
                            fleet.flow_finished(r);
                        }
                    }
                    if lg {
                        ledger.push(RemoteEvent::HandedOff {
                            flow,
                            delivered: handed,
                        });
                    }
                    let origin = remote
                        .as_ref()
                        .expect("remote event without RemoteCfg")
                        .region;
                    *handoffs += 1;
                    outbox.push(ShardMsg::Handoff {
                        flow,
                        dst: NodeAddr::region_gateway(dst as u8).raw(),
                        origin,
                        tenant,
                        remaining,
                        handed,
                        direct_bps,
                        rtt,
                        issued,
                    });
                }
                Ev::RemoteComplete {
                    flow,
                    origin,
                    tenant,
                    slots,
                    ratio,
                    remaining,
                    issued,
                } => {
                    fleet.accrue(now.min(horizon).saturating_duration_since(*billed_to));
                    *billed_to = now.min(horizon).max(*billed_to);
                    for r in slots.iter() {
                        fleet.flow_finished(r);
                    }
                    outbox.push(ShardMsg::Done {
                        flow,
                        origin,
                        tenant,
                        remaining,
                        ratio,
                        latency: now - issued,
                    });
                }
            }
        }

        fleet.accrue(epoch_end.saturating_duration_since(*billed_to));
        *billed_to = epoch_end;
        fleet.rebalance(horizon - epoch_end);

        let b1 = broker.stats();
        rows.push(EpochRow {
            epoch: e,
            arrivals: arrivals.len() as u64,
            overlay: b1.overlay - b0.overlay,
            direct: b1.direct - b0.direct,
            denied: b1.denied - b0.denied,
            stale: b1.stale_fallback - b0.stale_fallback,
            completed: slo.completed() - done0,
            violations: slo.violations() - viol0,
            active: fleet.active(),
            draining: fleet.draining(),
            util: fleet.utilization(),
            spend_usd: fleet.spend_usd(),
        });
    }

    /// Drains every event past the horizon. Flows admitted near the
    /// horizon still count for the SLO ledger but accrue no rent past
    /// it (the run's billing window is the configured day); remote legs
    /// still emit their barrier messages.
    pub(crate) fn drain_tail(&mut self) {
        let lg = self.remote.as_ref().is_some_and(|r| r.ledger);
        while let Some((now, ev)) = self.queue.pop() {
            match ev {
                Ev::Arrive { .. } => unreachable!("arrivals are never queued"),
                Ev::Complete {
                    tenant,
                    slots,
                    ratio,
                    issued,
                } => {
                    for r in slots.iter() {
                        self.fleet.flow_finished(r);
                    }
                    self.slo.record_completion(tenant, ratio, now - issued);
                    self.completed_total += 1;
                }
                Ev::RemoteEgress {
                    flow,
                    dst,
                    tenant,
                    slots,
                    handed,
                    remaining,
                    direct_bps,
                    rtt,
                    issued,
                } => {
                    for r in slots.iter() {
                        self.fleet.flow_finished(r);
                    }
                    if lg {
                        self.ledger.push(RemoteEvent::HandedOff {
                            flow,
                            delivered: handed,
                        });
                    }
                    let origin = self
                        .remote
                        .as_ref()
                        .expect("remote event without RemoteCfg")
                        .region;
                    self.handoffs += 1;
                    self.outbox.push(ShardMsg::Handoff {
                        flow,
                        dst: NodeAddr::region_gateway(dst as u8).raw(),
                        origin,
                        tenant,
                        remaining,
                        handed,
                        direct_bps,
                        rtt,
                        issued,
                    });
                }
                Ev::RemoteComplete {
                    flow,
                    origin,
                    tenant,
                    slots,
                    ratio,
                    remaining,
                    issued,
                } => {
                    for r in slots.iter() {
                        self.fleet.flow_finished(r);
                    }
                    self.outbox.push(ShardMsg::Done {
                        flow,
                        origin,
                        tenant,
                        remaining,
                        ratio,
                        latency: now - issued,
                    });
                }
            }
        }
    }

    /// Post-horizon settlement of messages still crossing the barrier
    /// after the last epoch: a late handoff is settled on the direct
    /// path (the relay pools are past their billing window), and
    /// Done/Retry replies land on the origin's SLO ledger as usual.
    pub(crate) fn settle(&mut self, inbox: Vec<ShardMsg>) {
        let lg = self.remote.as_ref().is_some_and(|r| r.ledger);
        let horizon = self.horizon;
        for msg in inbox {
            match msg {
                ShardMsg::Handoff {
                    flow,
                    dst: _,
                    origin,
                    tenant,
                    remaining,
                    handed: _,
                    direct_bps,
                    rtt,
                    issued,
                } => {
                    let done = horizon + completion_time(remaining, direct_bps, rtt);
                    self.outbox.push(ShardMsg::Done {
                        flow,
                        origin,
                        tenant,
                        remaining,
                        ratio: 1.0,
                        latency: done - issued,
                    });
                }
                ShardMsg::Done {
                    flow,
                    origin: _,
                    tenant,
                    remaining,
                    ratio,
                    latency,
                } => {
                    self.slo.record_completion(tenant, ratio, latency);
                    self.completed_total += 1;
                    if lg {
                        self.ledger.push(RemoteEvent::Completed {
                            flow,
                            delivered: remaining,
                        });
                    }
                }
                ShardMsg::Retry {
                    flow,
                    origin: _,
                    tenant,
                    remaining,
                    direct_bps,
                    rtt,
                    issued,
                } => {
                    self.retries += 1;
                    let done = horizon + completion_time(remaining, direct_bps, rtt);
                    self.slo.record_completion(tenant, 1.0, done - issued);
                    self.completed_total += 1;
                    if lg {
                        self.ledger.push(RemoteEvent::Retried { flow });
                        self.ledger.push(RemoteEvent::Completed {
                            flow,
                            delivered: remaining,
                        });
                    }
                }
            }
        }
    }

    /// Takes the messages emitted since the last barrier.
    pub(crate) fn take_outbox(&mut self) -> Vec<ShardMsg> {
        std::mem::take(&mut self.outbox)
    }

    /// Takes the ledger events recorded since the last barrier.
    pub(crate) fn take_ledger(&mut self) -> Vec<RemoteEvent> {
        std::mem::take(&mut self.ledger)
    }

    /// Exact spend as `f64` bits, for the ordered global rollup.
    pub(crate) fn spend_bits(&self) -> u64 {
        self.fleet.spend_usd().to_bits()
    }

    /// Replaces this shard's budget (the global reconciler's lever).
    pub(crate) fn set_budget(&mut self, budget_usd: f64) {
        self.fleet.set_budget(budget_usd);
    }

    /// Finishes the run: publishes telemetry (under `prefix` when
    /// given, e.g. `control.` or `control.shard3.`; the route cache is
    /// always published unprefixed) and returns the report.
    pub(crate) fn into_report(self, prefix: Option<&str>) -> ServiceReport {
        if let Some(p) = prefix {
            self.broker.publish_prefixed(p);
            self.fleet.publish_prefixed(p);
            self.slo.publish_prefixed(p);
            self.cache.publish();
            if self.remote.is_some() {
                obs::add_named(&format!("{p}remote.handoffs"), self.handoffs);
                obs::add_named(&format!("{p}remote.retries"), self.retries);
            }
        }
        ServiceReport {
            rows: self.rows,
            broker: self.broker.stats(),
            fleet: self.fleet.stats(),
            arrivals: self.total_arrivals,
            completed: self.completed_total,
            spend_usd: self.fleet.spend_usd(),
            budget_usd: self.cfg.fleet.budget_usd,
            slo: self.slo,
        }
    }
}

/// Runs the online service loop. Deterministic in `(cfg, seed)` at any
/// thread count.
///
/// # Panics
///
/// Panics if the configuration is inconsistent (tenant counts differ,
/// fleet slots don't group evenly over the overlay nodes, zero probe
/// cadence, or no routable server/client pair).
#[must_use]
pub fn service(cfg: &ServiceConfig, seed: u64) -> ServiceReport {
    if cfg.fidelity != Fidelity::Des {
        assert_eq!(
            cfg.paths,
            PathsPolicy::OneHop,
            "multihop paths require DES fidelity (chains have no analytic shortcut)"
        );
        return crate::hybrid::service_hybrid(cfg, seed);
    }
    let mut svc = ServiceLoop::new(cfg, seed, None);
    for e in 0..cfg.workload.epochs {
        svc.run_epoch(e, Vec::new());
    }
    svc.drain_tail();
    svc.into_report(Some("control."))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ServiceConfig {
        let mut cfg = ServiceConfig::smoke();
        // Shrink the smoke day to keep unit tests fast.
        cfg.workload.epochs = 8;
        cfg.workload.mean_rate_per_sec = 4.0;
        cfg.workload.diurnal_period = cfg.workload.epoch * 8;
        cfg
    }

    #[test]
    fn service_runs_and_balances_its_ledgers() {
        let r = service(&tiny_cfg(), 11);
        assert_eq!(r.rows.len(), 8);
        let admitted = r.broker.overlay + r.broker.direct + r.broker.stale_fallback;
        assert_eq!(r.broker.admitted, admitted);
        assert_eq!(r.arrivals, r.broker.admitted + r.broker.denied);
        assert_eq!(
            r.completed, r.broker.admitted,
            "every admitted flow completes"
        );
        assert_eq!(r.completed, r.slo.completed());
        assert!(r.spend_usd <= r.budget_usd + 1e-9, "spend over budget");
        assert!(r.broker.overlay > 0, "no overlay admissions");
        assert!(r.broker.stale_fallback > 0, "staleness never bit");
    }

    #[test]
    fn service_is_deterministic() {
        let a = service(&tiny_cfg(), 5);
        let b = service(&tiny_cfg(), 5);
        assert_eq!(a.to_tsv(), b.to_tsv());
        assert_eq!(format!("{a}"), format!("{b}"));
    }

    #[test]
    fn seeds_change_the_run() {
        let a = service(&tiny_cfg(), 5);
        let b = service(&tiny_cfg(), 6);
        assert_ne!(a.to_tsv(), b.to_tsv());
    }

    #[test]
    fn epoch_rows_sum_to_totals() {
        let r = service(&tiny_cfg(), 11);
        let arrivals: u64 = r.rows.iter().map(|x| x.arrivals).sum();
        assert_eq!(arrivals, r.arrivals);
        let overlay: u64 = r.rows.iter().map(|x| x.overlay).sum();
        assert_eq!(overlay, r.broker.overlay);
        let stale: u64 = r.rows.iter().map(|x| x.stale).sum();
        assert_eq!(stale, r.broker.stale_fallback);
    }

    fn multihop_cfg() -> ServiceConfig {
        let mut cfg = tiny_cfg();
        cfg.paths = PathsPolicy::MultiHop;
        cfg
    }

    #[test]
    fn multihop_service_balances_its_ledgers() {
        let r = service(&multihop_cfg(), 11);
        assert_eq!(r.rows.len(), 8);
        let admitted = r.broker.overlay + r.broker.direct + r.broker.stale_fallback;
        assert_eq!(r.broker.admitted, admitted);
        assert_eq!(r.arrivals, r.broker.admitted + r.broker.denied);
        assert_eq!(r.completed, r.broker.admitted);
        assert!(r.spend_usd <= r.budget_usd + 1e-9, "spend over budget");
        assert!(r.broker.overlay > 0, "no overlay admissions");
        assert_eq!(
            r.broker.stale_fallback, 0,
            "the bandit never goes stale-blind"
        );
        assert!(r.broker.probe_spent > 0, "budgeted refresh never ran");
        assert!(r.broker.probe_refreshes > 0);
    }

    #[test]
    fn multihop_service_is_deterministic() {
        let a = service(&multihop_cfg(), 5);
        let b = service(&multihop_cfg(), 5);
        assert_eq!(a.to_tsv(), b.to_tsv());
        assert_eq!(format!("{a}"), format!("{b}"));
    }

    #[test]
    fn multihop_policy_diverges_from_onehop() {
        let a = service(&tiny_cfg(), 11);
        let b = service(&multihop_cfg(), 11);
        assert_ne!(a.to_tsv(), b.to_tsv(), "policies must actually differ");
        assert_eq!(a.broker.probe_spent, 0, "one-hop spends no bandit budget");
    }

    #[test]
    fn khops_one_restricts_to_single_relays() {
        let mut cfg = multihop_cfg();
        cfg.khops = 1;
        let r = service(&cfg, 11);
        assert_eq!(r.broker.chain, 0, "k=1 admits no multi-relay chains");
        assert!(r.broker.overlay > 0);
    }
}
