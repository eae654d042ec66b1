//! The traced replay: the service loop rebuilt from the public functions
//! of each layer, with every layer call timed from outside.
//!
//! [`Region`] makes the same sequence of layer calls as the engine's
//! service loop (`experiments::service`) at the same configuration and
//! seed: one-hop or multihop policy, and, for one shard of the planet,
//! the cross-region handoff protocol. [`planet`] drives 64 regions under
//! `exec::shard_rounds` with the engine's barrier (geo-prefix routing of
//! handoffs and budget reconciliation). Timings aggregate per layer per
//! run, never per event. The replay's counters and spend bits are
//! compared with the engine's by the caller, so a replay that drifts
//! from the engine is reported, not trusted.

use std::cell::Cell;
use std::time::Instant;

use control::shard::merge_spend_bits;
use control::{Broker, Decision, Fleet, FlowRequest, PathsPolicy, ShardMsg, SloAccount};
use cronets::eval::{modes_from_segments, quality, Measurement, OverlayEval, PairEval};
use cronets::select::{achieved, PathChoice};
use experiments::service::ServiceConfig;
use experiments::sharded::ShardedConfig;
use experiments::World;
use paths::{relay_hop_price_per_gb, ArmEval, BanditConfig, Candidate, EnumerateConfig, Hops};
use routing::{GeoPrefix, GeoTable, NodeAddr, RouteCache, RouterPath};
use simcore::{EventQueue, SimDuration, SimTime};
use topology::RouterId;
use transport::model::tcp_throughput;

use crate::outcome::{mean_ratio, Outcome, RowsHash};

/// The layers of the service loop, named after their modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L {
    Workload,
    Scenario,
    Cache,
    Eval,
    Broker,
    Fleet,
    Event,
    Slo,
    Paths,
    ShardRounds,
    Shard,
}

impl L {
    pub const ALL: [L; 11] = [
        L::Workload,
        L::Scenario,
        L::Cache,
        L::Eval,
        L::Broker,
        L::Fleet,
        L::Event,
        L::Slo,
        L::Paths,
        L::ShardRounds,
        L::Shard,
    ];

    pub fn name(self) -> &'static str {
        match self {
            L::Workload => "control.workload",
            L::Scenario => "experiments.scenario",
            L::Cache => "routing.cache",
            L::Eval => "cronets.eval",
            L::Broker => "control.broker",
            L::Fleet => "control.fleet",
            L::Event => "simcore.event",
            L::Slo => "control.slo",
            L::Paths => "paths",
            L::ShardRounds => "exec.shard_rounds",
            L::Shard => "control.shard",
        }
    }
}

/// Per-layer busy time and call counts of one run (or one region).
///
/// A timing pair costs time both inside the interval it measures and
/// outside it. `pairs_in` counts pairs timed on the thread that owns
/// the interval (each inflates busy time by the in-interval part of one
/// pair); `pairs_full` counts pairs taken inside parallel work units
/// (each inflates the section's wall by a whole pair, divided by the
/// parallelism). Both are scaled like the busy time they inflate.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub busy_ns: [f64; 11],
    pub calls: [u64; 11],
    pub pairs_in: [f64; 11],
    pub pairs_full: [f64; 11],
}

impl Layers {
    #[inline]
    pub fn time<T>(&mut self, l: L, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let r = f();
        self.add(l, t0.elapsed().as_nanos() as f64, 1);
        r
    }

    #[inline]
    pub fn add(&mut self, l: L, ns: f64, calls: u64) {
        let i = l as usize;
        self.busy_ns[i] += ns;
        self.calls[i] += calls;
        self.pairs_in[i] += calls as f64;
    }

    /// Adds `other` scaled by `1 / div` (lane time to wall time).
    pub fn absorb_scaled(&mut self, other: &Layers, div: f64) {
        for i in 0..11 {
            self.busy_ns[i] += other.busy_ns[i] / div;
            self.calls[i] += other.calls[i];
            self.pairs_in[i] += other.pairs_in[i] / div;
            self.pairs_full[i] += other.pairs_full[i] / div;
        }
    }
}

/// Counters the replay keeps beside the layer timings.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub group_free_calls: u64,
    pub pops: u64,
    pub peak_len: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl Counters {
    fn absorb(&mut self, o: &Counters) {
        self.group_free_calls += o.group_free_calls;
        self.pops += o.pops;
        self.peak_len = self.peak_len.max(o.peak_len);
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
    }
}

/// What one traced replay produced.
pub struct Traced {
    pub outcome: Outcome,
    pub layers: Layers,
    pub counters: Counters,
    pub wall_s: f64,
    /// Lane-seconds idle at shard barriers (planet only).
    pub wait_s: f64,
    /// Lanes the shard rounds ran on (1 outside the planet).
    pub lanes: usize,
}

/// The relay slots a flow holds, in traversal order.
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

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots[..usize::from(self.len)]
            .iter()
            .map(|&s| s.into())
    }
}

fn claim_slots(lay: &mut Layers, fleet: &mut Fleet, hops: &Hops) -> SlotHops {
    let mut s = SlotHops::EMPTY;
    for g in hops.iter() {
        let slot = lay.time(L::Fleet, || fleet.start_in_group(g));
        s.slots[usize::from(s.len)] = u16::try_from(slot).expect("relay slot id overflows u16");
        s.len += 1;
    }
    s
}

enum Ev {
    Arrive {
        epoch: u32,
        idx: u32,
    },
    Complete {
        tenant: u32,
        slots: SlotHops,
        ratio: f64,
        issued: SimTime,
    },
    RemoteEgress {
        flow: u64,
        dst: u32,
        tenant: u32,
        slots: SlotHops,
        handed: u64,
        remaining: u64,
        direct_bps: f64,
        rtt: SimDuration,
        issued: SimTime,
    },
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

/// Cross-region role of one planet shard (mirrors the engine's split).
#[derive(Debug, Clone, Copy)]
struct Remote {
    region: u32,
    regions: u32,
    permille: u32,
}

impl Remote {
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

fn completion_time(bytes: u64, bps: f64, rtt: SimDuration) -> SimDuration {
    rtt + SimDuration::from_secs_f64(bytes as f64 * 8.0 / bps.max(1.0))
}

fn pair_of(client: u64, n_pairs: usize) -> usize {
    let mut z = client.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % n_pairs as u64) as usize
}

/// The planet's per-region seed substream (mirrors the engine's).
pub fn region_seed(seed: u64, region: u32) -> u64 {
    let mut z = seed ^ (u64::from(region).wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fixed state of one region: world, warmed route cache, pair catalogue
/// and (multihop) candidate chains. Built by the same public calls the
/// engine makes; the benchmark's `setup_s` times exactly this.
pub struct Fixed {
    pub world: World,
    pub cache: RouteCache,
    pub pairs: Vec<(RouterId, RouterId)>,
    pub cands: Vec<Vec<Candidate>>,
}

/// Builds a region's fixed state, timing each layer call into `lay`.
pub fn build_fixed(cfg: &ServiceConfig, seed: u64, lay: &mut Layers) -> Fixed {
    let world = lay.time(L::Scenario, || World::build(&cfg.scenario, seed));
    let mut cache = lay.time(L::Cache, || RouteCache::build(&world.net));
    let mut keys: Vec<(RouterId, RouterId)> = Vec::new();
    for &s in &world.servers {
        keys.extend(world.clients.iter().map(|&c| (s, c)));
        keys.extend(world.cronet.nodes().iter().map(|n| (s, n.vm())));
    }
    for n in world.cronet.nodes() {
        keys.extend(world.clients.iter().map(|&c| (n.vm(), c)));
    }
    lay.time(L::Cache, || cache.prefetch(&world.net, &keys));
    let mut pairs = Vec::new();
    for &s in &world.servers {
        for &c in &world.clients {
            if lay
                .time(L::Cache, || cache.route(&world.net, s, c))
                .is_some()
            {
                pairs.push((s, c));
            }
        }
    }
    assert!(!pairs.is_empty(), "no routable server/client pair");
    let mut cands = Vec::new();
    if cfg.paths == PathsPolicy::MultiHop {
        let nodes = world.cronet.nodes();
        let mesh: Vec<(RouterId, RouterId)> = nodes
            .iter()
            .flat_map(|a| {
                nodes
                    .iter()
                    .filter(move |b| b.vm() != a.vm())
                    .map(move |b| (a.vm(), b.vm()))
            })
            .collect();
        lay.time(L::Cache, || cache.prefetch(&world.net, &mesh));
        let ecfg = EnumerateConfig::khops(cfg.khops);
        let hop_price = relay_hop_price_per_gb(cfg.fleet.port, cfg.fleet.plan);
        let (net, shared, pairs) = (&world.net, &cache, &pairs);
        cands = lay.time(L::Paths, || {
            exec::parallel_map(pairs.len(), |pi| {
                let (s, c) = pairs[pi];
                paths::enumerate(net, shared, nodes, s, c, &ecfg, hop_price)
            })
        });
    }
    Fixed {
        world,
        cache,
        pairs,
        cands,
    }
}

/// One region's replayed service loop.
pub struct Region {
    cfg: ServiceConfig,
    fixed: Fixed,
    multihop: bool,
    arrivals: Vec<Vec<FlowRequest>>,
    total_arrivals: u64,
    broker: Broker,
    fleet: Fleet,
    slo: SloAccount,
    queue: EventQueue<Ev>,
    rows: RowsHash,
    billed_to: SimTime,
    horizon: SimTime,
    completed: u64,
    remote: Option<Remote>,
    outbox: Vec<ShardMsg>,
    pub lay: Layers,
    pub cnt: Counters,
    /// Wall ns of each shard-rounds step of this region (planet only).
    pub step_ns: Vec<u64>,
}

impl Region {
    fn new(cfg: &ServiceConfig, seed: u64, remote: Option<Remote>, mut lay: Layers) -> Region {
        let fixed = build_fixed(cfg, seed, &mut lay);
        let multihop = cfg.paths == PathsPolicy::MultiHop;
        let epochs = cfg.workload.epochs;
        let arrivals = lay.time(L::Workload, || {
            exec::parallel_map(epochs as usize, |e| {
                cfg.workload.epoch_arrivals(seed, e as u32)
            })
        });
        let total_arrivals = arrivals.iter().map(|a| a.len() as u64).sum();
        let mut broker = lay.time(L::Broker, || Broker::new(cfg.broker));
        if multihop {
            let cands = fixed.cands.clone();
            lay.time(L::Paths, || {
                broker.enable_multihop(cands, BanditConfig::service(), seed);
            });
        }
        let nodes_n = fixed.world.cronet.nodes().len();
        let fleet = lay.time(L::Fleet, || Fleet::grouped(cfg.fleet, nodes_n));
        let slo = lay.time(L::Slo, || SloAccount::new(cfg.slo.clone()));
        Region {
            cfg: cfg.clone(),
            fixed,
            multihop,
            arrivals,
            total_arrivals,
            broker,
            fleet,
            slo,
            queue: EventQueue::new(),
            rows: RowsHash::default(),
            billed_to: SimTime::ZERO,
            horizon: SimTime::ZERO + cfg.workload.horizon(),
            completed: 0,
            remote,
            outbox: Vec::new(),
            lay,
            cnt: Counters::default(),
            step_ns: Vec::new(),
        }
    }

    /// Per-pair ground truth, as the engine evaluates it: one work unit
    /// per pair. Route lookups and path evaluation are timed inside the
    /// units; the section's wall time is split between `routing.cache`
    /// and `cronets.eval` in proportion to those in-unit times.
    fn epoch_truth(&mut self) -> Vec<PairEval> {
        let Fixed {
            world,
            cache,
            pairs,
            ..
        } = &self.fixed;
        let net = &world.net;
        let params = *world.cronet.params();
        let tunnel = world.cronet.tunnel();
        let nodes = world.cronet.nodes();
        let t0 = Instant::now();
        let units = exec::parallel_map(pairs.len(), |pi| {
            let mut u = Layers::default();
            let (server, client) = pairs[pi];
            let (direct, direct_path) = match u.time(L::Cache, || cache.route(net, server, client))
            {
                Some(direct_path) => {
                    let direct = u.time(L::Eval, || {
                        let q = quality(net, &direct_path);
                        Measurement {
                            throughput_bps: tcp_throughput(&q, &params),
                            rtt: q.rtt,
                            loss: q.loss,
                        }
                    });
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
                let Some(seg1) = u.time(L::Cache, || cache.route(net, server, node.vm())) else {
                    continue;
                };
                let Some(seg2) = u.time(L::Cache, || cache.route(net, node.vm(), client)) else {
                    continue;
                };
                let ov = u.time(L::Eval, || {
                    let q_a = quality(net, &seg1);
                    let q_b = quality(net, &seg2);
                    let (plain, split, discrete_bps) =
                        modes_from_segments(&q_a, &q_b, node, tunnel, &params);
                    OverlayEval {
                        node: ni,
                        plain,
                        split,
                        discrete_bps,
                        path: seg1.join(seg2),
                    }
                });
                overlays.push(ov);
            }
            (
                PairEval {
                    direct,
                    direct_path,
                    overlays,
                },
                u,
            )
        });
        let wall = t0.elapsed().as_nanos() as f64;
        self.split_parallel(
            wall,
            &units.iter().map(|(_, u)| u).collect::<Vec<_>>(),
            [L::Cache, L::Eval],
        );
        units.into_iter().map(|(t, _)| t).collect()
    }

    /// Books a parallel section of `wall` ns over the layers its units
    /// timed, in proportion to their in-unit busy times. Timer pairs in
    /// the units ran `threads`-wide, so they count `1 / threads` each.
    fn split_parallel(&mut self, wall: f64, units: &[&Layers], layers: [L; 2]) {
        let threads = if exec_inline() {
            1.0
        } else {
            exec::threads() as f64
        };
        let mut busy = [0.0f64; 2];
        let mut calls = [0u64; 2];
        for u in units {
            for (k, l) in layers.iter().enumerate() {
                busy[k] += u.busy_ns[*l as usize];
                calls[k] += u.calls[*l as usize];
            }
        }
        let total = (busy[0] + busy[1]).max(1.0);
        for (k, l) in layers.iter().enumerate() {
            let i = *l as usize;
            self.lay.busy_ns[i] += wall * busy[k] / total;
            self.lay.calls[i] += calls[k];
            self.lay.pairs_full[i] += calls[k] as f64 / threads;
        }
        // The section itself was timed once on this thread.
        self.lay.pairs_in[layers[1] as usize] += 1.0;
    }

    fn run_epoch(&mut self, e: u32, inbox: Vec<ShardMsg>) {
        if e > 0 {
            let world = &mut self.fixed.world;
            self.lay
                .time(L::Scenario, || world.step_epoch(u64::from(e)));
        }
        let epoch_start = SimTime::ZERO + self.cfg.workload.epoch * u64::from(e);
        let epoch_end = epoch_start + self.cfg.workload.epoch;
        let multihop = self.multihop;
        let truth = if multihop {
            Vec::new()
        } else {
            self.epoch_truth()
        };
        let ptruth: Vec<Vec<ArmEval>> = if multihop {
            let Fixed {
                world,
                cache,
                pairs,
                cands,
            } = &self.fixed;
            let net = &world.net;
            let params = *world.cronet.params();
            let tunnel = world.cronet.tunnel();
            let nodes = world.cronet.nodes();
            self.lay.time(L::Paths, || {
                exec::parallel_map(pairs.len(), |pi| {
                    let (s, c) = pairs[pi];
                    paths::evaluate(net, cache, nodes, s, c, tunnel, &params, &cands[pi])
                })
            })
        } else {
            Vec::new()
        };
        let Self {
            cfg,
            fixed,
            arrivals,
            broker,
            fleet,
            slo,
            queue,
            rows,
            billed_to,
            horizon,
            completed,
            remote,
            outbox,
            lay,
            cnt,
            ..
        } = self;
        let pairs = &fixed.pairs;
        let horizon = *horizon;
        if multihop {
            for (pi, pt) in ptruth.iter().enumerate() {
                if e == 0 {
                    lay.time(L::Paths, || broker.seed_paths(pi, pt));
                } else {
                    lay.time(L::Paths, || broker.probe_paths(pi, pt));
                }
            }
        } else if e.is_multiple_of(cfg.probe_every) {
            for (pi, &(s, c)) in pairs.iter().enumerate() {
                let t = &truth[pi];
                lay.time(L::Broker, || broker.observe(s, c, epoch_start, t.clone()));
            }
        }
        for (i, req) in arrivals[e as usize].iter().enumerate() {
            lay.time(L::Event, || {
                queue.schedule(
                    req.at,
                    Ev::Arrive {
                        epoch: e,
                        idx: i as u32,
                    },
                )
            });
        }
        cnt.peak_len = cnt.peak_len.max(queue.len() as u64);

        let b0 = lay.time(L::Broker, || broker.stats());
        let (done0, viol0) = lay.time(L::Slo, || (slo.completed(), slo.violations()));
        let gf = Cell::new(0u64);
        let free = |fleet: &Fleet, n: usize| {
            gf.set(gf.get() + 1);
            fleet.group_free(n)
        };

        for msg in inbox {
            match msg {
                ShardMsg::Handoff {
                    flow,
                    origin,
                    tenant,
                    remaining,
                    direct_bps,
                    rtt,
                    issued,
                    ..
                } => {
                    let pi = pair_of(flow, pairs.len());
                    let admitted = if multihop {
                        let (decision, arm) =
                            lay.time(L::Paths, || broker.decide_paths(pi, |n| free(fleet, n)));
                        match decision {
                            Decision::Overlay { node, .. } => Some((Hops::single(node), arm)),
                            Decision::Chain { hops, .. } => Some((hops, arm)),
                            _ => None,
                        }
                        .map(|(hops, arm)| {
                            let slots = claim_slots(lay, fleet, &hops);
                            let at = ptruth[pi][arm];
                            lay.time(L::Paths, || broker.learn_path(pi, arm, at.bps));
                            (slots, at.bps, at.rtt, ptruth[pi][0].bps)
                        })
                    } else {
                        let (s, c) = pairs[pi];
                        let d = lay.time(L::Broker, || {
                            broker.decide(s, c, epoch_start, |n| free(fleet, n))
                        });
                        match d {
                            Decision::Overlay { node, .. } => {
                                let tr = &truth[pi];
                                let slots = claim_slots(lay, fleet, &Hops::single(node));
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
                            lay.time(L::Event, || {
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
                                )
                            });
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
                    tenant,
                    ratio,
                    latency,
                    ..
                } => {
                    lay.time(L::Slo, || slo.record_completion(tenant, ratio, latency));
                    *completed += 1;
                }
                ShardMsg::Retry {
                    tenant,
                    remaining,
                    direct_bps,
                    rtt,
                    issued,
                    ..
                } => {
                    let done = epoch_start + completion_time(remaining, direct_bps, rtt);
                    lay.time(L::Slo, || slo.record_completion(tenant, 1.0, done - issued));
                    *completed += 1;
                }
            }
        }
        cnt.peak_len = cnt.peak_len.max(queue.len() as u64);

        while let Some((now, ev)) = lay.time(L::Event, || queue.pop_before(epoch_end)) {
            cnt.pops += 1;
            match ev {
                Ev::Arrive { epoch, idx } if multihop => {
                    let req = &arrivals[epoch as usize][idx as usize];
                    let pi = pair_of(req.client, pairs.len());
                    let (decision, arm) =
                        lay.time(L::Paths, || broker.decide_paths(pi, |n| free(fleet, n)));
                    let split = remote.as_ref().and_then(|rc| rc.split(req.id));
                    if decision == Decision::Deny {
                        lay.time(L::Slo, || slo.record_denial(req.tenant));
                        continue;
                    }
                    let hops = match decision {
                        Decision::Direct { .. } => Hops::direct(),
                        Decision::Overlay { node, .. } => Hops::single(node),
                        Decision::Chain { hops, .. } => hops,
                        Decision::Deny => unreachable!(),
                    };
                    let slots = claim_slots(lay, fleet, &hops);
                    let at = ptruth[pi][arm];
                    lay.time(L::Paths, || broker.learn_path(pi, arm, at.bps));
                    let ev = match split {
                        Some((gid, dst)) => {
                            let handed = req.bytes / 2;
                            (
                                now + completion_time(handed, at.bps, at.rtt),
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
                            )
                        }
                        None => {
                            let ratio = if hops.is_empty() {
                                1.0
                            } else {
                                at.bps / ptruth[pi][0].bps.max(1.0)
                            };
                            (
                                now + completion_time(req.bytes, at.bps, at.rtt),
                                Ev::Complete {
                                    tenant: req.tenant,
                                    slots,
                                    ratio,
                                    issued: now,
                                },
                            )
                        }
                    };
                    lay.time(L::Event, || queue.schedule(ev.0, ev.1));
                }
                Ev::Arrive { epoch, idx } => {
                    let req = &arrivals[epoch as usize][idx as usize];
                    let pi = pair_of(req.client, pairs.len());
                    let (s, c) = pairs[pi];
                    let decision =
                        lay.time(L::Broker, || broker.decide(s, c, now, |n| free(fleet, n)));
                    let tr = &truth[pi];
                    let direct_true = tr.direct.throughput_bps;
                    let split = remote.as_ref().and_then(|rc| rc.split(req.id));
                    let (slots, bps_true, leg_rtt) = match decision {
                        Decision::Deny => {
                            lay.time(L::Slo, || slo.record_denial(req.tenant));
                            continue;
                        }
                        Decision::Chain { .. } => unreachable!("one-hop broker never emits chains"),
                        Decision::Direct { .. } => (SlotHops::EMPTY, direct_true, tr.direct.rtt),
                        Decision::Overlay { node, .. } => {
                            let slots = claim_slots(lay, fleet, &Hops::single(node));
                            let bps_true = achieved(tr, PathChoice::Overlay(node));
                            let leg_rtt = tr
                                .overlays
                                .iter()
                                .find(|o| o.node == node)
                                .map_or(tr.direct.rtt, |o| o.split.rtt);
                            (slots, bps_true, leg_rtt)
                        }
                    };
                    let ev = match split {
                        Some((gid, dst)) => {
                            let handed = req.bytes / 2;
                            (
                                now + completion_time(handed, bps_true, leg_rtt),
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
                            )
                        }
                        None => {
                            let ratio = if slots.is_empty() {
                                1.0
                            } else {
                                bps_true / direct_true.max(1.0)
                            };
                            (
                                now + completion_time(req.bytes, bps_true, leg_rtt),
                                Ev::Complete {
                                    tenant: req.tenant,
                                    slots,
                                    ratio,
                                    issued: now,
                                },
                            )
                        }
                    };
                    lay.time(L::Event, || queue.schedule(ev.0, ev.1));
                }
                Ev::Complete {
                    tenant,
                    slots,
                    ratio,
                    issued,
                } => {
                    if !slots.is_empty() {
                        settle_slots(lay, fleet, billed_to, now, horizon, &slots);
                    }
                    lay.time(L::Slo, || {
                        slo.record_completion(tenant, ratio, now - issued)
                    });
                    *completed += 1;
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
                        settle_slots(lay, fleet, billed_to, now, horizon, &slots);
                    }
                    let origin = remote
                        .as_ref()
                        .expect("remote event without a region")
                        .region;
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
                    settle_slots(lay, fleet, billed_to, now, horizon, &slots);
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
        cnt.group_free_calls += gf.get();

        let accrue = epoch_end.saturating_duration_since(*billed_to);
        lay.time(L::Fleet, || fleet.accrue(accrue));
        *billed_to = epoch_end;
        lay.time(L::Fleet, || fleet.rebalance(horizon - epoch_end));

        let b1 = lay.time(L::Broker, || broker.stats());
        let (done1, viol1) = lay.time(L::Slo, || (slo.completed(), slo.violations()));
        let (active, draining, util, spend) = lay.time(L::Fleet, || {
            (
                fleet.active(),
                fleet.draining(),
                fleet.utilization(),
                fleet.spend_usd(),
            )
        });
        rows.push(&[
            arrivals[e as usize].len() as u64,
            b1.overlay - b0.overlay,
            b1.direct - b0.direct,
            b1.denied - b0.denied,
            b1.stale_fallback - b0.stale_fallback,
            done1 - done0,
            viol1 - viol0,
            active as u64,
            draining as u64,
            util.to_bits(),
            spend.to_bits(),
        ]);
    }

    fn drain_tail(&mut self) {
        let Self {
            fleet,
            slo,
            queue,
            completed,
            remote,
            outbox,
            lay,
            cnt,
            ..
        } = self;
        while let Some((now, ev)) = lay.time(L::Event, || queue.pop()) {
            cnt.pops += 1;
            match ev {
                Ev::Arrive { .. } => unreachable!("arrivals all lie inside the horizon"),
                Ev::Complete {
                    tenant,
                    slots,
                    ratio,
                    issued,
                } => {
                    for r in slots.iter() {
                        lay.time(L::Fleet, || fleet.flow_finished(r));
                    }
                    lay.time(L::Slo, || {
                        slo.record_completion(tenant, ratio, now - issued)
                    });
                    *completed += 1;
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
                        lay.time(L::Fleet, || fleet.flow_finished(r));
                    }
                    let origin = remote
                        .as_ref()
                        .expect("remote event without a region")
                        .region;
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
                    for r in slots.iter() {
                        lay.time(L::Fleet, || fleet.flow_finished(r));
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
    }

    fn settle(&mut self, inbox: Vec<ShardMsg>) {
        let horizon = self.horizon;
        for msg in inbox {
            match msg {
                ShardMsg::Handoff {
                    flow,
                    origin,
                    tenant,
                    remaining,
                    direct_bps,
                    rtt,
                    issued,
                    ..
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
                    tenant,
                    ratio,
                    latency,
                    ..
                } => {
                    let slo = &mut self.slo;
                    self.lay
                        .time(L::Slo, || slo.record_completion(tenant, ratio, latency));
                    self.completed += 1;
                }
                ShardMsg::Retry {
                    tenant,
                    remaining,
                    direct_bps,
                    rtt,
                    issued,
                    ..
                } => {
                    let done = horizon + completion_time(remaining, direct_bps, rtt);
                    let slo = &mut self.slo;
                    self.lay
                        .time(L::Slo, || slo.record_completion(tenant, 1.0, done - issued));
                    self.completed += 1;
                }
            }
        }
    }

    fn finish_counters(&mut self) {
        self.cnt.cache_hits = self.fixed.cache.hits();
        self.cnt.cache_misses = self.fixed.cache.misses();
    }

    fn outcome(&self) -> Outcome {
        let b = self.broker.stats();
        Outcome {
            arrivals: self.total_arrivals,
            overlay: b.overlay,
            direct: b.direct,
            stale: b.stale_fallback,
            denied: b.denied,
            admitted: b.admitted,
            chain: b.chain,
            probe_spent: b.probe_spent,
            completed: self.completed,
            violations: self.slo.violations(),
            spend_bits: self.fleet.spend_usd().to_bits(),
            mean_ratio_bits: mean_ratio(&self.slo).to_bits(),
            rows_hash: self.rows.value(),
            ..Outcome::default()
        }
    }
}

/// A completion on relay slots: accrue rent up to `now` (capped at the
/// horizon), then free the slots.
fn settle_slots(
    lay: &mut Layers,
    fleet: &mut Fleet,
    billed_to: &mut SimTime,
    now: SimTime,
    horizon: SimTime,
    slots: &SlotHops,
) {
    let dt = now.min(horizon).saturating_duration_since(*billed_to);
    lay.time(L::Fleet, || fleet.accrue(dt));
    *billed_to = now.min(horizon).max(*billed_to);
    for r in slots.iter() {
        lay.time(L::Fleet, || fleet.flow_finished(r));
    }
}

thread_local! {
    static INLINE: Cell<bool> = const { Cell::new(false) };
}

/// Whether this thread is a shard lane, where nested `parallel_map`
/// calls run inline.
fn exec_inline() -> bool {
    INLINE.with(Cell::get)
}

/// Replays one single-region day (service, multihop, or the fault-free
/// chaos loop).
pub fn single(cfg: &ServiceConfig, seed: u64) -> Traced {
    let t0 = Instant::now();
    let mut r = Region::new(cfg, seed, None, Layers::default());
    for e in 0..cfg.workload.epochs {
        r.run_epoch(e, Vec::new());
    }
    r.drain_tail();
    let wall_s = t0.elapsed().as_secs_f64();
    r.finish_counters();
    Traced {
        outcome: r.outcome(),
        layers: r.lay.clone(),
        counters: r.cnt,
        wall_s,
        wait_s: 0.0,
        lanes: 1,
    }
}

/// Replays the sharded planet: one [`Region`] per region, stepped under
/// `exec::shard_rounds` on `lanes` lanes with the engine's barrier.
pub fn planet(cfg: &ShardedConfig, seed: u64, lanes: usize) -> Traced {
    let t0 = Instant::now();
    let mut main = Layers::default();
    let epochs = cfg.service.workload.epochs as usize;
    let mut table = GeoTable::new();
    main.time(L::Shard, || {
        for r in 0..cfg.regions {
            table.insert(GeoPrefix::Region(r as u8), r);
        }
        table.build();
    });
    let table = &table;
    // Region construction runs on this thread, as in the engine; its
    // layer time is booked undivided by moving it into `main` below.
    let mut states: Vec<Region> = (0..cfg.regions)
        .map(|r| {
            Region::new(
                &cfg.service,
                region_seed(seed, r),
                Some(Remote {
                    region: r,
                    regions: cfg.regions,
                    permille: cfg.remote_permille,
                }),
                Layers::default(),
            )
        })
        .collect();
    for s in &mut states {
        main.absorb_scaled(&s.lay, 1.0);
        s.lay = Layers::default();
    }
    let rounds = epochs + 3;
    let global_budget = cfg.service.fleet.budget_usd * cfg.regions as f64;
    let barrier_ns = Cell::new(0.0f64);
    let shard_ns = Cell::new(0.0f64);
    let fleet_ns = Cell::new(0.0f64);
    let t_rounds = Instant::now();
    let states = exec::shard_rounds(
        states,
        lanes,
        rounds,
        |_i, svc: &mut Region, round, inbox: Vec<ShardMsg>| {
            INLINE.with(|c| c.set(lanes > 1));
            let t = Instant::now();
            if round < epochs {
                svc.run_epoch(round as u32, inbox);
            } else if round == epochs {
                svc.drain_tail();
                svc.settle(inbox);
            } else {
                svc.settle(inbox);
            }
            let out = std::mem::take(&mut svc.outbox);
            let mut routed = Vec::with_capacity(out.len());
            for m in out {
                let dst = match &m {
                    ShardMsg::Handoff { dst, .. } => svc.lay.time(L::Shard, || {
                        table
                            .lookup(NodeAddr::from_raw(*dst))
                            .expect("handoff names an unrouted region")
                    }) as usize,
                    ShardMsg::Done { origin, .. } | ShardMsg::Retry { origin, .. } => {
                        *origin as usize
                    }
                };
                routed.push((dst, m));
            }
            svc.step_ns.push(t.elapsed().as_nanos() as u64);
            routed
        },
        |round, states: &mut [Region]| {
            if round >= epochs {
                return;
            }
            let t = Instant::now();
            let spends: Vec<u64> = states
                .iter()
                .map(|s| s.fleet.spend_usd().to_bits())
                .collect();
            let ts = Instant::now();
            let total = merge_spend_bits(spends.iter().copied());
            shard_ns.set(shard_ns.get() + ts.elapsed().as_nanos() as f64);
            let share = (global_budget - total).max(0.0) / states.len() as f64;
            let tf = Instant::now();
            for (svc, bits) in states.iter_mut().zip(spends) {
                svc.fleet.set_budget(f64::from_bits(bits) + share);
            }
            fleet_ns.set(fleet_ns.get() + tf.elapsed().as_nanos() as f64);
            barrier_ns.set(barrier_ns.get() + t.elapsed().as_nanos() as f64);
        },
    );
    let rounds_ns = t_rounds.elapsed().as_nanos() as f64;
    main.add(L::Shard, shard_ns.get(), epochs as u64);
    main.add(L::Fleet, fleet_ns.get(), epochs as u64);

    // Lane accounting: lane l ran shards l, l+lanes, … each round.
    let lanes_n = lanes.clamp(1, states.len());
    let mut wait_ns = 0.0f64;
    let mut slowest_ns = 0.0f64;
    for round in 0..rounds {
        let mut per_lane = vec![0u64; lanes_n];
        for (i, s) in states.iter().enumerate() {
            per_lane[i % lanes_n] += s.step_ns[round];
        }
        let max = *per_lane.iter().max().expect("at least one lane");
        slowest_ns += max as f64;
        wait_ns += per_lane.iter().map(|&l| (max - l) as f64).sum::<f64>();
    }
    // What the rounds cost beyond the slowest lane and the barrier:
    // lane start-up, joins and mailbox routing inside `shard_rounds`.
    main.add(
        L::ShardRounds,
        (rounds_ns - slowest_ns - barrier_ns.get()).max(0.0),
        rounds as u64,
    );
    let mut lay = main;
    let mut cnt = Counters::default();
    let mut states = states;
    for s in &mut states {
        s.finish_counters();
        lay.absorb_scaled(&s.lay, lanes_n as f64);
        cnt.absorb(&s.cnt);
    }

    // The global rollup, folded in region order exactly as the engine.
    let outs: Vec<Outcome> = states.iter().map(Region::outcome).collect();
    let mut slo: Option<SloAccount> = None;
    for s in &states {
        match &mut slo {
            Some(a) => a.merge(&s.slo),
            None => slo = Some(s.slo.clone()),
        }
    }
    let slo = slo.expect("at least one region");
    let mut o = Outcome::default();
    for x in &outs {
        o.arrivals += x.arrivals;
        o.overlay += x.overlay;
        o.direct += x.direct;
        o.stale += x.stale;
        o.denied += x.denied;
        o.admitted += x.admitted;
        o.chain += x.chain;
        o.probe_spent += x.probe_spent;
        o.completed += x.completed;
    }
    o.violations = slo.violations();
    o.mean_ratio_bits = mean_ratio(&slo).to_bits();
    o.spend_bits = merge_spend_bits(outs.iter().map(|x| x.spend_bits)).to_bits();
    o.rows_hash = RowsHash::merged(&states.iter().map(|s| &s.rows).collect::<Vec<_>>());
    let wall_s = t0.elapsed().as_secs_f64();
    Traced {
        outcome: o,
        layers: lay,
        counters: cnt,
        wall_s,
        wait_s: wait_ns * 1e-9,
        lanes: lanes_n,
    }
}
