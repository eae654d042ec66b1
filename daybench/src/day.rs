//! The four simulated-day workloads, run through the public engine entry
//! points with tracing off, plus their per-run correctness checks and
//! the set-up the benchmark times on its own.

use std::time::Instant;

use control::{BrokerStats, PathsPolicy, SloAccount};
use experiments::chaos::{chaos, chaos_with_schedule, ChaosConfig, ChaosReport};
use experiments::service::{service, RemoteEvent, ServiceConfig, ServiceReport};
use experiments::sharded::{service_sharded, service_sharded_with_ledgers, ShardedConfig};
use faults::{FaultSchedule, Invariants};
use simcore::SimDuration;

use crate::outcome::{mean_ratio, Outcome, RowsHash};
use crate::replay::{build_fixed, region_seed, Layers};

/// Shard lanes of the planet run (one per core of the reference box).
pub const SHARDS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Service,
    Chaos,
    Multihop,
    Planet,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "service_day" => Some(Workload::Service),
            "chaos_day" => Some(Workload::Chaos),
            "multihop_day" => Some(Workload::Multihop),
            "planet_day" => Some(Workload::Planet),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Service => "service_day",
            Workload::Chaos => "chaos_day",
            Workload::Multihop => "multihop_day",
            Workload::Planet => "planet_day",
        }
    }

    /// Flow requests the day's workload generator is expected to issue.
    pub fn expected_arrivals(self) -> u64 {
        let regions = match self {
            Workload::Planet => ShardedConfig::planetary().regions,
            _ => 1,
        };
        (self.service_config().workload.expected_arrivals() * f64::from(regions)).round() as u64
    }

    /// The single-region service configuration the day runs (for the
    /// chaos day, the fault-free loop under its nemesis; for the planet,
    /// one region).
    pub fn service_config(self) -> ServiceConfig {
        match self {
            Workload::Service => ServiceConfig::paper(),
            Workload::Chaos => ChaosConfig::paper().service,
            Workload::Multihop => {
                let mut cfg = ServiceConfig::paper();
                cfg.paths = PathsPolicy::MultiHop;
                cfg.khops = 2;
                cfg
            }
            Workload::Planet => ShardedConfig::planetary().service,
        }
    }
}

/// One engine day: its outcome and every failed check, by description.
pub struct Day {
    pub outcome: Outcome,
    pub problems: Vec<String>,
}

fn check(problems: &mut Vec<String>, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        problems.push(what());
    }
}

/// The headline counters every engine report carries.
fn headline(
    arrivals: u64,
    completed: u64,
    b: &BrokerStats,
    slo: &SloAccount,
    spend_usd: f64,
) -> Outcome {
    Outcome {
        arrivals,
        overlay: b.overlay,
        direct: b.direct,
        stale: b.stale_fallback,
        denied: b.denied,
        admitted: b.admitted,
        chain: b.chain,
        probe_spent: b.probe_spent,
        completed,
        violations: slo.violations(),
        spend_bits: spend_usd.to_bits(),
        mean_ratio_bits: mean_ratio(slo).to_bits(),
        ..Outcome::default()
    }
}

/// The headline of a service-loop report, with its epoch-table hash.
pub fn service_outcome(r: &ServiceReport) -> Outcome {
    let mut rows = RowsHash::default();
    for x in &r.rows {
        rows.push(&[
            x.arrivals,
            x.overlay,
            x.direct,
            x.denied,
            x.stale,
            x.completed,
            x.violations,
            x.active as u64,
            x.draining as u64,
            x.util.to_bits(),
            x.spend_usd.to_bits(),
        ]);
    }
    Outcome {
        rows_hash: rows.value(),
        ..headline(r.arrivals, r.completed, &r.broker, &r.slo, r.spend_usd)
    }
}

/// The headline of a chaos report, with its fault and span counts.
fn chaos_outcome(r: &ChaosReport) -> Outcome {
    Outcome {
        killed: r.killed,
        retries: r.retries,
        spans: r.spans.len() as u64,
        spans_dropped: r.span_dropped,
        ..headline(r.arrivals, r.completed, &r.broker, &r.slo, r.spend_usd)
    }
}

/// Ledger balance of a single-region service day: every arrival is
/// admitted one way or denied, every admission completes, and the epoch
/// rows sum to the totals.
fn check_service(r: &ServiceReport, p: &mut Vec<String>) {
    let b = &r.broker;
    check(
        p,
        r.arrivals == b.overlay + b.direct + b.stale_fallback + b.denied,
        || {
            format!(
                "arrivals {} != overlay {} + direct {} + stale {} + denied {}",
                r.arrivals, b.overlay, b.direct, b.stale_fallback, b.denied
            )
        },
    );
    check(
        p,
        b.admitted == b.overlay + b.direct + b.stale_fallback,
        || format!("admitted {} != overlay + direct + stale", b.admitted),
    );
    let sum = |f: fn(&experiments::service::EpochRow) -> u64| r.rows.iter().map(f).sum::<u64>();
    for (name, rows, total) in [
        ("arrivals", sum(|x| x.arrivals), r.arrivals),
        ("overlay", sum(|x| x.overlay), b.overlay),
        ("direct", sum(|x| x.direct), b.direct),
        ("stale", sum(|x| x.stale), b.stale_fallback),
        ("denied", sum(|x| x.denied), b.denied),
    ] {
        check(p, rows == total, || {
            format!("epoch rows sum {name} to {rows}, total is {total}")
        });
    }
    check(p, r.completed == b.admitted, || {
        format!("completed {} != admitted {}", r.completed, b.admitted)
    });
    check(p, r.completed == r.slo.completed(), || {
        format!(
            "completed {} != SLO ledger {}",
            r.completed,
            r.slo.completed()
        )
    });
    check(p, r.spend_usd <= r.budget_usd + 1e-9, || {
        format!("spend {} over budget {}", r.spend_usd, r.budget_usd)
    });
}

fn check_planet(r: &ServiceReport, p: &mut Vec<String>) {
    let rows: u64 = r.rows.iter().map(|x| x.arrivals).sum();
    check(p, rows == r.arrivals, || {
        format!("epoch rows sum arrivals to {rows}, total is {}", r.arrivals)
    });
    // Destination-side handoff admissions are extra broker decisions.
    check(p, r.broker.admitted + r.broker.denied >= r.arrivals, || {
        format!(
            "decisions {} < arrivals {}",
            r.broker.admitted + r.broker.denied,
            r.arrivals
        )
    });
    check(p, r.completed == r.slo.completed(), || {
        format!(
            "completed {} != SLO ledger {}",
            r.completed,
            r.slo.completed()
        )
    });
    check(p, r.spend_usd <= r.budget_usd + 1e-9, || {
        format!("spend {} over budget {}", r.spend_usd, r.budget_usd)
    });
}

/// Runs workload `w`'s day at `seed` through its public engine entry
/// point and checks the result.
pub fn run(w: Workload, seed: u64) -> Day {
    let mut problems = Vec::new();
    let outcome = match w {
        Workload::Service | Workload::Multihop => {
            let r = service(&w.service_config(), seed);
            check_service(&r, &mut problems);
            service_outcome(&r)
        }
        Workload::Chaos => {
            let r = chaos(&ChaosConfig::paper(), seed);
            check(&mut problems, r.invariant_violations.is_empty(), || {
                format!("invariant violations: {:?}", r.invariant_violations)
            });
            check(&mut problems, r.spend_usd <= r.budget_usd + 1e-9, || {
                format!("spend {} over budget {}", r.spend_usd, r.budget_usd)
            });
            chaos_outcome(&r)
        }
        Workload::Planet => {
            let r = service_sharded(&ShardedConfig::planetary(), seed, SHARDS);
            check_planet(&r, &mut problems);
            service_outcome(&r)
        }
    };
    Day { outcome, problems }
}

/// The chaos day under an empty fault schedule, and the check that it
/// equals the service day's headline. Returns the empty-schedule day,
/// its wall time, and the service day's wall time.
pub fn empty_chaos(seed: u64) -> (Day, f64, f64) {
    let cfg = ChaosConfig::paper();
    let empty = FaultSchedule::from_events(Vec::new(), cfg.faults.mttr_cap)
        .expect("an empty schedule is well formed");
    let t = Instant::now();
    let r = chaos_with_schedule(&cfg, seed, &empty);
    let empty_wall = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let s = service(&cfg.service, seed);
    let service_wall = t.elapsed().as_secs_f64();
    let mut problems = Vec::new();
    check(&mut problems, r.invariant_violations.is_empty(), || {
        format!("invariant violations: {:?}", r.invariant_violations)
    });
    let outcome = chaos_outcome(&r);
    if let Some(d) = outcome.first_difference(&service_outcome(&s)) {
        problems.push(format!(
            "empty-schedule chaos day differs from the service day on {d}"
        ));
    }
    (Day { outcome, problems }, empty_wall, service_wall)
}

/// Byte conservation of the planet's cross-region flows: the engine's
/// handoff ledgers replayed into the fault checker.
pub fn planet_ledgers(seed: u64) -> Day {
    let (r, ledgers) =
        service_sharded_with_ledgers(&ShardedConfig::planetary(), seed, SHARDS, true);
    let mut problems = Vec::new();
    check_planet(&r, &mut problems);
    let mut inv = Invariants::new(1, SimDuration::from_secs(1));
    let mut handoffs = 0u64;
    for ledger in &ledgers {
        for ev in ledger {
            match *ev {
                RemoteEvent::Requested { flow, bytes } => inv.flow_requested(flow, bytes),
                RemoteEvent::Denied { flow } => inv.flow_denied(flow),
                RemoteEvent::HandedOff { flow, delivered } => {
                    handoffs += 1;
                    inv.flow_killed(flow, delivered);
                }
                RemoteEvent::Retried { .. } => {}
                RemoteEvent::Completed { flow, delivered } => inv.flow_completed(flow, delivered),
            }
        }
    }
    check(&mut problems, handoffs > 0, || {
        "no flow crossed a region".into()
    });
    check(&mut problems, inv.violations().is_empty(), || {
        format!("cross-region bytes not conserved: {:?}", inv.violations())
    });
    Day {
        outcome: service_outcome(&r),
        problems,
    }
}

/// Host seconds of one set-up of workload `w`'s fixed state: the world,
/// the warmed route cache and pair catalogue, and (multihop) the chain
/// candidates — per region for the planet.
pub fn setup_once(w: Workload, seed: u64) -> f64 {
    let cfg = w.service_config();
    let mut lay = Layers::default();
    match w {
        Workload::Planet => {
            let regions = ShardedConfig::planetary().regions;
            let t = Instant::now();
            let built: Vec<_> = (0..regions)
                .map(|r| build_fixed(&cfg, region_seed(seed, r), &mut lay))
                .collect();
            let s = t.elapsed().as_secs_f64();
            drop(built);
            s
        }
        _ => {
            let t = Instant::now();
            let built = build_fixed(&cfg, seed, &mut lay);
            let s = t.elapsed().as_secs_f64();
            drop(built);
            s
        }
    }
}
