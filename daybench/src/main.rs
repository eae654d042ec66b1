//! daybench — end-to-end and layer-by-layer benchmark of the CRONets
//! service day.
//!
//! ```text
//! daybench --workload <service_day|chaos_day|multihop_day|planet_day>
//!          [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each simulated day runs in a fresh child process, so a day's peak
//! RSS is its own. With `--trace 0` the parent repeats untraced engine
//! days at `--seed` for `--seconds` (at least three; four on the
//! planet), then prints their medians as the end-to-end metrics; the
//! deterministic `sim.*` metrics and
//! `fail_rate` come from the day at the pinned simulation seed
//! (`--sim-seed`, default 7). With `--trace 1` it alternates untraced
//! engine days with traced replays (see `replay.rs`) and prints the
//! per-layer metrics. The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! See README.md in this directory for the workloads, the metrics and
//! which layer metric is expected to move which end-to-end metric.

mod day;
mod outcome;
mod replay;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use day::Workload;
use outcome::Outcome;
use replay::L;

/// The pinned simulation seed of the `sim.*` metrics and `fail_rate`.
const SIM_SEED: u64 = 7;
/// Thread-pool size of every engine run (the reference box has 2 cores).
const THREADS: usize = 2;

const USAGE: &str = "usage: daybench --workload <service_day|chaos_day|multihop_day|planet_day> \
[--seed N] [--seconds S] [--trace 0|1] [--sim-seed N]";

struct Args {
    workload: Workload,
    seed: u64,
    sim_seed: u64,
    seconds: f64,
    trace: bool,
    child: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut sim_seed, mut seconds, mut trace, mut child) =
        (None, 7u64, SIM_SEED, 10.0f64, false, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--sim-seed" => {
                sim_seed = value()?
                    .parse()
                    .map_err(|_| "--sim-seed takes an integer")?
            }
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--child" => child = Some(value()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        sim_seed,
        seconds,
        trace,
        child,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("daybench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    exec::set_threads(THREADS);
    match args.child.as_deref() {
        Some(kind) => child(kind, &args),
        None if args.trace => traced(&args),
        None => untraced(&args),
    }
}

// ---------------------------------------------------------------------
// Child side: one day per process.

/// User+system CPU seconds of this process so far, from /proc/self/stat
/// (clock ticks at the Linux USER_HZ of 100).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    let tail = &stat[stat.rfind(')').expect("stat has a comm field") + 1..];
    let f: Vec<&str> = tail.split_whitespace().collect();
    let ticks = |i: usize| f[i].parse::<u64>().expect("numeric stat field");
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// This process's peak resident set (VmHWM), MB.
fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

fn print_day(d: &day::Day) {
    d.outcome.print();
    for p in &d.problems {
        println!("problem\t{p}");
    }
}

/// The cost of one timing pair as the replay takes it, measured here
/// on an empty call: `(inside, whole)` ns, where `inside` is what the
/// pair adds to the interval it measures and `whole` what it adds to
/// the wall.
fn timer_pair_ns() -> (f64, f64) {
    let (mut inside, mut whole) = (Vec::new(), Vec::new());
    for _ in 0..7 {
        let n = 200_000u32;
        let mut lay = replay::Layers::default();
        let t = Instant::now();
        for _ in 0..n {
            lay.time(L::Slo, || std::hint::black_box(0u64));
        }
        whole.push(t.elapsed().as_nanos() as f64 / f64::from(n));
        inside.push(lay.busy_ns[L::Slo as usize] / f64::from(n));
    }
    (median(&mut inside), median(&mut whole))
}

fn child(kind: &str, a: &Args) -> ExitCode {
    let w = a.workload;
    match kind {
        "day" => {
            let cpu0 = cpu_seconds();
            let t = Instant::now();
            let d = day::run(w, a.seed);
            let wall = t.elapsed().as_secs_f64();
            let cpu = cpu_seconds() - cpu0;
            let rss = peak_rss_mb();
            // Set-up is timed after the day so it cannot raise the
            // day's peak RSS; repeated for a median.
            let mut setup = Vec::new();
            let t = Instant::now();
            while setup.len() < 3 || (t.elapsed().as_secs_f64() < 0.25 && setup.len() < 15) {
                setup.push(day::setup_once(w, a.seed));
            }
            println!("wall_s\t{wall}");
            println!("cpu_s\t{cpu}");
            println!("peak_rss_mb\t{rss}");
            println!(
                "setup_s\t{}",
                setup
                    .iter()
                    .map(f64::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            );
            print_day(&d);
        }
        "empty" => {
            let (d, empty_wall, service_wall) = day::empty_chaos(a.seed);
            println!("empty_wall_s\t{empty_wall}");
            println!("service_wall_s\t{service_wall}");
            print_day(&d);
        }
        "ledger" => print_day(&day::planet_ledgers(a.seed)),
        "replay" => {
            let timer_ns = timer_pair_ns();
            let tr = match w {
                Workload::Planet => replay::planet(
                    &experiments::sharded::ShardedConfig::planetary(),
                    a.seed,
                    day::SHARDS,
                ),
                _ => replay::single(&w.service_config(), a.seed),
            };
            tr.outcome.print();
            for (k, v) in layer_metrics(&tr, timer_ns) {
                println!("m.{k}\t{v}");
            }
        }
        _ => {
            eprintln!("daybench: unknown child kind {kind}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

/// The per-layer metrics of one traced replay, timer cost netted out.
fn layer_metrics(tr: &replay::Traced, (inside, whole): (f64, f64)) -> Vec<(String, f64)> {
    let mut m = Vec::new();
    let mut booked = 0.0;
    let mut timer_s = 0.0;
    for l in L::ALL {
        let i = l as usize;
        let y = &tr.layers;
        let busy_ns = (y.busy_ns[i] - y.pairs_in[i] * inside - y.pairs_full[i] * whole).max(0.0);
        timer_s += y.pairs_in[i] * (whole - inside) * 1e-9;
        let calls = tr.layers.calls[i];
        booked += busy_ns * 1e-9;
        m.push((format!("{}.busy_s", l.name()), busy_ns * 1e-9));
        m.push((format!("{}.calls", l.name()), calls as f64));
        let per = if calls == 0 {
            0.0
        } else {
            busy_ns / calls as f64
        };
        m.push((format!("{}.ns_per_call", l.name()), per));
    }
    let c = &tr.counters;
    let o = &tr.outcome;
    let decisions = (o.admitted + o.denied).max(1) as f64;
    let lookups = (c.cache_hits + c.cache_misses).max(1) as f64;
    m.push((
        "routing.cache.hit_rate".into(),
        c.cache_hits as f64 / lookups,
    ));
    m.push((
        "control.broker.stale_share".into(),
        o.stale as f64 / decisions,
    ));
    m.push((
        "control.broker.overlay_share".into(),
        o.overlay as f64 / decisions,
    ));
    m.push((
        "control.fleet.group_free_calls".into(),
        c.group_free_calls as f64,
    ));
    m.push(("simcore.event.pops".into(), c.pops as f64));
    m.push(("simcore.event.peak_len".into(), c.peak_len as f64));
    m.push(("exec.shard_rounds.wait_s".into(), tr.wait_s));
    let unattributed = tr.wall_s - booked - tr.wait_s / tr.lanes as f64;
    m.push(("unattributed_s".into(), unattributed));
    m.push(("trace.timer_s".into(), timer_s));
    m.push(("trace.wall_s".into(), tr.wall_s));
    m.push(("trace.timer_ns".into(), whole));
    m
}

// ---------------------------------------------------------------------
// Parent side.

/// One finished child: its key/value lines, or why it failed.
struct Run {
    kv: BTreeMap<String, String>,
    outcome: Option<Outcome>,
    problems: Vec<String>,
}

impl Run {
    fn num(&self, k: &str) -> f64 {
        self.kv
            .get(k)
            .and_then(|v| v.parse().ok())
            .unwrap_or(f64::NAN)
    }

    fn ok(&self) -> bool {
        self.outcome.is_some() && self.problems.is_empty()
    }
}

fn spawn(kind: &str, a: &Args, seed: u64) -> Run {
    let exe = std::env::current_exe().expect("own executable path");
    let out = Command::new(exe)
        .args([
            "--child",
            kind,
            "--workload",
            a.workload.name(),
            "--seed",
            &seed.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    let mut kv = BTreeMap::new();
    let mut problems = Vec::new();
    match out {
        Ok(o) if o.status.success() => {
            for line in String::from_utf8_lossy(&o.stdout).lines() {
                if let Some((k, v)) = line.split_once('\t') {
                    if k == "problem" {
                        problems.push(v.to_string());
                    } else {
                        kv.insert(k.to_string(), v.to_string());
                    }
                }
            }
        }
        Ok(o) => problems.push(format!("{kind} child exited with {}", o.status)),
        Err(e) => problems.push(format!("{kind} child did not start: {e}")),
    }
    let outcome = Outcome::parse(&kv);
    if outcome.is_none() && problems.is_empty() {
        problems.push(format!("{kind} child printed no outcome"));
    }
    Run {
        kv,
        outcome,
        problems,
    }
}

/// Tallies correctness over every engine day of one invocation.
#[derive(Default)]
struct Tally {
    correct: bool,
    attempted: u64,
    /// Arrivals of the days that failed a check.
    failed: u64,
    /// Fingerprint of the first passing day per seed.
    seen: BTreeMap<u64, String>,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            correct: true,
            ..Tally::default()
        }
    }

    /// Books an engine day at `seed`: its checks and, when
    /// `fingerprinted`, that its deterministic fingerprint equals every
    /// other day at that seed in this run and in earlier runs of this
    /// build.
    fn book(&mut self, w: Workload, seed: u64, r: &mut Run, fingerprinted: bool) {
        if let (Some(o), true) = (r.outcome, fingerprinted) {
            let fp = o.fingerprint();
            match self.seen.get(&seed) {
                Some(prev) if *prev != fp => r
                    .problems
                    .push(format!("fingerprint differs between days at seed {seed}")),
                Some(_) => {}
                None => {
                    if let Some(p) = check_stored_fingerprint(w, seed, &fp) {
                        r.problems.push(p);
                    }
                    self.seen.insert(seed, fp);
                }
            }
        }
        // A day that crashed before reporting counts its expected load.
        let arrivals = r
            .outcome
            .map_or_else(|| w.expected_arrivals(), |o| o.arrivals.max(1));
        self.attempted += arrivals;
        if !r.ok() {
            for p in &r.problems {
                eprintln!("daybench: {} seed {seed}: {p}", w.name());
            }
            self.correct = false;
            self.failed += arrivals;
        }
    }
}

/// Compares a day's fingerprint with the one stored by earlier runs of
/// this build, storing it on first sight. The store sits next to the
/// executable, keyed by the executable's size and modification time, so
/// a rebuild starts a fresh store.
fn check_stored_fingerprint(w: Workload, seed: u64, fp: &str) -> Option<String> {
    let exe = std::env::current_exe().ok()?;
    let meta = std::fs::metadata(&exe).ok()?;
    let mtime = meta
        .modified()
        .ok()?
        .duration_since(std::time::UNIX_EPOCH)
        .ok()?
        .as_nanos();
    let dir: PathBuf = exe
        .parent()?
        .join("daybench-fingerprints")
        .join(format!("{}-{mtime}", meta.len()));
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!("{}-{seed}", w.name()));
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev.trim() == fp => None,
        Ok(prev) => Some(format!(
            "fingerprint at seed {seed} differs from an earlier run of this build: was {}, now {fp}",
            prev.trim()
        )),
        Err(_) => {
            let _ = std::fs::write(&path, fp);
            None
        }
    }
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn median_of(runs: &[Run], f: impl Fn(&Run) -> f64) -> f64 {
    let mut v: Vec<f64> = runs.iter().map(f).filter(|x| x.is_finite()).collect();
    median(&mut v)
}

fn emit(t: &Tally, metrics: &[(&str, f64, &str)]) {
    let body = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        t.correct,
        t.attempted.max(1),
        t.failed
    );
}

/// Fewest timed days behind one end-to-end median. A planet day lasts
/// about 7 s, so its runs need more than the time budget alone gives.
fn min_days(w: Workload) -> usize {
    match w {
        Workload::Planet => 4,
        _ => 3,
    }
}

fn untraced(a: &Args) -> ExitCode {
    let w = a.workload;
    let mut t = Tally::new();
    let start = Instant::now();
    let mut reps: Vec<Run> = Vec::new();
    while reps.len() < min_days(w) || start.elapsed().as_secs_f64() < a.seconds {
        let mut r = spawn("day", a, a.seed);
        t.book(w, a.seed, &mut r, true);
        println!(
            "day {}: wall_s {} cpu_s {}",
            reps.len(),
            r.num("wall_s"),
            r.num("cpu_s")
        );
        reps.push(r);
    }
    // The deterministic metrics come from the day at the pinned
    // simulation seed (the timed days when the seeds coincide).
    let canonical = if a.seed == a.sim_seed {
        (reps[0].outcome, reps[0].ok())
    } else {
        let mut r = spawn("day", a, a.sim_seed);
        t.book(w, a.sim_seed, &mut r, true);
        (r.outcome, r.ok())
    };
    if w == Workload::Chaos {
        let mut r = spawn("empty", a, a.seed);
        t.book(w, a.seed, &mut r, false);
    }
    let mut setup: Vec<f64> = reps
        .iter()
        .filter_map(|r| r.kv.get("setup_s"))
        .flat_map(|s| s.split(',').filter_map(|x| x.parse::<f64>().ok()))
        .collect();
    // A failed day's arrivals all count as failed (the pinned day's
    // among them, when it failed).
    let (fail_rate, ratio, spend) = match canonical {
        (Some(o), ok) => {
            let (viol, arr) = if ok {
                (o.violations, o.arrivals)
            } else {
                (0, 0)
            };
            (
                (viol + t.failed) as f64 / (arr + t.failed) as f64,
                o.mean_ratio(),
                o.spend_usd(),
            )
        }
        (None, _) => (1.0, f64::NAN, f64::NAN),
    };
    emit(
        &t,
        &[
            ("wall_s", median_of(&reps, |r| r.num("wall_s")), "s"),
            ("setup_s", median(&mut setup), "s"),
            (
                "arrivals_per_s",
                median_of(&reps, |r| {
                    r.outcome.map_or(f64::NAN, |o| o.arrivals as f64) / r.num("wall_s")
                }),
                "1/s",
            ),
            ("cpu_s", median_of(&reps, |r| r.num("cpu_s")), "s"),
            (
                "peak_rss_mb",
                median_of(&reps, |r| r.num("peak_rss_mb")),
                "MB",
            ),
            ("fail_rate", fail_rate, "ratio"),
            ("sim.mean_ratio", ratio, "ratio"),
            ("sim.spend_usd", spend, "USD"),
        ],
    );
    ExitCode::SUCCESS
}

fn traced(a: &Args) -> ExitCode {
    let w = a.workload;
    let mut t = Tally::new();
    let start = Instant::now();
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut push = |k: &str, v: f64| {
        if v.is_finite() {
            samples.entry(k.to_string()).or_default().push(v);
        }
    };
    let mut invalid: Option<String> = None;
    let mut reps = 0usize;
    while reps == 0 || start.elapsed().as_secs_f64() < a.seconds {
        reps += 1;
        let mut engine = spawn("day", a, a.seed);
        t.book(w, a.seed, &mut engine, true);
        // The replay's reference: the engine day itself, or for the
        // chaos day (whose replay is the fault-free loop) the same day
        // under an empty fault schedule.
        let (reference, untraced_wall) = if w == Workload::Chaos {
            let mut empty = spawn("empty", a, a.seed);
            t.book(w, a.seed, &mut empty, false);
            push(
                "faults.handling_s",
                engine.num("wall_s") - empty.num("empty_wall_s"),
            );
            (empty.outcome, empty.num("service_wall_s"))
        } else {
            (engine.outcome, engine.num("wall_s"))
        };
        if let Some(o) = engine.outcome {
            push("faults.killed", o.killed as f64);
            push("faults.retries", o.retries as f64);
            push("obs.spans", o.spans as f64);
            push("obs.spans_dropped", o.spans_dropped as f64);
        }
        let replay = spawn("replay", a, a.seed);
        match (replay.outcome, reference) {
            (Some(mine), Some(theirs)) => {
                if let Some(d) = mine.first_difference(&theirs) {
                    invalid.get_or_insert(d);
                }
            }
            _ => {
                invalid.get_or_insert("replay or its reference did not finish".into());
            }
        }
        for (k, v) in &replay.kv {
            if let Some(name) = k.strip_prefix("m.") {
                if let Ok(x) = v.parse::<f64>() {
                    push(name, x);
                }
            }
        }
        push(
            "trace.overhead_s",
            replay.num("m.trace.wall_s") - untraced_wall,
        );
    }
    if w == Workload::Planet {
        let mut r = spawn("ledger", a, a.seed);
        t.book(w, a.seed, &mut r, true);
    }
    if let Some(d) = &invalid {
        println!("replay invalid for {}: {d}", w.name());
        eprintln!("daybench: replay invalid for {}: {d}", w.name());
    }
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    for (name, unit) in per_layer_names() {
        let v = match name.as_str() {
            "replay.valid" => f64::from(u8::from(invalid.is_none())),
            _ => samples.get_mut(&name).map_or(0.0, |v| median(v)),
        };
        metrics.push((name, v, unit));
    }
    let view: Vec<(&str, f64, &str)> = metrics
        .iter()
        .map(|(n, v, u)| (n.as_str(), *v, *u))
        .collect();
    emit(&t, &view);
    ExitCode::SUCCESS
}

/// Every per-layer metric, in BENCHMARK.json order, with its unit.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v = Vec::new();
    for l in L::ALL {
        v.push((format!("{}.busy_s", l.name()), "s"));
        v.push((format!("{}.calls", l.name()), "count"));
        v.push((format!("{}.ns_per_call", l.name()), "ns"));
    }
    for (n, u) in [
        ("routing.cache.hit_rate", "ratio"),
        ("control.broker.stale_share", "ratio"),
        ("control.broker.overlay_share", "ratio"),
        ("control.fleet.group_free_calls", "count"),
        ("simcore.event.pops", "count"),
        ("simcore.event.peak_len", "count"),
        ("exec.shard_rounds.wait_s", "s"),
        ("faults.handling_s", "s"),
        ("faults.killed", "count"),
        ("faults.retries", "count"),
        ("obs.spans", "count"),
        ("obs.spans_dropped", "count"),
        ("unattributed_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.timer_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.timer_ns", "ns"),
        ("replay.valid", "bool"),
    ] {
        v.push((n.to_string(), u));
    }
    v
}
