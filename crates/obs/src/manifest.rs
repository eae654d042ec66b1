//! Phase timers and the per-run manifest.
//!
//! A [`PhaseTimer`] measures the wall-clock span of a named phase (build
//! topology, run DES, render tables, ...). Wall time is inherently
//! non-deterministic, so it never enters the metric snapshot — phase
//! records live only here, in the manifest files, clearly separated from
//! the deterministic `metric` records. Host measurements of a run (peak
//! RSS, throughput per wall-second) measure the machine as much as the
//! run, so they ride on the run's own `phase` record.

use std::cell::RefCell;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::metrics::Snapshot;

thread_local! {
    static PHASES: RefCell<Vec<(String, u128)>> = const { RefCell::new(Vec::new()) };
}

/// A scoped wall-clock timer; records `(name, elapsed ns)` on drop and
/// bumps the `experiment.phases` counter.
#[derive(Debug)]
pub struct PhaseTimer {
    name: String,
    start: Instant,
}

/// Starts timing a named phase. The phase is recorded when the returned
/// guard drops.
#[must_use]
pub fn phase(name: impl Into<String>) -> PhaseTimer {
    PhaseTimer {
        name: name.into(),
        start: Instant::now(),
    }
}

impl Drop for PhaseTimer {
    fn drop(&mut self) {
        if !crate::enabled() {
            return;
        }
        let elapsed = self.start.elapsed().as_nanos();
        PHASES.with(|p| {
            p.borrow_mut()
                .push((std::mem::take(&mut self.name), elapsed))
        });
        crate::metrics::add_named("experiment.phases", 1);
    }
}

/// Takes the recorded phases (name, wall ns), clearing the list.
#[must_use]
pub fn take_phases() -> Vec<(String, u128)> {
    PHASES.with(|p| std::mem::take(&mut *p.borrow_mut()))
}

/// Clears recorded phases without returning them.
pub(crate) fn reset_phases() {
    PHASES.with(|p| p.borrow_mut().clear());
}

/// The process's peak resident set size in KiB (`VmHWM` from
/// `/proc/self/status`), or `None` where that file is unavailable
/// (non-Linux hosts).
#[must_use]
pub fn peak_rss_kb() -> Option<u64> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let status = fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

/// Extracts the `VmHWM:   123 kB` value from a `/proc/<pid>/status` body.
fn parse_vm_hwm(status: &str) -> Option<u64> {
    let v = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    v.trim().strip_suffix("kB")?.trim().parse().ok()
}

pub use crate::emit::json_escape;

/// Everything needed to identify and reproduce one experiment run.
#[derive(Debug, Clone)]
pub struct RunManifest {
    /// Experiment name (e.g. `fig2`).
    pub experiment: String,
    /// PRNG seed the run used.
    pub seed: u64,
    /// Final simulated time in nanoseconds (0 for analytic experiments).
    pub sim_duration_ns: u64,
    /// Wall-clock phase timings (name, nanoseconds) — non-deterministic.
    pub phases: Vec<(String, u128)>,
    /// Host measurements of the run (name with its unit, e.g.
    /// `peak_rss_kb`, and value) — non-deterministic. Rendered as extra
    /// `name=value` fields of the phase record named after the
    /// experiment (a bare one if no such phase was timed). Empty unless
    /// the caller adds them.
    pub host: Vec<(String, f64)>,
    /// Deterministic metric snapshot at the end of the run.
    pub snapshot: Snapshot,
}

impl RunManifest {
    /// Assembles a manifest from the current collector state: takes the
    /// recorded phases and a fresh snapshot.
    #[must_use]
    pub fn collect(experiment: impl Into<String>, seed: u64, sim_duration_ns: u64) -> RunManifest {
        RunManifest {
            experiment: experiment.into(),
            seed,
            sim_duration_ns,
            phases: take_phases(),
            host: Vec::new(),
            snapshot: crate::metrics::snapshot(),
        }
    }

    /// The phase rows as `(name, fields)`: each timed phase with its
    /// `wall_ns`, the host measurements appended to the run's own phase.
    fn phase_records(&self) -> Vec<(&str, Vec<(&str, String)>)> {
        let mut rows: Vec<(&str, Vec<(&str, String)>)> = self
            .phases
            .iter()
            .map(|(name, ns)| (name.as_str(), vec![("wall_ns", ns.to_string())]))
            .collect();
        if !self.host.is_empty() {
            let host = self.host.iter().map(|(k, v)| (k.as_str(), v.to_string()));
            match rows.iter_mut().find(|(name, _)| *name == self.experiment) {
                Some((_, fields)) => fields.extend(host),
                None => rows.push((&self.experiment, host.collect())),
            }
        }
        rows
    }

    /// Renders as TSV: `run` / `phase` / `metric` record rows.
    #[must_use]
    pub fn to_tsv(&self) -> String {
        let mut out = crate::emit::Tsv::new();
        out.row([
            "run".to_string(),
            format!("experiment={}", self.experiment),
            format!("seed={}", self.seed),
            format!("sim_duration_ns={}", self.sim_duration_ns),
        ]);
        for (name, fields) in self.phase_records() {
            let cells = fields.iter().map(|(k, v)| format!("{k}={v}"));
            out.row(
                ["phase".to_string(), name.to_string()]
                    .into_iter()
                    .chain(cells),
            );
        }
        for line in self.snapshot.to_tsv().lines() {
            // Snapshot rows are already escaped; nest them verbatim.
            out.raw_line(&format!("metric\t{line}"));
        }
        out.finish()
    }

    /// Renders as JSON lines: one `run` record, then `phase` records,
    /// then `metric` records.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"record\":\"run\",\"experiment\":\"{}\",\"seed\":{},\"sim_duration_ns\":{}}}\n",
            json_escape(&self.experiment),
            self.seed,
            self.sim_duration_ns
        ));
        for (name, fields) in self.phase_records() {
            out.push_str(&format!(
                "{{\"record\":\"phase\",\"name\":\"{}\"",
                json_escape(name)
            ));
            for (k, v) in fields {
                out.push_str(&format!(",\"{}\":{v}", json_escape(k)));
            }
            out.push_str("}\n");
        }
        for line in self.snapshot.to_jsonl().lines() {
            out.push_str("{\"record\":\"metric\",");
            out.push_str(line.strip_prefix('{').unwrap_or(line));
            out.push('\n');
        }
        out
    }

    /// Writes `manifest_<experiment>.tsv` and `.jsonl` into `dir`
    /// (creating it if needed) and returns both paths.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, dir: impl AsRef<Path>) -> io::Result<(PathBuf, PathBuf)> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let tsv = dir.join(format!("manifest_{}.tsv", self.experiment));
        let jsonl = dir.join(format!("manifest_{}.jsonl", self.experiment));
        fs::write(&tsv, self.to_tsv())?;
        fs::write(&jsonl, self.to_jsonl())?;
        Ok((tsv, jsonl))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_record_in_order() {
        let _guard = crate::test_guard();
        crate::enable();
        {
            let _a = phase("first");
        }
        {
            let _b = phase("second");
        }
        let phases = take_phases();
        crate::disable();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].0, "first");
        assert_eq!(phases[1].0, "second");
    }

    #[test]
    fn manifest_rows_have_all_record_kinds() {
        let _guard = crate::test_guard();
        crate::enable();
        {
            let _p = phase("build");
        }
        let m = RunManifest::collect("figX", 42, 1_000_000);
        crate::disable();
        let tsv = m.to_tsv();
        assert!(tsv.starts_with("run\texperiment=figX\tseed=42\tsim_duration_ns=1000000\n"));
        assert!(tsv.contains("phase\tbuild\twall_ns="));
        assert!(tsv.contains("metric\tdes.segments_sent\tcounter\t"));
        let jsonl = m.to_jsonl();
        assert!(jsonl.contains("\"record\":\"run\""));
        assert!(jsonl.contains("\"record\":\"phase\""));
        assert!(jsonl.contains("\"record\":\"metric\",\"metric\":\"des.segments_sent\""));
    }

    #[test]
    fn snapshot_part_is_deterministic_but_phases_may_differ() {
        let _guard = crate::test_guard();
        crate::enable();
        {
            let _p = phase("p");
        }
        let m1 = RunManifest::collect("d", 1, 0);
        crate::enable();
        {
            let _p = phase("p");
        }
        let m2 = RunManifest::collect("d", 1, 0);
        crate::disable();
        assert_eq!(m1.snapshot.to_tsv(), m2.snapshot.to_tsv());
    }

    #[test]
    fn host_fields_ride_on_the_runs_phase_record() {
        let _guard = crate::test_guard();
        crate::enable();
        {
            let _p = phase("build");
        }
        {
            let _p = phase("service");
        }
        let mut m = RunManifest::collect("service", 7, 0);
        crate::disable();
        m.host.push(("peak_rss_kb".to_string(), 51_200.0));
        m.host.push(("arrivals_per_s".to_string(), 1.5e6));
        let tsv = m.to_tsv();
        let row = tsv
            .lines()
            .find(|l| l.starts_with("phase\tservice\t"))
            .unwrap();
        assert!(row.starts_with("phase\tservice\twall_ns="), "{row}");
        assert!(
            row.ends_with("\tpeak_rss_kb=51200\tarrivals_per_s=1500000"),
            "{row}"
        );
        let build = tsv
            .lines()
            .find(|l| l.starts_with("phase\tbuild\t"))
            .unwrap();
        assert_eq!(
            build.split('\t').count(),
            3,
            "other phases carry no host fields"
        );
        let jsonl = m.to_jsonl();
        assert!(jsonl.contains(",\"peak_rss_kb\":51200,\"arrivals_per_s\":1500000}\n"));

        // No phase of the run's name: the fields get a bare phase row.
        m.phases.clear();
        assert!(m
            .to_tsv()
            .contains("\nphase\tservice\tpeak_rss_kb=51200\tarrivals_per_s=1500000\n"));
    }

    #[test]
    fn vm_hwm_parses_from_a_status_body() {
        let body = "Name:\tcronets\nVmPeak:\t  9000 kB\nVmHWM:\t   4321 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm(body), Some(4321));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
        if cfg!(target_os = "linux") {
            assert!(peak_rss_kb().is_some_and(|kb| kb > 0));
        }
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn write_to_emits_both_files() {
        let _guard = crate::test_guard();
        crate::enable();
        let m = RunManifest::collect("unit_test_manifest", 7, 0);
        crate::disable();
        let dir = std::env::temp_dir().join("obs_manifest_test");
        let (tsv, jsonl) = m.write_to(&dir).unwrap();
        assert!(fs::read_to_string(&tsv).unwrap().starts_with("run\t"));
        assert!(fs::read_to_string(&jsonl)
            .unwrap()
            .starts_with("{\"record\":\"run\""));
        let _ = fs::remove_dir_all(&dir);
    }
}
