//! What a simulated day produced, in a form both the engine run and the
//! traced replay can fill in, print, parse and compare.

use std::collections::BTreeMap;

use control::shard::merge_spend_bits;
use control::SloAccount;

/// Headline counters and exact-bits results of one day.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcome {
    pub arrivals: u64,
    pub overlay: u64,
    pub direct: u64,
    pub stale: u64,
    pub denied: u64,
    pub admitted: u64,
    pub chain: u64,
    pub probe_spent: u64,
    pub completed: u64,
    pub violations: u64,
    pub spend_bits: u64,
    pub mean_ratio_bits: u64,
    /// FNV-1a over the epoch table; 0 when the run has no service table.
    pub rows_hash: u64,
    pub killed: u64,
    pub retries: u64,
    pub spans: u64,
    pub spans_dropped: u64,
}

/// The fields compared between an engine run and its replay, by name.
const COMPARED: [&str; 13] = [
    "arrivals",
    "overlay",
    "direct",
    "stale",
    "denied",
    "admitted",
    "chain",
    "probe_spent",
    "completed",
    "violations",
    "spend_bits",
    "mean_ratio_bits",
    "rows_hash",
];

impl Outcome {
    fn fields(&self) -> [(&'static str, u64); 17] {
        [
            ("arrivals", self.arrivals),
            ("overlay", self.overlay),
            ("direct", self.direct),
            ("stale", self.stale),
            ("denied", self.denied),
            ("admitted", self.admitted),
            ("chain", self.chain),
            ("probe_spent", self.probe_spent),
            ("completed", self.completed),
            ("violations", self.violations),
            ("spend_bits", self.spend_bits),
            ("mean_ratio_bits", self.mean_ratio_bits),
            ("rows_hash", self.rows_hash),
            ("killed", self.killed),
            ("retries", self.retries),
            ("spans", self.spans),
            ("spans_dropped", self.spans_dropped),
        ]
    }

    /// Prints the outcome as `out.<field>\t<value>` lines.
    pub fn print(&self) {
        for (k, v) in self.fields() {
            println!("out.{k}\t{v}");
        }
    }

    /// Reads an outcome back from parsed child output.
    pub fn parse(kv: &BTreeMap<String, String>) -> Option<Outcome> {
        let get = |k: &str| kv.get(&format!("out.{k}"))?.parse::<u64>().ok();
        Some(Outcome {
            arrivals: get("arrivals")?,
            overlay: get("overlay")?,
            direct: get("direct")?,
            stale: get("stale")?,
            denied: get("denied")?,
            admitted: get("admitted")?,
            chain: get("chain")?,
            probe_spent: get("probe_spent")?,
            completed: get("completed")?,
            violations: get("violations")?,
            spend_bits: get("spend_bits")?,
            mean_ratio_bits: get("mean_ratio_bits")?,
            rows_hash: get("rows_hash")?,
            killed: get("killed")?,
            retries: get("retries")?,
            spans: get("spans")?,
            spans_dropped: get("spans_dropped")?,
        })
    }

    /// The first compared counter on which `self` (the replay) differs
    /// from `engine`, as `name: engine=… replay=…`. The epoch-table hash
    /// is compared only when both sides have one.
    pub fn first_difference(&self, engine: &Outcome) -> Option<String> {
        let mine = self.fields();
        let theirs = engine.fields();
        for name in COMPARED {
            let a = mine.iter().find(|(k, _)| *k == name).map(|x| x.1);
            let b = theirs.iter().find(|(k, _)| *k == name).map(|x| x.1);
            if name == "rows_hash" && (a == Some(0) || b == Some(0)) {
                continue;
            }
            if a != b {
                return Some(format!(
                    "{name}: engine={} replay={}",
                    b.unwrap_or(0),
                    a.unwrap_or(0)
                ));
            }
        }
        None
    }

    /// The deterministic fingerprint of a day: every compared field.
    pub fn fingerprint(&self) -> String {
        self.fields()
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    }

    pub fn spend_usd(&self) -> f64 {
        f64::from_bits(self.spend_bits)
    }

    pub fn mean_ratio(&self) -> f64 {
        f64::from_bits(self.mean_ratio_bits)
    }
}

/// Completion-weighted achieved/direct throughput ratio of a ledger.
pub fn mean_ratio(slo: &SloAccount) -> f64 {
    let (mut sum, mut n) = (0.0f64, 0u64);
    for t in slo.tenants() {
        sum += t.sum_ratio;
        n += t.completed;
    }
    sum / n.max(1) as f64
}

/// One epoch row: arrivals, overlay, direct, denied, stale, completed,
/// violations, active, draining, utilization bits, spend bits.
pub type Row = [u64; 11];

/// The epoch table of a run, hashed for comparison.
#[derive(Debug, Clone, Default)]
pub struct RowsHash {
    rows: Vec<Row>,
}

impl RowsHash {
    pub fn push(&mut self, row: &Row) {
        self.rows.push(*row);
    }

    pub fn value(&self) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for row in &self.rows {
            for v in row {
                for b in v.to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0100_0000_01B3);
                }
            }
        }
        h
    }

    /// The global table of a sharded run, folded in region order as the
    /// engine folds it: counts add, utilization averages, spend merges
    /// over exact bits.
    pub fn merged(regions: &[&RowsHash]) -> u64 {
        let epochs = regions[0].rows.len();
        let mut out = RowsHash::default();
        for e in 0..epochs {
            let mut row = [0u64; 11];
            let mut util = 0.0f64;
            for r in regions {
                for (k, v) in row.iter_mut().enumerate().take(9) {
                    *v += r.rows[e][k];
                }
                util += f64::from_bits(r.rows[e][9]);
            }
            util /= regions.len() as f64;
            row[9] = util.to_bits();
            row[10] = merge_spend_bits(regions.iter().map(|r| r.rows[e][10])).to_bits();
            out.push(&row);
        }
        out.value()
    }
}
