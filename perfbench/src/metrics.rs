//! The metric catalog, the round-time estimate and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: every workload reports each of them, from an
/// untraced run. Their meaning per workload is in README.md.
pub const END_TO_END: [(&str, &str); 3] = [
    ("round_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The percentile at which a part of a round is read (see [`Parts`]).
pub const FAST_Q: f64 = 0.01;

/// Per-layer metrics, from a traced run. A layer the workload never
/// calls reads 0 there; README.md names the workload each one is for.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("front.compile_ms", "ms"),
    ("psm.plan_ms", "ms"),
    ("synth.run_ms", "ms"),
    ("synth.nets", "count"),
    ("analyze.lint_ms", "ms"),
    ("hdl.aig_lower_ms", "ms"),
    ("hdl.aig_vars", "count"),
    ("verify.obligations_s", "s"),
    ("verify.clauses", "count"),
    ("verify.decisions", "count"),
    ("verify.propagations", "count"),
    ("verify.conflicts", "count"),
    ("verify.cosim_ms", "ms"),
    ("hdl.net_analysis_ms", "ms"),
    ("analyze.sta_ranked_ms", "ms"),
    ("analyze.sta_full_ms", "ms"),
    ("analyze.sta_dlx_small_ms", "ms"),
    ("analyze.sta_queries", "count"),
    ("analyze.sta_pruned", "count"),
    ("hdl.sim_cycles_per_s", "cycles/s"),
    ("psm.seq_cycles_per_s", "cycles/s"),
    ("verify.cosim_rss_growth_mb", "MB"),
    ("dlx.retired", "count"),
    ("dlx.fwd_cycles", "count"),
    ("dlx.interlock_cycles", "count"),
    ("dlx.dhaz_cycles", "count"),
    ("serve.request_parse_us", "us"),
    ("serve.elaborate_us", "us"),
    ("hdl.cone_digest_us", "us"),
    ("serve.toy_solve_ms", "ms"),
    ("serve.restart_first_ms", "ms"),
    ("serve.resubmit_p50_us", "us"),
    ("serve.revision_p50_us", "us"),
    ("serve.revision_p99_us", "us"),
    ("serve.edit_p50_ms", "ms"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.cache_stores", "count"),
    ("serve.rss_growth_mb", "MB"),
];

/// The times of the parts of a workload's round, by part. Every round
/// runs the same parts, so a round's time is estimated as the sum over
/// its parts of each part's 1st-percentile time in the run, weighted by
/// how often the part occurs in a round.
///
/// The 2-vCPU host the reference figures come from runs at two speeds,
/// 1.5 to 1.7 times apart, and switches between them at intervals from
/// milliseconds to minutes. A median or a mean over a run reads how much
/// of it fell in the slow state (a 34 % spread over five seeds, where
/// the 1st percentile spread 8.5 %); a low percentile of short parts
/// reads the program at the fast speed, which most runs of 20 s reach.
#[derive(Default)]
pub struct Parts(Vec<Vec<f64>>);

impl Parts {
    pub fn push(&mut self, part: usize, ms: f64) {
        if self.0.len() <= part {
            self.0.resize(part + 1, Vec::new());
        }
        self.0[part].push(ms);
    }

    /// `samples x [percentile median]` in milliseconds, per part: how far
    /// the run's median fell from the figure it reports.
    pub fn describe(&self) -> String {
        self.0
            .iter()
            .map(|xs| {
                format!(
                    "{}x[{:.4} {:.4}]",
                    xs.len(),
                    percentile(xs, FAST_Q),
                    median(xs)
                )
            })
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// The estimated time of one of `rounds` rounds, in milliseconds.
    pub fn round_ms(&self, rounds: usize) -> f64 {
        let rounds = rounds.max(1) as f64;
        self.0
            .iter()
            .map(|xs| xs.len() as f64 / rounds * percentile(xs, FAST_Q))
            .sum()
    }
}

/// What one run measured and found.
#[derive(Default)]
pub struct Outcome {
    /// Operations started in the timed phase.
    pub attempted: u64,
    /// Operations that returned an error instead of a result.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Every failed output check, described.
    pub problems: Vec<String>,
    /// Each part's samples, percentile and median time, for the log.
    pub parts_log: String,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Records a failed check (`Err`) as a problem.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.problems.push(e);
        }
    }

    /// Fills the end-to-end metrics shared by every workload; the peak
    /// memory is read now unless the workload set it already.
    pub fn end_to_end(&mut self, parts: &Parts, rounds: usize, setup_s: f64) {
        self.set("round_ms", parts.round_ms(rounds));
        self.parts_log = parts.describe();
        self.set("setup_s", setup_s);
        if !self.values.contains_key("peak_rss_mb") {
            self.set("peak_rss_mb", peak_rss_mb());
        }
    }

    /// `name=value unit` pairs of `set`, for the log.
    pub fn render(&self, set: &[(&str, &str)]) -> String {
        set.iter()
            .map(|(n, u)| format!("{n}={} {u}", self.values.get(n).copied().unwrap_or(0.0)))
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// The result line: exactly the metrics of `set`, in order.
    pub fn result_line(&self, set: &[(&str, &str)]) -> String {
        let mut metrics = String::new();
        for (i, (name, unit)) in set.iter().enumerate() {
            let v = self.values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed
        )
    }
}

/// Median of a sample (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Linear-interpolated percentile `q` in `[0, 1]` (0 for no samples).
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The tail percentile the sample supports: `q` only when at least ten
/// samples lie beyond it, otherwise `None`.
pub fn tail(xs: &[f64], q: f64) -> Option<f64> {
    ((xs.len() as f64) * (1.0 - q) >= 10.0).then(|| percentile(xs, q))
}

fn status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Peak resident memory of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Current resident memory of this process, in MB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let xs: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(median(&xs), 3.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(percentile(&xs, 1.0), 5.0);
        assert_eq!(tail(&xs, 0.99), None);
        let many: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(tail(&many, 0.99).is_some());
    }

    #[test]
    fn round_time_weights_each_part_by_its_share() {
        let mut p = Parts::default();
        // Two rounds: part 0 twice a round, part 1 once.
        for ms in [1.0, 1.0, 9.0, 1.0] {
            p.push(0, ms);
        }
        for ms in [5.0, 50.0] {
            p.push(1, ms);
        }
        let want = 2.0 * percentile(&[1.0, 1.0, 9.0, 1.0], FAST_Q)
            + percentile(&[5.0, 50.0], FAST_Q);
        assert!((p.round_ms(2) - want).abs() < 1e-12);
        assert!(p.round_ms(2) < 8.0);
    }

    #[test]
    fn result_line_has_exactly_the_set() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.set("setup_s", 0.5);
        let line = o.result_line(&END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
        o.check(Err("wrong".into()));
        assert!(o
            .result_line(&END_TO_END)
            .starts_with("{\"correct\": false"));
    }
}
