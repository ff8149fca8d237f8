//! The benchmark's own spans: name, start, end and parent of every
//! call it makes into a layer. They stay in memory and are written
//! out when the run ends. A disabled recorder only runs the closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.now_ns();
        out
    }

    /// Durations in milliseconds of every closed span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Per span name: calls, total time and self time (the span minus
    /// the time its children cover), in milliseconds.
    fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, child) in spans.iter().zip(&child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total as f64 / 1e6;
            e.2 += total.saturating_sub(*child) as f64 / 1e6;
        }
        out
    }

    pub fn self_time_table(&self) -> String {
        let mut t = format!(
            "{:<28} {:>7} {:>12} {:>12}\n",
            "span", "calls", "total_ms", "self_ms"
        );
        for (name, (calls, total, own)) in self.self_times() {
            let _ = writeln!(t, "{name:<28} {calls:>7} {total:>12.3} {own:>12.3}");
        }
        t
    }

    /// Writes every span as one JSON line into
    /// `perfbench/out/spans-<workload>-<seed>.ndjson`.
    pub fn write(&self, workload: &str, seed: u64) -> std::io::Result<()> {
        let dir = out_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("spans-{workload}-{seed}.ndjson"));
        let mut text = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, text)
    }
}

/// The benchmark's scratch directory: `out/` beside its manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let s = Spans::new(true);
        s.time("outer", || {
            s.time("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let t = s.self_times();
        let (_, outer_total, outer_self) = t["outer"];
        let (_, inner_total, _) = t["inner"];
        assert!(inner_total >= 20.0);
        assert!(outer_self < outer_total - 19.0);
        assert_eq!(s.durations_ms("inner").len(), 1);
    }

    #[test]
    fn disabled_records_nothing() {
        let s = Spans::new(false);
        assert_eq!(s.time("x", || 7), 7);
        assert!(s.durations_ms("x").is_empty());
    }
}
