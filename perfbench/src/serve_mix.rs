//! `serve_mix`: one closed-loop client drives the daemon through its
//! line protocol (`Server::handle_line`), with one solver thread and an
//! on-disk cache in a fresh directory. The seeded stream mixes
//! identical DLX resubmissions (memo, cache reads, protocol), comment-
//! only DLX revisions (elaboration: front end, plan, synthesis, cone
//! digests) and edits of the toy machine's instruction image (solving
//! and cache writes). The daemon restarts once on the same directory,
//! so the disk tier is read back. Set-up is the cold fill.

use crate::checks::{self, Answer, CacheCounts};
use crate::metrics::{median, peak_rss_mb, rss_mb, tail, Outcome, Parts};
use crate::rng::Rng;
use crate::spans::{out_dir, Spans};
use crate::sta_toy::TOY_PSM;
use crate::verify_dlx_small::DLX_PSM;
use crate::wire::submit_line;
use crate::Args;
use autopipe_serve::{ServeConfig, Server};
use std::collections::HashSet;
use std::path::PathBuf;
use std::time::Instant;

const DLX_OBLIGATIONS: usize = 27;
const TOY_OBLIGATIONS: usize = 15;
const STATUS: &str = "{\"op\":\"status\"}";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Resubmit,
    Revision,
    Edit,
}

/// One round of the stream, shuffled per round: the shares of the
/// three kinds are exact in every run.
const ROUND: [Kind; 10] = [
    Kind::Resubmit,
    Kind::Resubmit,
    Kind::Resubmit,
    Kind::Resubmit,
    Kind::Revision,
    Kind::Revision,
    Kind::Revision,
    Kind::Revision,
    Kind::Edit,
    Kind::Edit,
];

/// The daemon restarts after this many rounds (or half the run, if
/// that comes first). The slowest 20-s runs measured reach it after
/// about 6 s, so the counts taken at the restart depend on the seed
/// alone in runs of 12 s or more.
const RESTART_ROUND: usize = 100;

/// Edits resubmitted normally and with `"fresh": true` after the stream.
const FRESH_SAMPLE: usize = 3;

/// Removes the cache directory however the run ends.
struct CacheDir(PathBuf);

impl Drop for CacheDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The toy machine with a seeded instruction image no earlier request
/// of this run used. Any 8-bit word is a valid toy instruction.
fn toy_edit(rng: &mut Rng, used: &mut HashSet<Vec<u8>>) -> String {
    let image = loop {
        let image: Vec<u8> = (0..8).map(|_| rng.next_u64() as u8).collect();
        if used.insert(image.clone()) {
            break image;
        }
    };
    let list = image
        .iter()
        .map(u8::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    let at = TOY_PSM.find("init {").expect("toy.psm has an init block");
    let end = TOY_PSM[at..].find('}').expect("closed init block") + at;
    format!("{}init {{ {list} {}", &TOY_PSM[..at], &TOY_PSM[end..])
}

/// The DLX with one new comment line: new bytes, the same netlist.
fn revision(seed: u64, n: u64) -> String {
    format!("// revision {seed:x}.{n}\n{DLX_PSM}")
}

struct Client {
    server: Server,
    config: ServeConfig,
    /// Cache events implied by the responses since the daemon started.
    counted: CacheCounts,
    next_id: u64,
}

impl Client {
    fn send(&mut self, source: &str, fresh: bool) -> (String, f64) {
        self.next_id += 1;
        let line = submit_line(self.next_id, source, fresh);
        let t = Instant::now();
        let resp = self.server.handle_line(&line);
        (resp, t.elapsed().as_secs_f64())
    }

    /// Reads a submit response and counts the cache events it implies.
    fn answers(&mut self, resp: &str, expected: usize, fresh: bool) -> Result<Vec<Answer>, String> {
        let a = checks::submit_answers(resp, expected)?;
        let solved = a.iter().filter(|x| !x.cached).count() as u64;
        self.counted.hits += a.len() as u64 - solved;
        self.counted.stores += solved;
        if !fresh {
            self.counted.misses += solved;
        }
        Ok(a)
    }

    fn status(&self) -> Result<CacheCounts, String> {
        checks::status_counts(&self.server.handle_line(STATUS))
    }

    fn restart(&mut self) -> Result<(), String> {
        self.server.close();
        self.server = Server::new(self.config.clone()).map_err(|e| e.to_string())?;
        self.counted = CacheCounts::default();
        Ok(())
    }
}

pub fn run(args: &Args, spans: &Spans, started: Instant) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dir = out_dir().join(format!("serve-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let _cleanup = CacheDir(dir.clone());
    let config = ServeConfig {
        cache_dir: Some(dir),
        jobs: 1,
        ..ServeConfig::default()
    };
    let mut client = Client {
        server: Server::new(config.clone()).map_err(|e| e.to_string())?,
        config,
        counted: CacheCounts::default(),
        next_id: 0,
    };
    let mut rng = Rng::new(args.seed);
    let mut used = HashSet::new();
    // The cold fill: every obligation of both designs is solved.
    for (src, n) in [(DLX_PSM, DLX_OBLIGATIONS), (TOY_PSM, TOY_OBLIGATIONS)] {
        let (resp, _) = client.send(src, false);
        let a = client.answers(&resp, n, false)?;
        if a.iter().any(|x| x.cached) {
            return Err("cold fill answered from a fresh cache".into());
        }
    }
    let setup_s = started.elapsed().as_secs_f64();
    let rss_after_setup = rss_mb();

    // The three kinds of request are the parts of a round.
    let mut parts = Parts::default();
    let mut lat_us: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut edits: Vec<String> = Vec::new();
    let mut revisions = 0u64;
    let mut first_instance = None;
    let mut peak_mb = 0.0;
    let mut restart_first_ms = 0.0;
    let mut rounds = 0;
    let phase = Instant::now();
    while phase.elapsed().as_secs_f64() < args.seconds {
        if first_instance.is_none()
            && (rounds == RESTART_ROUND || phase.elapsed().as_secs_f64() >= args.seconds / 2.0)
        {
            let status = client.status()?;
            out.check(checks::counts_agree(status, client.counted));
            first_instance = Some(status);
            // The memo never forgets a source, so the peak over the whole
            // run would grow with throughput; this one covers set-up and
            // the same rounds in every run.
            peak_mb = peak_rss_mb();
            client.restart()?;
            out.attempted += 1;
            let (resp, secs) = spans.time("serve.restart_first", || client.send(DLX_PSM, false));
            restart_first_ms = secs * 1e3;
            match client.answers(&resp, DLX_OBLIGATIONS, false) {
                Ok(a) => out.check(checks::all_cached(&a)),
                Err(e) => out.check(Err(e)),
            }
        }
        let mut kinds = ROUND;
        rng.shuffle(&mut kinds);
        for kind in kinds {
            let (src, n) = match kind {
                Kind::Resubmit => (DLX_PSM.to_string(), DLX_OBLIGATIONS),
                Kind::Revision => {
                    revisions += 1;
                    (revision(args.seed, revisions), DLX_OBLIGATIONS)
                }
                Kind::Edit => (toy_edit(&mut rng, &mut used), TOY_OBLIGATIONS),
            };
            out.attempted += 1;
            let name = ["serve.resubmit", "serve.revision", "serve.edit"][kind as usize];
            let (resp, secs) = spans.time(name, || client.send(&src, false));
            match client.answers(&resp, n, false) {
                Err(e) => {
                    out.failed += 1;
                    eprintln!("perfbench: request failed: {e}");
                }
                Ok(a) => {
                    if kind != Kind::Edit {
                        out.check(checks::all_cached(&a));
                    }
                    lat_us[kind as usize].push(secs * 1e6);
                    parts.push(kind as usize, secs * 1e3);
                }
            }
            if kind == Kind::Edit {
                edits.push(src);
            }
        }
        rounds += 1;
    }
    out.set("peak_rss_mb", peak_mb);
    out.end_to_end(&parts, rounds, setup_s);
    let rss_growth = rss_mb() - rss_after_setup;

    // A seeded sample of edits: the cache's verdicts must be what a
    // fresh solve finds.
    for _ in 0..FRESH_SAMPLE.min(edits.len()) {
        let src = edits[rng.range(0, edits.len() as u64 - 1) as usize].clone();
        let (cached, _) = client.send(&src, false);
        let (fresh, _) = client.send(&src, true);
        let result = client
            .answers(&cached, TOY_OBLIGATIONS, false)
            .and_then(|c| Ok((c, client.answers(&fresh, TOY_OBLIGATIONS, true)?)))
            .and_then(|(c, f)| checks::fresh_matches(&c, &f));
        out.check(result);
    }
    let status = client.status()?;
    out.check(checks::counts_agree(status, client.counted));
    client.server.close();

    if spans.enabled() {
        let [resubmit, revision_us, edit] = &lat_us;
        out.set("serve.resubmit_p50_us", median(resubmit));
        out.set("serve.revision_p50_us", median(revision_us));
        out.set(
            "serve.revision_p99_us",
            tail(revision_us, 0.99).unwrap_or(0.0),
        );
        out.set("serve.edit_p50_ms", median(edit) / 1e3);
        out.set("serve.restart_first_ms", restart_first_ms);
        let first = first_instance.unwrap_or_default();
        out.set("serve.cache_hits", first.hits as f64);
        out.set("serve.cache_misses", first.misses as f64);
        out.set("serve.cache_stores", first.stores as f64);
        out.set("serve.rss_growth_mb", rss_growth);
        layer_probes(args.seed, &mut rng, &mut used, spans, &mut out)?;
    }
    Ok(out)
}

/// The layers under a request, each timed alone on the same inputs.
fn layer_probes(
    seed: u64,
    rng: &mut Rng,
    used: &mut HashSet<Vec<u8>>,
    spans: &Spans,
    out: &mut Outcome,
) -> Result<(), String> {
    let line = submit_line(1, DLX_PSM, false);
    for _ in 0..200 {
        spans.time("serve.request_parse", || {
            autopipe_serve::Request::parse(&line)
        })?;
    }
    let mut nets = 0;
    for i in 0..5u64 {
        let src = revision(seed ^ 0xfeed, i);
        spans.time("serve.elaborate", || {
            autopipe_serve::elaborate(&src, "dlx.psm")
        })?;
        let compiled = spans
            .time("front.compile", || autopipe_front::compile(&src, "dlx.psm"))
            .map_err(|d| d.render())?;
        let plan = spans
            .time("psm.plan", || compiled.spec.plan())
            .map_err(|e| e.to_string())?;
        let pm = spans
            .time("synth.run", || {
                autopipe_synth::PipelineSynthesizer::new(compiled.options.clone()).run(&plan)
            })
            .map_err(|e| e.to_string())?;
        nets = pm.netlist.nets().count();
        spans.time("hdl.cone_digest", || {
            for ob in &pm.obligations {
                std::hint::black_box(autopipe_hdl::cone_digest(&pm.netlist, &[ob.net]));
            }
        });
        let toy = autopipe_serve::elaborate(&toy_edit(rng, used), "toy.psm")?;
        spans
            .time("serve.toy_solve", || {
                autopipe_verify::check_obligations_jobs(&toy.netlist, &toy.obligations, 2, 1)
            })
            .map_err(|e| e.to_string())?;
    }
    let ms = |name| median(&spans.durations_ms(name));
    out.set("serve.request_parse_us", ms("serve.request_parse") * 1e3);
    out.set("serve.elaborate_us", ms("serve.elaborate") * 1e3);
    out.set("front.compile_ms", ms("front.compile"));
    out.set("psm.plan_ms", ms("psm.plan"));
    out.set("synth.run_ms", ms("synth.run"));
    out.set("synth.nets", nets as f64);
    out.set("hdl.cone_digest_us", ms("hdl.cone_digest") * 1e3);
    out.set("serve.toy_solve_ms", ms("serve.toy_solve"));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edits_change_only_the_image_and_never_repeat() {
        let mut rng = Rng::new(1);
        let mut used = HashSet::new();
        let a = toy_edit(&mut rng, &mut used);
        let b = toy_edit(&mut rng, &mut used);
        assert_ne!(a, b);
        assert_ne!(a, TOY_PSM);
        assert_eq!(a.lines().count(), TOY_PSM.lines().count());
        assert!(a.contains("file IMEM : [4 x 8] readonly init { "));
        assert!(revision(1, 2).ends_with(DLX_PSM));
    }
}
