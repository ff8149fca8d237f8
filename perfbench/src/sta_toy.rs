//! `sta_toy`: the work of `autopipe sta toy.psm -j 1` at the default
//! options (top 10, audit 3), repeated: compile, plan, synthesize and
//! lint the toy machine, then rank its critical paths and prune the
//! false ones with one shared free-state solver. The only workload for
//! the timing layer. On the toy the rank-1 path is itself false, so
//! both verdicts of a sensitization query occur.
//!
//! The same analysis on the reduced DLX (BENCH_9's timing section) takes
//! about 0.9 s, and its ranked part alone about 0.17 s: too few of them
//! fit in a run for a low percentile to find the host's fast speed (the
//! ranked part read 200 to 234 ms in runs where it read 170 to 174 ms
//! ten minutes later). This command takes about 3 ms. The traced run
//! still times the reduced DLX's analysis as a layer metric.

use crate::metrics::{median, Outcome, Parts};
use crate::spans::Spans;
use crate::{checks, Args};
use autopipe_analyze::sta::{self, StaOptions, StaReport};
use autopipe_analyze::{lint_machine, LintConfig};
use autopipe_dlx::{build_dlx_spec, dlx_synth_options, DlxConfig};
use autopipe_hdl::{NetAnalysis, NetlistStats};
use autopipe_synth::{PipelineSynthesizer, PipelinedMachine};
use std::time::Instant;

pub const TOY_PSM: &str = include_str!("../designs/toy.psm");
/// Analyses run after the reference one, as part of set-up.
const WARM_UP: usize = 200;

fn analyze(pm: &PipelinedMachine, analysis: &NetAnalysis, opts: &StaOptions) -> StaReport {
    // The last argument is the program's own trace sink, left disabled.
    sta::analyze(pm, analysis, opts, &LintConfig::new(), &Default::default())
}

/// The `sta` command on the toy source, from the text to the report.
fn sta_once(opts: &StaOptions, spans: &Spans) -> Result<(PipelinedMachine, StaReport), String> {
    let compiled = spans
        .time("front.compile", || autopipe_front::compile(TOY_PSM, "toy.psm"))
        .map_err(|d| d.render())?;
    let plan = spans
        .time("psm.plan", || compiled.spec.plan())
        .map_err(|e| format!("plan: {e}"))?;
    let pm = spans
        .time("synth.run", || {
            PipelineSynthesizer::new(compiled.options.clone()).run(&plan)
        })
        .map_err(|e| format!("synthesis: {e}"))?;
    let lint = spans.time("analyze.lint", || {
        lint_machine(&plan, &compiled.options, &pm, &LintConfig::new())
    });
    if lint.has_errors() {
        return Err(format!("lint: {}", lint.summary_line()));
    }
    let analysis = spans.time("hdl.net_analysis", || NetAnalysis::of(&pm.netlist));
    let report = spans.time("analyze.sta_full", || analyze(&pm, &analysis, opts));
    Ok((pm, report))
}

fn queries(r: &StaReport) -> usize {
    r.paths.len() + r.audited_paths
}

fn pruned(r: &StaReport) -> usize {
    r.pruned() + r.audit_pruned.len()
}

fn check(r: &StaReport, reference: &str, unloaded: u32) -> Result<(), String> {
    checks::same_report(
        "sta report against the set-up's",
        &sta::to_json(r, "toy.psm"),
        reference,
    )?;
    let paths: Vec<(usize, u32, u32)> = r
        .paths
        .iter()
        .map(|p| (p.endpoint_net, p.delay, p.slack))
        .collect();
    checks::sta_properties(&paths, r.period, unloaded, pruned(r), queries(r))
}

pub fn run(args: &Args, spans: &Spans, started: Instant) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let opts = StaOptions::default();
    let (pm, first) = sta_once(&opts, &Spans::new(false))?;
    let unloaded = NetlistStats::of(&pm.netlist).critical_path;
    let reference = sta::to_json(&first, "toy.psm");
    out.check(check(&first, &reference, unloaded));
    for _ in 0..WARM_UP {
        let (_, r) = sta_once(&opts, &Spans::new(false))?;
        out.check(check(&r, &reference, unloaded));
    }
    let setup_s = started.elapsed().as_secs_f64();

    // A round is one whole `sta` command.
    let phase = Instant::now();
    let mut parts = Parts::default();
    let mut rounds = 0;
    while phase.elapsed().as_secs_f64() < args.seconds {
        out.attempted += 1;
        rounds += 1;
        let t = Instant::now();
        let r = spans.time("sta_toy.op", || sta_once(&opts, spans));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match r {
            Err(e) => {
                out.failed += 1;
                eprintln!("perfbench: sta failed: {e}");
            }
            Ok((_, r)) => {
                parts.push(0, ms);
                out.check(check(&r, &reference, unloaded));
            }
        }
    }
    out.end_to_end(&parts, rounds, setup_s);

    // Outside the timed phase, as it runs two threads: the report does
    // not depend on `-j`.
    let two = StaOptions {
        jobs: 2,
        ..StaOptions::default()
    };
    let analysis = NetAnalysis::of(&pm.netlist);
    out.check(checks::same_report(
        "sta at -j 2 against -j 1",
        &sta::to_json(&analyze(&pm, &analysis, &two), "toy.psm"),
        &reference,
    ));

    if spans.enabled() {
        let ranked = StaOptions {
            audit: 0,
            ..StaOptions::default()
        };
        for _ in 0..200 {
            spans.time("analyze.sta_ranked", || analyze(&pm, &analysis, &ranked));
            spans
                .time("hdl.aig_lower", || autopipe_hdl::aig::lower(&pm.netlist))
                .map_err(|e| e.to_string())?;
        }
        let lowered = autopipe_hdl::aig::lower(&pm.netlist).map_err(|e| e.to_string())?;
        let dlx_ms = dlx_small_analysis(spans)?;
        let ms = |name| median(&spans.durations_ms(name));
        out.set("front.compile_ms", ms("front.compile"));
        out.set("psm.plan_ms", ms("psm.plan"));
        out.set("synth.run_ms", ms("synth.run"));
        out.set("analyze.lint_ms", ms("analyze.lint"));
        out.set("synth.nets", pm.netlist.nets().count() as f64);
        out.set("hdl.net_analysis_ms", ms("hdl.net_analysis"));
        out.set("hdl.aig_lower_ms", ms("hdl.aig_lower"));
        out.set("hdl.aig_vars", f64::from(lowered.aig.var_count()));
        out.set("analyze.sta_ranked_ms", ms("analyze.sta_ranked"));
        out.set("analyze.sta_full_ms", ms("analyze.sta_full"));
        out.set("analyze.sta_queries", queries(&first) as f64);
        out.set("analyze.sta_pruned", pruned(&first) as f64);
        out.set("analyze.sta_dlx_small_ms", dlx_ms);
    }
    Ok(out)
}

/// The analysis at the default options on the reduced DLX, the design
/// of BENCH_9's timing section: median of three, in milliseconds.
fn dlx_small_analysis(spans: &Spans) -> Result<f64, String> {
    let spec = build_dlx_spec(DlxConfig::small()).map_err(|e| e.to_string())?;
    let plan = spec.plan().map_err(|e| e.to_string())?;
    let pm = PipelineSynthesizer::new(dlx_synth_options())
        .run(&plan)
        .map_err(|e| e.to_string())?;
    let analysis = NetAnalysis::of(&pm.netlist);
    for _ in 0..3 {
        spans.time("analyze.sta_dlx_small", || {
            analyze(&pm, &analysis, &StaOptions::default())
        });
    }
    Ok(median(&spans.durations_ms("analyze.sta_dlx_small")))
}
