//! `verify_dlx_small`: the work of `autopipe verify -j 1` on the reduced
//! DLX (`DlxConfig::small()`), repeated. One operation builds, plans,
//! synthesizes and lints the machine, discharges its 27 obligations by
//! k-induction at depth 2 on one thread, and runs 10,000 cycles of
//! checked co-simulation of the looping program of `designs/dlx.psm`.
//! The SAT layers do nearly all of this work.

use crate::metrics::{median, peak_rss_mb, Outcome, Parts};
use crate::spans::Spans;
use crate::{checks, Args};
use autopipe_analyze::{lint_machine, LintConfig};
use autopipe_dlx::machine::load_program;
use autopipe_dlx::{build_dlx_spec, dlx_synth_options, DlxConfig, IsaSim};
use autopipe_synth::{PipelineSynthesizer, PipelinedMachine};
use autopipe_verify::{check_obligations_jobs, BmcOutcome, Cosim, SolveStats};
use std::time::Instant;

pub const DLX_PSM: &str = include_str!("../designs/dlx.psm");
const MAX_K: usize = 2;
const COSIM_CYCLES: u64 = 10_000;
const OBLIGATIONS: usize = 27;
/// Verifications run before the timed phase, as part of set-up.
const WARM_UP: usize = 4;

/// Build, plan, synthesize and lint the reduced DLX, as the CLI does
/// before any verification.
fn elaborate(spans: &Spans) -> Result<PipelinedMachine, String> {
    let spec = build_dlx_spec(DlxConfig::small()).map_err(|e| e.to_string())?;
    let plan = spans
        .time("psm.plan", || spec.plan())
        .map_err(|e| format!("plan: {e}"))?;
    let options = dlx_synth_options();
    let pm = spans
        .time("synth.run", || {
            PipelineSynthesizer::new(options.clone()).run(&plan)
        })
        .map_err(|e| format!("synthesis: {e}"))?;
    let lint = spans.time("analyze.lint", || {
        lint_machine(&plan, &options, &pm, &LintConfig::new())
    });
    if lint.has_errors() {
        return Err(format!("lint: {}", lint.summary_line()));
    }
    Ok(pm)
}

struct Verified {
    pm: PipelinedMachine,
    outcomes: Vec<(String, BmcOutcome)>,
    work: SolveStats,
    cosim: Cosim,
    /// The times of the verification's parts, in milliseconds: the
    /// elaboration, the obligation batch outside its obligations' own
    /// solves (AIG lowering, clause caches), each obligation as the
    /// program reports it, and the co-simulation. They add up to the
    /// whole verification.
    part_ms: Vec<f64>,
}

/// One whole verification, from the specification to the
/// co-simulation verdict.
fn verify_once(image: &[u32], spans: &Spans) -> Result<Verified, String> {
    let mut part_ms = Vec::with_capacity(OBLIGATIONS + 3);
    let t = Instant::now();
    let pm = elaborate(spans)?;
    part_ms.push(t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    let reports = spans
        .time("verify.obligations", || {
            check_obligations_jobs(&pm.netlist, &pm.obligations, MAX_K, 1)
        })
        .map_err(|e| format!("obligations: {e}"))?;
    let batch_ms = t.elapsed().as_secs_f64() * 1e3;
    let solves_ms: Vec<f64> = reports.iter().map(|r| r.micros as f64 / 1e3).collect();
    part_ms.push(batch_ms - solves_ms.iter().sum::<f64>());
    part_ms.extend(solves_ms);
    let mut work = SolveStats::default();
    for r in &reports {
        work.merge(r.stats);
    }
    let t = Instant::now();
    let cosim = spans.time("verify.cosim", || -> Result<Cosim, String> {
        let mut c = Cosim::new(&pm).map_err(|e| e.to_string())?;
        load_program(c.sim_mut(), DlxConfig::small(), image);
        load_program(c.seq_sim_mut(), DlxConfig::small(), image);
        c.run(COSIM_CYCLES)
            .map_err(|e| format!("consistency violation: {e}"))?;
        Ok(c)
    })?;
    part_ms.push(t.elapsed().as_secs_f64() * 1e3);
    Ok(Verified {
        outcomes: reports.into_iter().map(|r| (r.name, r.outcome)).collect(),
        pm,
        work,
        cosim,
        part_ms,
    })
}

/// The instruction image of the design's IMEM `init` block, read from
/// the source text by the benchmark itself.
fn imem_image(src: &str) -> Result<Vec<u32>, String> {
    let at = src.find("file IMEM").ok_or("no IMEM declaration")?;
    let body = &src[at..];
    let open = body.find('{').ok_or("IMEM without init block")?;
    let close = body[open..].find('}').ok_or("unterminated init block")? + open;
    body[open + 1..close]
        .lines()
        .map(|l| l.split("//").next().unwrap_or(""))
        .flat_map(|l| l.split(','))
        .map(str::trim)
        .filter(|w| !w.is_empty())
        .map(|w| {
            w.parse::<u32>()
                .map_err(|e| format!("IMEM word `{w}`: {e}"))
        })
        .collect()
}

/// After the co-simulation, the pipelined GPR and DMEM equal the
/// instruction-level model's after as many instructions as passed each
/// file's write stage.
fn state_matches_isa(v: &mut Verified, image: &[u32]) -> Result<(), String> {
    let pm = &v.pm;
    let stats = v.cosim.stats().clone();
    let mut files = Vec::new();
    for name in ["DMEM", "GPR"] {
        let fi = pm
            .plan
            .files
            .iter()
            .position(|f| f.name == name)
            .ok_or(format!("no {name} file"))?;
        files.push((name, fi, stats.ue_counts[pm.plan.files[fi].write_stage]));
    }
    files.sort_by_key(|f| f.2);
    let mut isa = IsaSim::new(DlxConfig::small(), image);
    let mut done = 0;
    for (name, fi, count) in files {
        while done < count {
            isa.step();
            done += 1;
        }
        let want = if name == "GPR" { &isa.regs } else { &isa.dmem };
        let mem = pm.skel.file_mems[fi];
        let sim = v.cosim.sim_mut();
        let got: Vec<u64> = (0..want.len()).map(|a| sim.peek_mem(mem, a)).collect();
        checks::same_words(&format!("{name} after {count} instructions"), &got, want)?;
    }
    Ok(())
}

/// The Lemma-1 fault: `full.1` stuck at 0 must refute `ue_fills.1`.
fn negative_control(pm: &PipelinedMachine) -> Result<Option<BmcOutcome>, String> {
    let mut netlist = pm.netlist.clone();
    netlist.force_const(pm.control.full[1], 0);
    let Some(ob) = pm.obligations.iter().find(|o| o.name == "ue_fills.1") else {
        return Ok(None);
    };
    let r = check_obligations_jobs(&netlist, std::slice::from_ref(ob), MAX_K, 1)
        .map_err(|e| format!("negative control: {e}"))?;
    Ok(r.first().map(|r| r.outcome))
}

/// Checks one verification's outputs.
fn check(v: &mut Verified, image: &[u32]) -> Result<(), String> {
    checks::all_proved(&v.outcomes, OBLIGATIONS, MAX_K)?;
    state_matches_isa(v, image)
}

pub fn run(args: &Args, spans: &Spans, started: Instant) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let image = imem_image(DLX_PSM)?;
    let reference = elaborate(&Spans::new(false))?;
    out.check(checks::refuted(
        "ue_fills.1 with full.1 stuck at 0",
        negative_control(&reference)?,
    ));
    for _ in 0..WARM_UP {
        let mut v = verify_once(&image, &Spans::new(false))?;
        out.check(check(&mut v, &image));
    }
    let setup_s = started.elapsed().as_secs_f64();
    // Read after the same work in every run: the allocator keeps part of
    // one verification's heap for the next, so a peak over the whole run
    // would follow the number of verifications that fit in it.
    out.set("peak_rss_mb", peak_rss_mb());

    // A round is one verification; its parts are timed one by one, as
    // a whole verification (about 0.35 s) reads slower whenever the host
    // spends part of it in its slow state.
    let phase = Instant::now();
    let mut parts = Parts::default();
    let mut rounds = 0;
    let mut last = None;
    while phase.elapsed().as_secs_f64() < args.seconds {
        out.attempted += 1;
        rounds += 1;
        match spans.time("verify_dlx_small.op", || verify_once(&image, spans)) {
            Err(e) => {
                out.failed += 1;
                eprintln!("perfbench: verification failed: {e}");
            }
            Ok(mut v) => {
                for (i, ms) in v.part_ms.iter().enumerate() {
                    parts.push(i, *ms);
                }
                out.check(check(&mut v, &image));
                // Keep what the layer metrics need, not the checker: the
                // next operation must not run beside this one's memory.
                last = Some((v.pm, v.work));
            }
        }
    }
    out.end_to_end(&parts, rounds, setup_s);

    if let (true, Some((pm, work))) = (spans.enabled(), last) {
        let ms = |name| median(&spans.durations_ms(name));
        out.set("psm.plan_ms", ms("psm.plan"));
        out.set("synth.run_ms", ms("synth.run"));
        out.set("analyze.lint_ms", ms("analyze.lint"));
        out.set("verify.obligations_s", ms("verify.obligations") / 1e3);
        out.set("verify.cosim_ms", ms("verify.cosim"));
        out.set("synth.nets", pm.netlist.nets().count() as f64);
        out.set("verify.clauses", work.clauses as f64);
        out.set("verify.decisions", work.decisions as f64);
        out.set("verify.propagations", work.propagations as f64);
        out.set("verify.conflicts", work.conflicts as f64);
        for _ in 0..5 {
            spans
                .time("hdl.aig_lower", || autopipe_hdl::aig::lower(&pm.netlist))
                .map_err(|e| e.to_string())?;
        }
        let lowered = autopipe_hdl::aig::lower(&pm.netlist).map_err(|e| e.to_string())?;
        out.set("hdl.aig_lower_ms", ms("hdl.aig_lower"));
        out.set("hdl.aig_vars", f64::from(lowered.aig.var_count()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_imem_image() {
        let image = imem_image(DLX_PSM).unwrap();
        assert_eq!(image.len(), 13);
        assert_eq!(image[0], 536_936_449);
        assert!(imem_image("file IMEM : [2 x 8] init { 1, x }").is_err());
    }

    #[test]
    fn the_program_fits_the_reduced_imem() {
        let image = imem_image(DLX_PSM).unwrap();
        assert!(image.len() <= 1 << DlxConfig::small().imem_aw);
    }
}
