//! `sim_dlx`: seeded DLX programs assembled and run to halt under the
//! cycle-level consistency checker on the default backend, as `dlx_run`
//! runs them, on both the forwarding and the interlock-only DLX. The
//! simulation layers (compiled simulator, sequential reference machine,
//! checker) do all the work here.

use crate::metrics::{median, rss_mb, Outcome, Parts};
use crate::rng::Rng;
use crate::spans::Spans;
use crate::{checks, Args};
use autopipe_analyze::{lint_machine, LintConfig};
use autopipe_dlx::isa::Instr;
use autopipe_dlx::machine::{dlx_interlock_options, load_program};
use autopipe_dlx::workload::{bubble_sort, fib, gcd, random_program, HazardProfile};
use autopipe_dlx::{build_dlx_spec, dlx_synth_options, DlxConfig, IsaSim, StopReason};
use autopipe_hdl::{Backend, MemId, RegId, Simulate};
use autopipe_psm::{Plan, SequentialMachine};
use autopipe_synth::{PipelineSynthesizer, PipelinedMachine, SynthOptions};
use std::time::Instant;

const RANDOM_PROGRAMS: usize = 12;
const RANDOM_LEN: usize = 200;
const SORT_WORDS: u16 = 20;
/// Rounds run before the timed phase, as part of set-up.
const WARM_UP_ROUNDS: usize = 20;

enum Expect {
    /// Only the reference-model comparison.
    Model,
    /// DMEM starts with these words sorted ascending.
    Sorted(Vec<u32>),
    /// DMEM[0] holds this value.
    Word0(u32),
}

struct Program {
    name: String,
    words: Vec<u32>,
    dmem: Vec<u32>,
    expect: Expect,
    /// The instruction-level model after running to the halt.
    isa: IsaSim,
}

struct Machine {
    name: &'static str,
    pm: PipelinedMachine,
    ir_last: RegId,
    gpr: MemId,
    dmem: MemId,
}

struct Run {
    cycles: u64,
    /// Resident memory gained between building the checker and the
    /// halt (measured only when asked for).
    rss_growth_mb: f64,
    retired: u64,
    dhaz: u64,
    gpr: Vec<u64>,
    dmem: Vec<u64>,
}

fn gcd_ref(mut a: u32, mut b: u32) -> u32 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

fn fib_ref(n: u16) -> u32 {
    let (mut a, mut b) = (0u32, 1u32);
    for _ in 0..n {
        (a, b) = (b, a.wrapping_add(b));
    }
    a
}

/// The seeded program suite: random programs under the default hazard
/// profile, bubble sort over seeded data, gcd and fib with seeded
/// arguments. Each is run to halt on the instruction-level model here.
fn suite(seed: u64) -> Result<Vec<Program>, String> {
    let cfg = DlxConfig::default();
    let mut rng = Rng::new(seed);
    let mut progs: Vec<(String, Vec<Instr>, Vec<u32>, Expect)> = Vec::new();
    for i in 0..RANDOM_PROGRAMS {
        let s = rng.next_u64();
        let p = random_program(cfg, RANDOM_LEN, HazardProfile::default(), s);
        progs.push((format!("random{i}"), p, Vec::new(), Expect::Model));
    }
    let data: Vec<u32> = (0..SORT_WORDS).map(|_| rng.next_u64() as u32).collect();
    progs.push((
        "sort".into(),
        bubble_sort(0, SORT_WORDS),
        data.clone(),
        Expect::Sorted(data),
    ));
    let (a, b) = (rng.range(20, 99) as u16, rng.range(20, 99) as u16);
    progs.push((
        format!("gcd({a},{b})"),
        gcd(a, b),
        Vec::new(),
        Expect::Word0(gcd_ref(a.into(), b.into())),
    ));
    let n = rng.range(20, 45) as u16;
    progs.push((
        format!("fib({n})"),
        fib(n),
        Vec::new(),
        Expect::Word0(fib_ref(n)),
    ));

    progs
        .into_iter()
        .map(|(name, prog, dmem, expect)| {
            let words: Vec<u32> = prog.iter().map(|i| i.encode()).collect();
            let mut isa = IsaSim::new(cfg, &words);
            isa.dmem[..dmem.len()].copy_from_slice(&dmem);
            match isa.run(1_000_000) {
                StopReason::Halted => Ok(Program {
                    name,
                    words,
                    dmem,
                    expect,
                    isa,
                }),
                other => Err(format!("{name}: reference model stopped with {other:?}")),
            }
        })
        .collect()
}

fn machine(
    name: &'static str,
    plan: &Plan,
    options: SynthOptions,
    spans: &Spans,
) -> Result<Machine, String> {
    let pm = spans
        .time("synth.run", || {
            PipelineSynthesizer::new(options.clone()).run(plan)
        })
        .map_err(|e| format!("{name}: synthesis: {e}"))?;
    let lint = spans.time("analyze.lint", || {
        lint_machine(plan, &options, &pm, &LintConfig::new())
    });
    if lint.has_errors() {
        return Err(format!("{name}: lint: {}", lint.summary_line()));
    }
    let n = pm.n_stages();
    let ir = pm
        .plan
        .instance_named("IR", n - 1)
        .ok_or("no IR instance in the last stage")?;
    let file = |f: &str| {
        pm.plan
            .files
            .iter()
            .position(|p| p.name == f)
            .map(|i| pm.skel.file_mems[i])
            .ok_or(format!("no {f} file"))
    };
    Ok(Machine {
        name,
        ir_last: pm.skel.inst_regs[ir].0,
        gpr: file("GPR")?,
        dmem: file("DMEM")?,
        pm,
    })
}

fn find_mem(sim: &dyn Simulate, suffix: &str) -> Option<MemId> {
    let nl = sim.netlist();
    nl.mem_ids()
        .find(|m| nl.memory_info(*m).name.ends_with(suffix))
}

fn load(sim: &mut dyn Simulate, p: &Program) -> Result<(), String> {
    load_program(sim, DlxConfig::default(), &p.words);
    let dmem = find_mem(sim, "DMEM").ok_or("no DMEM memory")?;
    for (a, v) in p.dmem.iter().enumerate() {
        sim.poke_mem(dmem, a, u64::from(*v));
    }
    Ok(())
}

/// One checked run: build the checker, load the program into both
/// machines, step until the HALT retires, and read the final state.
fn checked_run(m: &Machine, p: &Program, measure_rss: bool) -> Result<Run, String> {
    let rss_before = if measure_rss { rss_mb() } else { 0.0 };
    let mut cosim = autopipe_verify::Cosim::new(&m.pm).map_err(|e| e.to_string())?;
    load(cosim.sim_mut(), p)?;
    load(cosim.seq_sim_mut(), p)?;
    let halt = u64::from(Instr::Halt.encode());
    let cap = 64 * p.isa.retired + 1_000;
    loop {
        let retiring = cosim.sim_mut().peek_reg(m.ir_last);
        let before = cosim.stats().retired;
        cosim
            .step()
            .map_err(|e| format!("{} on {}: consistency violation: {e}", p.name, m.name))?;
        if cosim.stats().retired > before && retiring == halt {
            break;
        }
        if cosim.stats().cycles > cap {
            return Err(format!("{} on {}: no halt in {cap} cycles", p.name, m.name));
        }
    }
    let rss_growth_mb = if measure_rss {
        rss_mb() - rss_before
    } else {
        0.0
    };
    let s = cosim.stats().clone();
    let sim = cosim.sim_mut();
    let read = |mem: MemId, n: usize| (0..n).map(|a| sim.peek_mem(mem, a)).collect::<Vec<_>>();
    Ok(Run {
        cycles: s.cycles,
        rss_growth_mb,
        retired: s.retired,
        dhaz: s.dhaz_counts[1],
        gpr: read(m.gpr, p.isa.regs.len()),
        dmem: read(m.dmem, p.isa.dmem.len()),
    })
}

fn check_run(m: &Machine, p: &Program, r: &Run) -> Result<(), String> {
    let what = format!("{} on {}", p.name, m.name);
    checks::same_retired(&what, r.retired, p.isa.retired)?;
    checks::same_words(&format!("{what}: GPR"), &r.gpr, &p.isa.regs)?;
    checks::same_words(&format!("{what}: DMEM"), &r.dmem, &p.isa.dmem)?;
    match &p.expect {
        Expect::Model => Ok(()),
        Expect::Sorted(data) => checks::sorted_copy(&what, &r.dmem, data),
        Expect::Word0(want) => checks::word_is(&what, r.dmem[0], *want),
    }
}

pub fn run(args: &Args, spans: &Spans, started: Instant) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let spec = build_dlx_spec(DlxConfig::default()).map_err(|e| e.to_string())?;
    let plan = spans
        .time("psm.plan", || spec.plan())
        .map_err(|e| e.to_string())?;
    let machines = [
        machine("forwarding", &plan, dlx_synth_options(), spans)?,
        machine("interlock", &plan, dlx_interlock_options(), spans)?,
    ];
    let programs = suite(args.seed)?;
    let longest = programs
        .iter()
        .max_by_key(|p| p.isa.retired)
        .ok_or("empty suite")?;
    // Traced runs only, on a heap no earlier run has grown: the memory
    // the checker gains while the longest program runs.
    let rss_growth = if spans.enabled() {
        checked_run(&machines[0], longest, true)?.rss_growth_mb
    } else {
        0.0
    };
    for _ in 0..WARM_UP_ROUNDS {
        for p in &programs {
            for m in &machines {
                let r = checked_run(m, p, false)?;
                out.check(check_run(m, p, &r));
            }
        }
    }
    let setup_s = started.elapsed().as_secs_f64();

    // One round runs every program on both machines; a run is whole
    // rounds, so every run attempts the same mix. Each of the round's
    // checked runs is a part of it.
    let phase = Instant::now();
    let mut parts = Parts::default();
    let mut first_round: Vec<[Option<Run>; 2]> = Vec::new();
    let mut rounds = 0;
    while phase.elapsed().as_secs_f64() < args.seconds {
        for (pi, p) in programs.iter().enumerate() {
            let mut pair: [Option<Run>; 2] = [None, None];
            for (mi, m) in machines.iter().enumerate() {
                out.attempted += 1;
                let t = Instant::now();
                let r = spans.time("sim_dlx.op", || checked_run(m, p, false));
                let ms = t.elapsed().as_secs_f64() * 1e3;
                match r {
                    Err(e) => {
                        out.failed += 1;
                        eprintln!("perfbench: {e}");
                    }
                    Ok(r) => {
                        parts.push(2 * pi + mi, ms);
                        out.check(check_run(m, p, &r));
                        pair[mi] = Some(r);
                    }
                }
            }
            if let [Some(f), Some(i)] = &pair {
                out.check(checks::interlock_not_faster(&p.name, f.cycles, i.cycles));
            }
            if rounds == 0 {
                first_round.push(pair);
            }
        }
        rounds += 1;
    }
    out.end_to_end(&parts, rounds, setup_s);

    if spans.enabled() {
        let ms = |name| median(&spans.durations_ms(name));
        out.set("psm.plan_ms", ms("psm.plan"));
        out.set("synth.run_ms", ms("synth.run"));
        out.set("analyze.lint_ms", ms("analyze.lint"));
        out.set("synth.nets", machines[0].pm.netlist.nets().count() as f64);
        let sum = |mi: usize, f: fn(&Run) -> u64| -> f64 {
            first_round
                .iter()
                .filter_map(|p| p[mi].as_ref())
                .map(f)
                .sum::<u64>() as f64
        };
        out.set(
            "dlx.retired",
            programs.iter().map(|p| p.isa.retired).sum::<u64>() as f64,
        );
        out.set("dlx.fwd_cycles", sum(0, |r| r.cycles));
        out.set("dlx.interlock_cycles", sum(1, |r| r.cycles));
        out.set("dlx.dhaz_cycles", sum(0, |r| r.dhaz));
        out.set("verify.cosim_rss_growth_mb", rss_growth);
        layer_probes(&machines[0], &plan, longest, spans, &mut out)?;
    }
    Ok(out)
}

/// The simulation layers timed alone on the longest program, well past
/// its halt (the machine then loops on the HALT): the bare pipelined
/// simulator and the sequential reference machine, no checker.
fn layer_probes(
    m: &Machine,
    plan: &Plan,
    p: &Program,
    spans: &Spans,
    out: &mut Outcome,
) -> Result<(), String> {
    const PROBE_CYCLES: u64 = 200_000;
    let (mut sim_cycles, mut sim_s) = (0u64, 0f64);
    let (mut seq_cycles, mut seq_s) = (0u64, 0f64);
    for _ in 0..3 {
        let mut sim = m.pm.sim(Backend::Auto).map_err(|e| e.to_string())?;
        load(sim.as_mut(), p)?;
        let t = Instant::now();
        spans.time("hdl.simulate", || sim.run(PROBE_CYCLES));
        sim_s += t.elapsed().as_secs_f64();
        sim_cycles += PROBE_CYCLES;

        let mut seq = SequentialMachine::with_backend(plan.clone(), Backend::Auto)
            .map_err(|e| e.to_string())?;
        load(seq.sim_mut(), p)?;
        let t = Instant::now();
        spans.time("psm.sequential", || {
            for _ in 0..PROBE_CYCLES / m.pm.n_stages() as u64 {
                seq.step_instruction();
            }
        });
        seq_s += t.elapsed().as_secs_f64();
        seq_cycles += seq.sim().cycle();
    }
    out.set("hdl.sim_cycles_per_s", sim_cycles as f64 / sim_s);
    out.set("psm.seq_cycles_per_s", seq_cycles as f64 / seq_s);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_answers() {
        assert_eq!(gcd_ref(48, 18), 6);
        assert_eq!(gcd_ref(7, 13), 1);
        assert_eq!(fib_ref(10), 55);
        assert_eq!(fib_ref(20), 6765);
    }

    #[test]
    fn suites_are_seeded() {
        let a = suite(3).unwrap();
        let b = suite(3).unwrap();
        let c = suite(4).unwrap();
        assert_eq!(a.len(), RANDOM_PROGRAMS + 3);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.words == y.words && x.dmem == y.dmem));
        assert!(a
            .iter()
            .zip(&c)
            .any(|(x, y)| x.words != y.words || x.dmem != y.dmem));
    }
}
