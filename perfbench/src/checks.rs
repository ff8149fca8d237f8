//! Output checks. Each compares what the program produced with a
//! computation made apart from it, or with a property the method must
//! have; the tests below show that each rejects a wrong answer.

use crate::wire::Json;
use autopipe_verify::BmcOutcome;

/// Every obligation came back Proved at induction depth `<= max_k`,
/// and there are `expected` of them (paper §6: every generated
/// obligation proves automatically).
pub fn all_proved(
    outcomes: &[(String, BmcOutcome)],
    expected: usize,
    max_k: usize,
) -> Result<(), String> {
    if outcomes.len() != expected {
        return Err(format!(
            "{} obligations, expected {expected}",
            outcomes.len()
        ));
    }
    for (name, o) in outcomes {
        match o {
            BmcOutcome::Proved { k } if *k <= max_k => {}
            other => {
                return Err(format!(
                    "obligation {name}: {other:?}, expected Proved at k <= {max_k}"
                ))
            }
        }
    }
    Ok(())
}

/// The fault-injected netlist must be refuted (a negative control: a
/// verifier that proves everything would pass `all_proved`).
pub fn refuted(name: &str, outcome: Option<BmcOutcome>) -> Result<(), String> {
    match outcome {
        Some(BmcOutcome::Violated { .. }) => Ok(()),
        other => Err(format!(
            "negative control {name}: {other:?}, expected Violated"
        )),
    }
}

/// A register file or memory equals the reference model's, word by
/// word.
pub fn same_words(what: &str, got: &[u64], want: &[u32]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} words, reference has {}",
            got.len(),
            want.len()
        ));
    }
    match got.iter().zip(want).position(|(g, w)| *g != u64::from(*w)) {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what}[{i}] = {:#x}, reference {:#x}",
            got[i], want[i]
        )),
    }
}

/// A single result word equals the answer computed by the benchmark.
pub fn word_is(what: &str, got: u64, want: u32) -> Result<(), String> {
    if got == u64::from(want) {
        Ok(())
    } else {
        Err(format!("{what} = {got}, expected {want}"))
    }
}

/// The first `data.len()` words hold `data` sorted ascending (unsigned).
pub fn sorted_copy(what: &str, got: &[u64], data: &[u32]) -> Result<(), String> {
    let mut want = data.to_vec();
    want.sort_unstable();
    let n = want.len().min(got.len());
    same_words(what, &got[..n], &want)
}

/// The pipeline retired as many instructions to the halt as the
/// instruction-level model.
pub fn same_retired(what: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: retired {got} to halt, reference {want}"))
    }
}

/// Forwarding only removes stalls (§4): the interlock-only machine never
/// halts in fewer cycles than the forwarding one.
pub fn interlock_not_faster(
    what: &str,
    fwd_cycles: u64,
    interlock_cycles: u64,
) -> Result<(), String> {
    if interlock_cycles >= fwd_cycles {
        Ok(())
    } else {
        Err(format!("{what}: interlock-only halted in {interlock_cycles} cycles, forwarding in {fwd_cycles}"))
    }
}

/// Ranked timing paths `(endpoint, delay, slack)`: non-increasing
/// delay; every endpoint's slack is the period minus the delay of its
/// worst ranked path (which is its arrival) and is shared by its other
/// paths; the load-aware period is no shorter than the unloaded critical
/// path; no more paths are pruned than audited.
pub fn sta_properties(
    paths: &[(usize, u32, u32)],
    period: u32,
    unloaded_critical: u32,
    pruned: usize,
    audited: usize,
) -> Result<(), String> {
    for w in paths.windows(2) {
        if w[1].1 > w[0].1 {
            return Err(format!(
                "ranked delays increase: {} then {}",
                w[0].1, w[1].1
            ));
        }
    }
    for (i, &(endpoint, delay, slack)) in paths.iter().enumerate() {
        let worst = paths
            .iter()
            .find(|p| p.0 == endpoint)
            .map_or(delay, |p| p.1);
        if worst > period || slack != period - worst {
            return Err(format!(
                "path {}: slack {slack}, period {period}, endpoint arrival {worst}",
                i + 1
            ));
        }
    }
    if period < unloaded_critical {
        return Err(format!(
            "period {period} below the unloaded critical path {unloaded_critical}"
        ));
    }
    if pruned > audited {
        return Err(format!("{pruned} pruned paths out of {audited} audited"));
    }
    Ok(())
}

/// Two renderings of the same analysis must be byte-identical.
pub fn same_report(what: &str, got: &str, want: &str) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let at = got
        .bytes()
        .zip(want.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(want.len()));
    Err(format!("{what}: reports differ from byte {at}"))
}

/// What a submit response said, per obligation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    pub outcome: String,
    pub cached: bool,
    pub conflicts: u64,
}

/// Reads a submit response: it must be ok and carry `expected`
/// obligations, every one proved.
pub fn submit_answers(line: &str, expected: usize) -> Result<Vec<Answer>, String> {
    let v = Json::parse(line).map_err(|e| format!("unreadable response ({e})"))?;
    if v.bool("ok") != Some(true) || v.str("op") != Some("submit") {
        return Err(format!("not an ok submit response: {}", truncate(line)));
    }
    let obs = v.arr("obligations").ok_or("response without obligations")?;
    if obs.len() != expected {
        return Err(format!(
            "{} obligations answered, expected {expected}",
            obs.len()
        ));
    }
    let mut out = Vec::with_capacity(obs.len());
    for ob in obs {
        let outcome = ob.str("outcome").unwrap_or("missing").to_string();
        if outcome != "proved" {
            return Err(format!(
                "obligation {:?} came back {outcome}",
                ob.str("name")
            ));
        }
        out.push(Answer {
            outcome,
            cached: ob.bool("cached").ok_or("obligation without `cached`")?,
            conflicts: ob
                .num("conflicts")
                .ok_or("obligation without `conflicts`")? as u64,
        });
    }
    Ok(out)
}

/// A resubmission or a revision changes no cone, so every obligation is
/// answered from the cache without a conflict.
pub fn all_cached(answers: &[Answer]) -> Result<(), String> {
    match answers.iter().position(|a| !a.cached || a.conflicts != 0) {
        None => Ok(()),
        Some(i) => Err(format!(
            "obligation {i} of a cached design was solved: {:?}",
            answers[i]
        )),
    }
}

/// The cache counters the daemon reports in `status`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    pub hits: u64,
    pub misses: u64,
    pub stores: u64,
}

pub fn status_counts(line: &str) -> Result<CacheCounts, String> {
    let v = Json::parse(line).map_err(|e| format!("unreadable status ({e})"))?;
    let c = v.get("cache").ok_or("status without cache")?;
    let n = |k: &str| {
        c.num(k)
            .map(|x| x as u64)
            .ok_or(format!("status without cache.{k}"))
    };
    Ok(CacheCounts {
        hits: n("hits")?,
        misses: n("misses")?,
        stores: n("stores")?,
    })
}

/// The daemon's hit and store totals equal the cached and solved
/// entries the client counted in the responses.
pub fn counts_agree(status: CacheCounts, client: CacheCounts) -> Result<(), String> {
    if status.hits == client.hits
        && status.stores == client.stores
        && status.misses == client.misses
    {
        Ok(())
    } else {
        Err(format!(
            "status reports {status:?}, the client counted {client:?}"
        ))
    }
}

/// Re-solving with `"fresh": true` gives the verdicts the cache served.
pub fn fresh_matches(cached: &[Answer], fresh: &[Answer]) -> Result<(), String> {
    let outcomes = |a: &[Answer]| a.iter().map(|x| x.outcome.clone()).collect::<Vec<_>>();
    if !cached.iter().all(|a| a.cached) || fresh.iter().any(|a| a.cached) {
        return Err("fresh resubmission was served from the cache".into());
    }
    if outcomes(cached) == outcomes(fresh) {
        Ok(())
    } else {
        Err(format!(
            "cached verdicts {:?}, fresh {:?}",
            outcomes(cached),
            outcomes(fresh)
        ))
    }
}

fn truncate(s: &str) -> &str {
    &s[..s.len().min(200)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proved(k: usize) -> (String, BmcOutcome) {
        ("p".into(), BmcOutcome::Proved { k })
    }

    #[test]
    fn all_proved_rejects_a_violation_a_deep_proof_and_a_missing_obligation() {
        assert!(all_proved(&[proved(0), proved(2)], 2, 2).is_ok());
        assert!(all_proved(&[proved(0), proved(3)], 2, 2).is_err());
        assert!(all_proved(
            &[proved(0), ("v".into(), BmcOutcome::Violated { frame: 1 })],
            2,
            2
        )
        .is_err());
        assert!(all_proved(&[proved(0)], 2, 2).is_err());
        assert!(all_proved(&[proved(0), ("t".into(), BmcOutcome::TimedOut)], 2, 2).is_err());
    }

    #[test]
    fn negative_control_rejects_a_proof() {
        assert!(refuted("ue_fills.1", Some(BmcOutcome::Violated { frame: 2 })).is_ok());
        assert!(refuted("ue_fills.1", Some(BmcOutcome::Proved { k: 1 })).is_err());
        assert!(refuted("ue_fills.1", None).is_err());
    }

    #[test]
    fn state_checks_reject_a_wrong_word() {
        assert!(same_words("GPR", &[0, 5], &[0, 5]).is_ok());
        assert!(same_words("GPR", &[0, 6], &[0, 5]).is_err());
        assert!(same_words("GPR", &[0], &[0, 5]).is_err());
        assert!(word_is("gcd", 6, 6).is_ok());
        assert!(word_is("gcd", 3, 6).is_err());
        assert!(sorted_copy("sort", &[1, 2, 3, 9], &[3, 1, 2]).is_ok());
        assert!(sorted_copy("sort", &[3, 1, 2, 9], &[3, 1, 2]).is_err());
        assert!(same_retired("p", 10, 10).is_ok());
        assert!(same_retired("p", 11, 10).is_err());
        assert!(interlock_not_faster("p", 100, 160).is_ok());
        assert!(interlock_not_faster("p", 100, 99).is_err());
    }

    #[test]
    fn sta_properties_reject_each_broken_property() {
        let good = [(1, 69, 0), (1, 68, 0), (2, 68, 1)];
        assert!(sta_properties(&good, 69, 59, 7, 62).is_ok());
        assert!(sta_properties(&[(2, 68, 1), (1, 69, 0)], 69, 59, 0, 1).is_err());
        assert!(sta_properties(&[(1, 69, 1)], 69, 59, 0, 1).is_err());
        assert!(sta_properties(&[(1, 69, 0), (1, 68, 1)], 69, 59, 0, 1).is_err());
        assert!(sta_properties(&[(1, 70, 0)], 69, 59, 0, 1).is_err());
        assert!(sta_properties(&good, 58, 59, 0, 1).is_err());
        assert!(sta_properties(&good, 69, 59, 2, 1).is_err());
        assert!(same_report("j", "abc", "abc").is_ok());
        assert!(same_report("j", "abd", "abc").is_err());
    }

    const OK: &str = r#"{"id":1,"ok":true,"op":"submit","obligations":[{"name":"a","outcome":"proved","k":0,"cached":true,"conflicts":0},{"name":"b","outcome":"proved","k":2,"cached":false,"conflicts":3}]}"#;

    #[test]
    fn serve_checks_reject_wrong_responses() {
        let a = submit_answers(OK, 2).unwrap();
        assert!(submit_answers(OK, 3).is_err());
        assert!(submit_answers(&OK.replace("\"ok\":true", "\"ok\":false"), 2).is_err());
        assert!(submit_answers(&OK.replacen("proved", "violated", 1), 2).is_err());
        assert!(all_cached(&a[..1]).is_ok());
        assert!(all_cached(&a).is_err());
        let counted = CacheCounts {
            hits: 27,
            misses: 15,
            stores: 15,
        };
        let status = status_counts(
            r#"{"ok":true,"op":"status","cache":{"hits":27,"misses":15,"stores":15}}"#,
        )
        .unwrap();
        assert!(counts_agree(status, counted).is_ok());
        assert!(counts_agree(CacheCounts { hits: 26, ..status }, counted).is_err());
        let cached = vec![Answer {
            outcome: "proved".into(),
            cached: true,
            conflicts: 0,
        }];
        let fresh = vec![Answer {
            outcome: "proved".into(),
            cached: false,
            conflicts: 0,
        }];
        assert!(fresh_matches(&cached, &fresh).is_ok());
        assert!(fresh_matches(&cached, &cached).is_err());
        let refuted = vec![Answer {
            outcome: "violated".into(),
            cached: false,
            conflicts: 0,
        }];
        assert!(fresh_matches(&cached, &refuted).is_err());
    }
}
