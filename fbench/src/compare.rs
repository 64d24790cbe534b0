//! `fbench compare`: judges a change against its parent from the
//! JSON-lines output of alternating runs of both, with the bounds
//! `BENCHMARK.json` fixes.
//!
//! Per workload and end-to-end metric it prints each side's median and
//! quartiles, the fraction of pairs (parent run i, change run i) the
//! change wins, and a verdict:
//!
//! - `gain`: the change wins at least 0.9 of the pairs and the medians
//!   differ by more than the parent's interquartile range;
//! - `REGRESSION`: the change's median is worse than the parent's by more
//!   than the bound;
//! - `unresolved`: either side's spread exceeds the bound, unless every
//!   change run beats every parent run;
//! - `no regression` otherwise.
//!
//! Any rise in `fail_ratio` rejects. Any difference in a deterministic
//! count or in the modeled digest between runs of the same workload and
//! seed is flagged as a modeled-behaviour change. Runs from different
//! hosts, toolchains or AES backends are refused.
//!
//! Exit codes: 0 when every pair is `gain` or `no regression`, 1 on any
//! regression, rejection or modeled-behaviour change, 2 when refused, and
//! 3 when nothing was rejected but some pair is `unresolved` (more pairs
//! are needed to tell).

use crate::stats::Quartiles;
use fidelius_telemetry::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Header fields that must agree across every compared run.
const FINGERPRINT: [&str; 6] =
    ["cpu", "nproc", "rustc", "aes_backend", "seconds", "units_per_round"];

/// One workload's output within one run file.
#[derive(Debug, Default)]
struct Run {
    seed: u64,
    fingerprint: Vec<(String, String)>,
    metrics: BTreeMap<String, f64>,
    counts: BTreeMap<String, f64>,
    digest: Option<String>,
}

/// Runs by workload, in file order.
type Side = BTreeMap<String, Vec<Run>>;

struct Bound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn read_side(files: &[String]) -> Result<Side, String> {
    let mut side = Side::new();
    for file in files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let mut current: BTreeMap<String, Run> = BTreeMap::new();
        for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
            let v = Json::parse(line).map_err(|e| format!("{file}:{}: {e}", n + 1))?;
            let Some(kind) = v.get("fbench").and_then(Json::as_str) else { continue };
            let workload = v
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{file}:{}: no workload", n + 1))?
                .to_string();
            let run = current.entry(workload).or_default();
            let name = || v.get("name").and_then(Json::as_str).unwrap_or_default().to_string();
            let value = || v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            match kind {
                "header" => {
                    if v.get("trace").and_then(Json::as_bool) == Some(true) {
                        return Err(format!("{file}: traced runs carry no end-to-end numbers"));
                    }
                    run.seed = v.get("seed").and_then(Json::as_u64).unwrap_or(0);
                    run.fingerprint = FINGERPRINT
                        .iter()
                        .map(|k| (k.to_string(), v.get(k).map_or("-".into(), |x| x.to_string())))
                        .collect();
                }
                "metric" => {
                    run.metrics.insert(name(), value());
                }
                "count" => {
                    run.counts.insert(name(), value());
                }
                "digest" => run.digest = v.get("digest").and_then(Json::as_str).map(String::from),
                _ => {}
            }
        }
        if current.is_empty() {
            return Err(format!("{file}: no fbench output"));
        }
        for (w, r) in current {
            side.entry(w).or_default().push(r);
        }
    }
    Ok(side)
}

fn read_bounds(path: &str) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let list = v.get("end_to_end").and_then(Json::as_array).ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            Ok(Bound {
                name: m.get("name").and_then(Json::as_str).ok_or("metric without name")?.into(),
                higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                bound: m.get("bound").and_then(Json::as_f64).ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// How a comparison ends, from best to worst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Outcome {
    Pass,
    Unresolved,
    Reject,
}

/// The verdict for one workload × metric pair.
fn verdict(parent: &[f64], change: &[f64], b: &Bound) -> (String, Outcome) {
    let (qp, qc) = (Quartiles::of(parent), Quartiles::of(change));
    let better = |c: f64, p: f64| if b.higher_is_better { c > p } else { c < p };
    let pairs = parent.len().min(change.len());
    let wins = parent.iter().zip(change).filter(|(p, c)| better(**c, **p)).count();
    let win_frac = wins as f64 / pairs.max(1) as f64;
    let worse_by = if b.higher_is_better {
        (qp.median - qc.median) / qp.median
    } else {
        (qc.median - qp.median) / qp.median
    };
    let spread = ((qp.q3 - qp.q1) / qp.median).max((qc.q3 - qc.q1) / qc.median);
    let all_better = change.iter().all(|c| parent.iter().all(|p| better(*c, *p)));
    let gap = (qc.median - qp.median).abs();
    let (label, outcome) = if win_frac >= 0.9 && gap > qp.q3 - qp.q1 && better(qc.median, qp.median)
    {
        ("gain", Outcome::Pass)
    } else if worse_by > b.bound {
        ("REGRESSION", Outcome::Reject)
    } else if spread > b.bound && !all_better {
        ("unresolved", Outcome::Unresolved)
    } else {
        ("no regression", Outcome::Pass)
    };
    let line = format!(
        "  {:<12} parent {:>12.4} [{:.4}, {:.4}]  change {:>12.4} [{:.4}, {:.4}]  \
         wins {:>3.0}%  {:+.1}% vs bound {:.0}%  {label}",
        b.name,
        qp.median,
        qp.q1,
        qp.q3,
        qc.median,
        qc.q1,
        qc.q3,
        100.0 * win_frac,
        -100.0 * worse_by,
        100.0 * b.bound,
    );
    (line, outcome)
}

/// Differences in deterministic counts or digests between runs of the
/// same workload and seed.
fn modeled_changes(parent: &[Run], change: &[Run]) -> Vec<String> {
    let mut flags = Vec::new();
    for p in parent {
        for c in change.iter().filter(|c| c.seed == p.seed) {
            if p.digest != c.digest {
                flags.push(format!("seed {}: digest {:?} -> {:?}", p.seed, p.digest, c.digest));
            }
            for (name, pv) in &p.counts {
                let cv = c.counts.get(name).copied().unwrap_or(f64::NAN);
                if pv.to_bits() != cv.to_bits() {
                    flags.push(format!("seed {}: {name} {pv} -> {cv}", p.seed));
                }
            }
        }
    }
    flags.sort();
    flags.dedup();
    flags
}

fn compare(parent: &Side, change: &Side, bounds: &[Bound]) -> Result<Outcome, String> {
    let mut worst = Outcome::Pass;
    for (workload, pr) in parent {
        let Some(cr) = change.get(workload) else {
            println!("{workload}: no change runs, skipped");
            continue;
        };
        let mut runs = pr.iter().chain(cr);
        if let Some(first) = runs.next() {
            if let Some(other) = runs.find(|r| r.fingerprint != first.fingerprint) {
                let (a, b) = (&first.fingerprint, &other.fingerprint);
                return Err(format!(
                    "REFUSED: {workload} runs from different hosts or builds:\n  {a:?}\n  {b:?}"
                ));
            }
        }
        println!("{workload}: {} parent runs, {} change runs", pr.len(), cr.len());
        let values = |runs: &[Run], name: &str| -> Vec<f64> {
            runs.iter().filter_map(|r| r.metrics.get(name).copied()).collect()
        };
        let (p, c) = (values(pr, "host_ref_ms"), values(cr, "host_ref_ms"));
        if !p.is_empty() && !c.is_empty() {
            println!(
                "  host reference loop: parent {:.3} ms, change {:.3} ms (medians)",
                Quartiles::of(&p).median,
                Quartiles::of(&c).median
            );
        }
        for b in bounds {
            let (p, c) = (values(pr, &b.name), values(cr, &b.name));
            if p.is_empty() || c.is_empty() {
                println!("  {:<12} missing", b.name);
                worst = Outcome::Reject;
                continue;
            }
            let (line, outcome) = verdict(&p, &c, b);
            println!("{line}");
            worst = worst.max(outcome);
        }
        let fails = |runs: &[Run]| {
            runs.iter()
                .map(|r| r.metrics.get("fail_ratio").copied().unwrap_or(1.0))
                .fold(0.0, f64::max)
        };
        if fails(cr) > fails(pr) {
            println!("  REJECT: fail_ratio rose from {} to {}", fails(pr), fails(cr));
            worst = Outcome::Reject;
        }
        for f in modeled_changes(pr, cr) {
            println!("  MODELED-BEHAVIOUR CHANGE: {f}");
            worst = Outcome::Reject;
        }
    }
    Ok(worst)
}

pub fn main(args: &[String]) -> ExitCode {
    let (mut parent, mut change, mut bench) =
        (Vec::new(), Vec::new(), "BENCHMARK.json".to_string());
    let mut target: Option<&mut Vec<String>> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--parent" => target = Some(&mut parent),
            "--change" => target = Some(&mut change),
            "--bench" => match it.next() {
                Some(p) => bench = p.clone(),
                None => return usage("--bench needs a path"),
            },
            file => match target.as_deref_mut() {
                Some(t) => t.push(file.to_string()),
                None => return usage(&format!("{file}: give --parent or --change first")),
            },
        }
    }
    if parent.is_empty() || change.is_empty() {
        return usage("need at least one --parent and one --change file");
    }
    let result = read_bounds(&bench).and_then(|bounds| {
        let (p, c) = (read_side(&parent)?, read_side(&change)?);
        compare(&p, &c, &bounds)
    });
    match result {
        Ok(Outcome::Pass) => ExitCode::SUCCESS,
        Ok(Outcome::Reject) => ExitCode::FAILURE,
        Ok(Outcome::Unresolved) => {
            eprintln!("fbench compare: unresolved: run more pairs to tell");
            ExitCode::from(3)
        }
        Err(e) => {
            eprintln!("fbench compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("fbench compare: {msg}\nusage: fbench compare --parent A.jsonl... --change B.jsonl... [--bench BENCHMARK.json]");
    ExitCode::from(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(higher: bool) -> Bound {
        Bound { name: "m".into(), higher_is_better: higher, bound: 0.1 }
    }

    #[test]
    fn verdicts_follow_the_pair_rule() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9];
        let judge = |change: &[f64]| {
            let (line, outcome) = verdict(&parent, change, &bound(true));
            (line.rsplit("  ").next().unwrap().to_string(), outcome)
        };
        let scaled = |f: f64| parent.iter().map(|v| v * f).collect::<Vec<f64>>();
        assert_eq!(judge(&scaled(1.05)), ("gain".into(), Outcome::Pass));
        assert_eq!(judge(&scaled(0.8)), ("REGRESSION".into(), Outcome::Reject));
        assert_eq!(judge(&parent), ("no regression".into(), Outcome::Pass));
        let noisy = [50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 80.0, 120.0, 90.0];
        assert_eq!(judge(&noisy), ("unresolved".into(), Outcome::Unresolved));
        // A noisy side does not hide a median that fell beyond the bound.
        let noisy_and_slow: Vec<f64> = noisy.iter().map(|v| v * 0.6).collect();
        assert_eq!(judge(&noisy_and_slow), ("REGRESSION".into(), Outcome::Reject));
    }

    #[test]
    fn fingerprints_are_compared_per_workload() {
        let run = |units: &str, cpu: &str| Run {
            fingerprint: vec![("cpu".into(), cpu.into()), ("units".into(), units.into())],
            metrics: [("m".to_string(), 1.0)].into(),
            ..Run::default()
        };
        let side = |a: Run, b: Run| -> Side {
            [("a".to_string(), vec![a]), ("b".to_string(), vec![b])].into()
        };
        let bounds = [bound(true)];
        let parent = side(run("1", "x"), run("2", "x"));
        assert_eq!(
            compare(&parent, &side(run("1", "x"), run("2", "x")), &bounds),
            Ok(Outcome::Pass)
        );
        let other_host = side(run("1", "y"), run("2", "x"));
        assert!(compare(&parent, &other_host, &bounds).is_err());
    }

    #[test]
    fn count_changes_are_flagged_per_seed() {
        let run = |seed, v: f64| Run {
            seed,
            counts: [("hw.cycles.total_per_op".to_string(), v)].into(),
            digest: Some("d".into()),
            ..Run::default()
        };
        assert!(modeled_changes(&[run(1, 5.0)], &[run(1, 5.0)]).is_empty());
        assert_eq!(modeled_changes(&[run(1, 5.0)], &[run(1, 5.5)]).len(), 1);
        assert!(modeled_changes(&[run(1, 5.0)], &[run(2, 5.5)]).is_empty(), "other seeds differ");
    }
}
