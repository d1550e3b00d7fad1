//! The `run`, `trace` and `compare` commands.
//!
//! `run` measures every workload in rounds, round-robin, one child process
//! per (round, workload) and one child at a time, so slow drift of the host
//! spreads over all workloads alike instead of landing on one of them.
//! Every child repeats the same masks for the same seed, so each
//! repetition's simulated counts must agree across rounds.

use crate::metrics::{E2e, E2E, ERROR_RATE, LAYERS};
use crate::stats::quartiles;
use crate::workload::{Workload, WORKLOADS};
use difi::util::json::{parse, Json};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

/// Seconds each child of `run` and `trace` measures for: BENCHMARK.json's
/// `run_seconds`.
pub const RUN_SECONDS: u64 = 25;

/// One child's result.
#[derive(Debug, Clone)]
struct Child {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    reps: Vec<Json>,
}

/// Runs one measured child and parses its output: `rep {...}` lines and
/// the result object on the last line.
fn child(w: &Workload, seed: u64, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {} child: {e}", w.name))?;
    if !out.status.success() {
        return Err(format!("the {} child failed: {}", w.name, out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut reps = Vec::new();
    for line in stdout.lines() {
        if let Some(rep) = line.strip_prefix("rep ") {
            reps.push(parse(rep).map_err(|e| e.to_string())?);
        }
    }
    let last = stdout.lines().last().ok_or("the child printed nothing")?;
    let doc = parse(last).map_err(|e| format!("bad result line from {}: {e}", w.name))?;
    let num = |k: &str| doc.get(k).and_then(Json::as_u64).ok_or(format!("no {k}"));
    let mut metrics = BTreeMap::new();
    if let Some(Json::Obj(pairs)) = doc.get("metrics") {
        for (name, m) in pairs {
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("metric without value")?;
            metrics.insert(name.clone(), v);
        }
    }
    Ok(Child {
        correct: doc.get("correct").and_then(Json::as_bool) == Some(true),
        attempted: num("attempted")?,
        failed: num("failed")?,
        metrics,
        reps,
    })
}

/// Counts masks of repetitions whose simulated counts differ from the
/// same repetition in `first`.
fn diverged(first: &[Json], reps: &[Json]) -> u64 {
    let rep_no = |r: &Json| r.get("rep").and_then(Json::as_u64);
    reps.iter()
        .filter(|r| {
            first
                .iter()
                .find(|f| rep_no(f) == rep_no(r))
                .is_some_and(|f| f != *r)
        })
        .map(|r| r.get("masks").and_then(Json::as_u64).unwrap_or(1))
        .sum()
}

/// Golden cycles per setup, and the verdict histogram and Σ simulated
/// cycles over all repetitions.
fn counts_summary(reps: &[Json]) -> String {
    let mut verdicts: BTreeMap<String, u64> = BTreeMap::new();
    let mut sim_cycles = 0;
    for r in reps {
        if let Some(Json::Obj(pairs)) = r.get("verdicts") {
            for (k, v) in pairs {
                *verdicts.entry(k.clone()).or_default() += v.as_u64().unwrap_or(0);
            }
        }
        sim_cycles += r.get("sim_cycles").and_then(Json::as_u64).unwrap_or(0);
    }
    let golden = reps.first().and_then(|r| r.get("golden_cycles")).cloned();
    format!(
        "{} repetitions: golden cycles {}, verdicts {verdicts:?}, simulated cycles {sim_cycles}",
        reps.len(),
        golden.unwrap_or(Json::Null)
    )
}

fn metric_doc(m: &E2e, samples: &[f64]) -> Json {
    let (p25, median, p75) = quartiles(samples);
    Json::obj(vec![
        ("name", Json::Str(m.name.into())),
        ("unit", Json::Str(m.unit.into())),
        ("median", Json::F64(median)),
        ("p25", Json::F64(p25)),
        ("p75", Json::F64(p75)),
        ("n", Json::U64(samples.len() as u64)),
        (
            "samples",
            Json::Arr(samples.iter().map(|&v| Json::F64(v)).collect()),
        ),
    ])
}

/// `benchmark run`: `rounds` round-robin rounds over every workload. Prints
/// every end-to-end metric and writes the samples, medians and quartiles
/// to `out`. Returns false when any mask failed.
///
/// # Errors
///
/// Fails when a child cannot run or `out` cannot be written.
pub fn run(seed: u64, rounds: usize, out: &Path) -> Result<bool, String> {
    let mut runs: Vec<Vec<Child>> = vec![Vec::new(); WORKLOADS.len()];
    for round in 1..=rounds {
        for (w, done) in WORKLOADS.iter().zip(&mut runs) {
            eprintln!("round {round}/{rounds}: {}", w.name);
            done.push(child(w, seed, false)?);
        }
    }
    let mut clean = true;
    let mut docs = Vec::new();
    println!(
        "{:<13} {:<15} {:>12} {:>12} {:>12} {:>3}  unit",
        "workload", "metric", "median", "p25", "p75", "n"
    );
    for (w, children) in WORKLOADS.iter().zip(&runs) {
        let first = &children[0].reps;
        let errors: Vec<f64> = children
            .iter()
            .map(|c| (c.failed + diverged(first, &c.reps)) as f64 / c.attempted.max(1) as f64)
            .collect();
        clean &= errors.iter().all(|&e| e == 0.0) && children.iter().all(|c| c.correct);
        let mut metrics = Vec::new();
        for m in E2E.iter().chain([&ERROR_RATE]) {
            let samples: Vec<f64> = match m.name {
                "error_rate" => errors.clone(),
                name => children
                    .iter()
                    .filter_map(|c| c.metrics.get(name).copied())
                    .collect(),
            };
            let (p25, median, p75) = quartiles(&samples);
            println!(
                "{:<13} {:<15} {median:>12.4} {p25:>12.4} {p75:>12.4} {:>3}  {}",
                w.name,
                m.name,
                samples.len(),
                m.unit
            );
            metrics.push(metric_doc(m, &samples));
        }
        println!("{:<13} {}", w.name, counts_summary(first));
        docs.push(Json::obj(vec![
            ("name", Json::Str(w.name.into())),
            ("metrics", Json::Arr(metrics)),
            ("counts", Json::Arr(first.clone())),
        ]));
    }
    let doc = Json::obj(vec![
        ("seed", Json::U64(seed)),
        ("rounds", Json::U64(rounds as u64)),
        ("seconds", Json::U64(RUN_SECONDS)),
        ("workloads", Json::Arr(docs)),
    ]);
    std::fs::write(out, format!("{doc}\n")).map_err(|e| e.to_string())?;
    println!("wrote {}", out.display());
    Ok(clean)
}

/// What a workload is meant to stress, as a check on its per-layer
/// metrics: the statement and whether it holds.
fn claim(w: &str, m: &BTreeMap<String, f64>) -> Option<(String, bool)> {
    let v = |k: &str| m.get(k).copied().unwrap_or(0.0);
    match w {
        "cold_l1d" => {
            let u = v("pool.utilization");
            Some((format!("pool.utilization is reported ({u:.3})"), u > 0.0))
        }
        "warm_l2" => {
            let share = v("restore.us_p50") * 1e-6 * v("dispatch.calls") / v("dispatch.busy_s");
            Some((
                format!(
                    "restore.us_p50 x dispatch.calls is >= 0.5 of dispatch.busy_s ({share:.3})"
                ),
                share >= 0.5,
            ))
        }
        "collapsed_l2" => {
            let calls = v("dispatch.calls");
            Some((format!("dispatch.calls == 0 ({calls})"), calls == 0.0))
        }
        _ => None,
    }
}

/// `benchmark trace`: one traced child per workload. Prints every
/// per-layer metric and whether each workload stresses what it is meant
/// to. Returns false when a child was incorrect.
///
/// # Errors
///
/// Fails when a child cannot run or `out` cannot be written.
pub fn trace(seed: u64, out: &Path) -> Result<bool, String> {
    let mut clean = true;
    let mut docs = Vec::new();
    for w in &WORKLOADS {
        eprintln!("trace: {}", w.name);
        let c = child(w, seed, true)?;
        println!("{} (correct: {}): {}", w.name, c.correct, w.why);
        clean &= c.correct;
        for (name, unit, _) in LAYERS {
            let v = c.metrics.get(name).copied().unwrap_or(0.0);
            println!("  {name:<32} {v:>16.6} {unit}");
        }
        if let Some((text, holds)) = claim(w.name, &c.metrics) {
            let verdict = if holds { "holds" } else { "does not hold" };
            println!("  claim: {text}: {verdict}");
        }
        let metrics = c
            .metrics
            .iter()
            .map(|(k, &v)| (k.clone(), Json::F64(v)))
            .collect();
        docs.push(Json::obj(vec![
            ("name", Json::Str(w.name.into())),
            ("correct", Json::Bool(c.correct)),
            ("metrics", Json::Obj(metrics)),
        ]));
    }
    let doc = Json::obj(vec![
        ("seed", Json::U64(seed)),
        ("workloads", Json::Arr(docs)),
    ]);
    std::fs::write(out, format!("{doc}\n")).map_err(|e| e.to_string())?;
    println!("wrote {}", out.display());
    Ok(clean)
}

/// How a change compares with its base on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Ok,
    /// Worse than the bound allows.
    Regressed,
    /// The spread between rounds is wider than the bound, so a worsening
    /// within it cannot be told from noise.
    Unresolved,
}

/// Compares the rounds of a change with those of its base. A metric with
/// no bound tolerates no worsening in any round.
pub fn verdict(m: &E2e, base: &[f64], change: &[f64]) -> Verdict {
    if m.bound == 0.0 && m.bound_abs == 0.0 {
        let worst = |xs: &[f64]| {
            let worse = |a: f64, b: f64| if m.worsening(a, b) > 0.0 { b } else { a };
            xs.iter().copied().reduce(worse).unwrap_or(0.0)
        };
        return if m.worsening(worst(base), worst(change)) > 0.0 {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
    }
    let (b25, b50, b75) = quartiles(base);
    let (c25, c50, c75) = quartiles(change);
    let allowed = m.allowed(b50);
    let better = |c: f64, b: f64| m.worsening(b, c) < 0.0;
    let all_better = change.iter().all(|&c| base.iter().all(|&b| better(c, b)));
    let all_worse = change.iter().all(|&c| base.iter().all(|&b| better(b, c)));
    let regressed = m.worsening(b50, c50) > allowed;
    if all_better {
        Verdict::Ok
    } else if (b75 - b25).max(c75 - c25) > allowed {
        if regressed && all_worse {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if regressed {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn samples(workload: &Json, metric: &str) -> Vec<f64> {
    workload
        .get("metrics")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(metric))
        .and_then(|m| m.get("samples"))
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(Json::as_f64)
        .collect()
}

/// `benchmark compare`: every (workload, end-to-end metric) pair of two
/// `run` results. Returns false when any pair regressed.
///
/// # Errors
///
/// Fails when a file cannot be read or lacks a workload or metric.
pub fn compare(base: &Path, change: &Path) -> Result<bool, String> {
    let (base, change) = (load(base)?, load(change)?);
    let find = |doc: &Json, name: &str| -> Result<Json, String> {
        doc.get("workloads")
            .and_then(Json::as_arr)
            .and_then(|ws| {
                ws.iter()
                    .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
            })
            .cloned()
            .ok_or(format!("no {name} in the results"))
    };
    let mut clean = true;
    println!(
        "{:<13} {:<15} {:>26} {:>26} {:>7} {:>6}  verdict",
        "workload", "metric", "base p25/median/p75", "change p25/median/p75", "ratio", "bound"
    );
    for w in &WORKLOADS {
        let (b, c) = (find(&base, w.name)?, find(&change, w.name)?);
        for m in E2E.iter().chain([&ERROR_RATE]) {
            let (bs, cs) = (samples(&b, m.name), samples(&c, m.name));
            if bs.is_empty() || cs.is_empty() {
                return Err(format!("no {} samples for {}", m.name, w.name));
            }
            let (b25, b50, b75) = quartiles(&bs);
            let (c25, c50, c75) = quartiles(&cs);
            let v = verdict(m, &bs, &cs);
            clean &= v != Verdict::Regressed;
            let ratio = if b50 == 0.0 { 1.0 } else { c50 / b50 };
            println!(
                "{:<13} {:<15} {:>26} {:>26} {ratio:>7.3} {:>6}  {v:?}",
                w.name,
                m.name,
                format!("{b25:.4}/{b50:.4}/{b75:.4}"),
                format!("{c25:.4}/{c50:.4}/{c75:.4}"),
                format!("{:.0}%", m.bound * 100.0),
            );
        }
        let reps = |w: &Json| {
            w.get("counts")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .to_vec()
        };
        if diverged(&reps(&b), &reps(&c)) > 0 {
            println!("{:<13} simulated behaviour changed", w.name);
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{benchmark_json, PEAK_HEAP_MB, SETUP_S, VERDICTS_PER_S};

    #[test]
    fn children_measure_for_the_run_seconds_of_benchmark_json() {
        let listed = benchmark_json().get("run_seconds").and_then(Json::as_u64);
        assert_eq!(listed, Some(RUN_SECONDS));
    }

    #[test]
    fn steady_rounds_within_the_bound_are_ok() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let change = [97.0, 98.0, 96.0, 97.5, 96.5];
        assert_eq!(verdict(&VERDICTS_PER_S, &base, &change), Verdict::Ok);
    }

    #[test]
    fn steady_rounds_beyond_the_bound_regress() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let change = [70.0, 71.0, 69.0, 70.5, 85.0];
        assert_eq!(verdict(&VERDICTS_PER_S, &base, &change), Verdict::Regressed);
        let heap = [50.0, 50.1, 49.9];
        let bigger = [53.0, 53.1, 52.9];
        assert_eq!(verdict(&PEAK_HEAP_MB, &heap, &bigger), Verdict::Regressed);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let base = [100.0, 60.0, 140.0, 100.0, 90.0];
        let change = [75.0, 130.0, 55.0, 78.0, 92.0];
        assert_eq!(
            verdict(&VERDICTS_PER_S, &base, &change),
            Verdict::Unresolved
        );
    }

    #[test]
    fn a_change_better_in_every_round_is_ok_despite_the_spread() {
        let base = [100.0, 60.0, 70.0, 65.0, 90.0];
        let change = [150.0, 160.0, 200.0, 101.0, 120.0];
        assert_eq!(verdict(&VERDICTS_PER_S, &base, &change), Verdict::Ok);
    }

    #[test]
    fn a_wide_spread_still_regresses_when_every_round_is_worse() {
        let base = [1.0, 1.6, 1.2, 1.4, 1.1];
        let change = [2.0, 2.9, 2.5, 2.2, 2.6];
        assert_eq!(verdict(&SETUP_S, &base, &change), Verdict::Regressed);
    }

    #[test]
    fn setup_time_has_an_absolute_floor() {
        // +40% on a 0.1 s set-up is within the 0.05 s floor.
        let base = [0.10, 0.10, 0.10];
        let change = [0.14, 0.14, 0.14];
        assert_eq!(verdict(&SETUP_S, &base, &change), Verdict::Ok);
    }

    #[test]
    fn any_new_error_regresses() {
        assert_eq!(verdict(&ERROR_RATE, &[0.0; 5], &[0.0; 5]), Verdict::Ok);
        let change = [0.0, 0.01, 0.0, 0.0, 0.0];
        assert_eq!(verdict(&ERROR_RATE, &[0.0; 5], &change), Verdict::Regressed);
        assert_eq!(verdict(&ERROR_RATE, &change, &[0.0; 5]), Verdict::Ok);
    }

    #[test]
    fn diverged_rounds_count_their_masks() {
        let rep = |k: u64, masked: u64| {
            parse(&format!(
                r#"{{"rep":{k},"masks":300,"verdicts":{{"masked":{masked}}}}}"#
            ))
            .expect("json")
        };
        let first = [rep(0, 300), rep(1, 299)];
        assert_eq!(diverged(&first, &[rep(0, 300), rep(1, 299), rep(2, 1)]), 0);
        assert_eq!(diverged(&first, &[rep(0, 300), rep(1, 300)]), 300);
    }
}
