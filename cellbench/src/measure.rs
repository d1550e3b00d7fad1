//! One measured run of one workload: the end-to-end run, and the traced
//! run that splits the same cell into its layers.
//!
//! The end-to-end run repeats the timed cell on all three setups until the
//! time budget is spent, each repetition with fresh masks drawn from the
//! run's seed, and reports medians over repetitions. Fresh masks average
//! out how much work one seed's masks happen to need; calibration and
//! medians absorb the host's drift and noise.

use crate::host;
use crate::metrics::{E2E, LAYERS, PEAK_HEAP_MB, SETUP_S, VERDICTS_PER_S};
use crate::spans::{self, Spans};
use crate::stats::{median, tail};
use crate::workload::{rep_seed, Cell, Observe, Setup, Shape, Workload, CHECKPOINTS};
use difi::prelude::*;
use difi::uarch::OoOCore;
use difi::util::json::Json;
use difi::util::rng::Xoshiro256;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Fewest repetitions a run makes, however short its budget.
const MIN_REPS: usize = 3;

/// Clones timed per snapshot in the restore microbenchmark.
const CLONES_PER_SNAPSHOT: usize = 20;

/// The exact simulated outcome of one repetition: identical across runs
/// of the same code and seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepCounts {
    /// Repetition index.
    pub rep: u64,
    /// Masks over all setups.
    pub masks: u64,
    /// Golden cycles per setup.
    pub golden_cycles: Vec<u64>,
    /// Verdicts over all setups, in `Outcome::ALL` order.
    pub verdicts: [u64; 6],
    /// Σ simulated cycles the logs record.
    pub sim_cycles: u64,
}

impl RepCounts {
    fn of(rep: u64, cells: &[Cell]) -> RepCounts {
        let mut verdicts = [0u64; 6];
        for cell in cells {
            let counts = classify_log(&cell.log);
            for (v, o) in verdicts.iter_mut().zip(Outcome::ALL) {
                *v += counts.get(o);
            }
        }
        RepCounts {
            rep,
            masks: cells.iter().map(|c| c.log.runs.len() as u64).sum(),
            golden_cycles: cells
                .iter()
                .map(|c| c.log.golden.cycles_measured())
                .collect(),
            verdicts,
            sim_cycles: cells
                .iter()
                .flat_map(|c| &c.log.runs)
                .map(|r| r.result.cycles.unwrap_or(0))
                .sum(),
        }
    }

    /// JSON form.
    pub fn to_json(&self) -> Json {
        let verdicts = Outcome::ALL
            .iter()
            .zip(self.verdicts)
            .map(|(o, n)| (o.name(), Json::U64(n)))
            .collect();
        Json::obj(vec![
            ("rep", Json::U64(self.rep)),
            ("masks", Json::U64(self.masks)),
            (
                "golden_cycles",
                Json::Arr(self.golden_cycles.iter().map(|&c| Json::U64(c)).collect()),
            ),
            ("verdicts", Json::obj(verdicts)),
            ("sim_cycles", Json::U64(self.sim_cycles)),
        ])
    }
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Masks attempted.
    pub attempted: u64,
    /// Masks that failed a check.
    pub failed: u64,
    /// Checks that failed outside the per-mask accounting.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Per-repetition simulated counts.
    pub reps: Vec<RepCounts>,
    /// Per-repetition raw and calibrated times.
    pub timings: Vec<Json>,
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// of `names` with its unit.
    pub fn to_json(&self, names: &[(&'static str, &'static str)]) -> Json {
        let metrics = names
            .iter()
            .map(|&(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                (
                    name,
                    Json::obj(vec![
                        ("value", Json::F64(value)),
                        ("unit", Json::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            (
                "correct",
                Json::Bool(self.failed == 0 && self.problems.is_empty()),
            ),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Names and units of the end-to-end metrics.
pub fn e2e_names() -> Vec<(&'static str, &'static str)> {
    E2E.iter().map(|m| (m.name, m.unit)).collect()
}

/// Names and units of the per-layer metrics.
pub fn layer_names() -> Vec<(&'static str, &'static str)> {
    LAYERS.iter().map(|&(n, u, _)| (n, u)).collect()
}

/// Runs the cell on every setup.
fn run_cells(
    w: &Workload,
    setups: &[Setup],
    masks: &[Vec<InjectionSpec>],
    seed: u64,
    obs: Observe<'_>,
    dir: &Path,
) -> Result<Vec<Cell>, String> {
    setups
        .iter()
        .zip(masks)
        .map(|(s, m)| w.run_cell(s, m, seed, obs, dir))
        .collect()
}

fn masks_for(w: &Workload, setups: &[Setup], seed: u64) -> Vec<Vec<InjectionSpec>> {
    setups.iter().map(|s| w.masks(s, seed)).collect()
}

fn wall_s(cells: &[Cell]) -> f64 {
    cells
        .iter()
        .map(|c| c.wall.as_secs_f64())
        .fold(0.0, |a, b| a + b)
}

/// The end-to-end run: repetitions until `budget` is spent. Cell times
/// are calibrated by the host's slowdown over the cell (see [`host`]).
///
/// # Errors
///
/// Fails when the inputs cannot be prepared or a sink file cannot be
/// written.
pub fn e2e(w: &Workload, seed: u64, budget: Duration, dir: &Path) -> Result<Report, String> {
    let setups = w.prepare()?;
    let mut reference = host::Reference::allocate();
    let mut out = Report::default();
    let (mut rates, mut setup_s, mut heap) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    for rep in 0u64.. {
        let rs = rep_seed(seed, rep);
        let masks = masks_for(w, &setups, rs);
        let (mut cells, mut calibrated, mut setup, mut raw) = (Vec::new(), 0.0, 0.0, 0.0);
        let mut before = reference.time_s();
        for (s, m) in setups.iter().zip(&masks) {
            let cell = w.run_cell(s, m, rs, Observe::default(), dir)?;
            let after = reference.time_s();
            let slowdown = host::slowdown(before, after);
            before = after;
            calibrated += cell.wall.as_secs_f64() / slowdown;
            setup += cell.setup.as_secs_f64() / slowdown;
            raw += cell.wall.as_secs_f64();
            cells.push(cell);
        }
        let n: u64 = masks.iter().map(|m| m.len() as u64).sum();
        let peak = cells.iter().map(|c| c.peak_heap_mb).fold(0.0, f64::max);
        rates.push(n as f64 / calibrated);
        setup_s.push(setup);
        heap.push(peak);
        out.timings.push(Json::obj(vec![
            ("rep", Json::U64(rep)),
            ("wall_s", Json::F64(raw)),
            ("calibrated_s", Json::F64(calibrated)),
            ("setup_s", Json::F64(setup)),
            ("peak_heap_mb", Json::F64(peak)),
        ]));
        out.attempted += n;
        out.failed += cells.iter().map(|c| c.failed).sum::<u64>();
        if rep == 0 {
            out.failed += spot_check(w, &setups, &masks, &cells, seed);
        }
        out.reps.push(RepCounts::of(rep, &cells));
        if rates.len() >= MIN_REPS && start.elapsed() >= budget {
            break;
        }
    }
    out.metrics.insert(VERDICTS_PER_S.name, median(&rates));
    out.metrics.insert(SETUP_S.name, median(&setup_s));
    out.metrics.insert(PEAK_HEAP_MB.name, median(&heap));
    Ok(out)
}

/// Re-runs two seeded masks per cell cold on the bare dispatcher and
/// counts the ones whose verdict differs from the campaign's. On collapsed
/// workloads one of the two is a statically resolved mask, which checks
/// the dead-class proof.
fn spot_check(
    w: &Workload,
    setups: &[Setup],
    masks: &[Vec<InjectionSpec>],
    cells: &[Cell],
    seed: u64,
) -> u64 {
    let mut rng = Xoshiro256::seed_from(seed);
    let mut failed = 0;
    for ((s, m), cell) in setups.iter().zip(masks).zip(cells) {
        let n = m.len() as u64;
        let mut picks = [rng.gen_range(0, n), rng.gen_range(0, n)].map(|i| i as usize);
        if w.shape == Shape::Collapsed {
            let resolved: Vec<usize> = (0..cell.log.runs.len())
                .filter(|&i| {
                    cell.log.runs[i].result.status
                        == RunStatus::EarlyStopMasked(EarlyStop::StaticallyPruned)
                })
                .collect();
            match resolved.len() {
                0 => failed += 1,
                k => picks[0] = resolved[rng.gen_range(0, k as u64) as usize],
            }
        }
        let classifier = Classifier::from_golden(&cell.log.golden);
        let limits = RunLimits::campaign(cell.log.golden.cycles_measured());
        for i in picks {
            let Some(run) = cell.log.runs.get(i) else {
                continue; // already counted as lost
            };
            let cold = s.dispatcher.run(&s.program, &m[i], &limits);
            if classifier.classify(&cold) != classifier.classify(&run.result) {
                failed += 1;
            }
        }
    }
    failed
}

/// Counts a repetition of the reference masks: its own failures, and
/// every mask of a cell whose log differs from the reference's.
fn recheck(out: &mut Report, cells: &[Cell], reference: &[Cell]) {
    for (c, r) in cells.iter().zip(reference) {
        out.attempted += c.log.runs.len() as u64;
        out.failed += c.failed;
        if c.log != r.log {
            out.failed += c.log.runs.len() as u64;
        }
    }
}

/// The traced run: one repetition with spans at every layer boundary, then
/// plain repetitions of the same masks (and, on traced workloads, ones
/// with fault tracing off) until `budget` is spent, for the overhead
/// ratios. Spans are written to `spans_path`.
///
/// # Errors
///
/// Fails when the inputs cannot be prepared or a file cannot be written.
pub fn traced(
    w: &Workload,
    seed: u64,
    budget: Duration,
    dir: &Path,
    spans_path: &Path,
) -> Result<Report, String> {
    let setups = w.prepare()?;
    let masks = masks_for(w, &setups, seed);
    let mut out = Report::default();

    // A plain repetition first pays the process's first-touch costs, and
    // its logs are the reference every later repetition must reproduce:
    // spans, probes and fault tracing only observe.
    let reference = run_cells(w, &setups, &masks, seed, Observe::default(), dir)?;
    out.attempted += masks.iter().map(|m| m.len() as u64).sum::<u64>();
    out.failed += reference.iter().map(|c| c.failed).sum::<u64>();
    out.failed += spot_check(w, &setups, &masks, &reference, seed);
    out.reps.push(RepCounts::of(0, &reference));

    let rec = Spans::default();
    let obs = Observe {
        spans: Some(&rec),
        untraced: false,
    };
    let cells = run_cells(w, &setups, &masks, seed, obs, dir)?;
    let spans = rec.finish();
    recheck(&mut out, &cells, &reference);
    if let Err(e) = spans::check_nesting(&spans, w.threads > 1) {
        out.problems.push(e);
    }
    let doc = Json::obj(vec![
        ("workload", Json::Str(w.name.into())),
        ("seed", Json::U64(seed)),
        ("spans", spans::to_json(&spans)),
    ]);
    std::fs::write(spans_path, format!("{doc}\n")).map_err(|e| e.to_string())?;

    let (mut plain, mut untraced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while plain.len() < MIN_REPS || start.elapsed() < budget {
        let mut variants = vec![(Observe::default(), &mut plain)];
        if w.traced {
            let off = Observe {
                spans: None,
                untraced: true,
            };
            variants.push((off, &mut untraced));
        }
        for (obs, walls) in variants {
            let again = run_cells(w, &setups, &masks, seed, obs, dir)?;
            recheck(&mut out, &again, &reference);
            walls.push(wall_s(&again));
        }
    }

    let m = &mut out.metrics;
    layer_metrics(w, &spans, &cells, m);
    let traced_wall = wall_s(&cells);
    m.insert("bench.span_overhead", traced_wall / median(&plain) - 1.0);
    if w.traced {
        let overhead = median(&plain) / median(&untraced) - 1.0;
        m.insert("obs.fault_trace_overhead", overhead);
    }

    let restore = restore_us(w, &setups);
    let t = tail(&restore);
    m.insert("restore.us_p50", median(&restore));
    m.insert("restore.us_tail", t.map_or(0.0, |t| t.value));
    m.insert("restore.tail_pct", t.map_or(0.0, |t| t.pct));
    m.insert("restore.samples", restore.len() as f64);

    let t0 = Instant::now();
    for c in &cells {
        black_box(classify_log(&c.log));
    }
    m.insert("classify.s", t0.elapsed().as_secs_f64());

    let (mut classes, mut partitioned, mut partition_s) = (0usize, 0usize, 0.0);
    for (c, ms) in cells.iter().zip(&masks) {
        if let Some(profile) = &c.profile {
            let t0 = Instant::now();
            let part = black_box(partition_equivalence(ms, profile));
            partition_s += t0.elapsed().as_secs_f64();
            classes += part.class_count();
            partitioned += ms.len();
        }
    }
    m.insert("masks.partition_s", partition_s);
    m.insert("masks.classes", classes as f64);
    if classes > 0 {
        m.insert("masks.collapse_ratio", partitioned as f64 / classes as f64);
    }
    Ok(out)
}

/// The metrics read off the traced repetition's spans, counters and logs.
fn layer_metrics(w: &Workload, spans: &[spans::Span], cells: &[Cell], m: &mut BTreeMap<&str, f64>) {
    let sum = |f: fn(&Cell) -> u64| cells.iter().map(f).sum::<u64>() as f64;
    let golden_s = spans::total_s(spans, "golden");
    let golden_cycles = sum(|c| c.counters.golden_cycles);
    m.insert("golden.s", golden_s);
    m.insert("golden.cycles", golden_cycles);
    m.insert("golden.mcyc_per_s", golden_cycles * 1e-6 / golden_s);
    m.insert("snapshots.s", spans::total_s(spans, "snapshots"));
    m.insert("snapshots.count", sum(|c| c.counters.snapshots));

    let ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "dispatch")
        .map(|s| s.ns() as f64 * 1e-6)
        .collect();
    let calls = sum(|c| c.counters.calls);
    let busy_s = spans::total_s(spans, "dispatch");
    let sim_cycles = sum(|c| c.counters.sim_cycles);
    let t = tail(&ms);
    m.insert("dispatch.calls", calls);
    m.insert("dispatch.busy_s", busy_s);
    m.insert("dispatch.ms_p50", median(&ms));
    m.insert("dispatch.ms_tail", t.map_or(0.0, |t| t.value));
    m.insert("dispatch.tail_pct", t.map_or(0.0, |t| t.pct));
    m.insert("dispatch.sim_mcycles", sim_cycles * 1e-6);
    if calls > 0.0 {
        m.insert(
            "dispatch.warm_share",
            sum(|c| c.counters.warm_calls) / calls,
        );
        m.insert("dispatch.ns_per_cycle", busy_s * 1e9 / sim_cycles.max(1.0));
    }

    // Shares of the dispatched (measured) runs by how they ended.
    let (mut ran, mut early, mut timeout, mut full_masked) = (0u64, 0u64, 0u64, 0u64);
    for c in cells {
        let classifier = Classifier::from_golden(&c.log.golden);
        for r in c
            .log
            .runs
            .iter()
            .map(|r| &r.result)
            .filter(|r| r.is_measured())
        {
            ran += 1;
            match r.status {
                RunStatus::EarlyStopMasked(_) => early += 1,
                RunStatus::Timeout => timeout += 1,
                RunStatus::Completed { .. } if classifier.classify(r) == Outcome::Masked => {
                    full_masked += 1;
                }
                _ => {}
            }
        }
    }
    if ran > 0 {
        let share = |k: u64| k as f64 / ran as f64;
        m.insert("dispatch.early_stop_share", share(early));
        m.insert("dispatch.timeout_share", share(timeout));
        m.insert("dispatch.completed_masked_share", share(full_masked));
    }

    // Pool utilization: busy time over threads × the window from a cell's
    // first dispatch start to its last dispatch end.
    let mut window_ns = 0u64;
    for cell in spans.iter().filter(|s| s.name == "cell") {
        let inside = spans.iter().filter(|s| {
            s.name == "dispatch" && s.start_ns >= cell.start_ns && s.end_ns <= cell.end_ns
        });
        let (lo, hi) = inside.fold((u64::MAX, 0), |(lo, hi), s| {
            (lo.min(s.start_ns), hi.max(s.end_ns))
        });
        window_ns += hi.saturating_sub(lo);
    }
    if window_ns > 0 {
        let util = busy_s * 1e9 / (w.threads as f64 * window_ns as f64);
        m.insert("pool.utilization", util);
    }

    m.insert("ace.residency_s", spans::total_s(spans, "ace.residency"));
    m.insert("ace.profile_s", spans::total_s(spans, "ace.profile"));
    m.insert("sink.journal_s", spans::total_s(spans, "sink.journal"));
    m.insert("sink.journal_bytes", sum(|c| c.journal_bytes));
    m.insert("sink.trace_s", spans::total_s(spans, "sink.trace"));
    m.insert("runner.self_s", spans::self_s(spans, "runner"));
}

/// Microseconds per `OoOCore::clone` of each golden snapshot the cell's
/// strategy captures, [`CLONES_PER_SNAPSHOT`] clones each. Empty for cold
/// workloads, which restore nothing.
fn restore_us(w: &Workload, setups: &[Setup]) -> Vec<f64> {
    let mut samples = Vec::new();
    if w.shape == Shape::Cold {
        return samples;
    }
    let k = CHECKPOINTS as u64;
    for s in setups {
        let g = s.golden_cycles;
        let mut at: Vec<u64> = (1..=k)
            .map(|i| g * i / (k + 1))
            .filter(|&c| c > 0)
            .collect();
        at.dedup();
        let limits = RunLimits::campaign(g);
        let snaps = s
            .dispatcher
            .golden_snapshots(&s.program, &at, &limits)
            .unwrap_or_default();
        for snap in &snaps {
            let Some(core) = snap.state.downcast_ref::<OoOCore>() else {
                continue;
            };
            for _ in 0..CLONES_PER_SNAPSHOT {
                let t0 = Instant::now();
                let copy = black_box(core.clone());
                samples.push(t0.elapsed().as_secs_f64() * 1e6);
                drop(copy);
            }
        }
    }
    samples
}
