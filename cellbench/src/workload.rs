//! The campaign-cell workloads and the timed cell.
//!
//! A workload is one campaign cell — benchmark × structure × mask shape ×
//! strategy stack — run on each of the paper's three setups. Inputs (the
//! assembled program, an untimed golden run that sizes the mask window,
//! and the masks) are prepared before the clock starts. The timed cell is
//! `[golden_residency + AceProfile::new, collapsed only] +
//! CampaignRunner::run_with_sinks + sink finish()`.

use crate::host;
use crate::probe::Probe;
use crate::sinks::{Tally, Timed};
use crate::spans::{timed, Spans};
use difi::core::dispatch::structure_desc;
use difi::prelude::*;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cycle ceiling of every golden run.
pub const GOLDEN_MAX_CYCLES: u64 = 200_000_000;

/// Golden checkpoints of the warm-start strategies.
pub const CHECKPOINTS: usize = 8;

/// How the runner executes the masks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `Strategy::Cold`.
    Cold,
    /// `Strategy::Checkpointed` with [`CHECKPOINTS`] snapshots.
    Checkpointed,
    /// `Strategy::Collapsed` with [`CHECKPOINTS`] snapshots.
    Collapsed,
}

/// One workload.
#[derive(Debug)]
pub struct Workload {
    /// Name on the command line and in results.
    pub name: &'static str,
    /// Why the workload is in the benchmark: the layer it stresses.
    pub why: &'static str,
    /// Benchmark program.
    pub bench: Bench,
    /// Injected structure.
    pub structure: StructureId,
    /// Masks per setup in one repetition.
    pub masks: u64,
    /// Draw `mixed_scenarios` masks (attacks and bursts) instead of
    /// single-bit transients.
    pub mixed: bool,
    /// Strategy.
    pub shape: Shape,
    /// Worker threads of the campaign pool.
    pub threads: usize,
    /// Attach a `JournalSink`.
    pub journal: bool,
    /// Fault-lifecycle tracing with a metrics registry and a `TraceSink`.
    pub traced: bool,
}

/// The workloads, in the order `run` and `trace` visit them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "cold_l1d",
        why: "cold-start campaign on 2 threads: engine simulation and the worker pool dominate; no snapshots, ACE or sinks",
        bench: Bench::Fft,
        structure: StructureId::L1dData,
        masks: 60,
        mixed: false,
        shape: Shape::Cold,
        threads: 2,
        journal: false,
        traced: false,
    },
    Workload {
        name: "warm_l2",
        why: "checkpointed L2 campaign: 99% of runs early-stop a few thousand cycles after a snapshot restore, so restore is a large share of each run",
        bench: Bench::Fft,
        structure: StructureId::L2Data,
        masks: 150,
        mixed: false,
        shape: Shape::Checkpointed,
        threads: 1,
        journal: false,
        traced: false,
    },
    Workload {
        name: "collapsed_l2",
        why: "collapsed L2 campaign with a journal: every mask is proven dead, so the static path and journal writes dominate with zero dispatches",
        bench: Bench::Sha,
        structure: StructureId::L2Data,
        masks: 40_000,
        mixed: false,
        shape: Shape::Collapsed,
        threads: 1,
        journal: true,
        traced: false,
    },
    Workload {
        name: "traced_mixed",
        why: "traced warm campaign over attack and burst scenarios with metrics, journal and trace sinks: the only workload where observability costs",
        bench: Bench::Fft,
        structure: StructureId::L1dData,
        masks: 50,
        mixed: true,
        shape: Shape::Checkpointed,
        threads: 1,
        journal: true,
        traced: true,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The mask seed of repetition `rep` of a run seeded with `seed`;
/// repetition 0 uses the seed itself.
pub fn rep_seed(seed: u64, rep: u64) -> u64 {
    seed.wrapping_add(rep.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One setup's prepared inputs.
pub struct Setup {
    /// The setup's dispatcher.
    pub dispatcher: Box<dyn InjectorDispatcher + Send>,
    /// The benchmark assembled for the setup's ISA.
    pub program: Program,
    /// Geometry of the injected structure.
    pub desc: StructureDesc,
    /// Golden cycles, from the untimed sizing run.
    pub golden_cycles: u64,
}

/// What the benchmark observes of a cell besides its result.
#[derive(Clone, Copy, Default)]
pub struct Observe<'a> {
    /// Record spans at layer boundaries.
    pub spans: Option<&'a Spans>,
    /// Run a traced workload with fault tracing switched off (the
    /// observability overhead baseline).
    pub untraced: bool,
}

/// The probe's counters for one cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Injection dispatches.
    pub calls: u64,
    /// Dispatches that restored a snapshot.
    pub warm_calls: u64,
    /// Cycles simulated by dispatches.
    pub sim_cycles: u64,
    /// Cycles of fault-free runs inside the cell.
    pub golden_cycles: u64,
    /// Snapshots captured.
    pub snapshots: u64,
}

/// One executed cell.
pub struct Cell {
    /// The campaign log.
    pub log: CampaignLog,
    /// Wall time of the timed cell.
    pub wall: Duration,
    /// Time from cell start to the first injection dispatch (the whole
    /// cell when nothing dispatches).
    pub setup: Duration,
    /// The most heap the cell held while it ran beyond what the process
    /// held when it started, in MB.
    pub peak_heap_mb: f64,
    /// The collapse profile, for collapsed workloads.
    pub profile: Option<AceProfile>,
    /// Journal size in bytes (0 without a journal).
    pub journal_bytes: u64,
    /// Masks the cell lost, repeated, or mislabelled, host panics, and
    /// missing journal lines.
    pub failed: u64,
    /// The probe's counters.
    pub counters: Counters,
}

impl Workload {
    /// Assembles the program and sizes the mask window on each setup.
    ///
    /// # Errors
    ///
    /// Fails when a program does not assemble, a golden run does not
    /// complete, or a setup lacks the structure.
    pub fn prepare(&self) -> Result<Vec<Setup>, String> {
        setups::all()
            .into_iter()
            .map(|dispatcher| {
                let program = build(self.bench, dispatcher.isa()).map_err(|e| e.to_string())?;
                let golden = golden_run(dispatcher.as_ref(), &program, GOLDEN_MAX_CYCLES);
                if !matches!(golden.status, RunStatus::Completed { .. }) {
                    return Err(format!(
                        "golden run of {} on {} ended as {:?}",
                        self.bench.name(),
                        dispatcher.name(),
                        golden.status
                    ));
                }
                let desc =
                    structure_desc(dispatcher.as_ref(), self.structure).ok_or_else(|| {
                        format!("{} has no {}", dispatcher.name(), self.structure.name())
                    })?;
                Ok(Setup {
                    golden_cycles: golden.cycles_measured(),
                    dispatcher,
                    program,
                    desc,
                })
            })
            .collect()
    }

    /// The masks of one repetition on one setup.
    pub fn masks(&self, setup: &Setup, seed: u64) -> Vec<InjectionSpec> {
        let mut gen = MaskGenerator::new(seed);
        if self.mixed {
            gen.mixed_scenarios(&setup.desc, setup.golden_cycles, self.masks)
        } else {
            gen.transient(&setup.desc, setup.golden_cycles, self.masks)
        }
    }

    /// Runs the timed cell on one setup. Journal and trace files go to
    /// `dir`.
    ///
    /// # Errors
    ///
    /// Fails when a sink file cannot be written or the collapse profile
    /// cannot be built.
    pub fn run_cell(
        &self,
        setup: &Setup,
        masks: &[InjectionSpec],
        seed: u64,
        obs: Observe<'_>,
        dir: &Path,
    ) -> Result<Cell, String> {
        let spans = obs.spans;
        let name = setup.dispatcher.name();
        let journal_path = dir.join(format!("{}-{name}.journal", self.name));
        let trace_path = dir.join(format!("{}-{name}.traces", self.name));
        let io = |e: difi::util::Error| e.to_string();
        let journal = if self.journal {
            let sink = JournalSink::create(&journal_path).map_err(io)?;
            Some(Timed::new(sink, "sink.journal", spans))
        } else {
            None
        };
        let trace = if self.traced {
            let sink = TraceSink::create(&trace_path).map_err(io)?;
            Some(Timed::new(sink, "sink.trace", spans))
        } else {
            None
        };
        let tally = Tally::new(masks.len());
        let mut sinks: Vec<&dyn RunSink> = vec![&tally];
        if let Some(j) = &journal {
            sinks.push(j);
        }
        if let Some(t) = &trace {
            sinks.push(t);
        }
        let probe = Probe::new(setup.dispatcher.as_ref(), spans);
        let cfg = CampaignConfig {
            threads: self.threads,
            early_stop: true,
            golden_max_cycles: GOLDEN_MAX_CYCLES,
        };

        host::reset_peak_heap();
        let t0 = Instant::now();
        let cell_span = spans.map(|s| s.enter("cell", None));
        let profile = match self.shape {
            Shape::Collapsed => {
                let residency = probe
                    .golden_residency(&setup.program, &[self.structure], GOLDEN_MAX_CYCLES)
                    .pop()
                    .ok_or("no residency trace for the collapsed structure")?;
                let profile = timed(spans, "ace.profile", None, || AceProfile::new(residency));
                Some(profile.ok_or("the residency trace yields no ACE profile")?)
            }
            _ => None,
        };
        // `profile` is set exactly for collapsed workloads.
        let strategy = match (&profile, self.shape) {
            (Some(profile), _) => Strategy::Collapsed {
                profile,
                checkpoints: CHECKPOINTS,
            },
            (None, Shape::Checkpointed) => Strategy::Checkpointed {
                checkpoints: CHECKPOINTS,
            },
            (None, _) => Strategy::Cold,
        };
        let log = {
            let mut runner =
                CampaignRunner::new(&probe, &setup.program, self.structure, seed, &cfg)
                    .with_strategy(strategy)
                    .with_tracing(self.traced && !obs.untraced);
            if self.traced {
                runner = runner.with_metrics(Arc::new(MetricsRegistry::new()));
            }
            let _runner = spans.map(|s| s.enter_ambient("runner"));
            runner.run_with_sinks(masks, &sinks)
        };
        if let Some(j) = &journal {
            j.time(JournalSink::finish).map_err(io)?;
        }
        if let Some(t) = &trace {
            t.time(TraceSink::finish).map_err(io)?;
        }
        drop(cell_span);
        let wall = t0.elapsed();
        let peak_heap_mb = host::peak_heap_mb();

        let setup_time = probe
            .first_dispatch()
            .map_or(wall, |t| t.saturating_duration_since(t0));
        let mut failed = tally.faults() + lost_or_panicked(&log, masks);
        let mut journal_bytes = 0;
        if journal.is_some() {
            let (lines, bytes) = count_lines(&journal_path).map_err(|e| e.to_string())?;
            failed += lines.abs_diff(masks.len() as u64 + 1);
            journal_bytes = bytes;
        }
        let counters = Counters {
            calls: probe.calls.load(Ordering::Relaxed),
            warm_calls: probe.warm_calls.load(Ordering::Relaxed),
            sim_cycles: probe.sim_cycles.load(Ordering::Relaxed),
            golden_cycles: probe.golden_cycles.load(Ordering::Relaxed),
            snapshots: probe.snapshots.load(Ordering::Relaxed),
        };
        Ok(Cell {
            log,
            wall,
            setup: setup_time,
            peak_heap_mb,
            profile,
            journal_bytes,
            failed,
            counters,
        })
    }
}

/// Lines and bytes of a file, read in blocks.
fn count_lines(path: &Path) -> std::io::Result<(u64, u64)> {
    use std::io::Read;
    let mut file = std::fs::File::open(path)?;
    let mut buf = vec![0u8; 1 << 16];
    let (mut lines, mut bytes) = (0u64, 0u64);
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            return Ok((lines, bytes));
        }
        lines += buf[..n].iter().filter(|&&b| b == b'\n').count() as u64;
        bytes += n as u64;
    }
}

/// Masks missing from or out of place in the log, plus runs that ended in
/// a host panic (which the runner logs as a simulator crash).
fn lost_or_panicked(log: &CampaignLog, masks: &[InjectionSpec]) -> u64 {
    let missing = masks.len().abs_diff(log.runs.len()) as u64;
    let misplaced = log
        .runs
        .iter()
        .zip(masks)
        .filter(|(run, mask)| run.spec != **mask)
        .count() as u64;
    let panicked = log
        .runs
        .iter()
        .filter(|run| {
            matches!(&run.result.status, RunStatus::SimulatorCrash(m) if m.starts_with("worker panic"))
        })
        .count() as u64;
    missing + misplaced + panicked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::benchmark_json;
    use difi::util::json::Json;

    #[test]
    fn benchmark_json_lists_these_workloads() {
        let doc = benchmark_json();
        let listed: Vec<(&str, &str)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Json::as_str).expect("field");
                (s("name"), s("why"))
            })
            .collect();
        let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn repetitions_draw_distinct_masks_from_one_seed() {
        assert_eq!(rep_seed(2015, 0), 2015);
        assert_ne!(rep_seed(2015, 1), rep_seed(2015, 2));
        assert_eq!(rep_seed(2015, 3), rep_seed(2015, 3));
    }
}
