//! The Injection Campaign Controller.
//!
//! "Provided the masks repository, the actual fault injection campaign can
//! begin. The *Injection Campaign Controller* reads the masks from the
//! repository and sends injection requests to the *Injector Dispatcher* …
//! The last task … is to store the results of the injection in a logs
//! repository." (§III.B, Fig. 1)
//!
//! One execution core serves every campaign shape: [`CampaignRunner`] owns
//! the golden (fault-free) reference run, the paper's 3×-golden timeout,
//! the worker pool, and per-run panic isolation exactly once, and is
//! parameterized along two orthogonal axes:
//!
//! * **[`Strategy`]** — *how* each mask executes: [`Strategy::Cold`] boots
//!   a fresh simulator per run; [`Strategy::Checkpointed`] is the
//!   warm-start engine (a pool of golden cores shared across workers, each
//!   run forked from it at its injection cycle; byte-identical to cold by
//!   the warm-start equivalence oracle);
//!   [`Strategy::Collapsed`] partitions the mask space into
//!   provably-equivalent classes (`difi_ace::equivalence`), logs the
//!   provably-masked ones without dispatch, simulates one representative
//!   per remaining class, and replicates its result to the members — every
//!   run stamped with auditable [`ClassProvenance`].
//! * **[`RunSink`]s** — *where* completed runs stream: workers push each
//!   [`RunLog`] to every sink the moment it finishes, so campaigns persist
//!   incrementally ([`crate::sink::JournalSink`]) and report progress live
//!   ([`crate::sink::ProgressSink`]), while the runner collects them in
//!   mask order for the final [`CampaignLog`].
//!
//! Journaled campaigns are **restartable**: [`CampaignRunner::resume`]
//! reloads a journal (tolerating the torn tail line a crash leaves), skips
//! every completed mask, dispatches only the remainder, and returns a
//! [`CampaignLog`] byte-identical to an uninterrupted run.
//!
//! A panic escaping a dispatcher is confined to the run that raised it: the
//! run is logged as [`RunStatus::SimulatorCrash`] (the paper treats
//! simulator malfunction as a *class*, not a fatal error) and every other
//! result is kept.

use crate::classify::Classifier;
use crate::dispatch::{GoldenSnapshot, InjectorDispatcher};
use crate::journal::{load_journal, truncate_to_valid, CampaignHeader};
use crate::logs::{CampaignLog, RunLog};
use crate::masks::{partition_equivalence, MaskPartition};
use crate::model::{
    ClassProvenance, EarlyStop, InjectionSpec, ProofKind, RawRunResult, RunLimits, RunStatus,
};
use crate::sink::{JournalSink, MemorySink, MetricsSink, RunSink};
use difi_ace::AceProfile;
use difi_isa::program::Program;
use difi_obs::metrics::{MetricsRegistry, MetricsSnapshot};
use difi_obs::trace::{FaultTrace, TraceEvent, TraceEventKind};
use difi_uarch::fault::StructureId;
use difi_uarch::ProfileCounters;
use difi_util::{Error, Result};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Campaign-level options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Worker threads (0 → one per available CPU).
    pub threads: usize,
    /// Enable the §III.B.2 early-stop optimizations.
    pub early_stop: bool,
    /// Cycle ceiling for the golden run.
    pub golden_max_cycles: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            threads: 0,
            early_stop: true,
            golden_max_cycles: 200_000_000,
        }
    }
}

/// How the runner executes each dispatched mask.
#[derive(Debug, Clone, Copy)]
pub enum Strategy<'a> {
    /// Every mask cold-starts a fresh simulator.
    Cold,
    /// The warm-start engine: one pool of golden cores, captured at boot
    /// ([`InjectorDispatcher::golden_snapshots`] at cycle 0), one core per
    /// worker. Runs go in injection-cycle order, and each forks the golden
    /// run at its injection cycle: it advances the latest pooled core at or
    /// before that cycle, so the golden prefix is simulated about once per
    /// worker. Byte-identical to [`Strategy::Cold`] — the fault-free prefix
    /// is deterministic.
    Checkpointed {
        /// Upper bound on the golden cores held in memory: the pool holds
        /// min(K, workers) of them, and K = 0 runs cold.
        checkpoints: usize,
    },
    /// Fault-equivalence collapsing ([`partition_equivalence`]). Dead
    /// classes — the masks the static ACE analysis proves masked — are
    /// logged as [`EarlyStop::StaticallyPruned`] without dispatch and carry
    /// no measurements ([`RawRunResult::unexecuted`]: they never executed,
    /// so a fabricated `cycles: 0` would poison cycle aggregates). Each
    /// latch class dispatches only its representative, whose
    /// classification-relevant result fields replicate to the members;
    /// singletons run normally. Every run — representative, member, or dead
    /// — carries its [`ClassProvenance`] in the log and journal, so resume
    /// and audit work unchanged. Per-mask classifications are identical to
    /// a full campaign (the `tests/collapse_equivalence.rs` oracle).
    Collapsed {
        /// Golden-run residency profile to partition against.
        profile: &'a AceProfile,
        /// Upper bound on the pooled golden cores that warm-start the
        /// dispatched representatives (0 = cold representatives), composing
        /// the collapse with the [`Strategy::Checkpointed`] warm-start engine.
        checkpoints: usize,
    },
}

/// Runs the golden (fault-free) reference for `program` on `dispatcher`.
pub fn golden_run(
    dispatcher: &dyn InjectorDispatcher,
    program: &Program,
    max_cycles: u64,
) -> RawRunResult {
    let spec = InjectionSpec::fault_free(u64::MAX);
    dispatcher.run(program, &spec, &RunLimits::golden(max_cycles))
}

/// The result of the golden step ([`CampaignRunner::golden`]): the golden
/// run and, when tracing, its recorded per-commit signature.
type Golden = (RawRunResult, Option<Arc<Vec<u64>>>);

/// Invokes `runner` on one mask, converting a panic into a
/// [`RunStatus::SimulatorCrash`] result so one malfunctioning run cannot
/// abort the campaign and discard the completed results.
type DispatchedRun = (RawRunResult, Option<FaultTrace>, Option<ProfileCounters>);

fn run_caught(
    runner: &(dyn Fn(&InjectionSpec) -> DispatchedRun + Sync),
    spec: &InjectionSpec,
) -> DispatchedRun {
    match catch_unwind(AssertUnwindSafe(|| runner(spec))) {
        Ok(result) => result,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            (
                RawRunResult::unexecuted(RunStatus::SimulatorCrash(format!("worker panic: {msg}"))),
                None,
                None,
            )
        }
    }
}

/// The result a collapsed-class member inherits from its representative.
///
/// Classification inputs — status, output bytes, exception count, fault
/// consumption — are copied verbatim: the equivalence proof says the
/// member's own run would produce exactly these. Per-run measurements
/// (cycles, instructions) stay `None`: the member never executed, and
/// fabricated timings would poison cycle aggregates (the same rule
/// [`RawRunResult::unexecuted`] applies to dead-class runs).
fn replicate_result(rep: &RawRunResult) -> RawRunResult {
    RawRunResult {
        status: rep.status.clone(),
        output: rep.output.clone(),
        exceptions: rep.exceptions,
        cycles: None,
        instructions: None,
        fault_consumed: rep.fault_consumed,
    }
}

/// The unified campaign execution core.
///
/// Owns one campaign cell — `(dispatcher, program, structure, seed)` plus a
/// [`CampaignConfig`] — and executes any masks repository through any
/// [`Strategy`], streaming completed runs to any set of [`RunSink`]s. See
/// the module docs for the architecture; see
/// `tests/resume_equivalence.rs` for the crash-resume oracle.
pub struct CampaignRunner<'a> {
    dispatcher: &'a dyn InjectorDispatcher,
    program: &'a Program,
    structure: StructureId,
    seed: u64,
    cfg: CampaignConfig,
    strategy: Strategy<'a>,
    trace: bool,
    profile: bool,
    metrics: Option<Arc<MetricsRegistry>>,
    golden_profile: Mutex<Option<ProfileCounters>>,
}

impl<'a> CampaignRunner<'a> {
    /// A runner over one campaign cell, defaulting to [`Strategy::Cold`].
    pub fn new(
        dispatcher: &'a dyn InjectorDispatcher,
        program: &'a Program,
        structure: StructureId,
        seed: u64,
        cfg: &CampaignConfig,
    ) -> CampaignRunner<'a> {
        CampaignRunner {
            dispatcher,
            program,
            structure,
            seed,
            cfg: *cfg,
            strategy: Strategy::Cold,
            trace: false,
            profile: false,
            metrics: None,
            golden_profile: Mutex::new(None),
        }
    }

    /// Selects the execution strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: Strategy<'a>) -> CampaignRunner<'a> {
        self.strategy = strategy;
        self
    }

    /// Enables fault-lifecycle tracing: the golden run records the
    /// per-commit architectural signature, every dispatched run executes
    /// through the traced dispatcher paths, and each resulting
    /// [`FaultTrace`] — with the final [`TraceEventKind::Classified`] event
    /// appended — streams to every sink's [`RunSink::on_trace`]. Tracing is
    /// observation-only: run results are byte-identical to an untraced
    /// campaign.
    #[must_use]
    pub fn with_tracing(mut self, trace: bool) -> CampaignRunner<'a> {
        self.trace = trace;
        self
    }

    /// Enables the pipeline stall/occupancy profiler: the golden run and
    /// every dispatched run execute through the profiled dispatcher paths,
    /// and each resulting [`ProfileCounters`] block streams to every sink's
    /// [`RunSink::on_profile`]. Profiling is observation-only: run results
    /// are byte-identical to an unprofiled campaign, and counters are
    /// byte-identical across cold, checkpointed, and collapsed strategies
    /// (the `tests/profiler_determinism.rs` oracle). When tracing is also
    /// enabled, tracing wins and profiling is skipped — each dispatched run
    /// travels exactly one instrumented path.
    #[must_use]
    pub fn with_profiling(mut self, profile: bool) -> CampaignRunner<'a> {
        self.profile = profile;
        self
    }

    /// The golden run's profile counters from the most recent campaign
    /// executed by this runner: `None` before any run, when profiling is
    /// off (or pre-empted by tracing), or when the dispatcher opts out of
    /// the profiled paths.
    pub fn golden_profile(&self) -> Option<ProfileCounters> {
        *self.golden_profile.lock().expect("golden profile lock")
    }

    /// Attaches a metrics registry. The runner folds every run into
    /// `registry` ahead of user sinks (so later sinks read fresh
    /// counters), stamps the per-phase wall-clock gauges
    /// (`phase.golden_ns`, `phase.snapshots_ns`, `phase.injection_ns`,
    /// `phase.classify_ns`), and tallies final `campaign.class.*` counters.
    #[must_use]
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> CampaignRunner<'a> {
        self.metrics = Some(registry);
        self
    }

    /// Runs the full campaign in memory (no extra sinks).
    ///
    /// # Panics
    ///
    /// Panics if the golden run does not complete — an injector/benchmark
    /// pair that cannot run fault-free cannot be studied.
    pub fn run(&self, masks: &[InjectionSpec]) -> CampaignLog {
        self.run_with_sinks(masks, &[])
    }

    /// Runs the full campaign, streaming each completed run to `sinks`.
    ///
    /// # Panics
    ///
    /// Panics if the golden run does not complete (see
    /// [`CampaignRunner::run`]).
    pub fn run_with_sinks(&self, masks: &[InjectionSpec], sinks: &[&dyn RunSink]) -> CampaignLog {
        self.execute(self.golden(), masks, Vec::new(), sinks)
    }

    /// Runs the full campaign with an append-only JSONL journal at `path`
    /// (plus any extra `sinks`). The journal makes the campaign
    /// crash-resumable via [`CampaignRunner::resume`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the journal cannot be created or written.
    ///
    /// # Panics
    ///
    /// Panics if the golden run does not complete (see
    /// [`CampaignRunner::run`]).
    pub fn run_journaled(
        &self,
        masks: &[InjectionSpec],
        path: &Path,
        sinks: &[&dyn RunSink],
    ) -> Result<CampaignLog> {
        let journal = JournalSink::create(path)?;
        let mut all: Vec<&dyn RunSink> = sinks.to_vec();
        all.push(&journal);
        let log = self.execute(self.golden(), masks, Vec::new(), &all);
        journal.finish()?;
        Ok(log)
    }

    /// Resumes an interrupted journaled campaign: reloads the journal at
    /// `path`, skips every mask it already records, dispatches only the
    /// remainder (appending to the same journal), and returns a
    /// [`CampaignLog`] **byte-identical** to an uninterrupted
    /// [`CampaignRunner::run_journaled`] of the same cell.
    ///
    /// A torn tail line (crash mid-append) is dropped with a warning and
    /// its run re-dispatched. An empty or headerless journal resumes from
    /// scratch. The journal header must match this runner's campaign cell
    /// and masks repository — resuming against the wrong masks is an error,
    /// not a silent divergence; the recomputed golden run must also match
    /// the journaled one (a differing simulator configuration would
    /// invalidate every reloaded result). All of this is checked before the
    /// journal is truncated or appended to, so a rejected journal stays
    /// byte-identical and only the golden run is dispatched.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] for mid-journal corruption or a journal
    /// that does not match this campaign, [`Error::Config`] when the golden
    /// run differs, [`Error::Io`] on file failure.
    ///
    /// # Panics
    ///
    /// Panics if the golden run does not complete (see
    /// [`CampaignRunner::run`]).
    pub fn resume(
        &self,
        masks: &[InjectionSpec],
        path: &Path,
        sinks: &[&dyn RunSink],
    ) -> Result<CampaignLog> {
        let contents = load_journal(path)?;
        if let Some(h) = &contents.header {
            self.check_header(h, masks)?;
        }
        for (i, log) in &contents.runs {
            if *i >= masks.len() {
                return Err(Error::Parse(format!(
                    "journal records run {i} but the campaign has {} masks",
                    masks.len()
                )));
            }
            if log.spec != masks[*i] {
                return Err(Error::Parse(format!(
                    "journal run {i} was produced by a different mask (id {}) than the \
                     repository's (id {})",
                    log.spec.id, masks[*i].id
                )));
            }
        }
        let (golden, signature) = self.golden();
        if contents.header.as_ref().is_some_and(|h| h.golden != golden) {
            return Err(Error::Config(format!(
                "journal golden run differs from the recomputed one for {}/{} — the simulator \
                 configuration changed between sessions, so the journaled results are not \
                 comparable",
                self.dispatcher.name(),
                self.program.name
            )));
        }

        if let Some(reason) = &contents.dropped_tail {
            eprintln!(
                "warning: dropping torn tail of {} ({reason}); its run will be re-dispatched",
                path.display()
            );
        }
        if contents.header.is_none() || contents.dropped_tail.is_some() {
            // Without a header (empty file or torn header) resume starts over.
            let keep = contents.header.as_ref().map_or(0, |_| contents.valid_len);
            truncate_to_valid(path, keep)?;
        }
        let journal = JournalSink::append_to(path)?;
        let mut all: Vec<&dyn RunSink> = sinks.to_vec();
        all.push(&journal);
        let log = self.execute((golden, signature), masks, contents.runs, &all);
        journal.finish()?;
        Ok(log)
    }

    /// Validates a reloaded journal header against this runner's cell.
    fn check_header(&self, h: &CampaignHeader, masks: &[InjectionSpec]) -> Result<()> {
        let expect = |field: &str, got: &str, want: &str| -> Result<()> {
            if got == want {
                Ok(())
            } else {
                Err(Error::Parse(format!(
                    "journal {field} is '{got}' but this campaign is '{want}'"
                )))
            }
        };
        expect("injector", &h.injector, self.dispatcher.name())?;
        expect("benchmark", &h.benchmark, &self.program.name)?;
        expect("structure", &h.structure, self.structure.name())?;
        if h.seed != self.seed {
            return Err(Error::Parse(format!(
                "journal seed is {} but this campaign uses {}",
                h.seed, self.seed
            )));
        }
        if h.masks != masks.len() as u64 {
            return Err(Error::Parse(format!(
                "journal has {} masks but the repository has {}",
                h.masks,
                masks.len()
            )));
        }
        Ok(())
    }

    /// The golden step: runs the golden reference, stores its profile (see
    /// [`CampaignRunner::golden_profile`]) and stamps the `phase.golden_ns`
    /// gauge. With tracing the golden run also records the per-commit
    /// architectural signature the tracer's divergence detection compares
    /// against — one run serves both purposes, so tracing never pays for a
    /// second golden execution. With profiling (and no tracing) it instead
    /// executes through the profiled dispatcher path, yielding the
    /// stall/occupancy baseline the differential report compares faulty
    /// runs against.
    fn golden(&self) -> Golden {
        let phase = Instant::now();
        let spec = InjectionSpec::fault_free(u64::MAX);
        let limits = RunLimits::golden(self.cfg.golden_max_cycles);
        let (golden, signature, profile) = if self.trace {
            let (g, sig) = self
                .dispatcher
                .golden_run_recording(self.program, &spec, &limits);
            (g, sig, None)
        } else if self.profile {
            let (g, prof) = self.dispatcher.run_profiled(self.program, &spec, &limits);
            (g, None, prof)
        } else {
            let g = self.dispatcher.run(self.program, &spec, &limits);
            (g, None, None)
        };
        assert!(
            matches!(golden.status, RunStatus::Completed { .. }),
            "golden run of {} on {} must complete, got {:?}",
            self.program.name,
            self.dispatcher.name(),
            golden.status
        );
        *self.golden_profile.lock().expect("golden profile lock") = profile;
        if let Some(m) = &self.metrics {
            m.gauge("phase.golden_ns")
                .set(phase.elapsed().as_nanos() as u64);
        }
        (golden, signature)
    }

    /// The single execution core behind every entry point: strategy
    /// preprocessing after the golden step, the worker pool, and sink
    /// delivery.
    fn execute(
        &self,
        (golden, golden_sig): Golden,
        masks: &[InjectionSpec],
        preloaded: Vec<(usize, RunLog)>,
        sinks: &[&dyn RunSink],
    ) -> CampaignLog {
        use std::sync::atomic::{AtomicUsize, Ordering};

        // Tracing and profiling are mutually exclusive per dispatched run;
        // when both are requested, tracing wins (see `with_profiling`).
        let profile_on = self.profile && !self.trace;
        let mut limits = RunLimits::campaign(golden.cycles_measured());
        limits.early_stop = self.cfg.early_stop;
        let threads = if self.cfg.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.cfg.threads
        };
        let header = CampaignHeader {
            injector: self.dispatcher.name().to_string(),
            benchmark: self.program.name.clone(),
            structure: self.structure.name().to_string(),
            seed: self.seed,
            golden: golden.clone(),
            masks: masks.len() as u64,
        };

        // With a registry configured, an internal MetricsSink runs ahead of
        // every user sink so that sinks reading the registry always see the
        // counters already updated for the run being delivered. On the
        // parallel path each worker instead feeds a private registry, and
        // the per-worker snapshots merge into the shared one after the pool
        // drains — the merge operators are commutative, so the totals are
        // independent of how the masks were split across workers (the
        // `tests/snapshot_merge.rs` oracle).
        let metrics_sink = self
            .metrics
            .as_ref()
            .map(|m| MetricsSink::new(Arc::clone(m)));

        // The in-memory collector assembles the final ordered log; extra
        // sinks observe. Journal-preloaded runs feed the collector only —
        // they are already persisted and were already observed in the
        // session that produced them.
        let collector = MemorySink::default();
        collector.on_start(&header);
        if let Some(ms) = &metrics_sink {
            ms.on_start(&header);
        }
        for s in sinks {
            s.on_start(&header);
        }

        // Delivery of one completed run: metrics first (so later sinks read
        // fresh counters), then the collector and every user sink, then the
        // run's profile and trace attachments. Each trace gets the run's
        // final verdict appended as the Classified event before delivery,
        // closing the fault lifecycle. `ms` is the destination registry
        // bridge: the shared sink on the main thread, a worker-private one
        // inside the pool.
        let classifier = self.trace.then(|| Classifier::from_golden(&golden));
        let deliver = |ms: Option<&MetricsSink>,
                       i: usize,
                       log: &RunLog,
                       trace: Option<FaultTrace>,
                       prof: Option<ProfileCounters>| {
            if let Some(ms) = ms {
                ms.on_run(i, log);
            }
            collector.on_run(i, log);
            for s in sinks {
                s.on_run(i, log);
            }
            if let Some(p) = prof {
                if let Some(ms) = ms {
                    ms.on_profile(i, &p);
                }
                for s in sinks {
                    s.on_profile(i, &p);
                }
            }
            if let Some(mut t) = trace {
                if let Some(c) = &classifier {
                    let cycle = log
                        .result
                        .cycles
                        .unwrap_or_else(|| t.events.last().map_or(0, |e| e.cycle));
                    t.events.push(TraceEvent {
                        cycle,
                        kind: TraceEventKind::Classified,
                        detail: c.classify(&log.result).name().to_string(),
                    });
                }
                if let Some(ms) = ms {
                    ms.on_trace(i, &t);
                }
                for s in sinks {
                    s.on_trace(i, &t);
                }
            }
        };

        let collapsed = matches!(self.strategy, Strategy::Collapsed { .. });
        let mut done = vec![false; masks.len()];
        let mut prior: Vec<Option<RawRunResult>> = vec![None; masks.len()];
        for (i, log) in preloaded {
            if collapsed {
                // Collapsed resume may need a preloaded representative's
                // result to replicate to its not-yet-journaled members.
                prior[i] = Some(log.result.clone());
            }
            collector.on_run(i, &log);
            done[i] = true;
        }

        // Strategy preprocessing: fault-equivalence collapsing. Dead
        // classes resolve without dispatch (and stream to sinks like any
        // completed run); every run carries its class provenance. A
        // latch/singleton class with a journaled member
        // replicates from it without dispatch; the rest become
        // (representative, members-to-replicate) jobs, so the journal
        // always records a class's evidence before its dependents — a torn
        // tail can orphan at most the line being written.
        let partition: Option<MaskPartition> = match self.strategy {
            Strategy::Collapsed { profile, .. } => Some(partition_equivalence(masks, profile)),
            _ => None,
        };
        let provenance: Vec<Option<ClassProvenance>> = match &partition {
            Some(part) => part.provenance(masks).into_iter().map(Some).collect(),
            None => vec![None; masks.len()],
        };
        let mut jobs: Vec<(usize, Vec<usize>)> = Vec::new();
        if let Some(part) = &partition {
            let mut dead_masks = 0u64;
            let mut replicated = 0u64;
            for class in &part.classes {
                match class.proof {
                    ProofKind::DeadInterval => {
                        for &i in &class.members {
                            if done[i] {
                                continue;
                            }
                            let log = RunLog {
                                spec: masks[i].clone(),
                                result: RawRunResult::unexecuted(RunStatus::EarlyStopMasked(
                                    EarlyStop::StaticallyPruned,
                                )),
                                provenance: provenance[i],
                            };
                            deliver(metrics_sink.as_ref(), i, &log, None, None);
                            done[i] = true;
                            dead_masks += 1;
                        }
                    }
                    ProofKind::LatchInterval | ProofKind::Singleton => {
                        let todo_members: Vec<usize> = class
                            .members
                            .iter()
                            .copied()
                            .filter(|&i| !done[i])
                            .collect();
                        if todo_members.is_empty() {
                            continue;
                        }
                        if let Some(&src) = class.members.iter().find(|&&i| done[i]) {
                            // The journal already holds this class's result
                            // (the representative, or a member replicated
                            // from it — either carries the same
                            // classification fields).
                            let src_result = prior[src].clone().expect("preloaded result recorded");
                            for &i in &todo_members {
                                let log = RunLog {
                                    spec: masks[i].clone(),
                                    result: replicate_result(&src_result),
                                    provenance: provenance[i],
                                };
                                deliver(metrics_sink.as_ref(), i, &log, None, None);
                                done[i] = true;
                                replicated += 1;
                            }
                        } else {
                            jobs.push((todo_members[0], todo_members[1..].to_vec()));
                        }
                    }
                }
            }
            if let Some(m) = &self.metrics {
                m.counter("campaign.collapse.masks").add(masks.len() as u64);
                m.counter("campaign.collapse.classes")
                    .add(part.class_count() as u64);
                m.counter("campaign.collapse.classes.dead")
                    .add(part.classes_with(ProofKind::DeadInterval) as u64);
                m.counter("campaign.collapse.classes.latch")
                    .add(part.classes_with(ProofKind::LatchInterval) as u64);
                m.counter("campaign.collapse.classes.singleton")
                    .add(part.classes_with(ProofKind::Singleton) as u64);
                m.counter("campaign.collapse.dead_masks").add(dead_masks);
                m.counter("campaign.collapse.replicated")
                    .add(replicated + jobs.iter().map(|(_, ms)| ms.len() as u64).sum::<u64>());
                m.counter("campaign.collapse.dispatched")
                    .add(jobs.len() as u64);
                m.gauge("campaign.collapse.ratio_permille")
                    .set_ratio_permille(part.mask_count() as u64, part.class_count() as u64);
            }
        }

        // Dispatch units: (mask index, class members to replicate to).
        // Non-collapsed strategies dispatch every remaining mask on its own.
        if partition.is_none() {
            jobs = (0..masks.len())
                .filter(|&i| !done[i])
                .map(|i| (i, Vec::new()))
                .collect();
        }
        let checkpoints = match self.strategy {
            Strategy::Cold => 0,
            Strategy::Checkpointed { checkpoints } | Strategy::Collapsed { checkpoints, .. } => {
                checkpoints
            }
        };
        // Strategy preprocessing: the warm-start engine serves runs in
        // injection-cycle order, so each run forks the golden run a little
        // past where the previous one forked it.
        if checkpoints > 0 {
            jobs.sort_by_key(|&(i, _)| masks[i].warm_start_cycle().unwrap_or(u64::MAX));
        }
        let jobs = jobs;
        let workers = if jobs.len() < 2 {
            1
        } else {
            threads.min(jobs.len())
        };

        // The fork pool: min(K, workers) golden cores captured at boot, so
        // capture simulates nothing. The pooled cores move forward along
        // the sorted jobs, and the golden prefix is simulated about once
        // per worker. No capture at all when no job can fork.
        let phase = Instant::now();
        let forks = jobs
            .iter()
            .any(|&(i, _)| masks[i].warm_start_cycle().is_some());
        let snaps: Vec<GoldenSnapshot> = if checkpoints > 0 && forks {
            let at_cycles = vec![0; checkpoints.min(workers)];
            if profile_on {
                // Profiled warm starts need snapshots that carry their
                // profiled-prefix counters; a dispatcher without them
                // falls back to cold profiled runs (empty snapshot set)
                // rather than mixing unprofiled snapshots into profiled
                // resumes, which would undercount every warm-started
                // run's prefix.
                self.dispatcher
                    .golden_snapshots_profiled(self.program, &at_cycles, &limits)
                    .unwrap_or_default()
            } else {
                self.dispatcher
                    .golden_snapshots(self.program, &at_cycles, &limits)
                    .unwrap_or_default()
            }
        } else {
            Vec::new()
        };
        if let Some(m) = &self.metrics {
            m.gauge("phase.snapshots_ns")
                .set(phase.elapsed().as_nanos() as u64);
        }

        // One runner closure serves every strategy: with no snapshots
        // captured (cold / unsupported dispatcher) every mask
        // falls back to the always-correct cold path. With tracing on, the
        // traced dispatcher paths carry the event stream alongside the
        // (byte-identical) result.
        let dispatcher = self.dispatcher;
        let program = self.program;
        let trace_on = self.trace;
        let runner = move |spec: &InjectionSpec| -> DispatchedRun {
            // The snapshots of one capture share one pool, so any of them
            // serves any cycle-scheduled run.
            let snap = snaps.first().filter(|_| spec.warm_start_cycle().is_some());
            if trace_on {
                let sig = golden_sig.as_ref();
                let (result, trace) = match snap {
                    Some(s) => dispatcher.run_from_traced(s, program, spec, &limits, sig),
                    None => dispatcher.run_traced(program, spec, &limits, sig),
                };
                (result, trace, None)
            } else if profile_on {
                let (result, prof) = match snap {
                    Some(s) => dispatcher.run_from_profiled(s, program, spec, &limits),
                    None => dispatcher.run_profiled(program, spec, &limits),
                };
                (result, None, prof)
            } else {
                let result = match snap {
                    Some(s) => dispatcher.run_from(s, program, spec, &limits),
                    None => dispatcher.run(program, spec, &limits),
                };
                (result, None, None)
            }
        };

        // One job = one simulator dispatch plus (for collapsed latch
        // classes) the replication of its result to the class members.
        // Replication happens in the same worker, after the
        // representative's own delivery, so the journal records the class
        // evidence before any line that depends on it. Members never
        // execute, so they carry no profile counters.
        let run_job = |job: &(usize, Vec<usize>), ms: Option<&MetricsSink>| {
            let (rep, members) = job;
            let i = *rep;
            let (result, trace, prof) = run_caught(&runner, &masks[i]);
            let log = RunLog {
                spec: masks[i].clone(),
                result,
                provenance: provenance[i],
            };
            deliver(ms, i, &log, trace, prof);
            for &j in members {
                let member_log = RunLog {
                    spec: masks[j].clone(),
                    result: replicate_result(&log.result),
                    provenance: provenance[j],
                };
                deliver(ms, j, &member_log, None, None);
            }
        };

        let phase = Instant::now();
        if workers <= 1 {
            for job in &jobs {
                run_job(job, metrics_sink.as_ref());
            }
        } else {
            // Work-stealing by atomic index: each worker claims the next
            // unclaimed position in the (strategy-ordered) dispatch list.
            // Each worker folds its runs into a private registry; the
            // snapshots merge below, so campaign totals are independent of
            // which worker claimed which mask.
            let next = AtomicUsize::new(0);
            let worker_snaps: Mutex<Vec<MetricsSnapshot>> = Mutex::new(Vec::new());
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| {
                        let local = self
                            .metrics
                            .as_ref()
                            .map(|_| Arc::new(MetricsRegistry::new()));
                        let local_sink = local.as_ref().map(|r| MetricsSink::new(Arc::clone(r)));
                        loop {
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            if k >= jobs.len() {
                                break;
                            }
                            run_job(&jobs[k], local_sink.as_ref());
                        }
                        if let Some(r) = &local {
                            worker_snaps
                                .lock()
                                .expect("worker snapshots lock")
                                .push(r.snapshot_typed());
                        }
                    });
                }
            });
            // Merge order is completion order, but the snapshot merge is
            // commutative and associative, so the absorbed totals equal a
            // single-threaded campaign's exactly.
            if let Some(m) = &self.metrics {
                let mut merged = MetricsSnapshot::new();
                for s in worker_snaps.lock().expect("worker snapshots lock").iter() {
                    merged.merge(s);
                }
                m.absorb(&merged);
            }
        }
        if let Some(m) = &self.metrics {
            m.gauge("phase.injection_ns")
                .set(phase.elapsed().as_nanos() as u64);
        }

        collector.on_end();
        if let Some(ms) = &metrics_sink {
            ms.on_end();
        }
        for s in sinks {
            s.on_end();
        }

        let log = CampaignLog {
            injector: header.injector,
            benchmark: header.benchmark,
            structure: header.structure,
            seed: self.seed,
            golden,
            runs: collector.into_runs(),
        };

        // The classify phase: final per-class tallies over the complete
        // ordered log (including journal-preloaded runs, which sinks never
        // re-observe but the verdict totals must count).
        if let Some(m) = &self.metrics {
            let phase = Instant::now();
            let c = Classifier::from_golden(&log.golden);
            for r in &log.runs {
                m.counter(&format!("campaign.class.{}", c.classify(&r.result).name()))
                    .inc();
            }
            m.gauge("phase.classify_ns")
                .set(phase.elapsed().as_nanos() as u64);
        }
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{RawRunResult, RunStatus};
    use difi_isa::program::{Isa, MemoryMap};
    use difi_uarch::fault::StructureDesc;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A deterministic fake dispatcher for controller tests.
    struct FakeDispatcher {
        calls: AtomicU64,
    }

    impl FakeDispatcher {
        fn new() -> FakeDispatcher {
            FakeDispatcher {
                calls: AtomicU64::new(0),
            }
        }
    }

    impl InjectorDispatcher for FakeDispatcher {
        fn name(&self) -> &str {
            "Fake-x86"
        }

        fn isa(&self) -> Isa {
            Isa::X86e
        }

        fn structures(&self) -> Vec<StructureDesc> {
            vec![StructureDesc {
                id: StructureId::IntRegFile,
                entries: 8,
                bits: 64,
            }]
        }

        fn run(
            &self,
            _program: &Program,
            spec: &InjectionSpec,
            _limits: &RunLimits,
        ) -> RawRunResult {
            self.calls.fetch_add(1, Ordering::SeqCst);
            let status = if spec.is_fault_free() {
                RunStatus::Completed { exit_code: 0 }
            } else if spec.id.is_multiple_of(3) {
                RunStatus::SimulatorAssert("x".into())
            } else {
                RunStatus::Completed { exit_code: 0 }
            };
            RawRunResult {
                status,
                output: b"out".to_vec(),
                exceptions: Some(0),
                cycles: Some(100),
                instructions: Some(50),
                fault_consumed: !spec.is_fault_free(),
            }
        }
    }

    /// Panics on every third faulty run — simulates a dispatcher bug.
    struct PanickingDispatcher {
        inner: FakeDispatcher,
    }

    impl InjectorDispatcher for PanickingDispatcher {
        fn name(&self) -> &str {
            "Panicky-x86"
        }

        fn isa(&self) -> Isa {
            Isa::X86e
        }

        fn structures(&self) -> Vec<StructureDesc> {
            self.inner.structures()
        }

        fn run(&self, program: &Program, spec: &InjectionSpec, limits: &RunLimits) -> RawRunResult {
            assert!(
                spec.is_fault_free() || !spec.id.is_multiple_of(3),
                "internal model state corrupt (mask {})",
                spec.id
            );
            self.inner.run(program, spec, limits)
        }
    }

    fn program() -> Program {
        Program {
            isa: Isa::X86e,
            code: vec![0x01],
            data: vec![],
            entry: MemoryMap::DEFAULT.code_base,
            map: MemoryMap::DEFAULT,
            name: "fake".into(),
        }
    }

    fn masks(n: u64) -> Vec<InjectionSpec> {
        (0..n)
            .map(|i| InjectionSpec::single_transient(i, StructureId::IntRegFile, 0, 0, i))
            .collect()
    }

    /// Mutable access to a bit-flip spec's fault list (test shorthand).
    fn faults_mut(s: &mut InjectionSpec) -> &mut Vec<crate::model::FaultRecord> {
        match &mut s.scenario {
            crate::model::ScenarioKind::BitFlips { faults } => faults,
            other => panic!("not a bit-flip spec: {other:?}"),
        }
    }

    fn temp_journal(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("difi_campaign_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    #[test]
    fn campaign_runs_every_mask_in_order() {
        let d = FakeDispatcher::new();
        let log = CampaignRunner::new(
            &d,
            &program(),
            StructureId::IntRegFile,
            9,
            &CampaignConfig {
                threads: 4,
                ..Default::default()
            },
        )
        .run(&masks(30));
        assert_eq!(log.runs.len(), 30);
        assert_eq!(d.calls.load(Ordering::SeqCst), 31, "30 masks + golden");
        // Results stay aligned with their masks.
        for (i, run) in log.runs.iter().enumerate() {
            assert_eq!(run.spec.id, i as u64);
            let expect_assert = run.spec.id % 3 == 0;
            assert_eq!(
                matches!(run.result.status, RunStatus::SimulatorAssert(_)),
                expect_assert
            );
        }
        assert_eq!(log.injector, "Fake-x86");
        assert_eq!(log.structure, "int_prf");
        assert_eq!(log.seed, 9);
    }

    #[test]
    fn single_threaded_path_matches() {
        let d = FakeDispatcher::new();
        let log = CampaignRunner::new(
            &d,
            &program(),
            StructureId::IntRegFile,
            0,
            &CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        )
        .run(&masks(5));
        assert_eq!(log.runs.len(), 5);
    }

    #[test]
    fn auto_parallelism_resolves_thread_count() {
        // threads == 0 must resolve to available parallelism and still run
        // every mask exactly once, aligned with its slot.
        let d = FakeDispatcher::new();
        let log = CampaignRunner::new(
            &d,
            &program(),
            StructureId::IntRegFile,
            3,
            &CampaignConfig {
                threads: 0,
                ..Default::default()
            },
        )
        .run(&masks(17));
        assert_eq!(log.runs.len(), 17);
        assert_eq!(d.calls.load(Ordering::SeqCst), 18, "17 masks + golden");
        for (i, run) in log.runs.iter().enumerate() {
            assert_eq!(run.spec.id, i as u64);
        }
    }

    #[test]
    fn short_mask_list_takes_sequential_fallback() {
        // masks.len() < 2 must run sequentially even with many threads.
        let d = FakeDispatcher::new();
        let log = CampaignRunner::new(
            &d,
            &program(),
            StructureId::IntRegFile,
            1,
            &CampaignConfig {
                threads: 8,
                ..Default::default()
            },
        )
        .run(&masks(1));
        assert_eq!(log.runs.len(), 1);
        assert_eq!(d.calls.load(Ordering::SeqCst), 2, "1 mask + golden");

        let d = FakeDispatcher::new();
        let log = CampaignRunner::new(
            &d,
            &program(),
            StructureId::IntRegFile,
            1,
            &CampaignConfig {
                threads: 8,
                ..Default::default()
            },
        )
        .run(&masks(0));
        assert!(log.runs.is_empty());
        assert_eq!(d.calls.load(Ordering::SeqCst), 1, "golden only");
    }

    #[test]
    fn panicking_run_is_logged_as_crash_and_loses_nothing() {
        let d = PanickingDispatcher {
            inner: FakeDispatcher::new(),
        };
        let log = CampaignRunner::new(
            &d,
            &program(),
            StructureId::IntRegFile,
            5,
            &CampaignConfig {
                threads: 4,
                ..Default::default()
            },
        )
        .run(&masks(30));
        // Zero results lost: every mask has a slot, in order.
        assert_eq!(log.runs.len(), 30);
        for (i, run) in log.runs.iter().enumerate() {
            assert_eq!(run.spec.id, i as u64);
            if run.spec.id % 3 == 0 {
                // The panicking runs become SimulatorCrash records with the
                // panic message preserved and no fabricated measurements.
                match &run.result.status {
                    RunStatus::SimulatorCrash(m) => {
                        assert!(m.contains("worker panic"), "got {m}");
                        assert!(m.contains("internal model state corrupt"), "got {m}");
                    }
                    other => panic!("mask {i}: expected SimulatorCrash, got {other:?}"),
                }
                assert!(!run.result.is_measured());
            } else {
                assert!(matches!(
                    run.result.status,
                    RunStatus::Completed { exit_code: 0 }
                ));
            }
        }
    }

    #[test]
    fn panicking_run_is_caught_on_the_sequential_path_too() {
        let d = PanickingDispatcher {
            inner: FakeDispatcher::new(),
        };
        let log = CampaignRunner::new(
            &d,
            &program(),
            StructureId::IntRegFile,
            5,
            &CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        )
        .run(&masks(4));
        assert_eq!(log.runs.len(), 4);
        assert!(matches!(
            log.runs[0].result.status,
            RunStatus::SimulatorCrash(_)
        ));
        assert!(matches!(
            log.runs[1].result.status,
            RunStatus::Completed { .. }
        ));
    }

    #[test]
    fn checkpointed_campaign_without_snapshot_support_matches_cold() {
        // FakeDispatcher keeps the default golden_snapshots (None): the
        // checkpointed strategy must fall back to cold starts and still
        // produce an identical log.
        let d = FakeDispatcher::new();
        let cfg = CampaignConfig {
            threads: 2,
            ..Default::default()
        };
        let cold =
            CampaignRunner::new(&d, &program(), StructureId::IntRegFile, 7, &cfg).run(&masks(12));
        let warm = CampaignRunner::new(&d, &program(), StructureId::IntRegFile, 7, &cfg)
            .with_strategy(Strategy::Checkpointed { checkpoints: 4 })
            .run(&masks(12));
        assert_eq!(cold, warm);
    }

    /// Records every snapshot request — profiled or not, and at which
    /// cycles — and serves no snapshots, so every run stays cold.
    struct SnapshotRecorder {
        inner: FakeDispatcher,
        requests: Mutex<Vec<(bool, Vec<u64>)>>,
    }

    impl SnapshotRecorder {
        fn record(&self, profiled: bool, at_cycles: &[u64]) -> Option<Vec<GoldenSnapshot>> {
            let mut requests = self.requests.lock().expect("requests lock");
            requests.push((profiled, at_cycles.to_vec()));
            None
        }
    }

    impl InjectorDispatcher for SnapshotRecorder {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn isa(&self) -> Isa {
            self.inner.isa()
        }

        fn structures(&self) -> Vec<StructureDesc> {
            self.inner.structures()
        }

        fn run(&self, program: &Program, spec: &InjectionSpec, limits: &RunLimits) -> RawRunResult {
            self.inner.run(program, spec, limits)
        }

        fn golden_snapshots(
            &self,
            _program: &Program,
            at_cycles: &[u64],
            _limits: &RunLimits,
        ) -> Option<Vec<GoldenSnapshot>> {
            self.record(false, at_cycles)
        }

        fn golden_snapshots_profiled(
            &self,
            _program: &Program,
            at_cycles: &[u64],
            _limits: &RunLimits,
        ) -> Option<Vec<GoldenSnapshot>> {
            self.record(true, at_cycles)
        }
    }

    #[test]
    fn the_fork_pool_is_captured_at_boot_with_one_core_per_worker() {
        use crate::model::{InjectTime, ScenarioKind};
        let p = program();
        let profile = collapse_profile();
        let requests = |masks: &[InjectionSpec], strategy, threads, profiled| {
            let d = SnapshotRecorder {
                inner: FakeDispatcher::new(),
                requests: Mutex::new(Vec::new()),
            };
            let cfg = CampaignConfig {
                threads,
                ..Default::default()
            };
            let log = CampaignRunner::new(&d, &p, StructureId::IntRegFile, 3, &cfg)
                .with_strategy(strategy)
                .with_profiling(profiled)
                .run(masks);
            assert_eq!(log.runs.len(), masks.len());
            d.requests.into_inner().expect("requests lock")
        };

        // Cycle-scheduled masks across the 100-cycle golden run: `masks(9)`
        // (one latch class when collapsed) and eight skips at cycles
        // 10..=80, which collapse into singletons.
        let mut forking = masks(9);
        forking.extend((1..=8).map(|k| InjectionSpec {
            id: 8 + k,
            scenario: ScenarioKind::InstructionSkip {
                at: InjectTime::Cycle(10 * k),
                count: 1,
            },
        }));
        for (threads, k, cores) in [(1, 8, 1), (4, 8, 4), (4, 2, 2)] {
            for strategy in [
                Strategy::Checkpointed { checkpoints: k },
                Strategy::Collapsed {
                    profile: &profile,
                    checkpoints: k,
                },
            ] {
                for profiled in [false, true] {
                    assert_eq!(
                        requests(&forking, strategy, threads, profiled),
                        vec![(profiled, vec![0; cores])],
                        "{strategy:?} on {threads} threads, profiled {profiled}"
                    );
                }
            }
        }

        // No job can fork: instruction-scheduled masks, or a collapsed cell
        // whose masks are all dead.
        let mut by_instruction = masks(6);
        for s in &mut by_instruction {
            faults_mut(s)[0].at = InjectTime::Instruction(10);
        }
        let all_dead: Vec<InjectionSpec> = masks(9)
            .into_iter()
            .filter(|s| !(3..6).contains(&s.id))
            .collect();
        for profiled in [false, true] {
            let checkpointed = Strategy::Checkpointed { checkpoints: 8 };
            assert!(requests(&by_instruction, checkpointed, 2, profiled).is_empty());
            let collapsed = Strategy::Collapsed {
                profile: &profile,
                checkpoints: 8,
            };
            assert!(requests(&all_dead, collapsed, 2, profiled).is_empty());
        }
    }

    #[test]
    fn profiling_without_dispatcher_support_matches_unprofiled_run() {
        // FakeDispatcher keeps the default run_profiled (opts out): the
        // profiled campaign must produce a log identical to a plain one,
        // deliver no counters, and record no golden profile.
        let p = program();
        let cfg = CampaignConfig {
            threads: 2,
            ..Default::default()
        };
        let d = FakeDispatcher::new();
        let plain = CampaignRunner::new(&d, &p, StructureId::IntRegFile, 7, &cfg).run(&masks(10));
        let d2 = FakeDispatcher::new();
        let runner =
            CampaignRunner::new(&d2, &p, StructureId::IntRegFile, 7, &cfg).with_profiling(true);
        let sink = crate::sink::MemoryProfileSink::new();
        let profiled = runner.run_with_sinks(&masks(10), &[&sink]);
        assert_eq!(plain, profiled);
        assert!(sink.into_profiles().is_empty(), "dispatcher opted out");
        assert_eq!(runner.golden_profile(), None);
    }

    #[test]
    fn golden_run_has_no_faults() {
        let d = FakeDispatcher::new();
        let g = golden_run(&d, &program(), 1000);
        assert!(matches!(g.status, RunStatus::Completed { .. }));
        assert!(!g.fault_consumed);
    }

    #[test]
    fn journaled_run_then_full_resume_skips_every_mask() {
        // Resuming a *complete* journal must dispatch zero injection runs
        // (golden only) and return the identical log.
        let path = temp_journal("complete.jsonl");
        let cfg = CampaignConfig {
            threads: 2,
            ..Default::default()
        };
        let p = program();
        let m = masks(10);

        let d = FakeDispatcher::new();
        let runner = CampaignRunner::new(&d, &p, StructureId::IntRegFile, 4, &cfg);
        let full = runner.run_journaled(&m, &path, &[]).expect("journaled run");
        assert_eq!(d.calls.load(Ordering::SeqCst), 11, "10 masks + golden");

        let d2 = FakeDispatcher::new();
        let runner2 = CampaignRunner::new(&d2, &p, StructureId::IntRegFile, 4, &cfg);
        let resumed = runner2.resume(&m, &path, &[]).expect("resume");
        assert_eq!(d2.calls.load(Ordering::SeqCst), 1, "golden only");
        assert_eq!(full, resumed);
        // Runs land by index, whatever the completion order.
        assert_eq!(CampaignLog::load(&path).expect("load"), full);

        // A saved log is a finished journal, so it resumes the same way.
        full.save(&path).expect("save");
        let d3 = FakeDispatcher::new();
        let runner3 = CampaignRunner::new(&d3, &p, StructureId::IntRegFile, 4, &cfg);
        let again = runner3.resume(&m, &path, &[]).expect("resume a saved log");
        assert_eq!(d3.calls.load(Ordering::SeqCst), 1, "golden only");
        assert_eq!(full, again);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_dispatches_only_the_remainder() {
        let path = temp_journal("partial.jsonl");
        let cfg = CampaignConfig {
            threads: 1,
            ..Default::default()
        };
        let p = program();
        let m = masks(8);

        let d = FakeDispatcher::new();
        let runner = CampaignRunner::new(&d, &p, StructureId::IntRegFile, 4, &cfg);
        let full = runner.run_journaled(&m, &path, &[]).expect("journaled run");
        // Saving the log writes the bytes of this one-thread cold journal.
        let saved = temp_journal("partial-saved.jsonl");
        full.save(&saved).expect("save");
        assert_eq!(std::fs::read(&saved).ok(), std::fs::read(&path).ok());
        std::fs::remove_file(&saved).ok();

        // Keep the header and the first 3 completed runs.
        let text = std::fs::read_to_string(&path).expect("read journal");
        let kept: String = text.lines().take(4).map(|l| format!("{l}\n")).collect();
        std::fs::write(&path, kept).expect("truncate journal");

        let d2 = FakeDispatcher::new();
        let runner2 = CampaignRunner::new(&d2, &p, StructureId::IntRegFile, 4, &cfg);
        let resumed = runner2.resume(&m, &path, &[]).expect("resume");
        assert_eq!(
            d2.calls.load(Ordering::SeqCst),
            6,
            "golden + the 5 not-yet-journaled masks"
        );
        assert_eq!(full, resumed);

        // The journal is now complete: a second resume dispatches nothing.
        let d3 = FakeDispatcher::new();
        let runner3 = CampaignRunner::new(&d3, &p, StructureId::IntRegFile, 4, &cfg);
        let again = runner3.resume(&m, &path, &[]).expect("second resume");
        assert_eq!(d3.calls.load(Ordering::SeqCst), 1, "golden only");
        assert_eq!(full, again);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_mismatched_campaigns() {
        let path = temp_journal("mismatch.jsonl");
        let cfg = CampaignConfig {
            threads: 1,
            ..Default::default()
        };
        let p = program();
        let m = masks(4);
        let d = FakeDispatcher::new();
        let runner = CampaignRunner::new(&d, &p, StructureId::IntRegFile, 4, &cfg);
        runner.run_journaled(&m, &path, &[]).expect("journaled run");

        // Wrong seed.
        let r = CampaignRunner::new(&d, &p, StructureId::IntRegFile, 5, &cfg);
        assert!(r.resume(&m, &path, &[]).is_err(), "seed mismatch accepted");

        // Wrong mask count.
        let r = CampaignRunner::new(&d, &p, StructureId::IntRegFile, 4, &cfg);
        assert!(
            r.resume(&masks(5), &path, &[]).is_err(),
            "mask-count mismatch accepted"
        );

        // Same shape but different mask content.
        let mut other = masks(4);
        faults_mut(&mut other[2])[0].bit = 63;
        let r = CampaignRunner::new(&d, &p, StructureId::IntRegFile, 4, &cfg);
        assert!(
            r.resume(&other, &path, &[]).is_err(),
            "mask-content mismatch accepted"
        );

        // A changed golden run (a changed simulator configuration) is caught
        // before the torn tail is cut or a byte appended, after the golden
        // run alone.
        let text = std::fs::read_to_string(&path).expect("read journal");
        let lines: Vec<&str> = text.lines().collect();
        let torn = format!(
            "{}\n{}\n{}\n{}",
            lines[0].replace("\"cycles\":100", "\"cycles\":99"),
            lines[1],
            lines[2],
            &lines[3][..lines[3].len() / 2]
        );
        std::fs::write(&path, &torn).expect("edit journal");
        let d2 = FakeDispatcher::new();
        let r = CampaignRunner::new(&d2, &p, StructureId::IntRegFile, 4, &cfg);
        assert!(matches!(r.resume(&m, &path, &[]), Err(Error::Config(_))));
        assert_eq!(d2.calls.load(Ordering::SeqCst), 1, "golden only");
        let after = std::fs::read_to_string(&path).expect("read journal");
        assert_eq!(after, torn, "a rejected journal stays byte-identical");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_from_empty_journal_runs_everything() {
        let path = temp_journal("fresh.jsonl");
        std::fs::write(&path, "").expect("empty journal");
        let cfg = CampaignConfig {
            threads: 1,
            ..Default::default()
        };
        let p = program();
        let m = masks(5);
        let d = FakeDispatcher::new();
        let runner = CampaignRunner::new(&d, &p, StructureId::IntRegFile, 4, &cfg);
        let log = runner.resume(&m, &path, &[]).expect("resume from scratch");
        assert_eq!(d.calls.load(Ordering::SeqCst), 6, "golden + 5 masks");
        assert_eq!(log.runs.len(), 5);

        // And the journal it wrote is complete.
        let back = load_journal(&path).expect("journal loads");
        assert_eq!(back.runs.len(), 5);
        std::fs::remove_file(&path).ok();
    }

    /// A profile over FakeDispatcher's register file with one
    /// write@2 → read@5 interval on (entry 0, bit 0): `masks(9)` (cycles
    /// 0..9 at that site) partitions into Dead[0,1,2], Latch[3,4,5],
    /// Dead[6,7,8].
    fn collapse_profile() -> AceProfile {
        use difi_uarch::residency::ResidencyTracker;
        let mut t = ResidencyTracker::new();
        t.set_cycle(2);
        t.on_write(0, 0, 64);
        t.set_cycle(5);
        t.on_read(0, 0, 64);
        let desc = StructureDesc {
            id: StructureId::IntRegFile,
            entries: 8,
            bits: 64,
        };
        AceProfile::new(t.into_log(desc, 100)).expect("int_prf is a data plane")
    }

    #[test]
    fn collapsed_strategy_dispatches_one_representative_per_latch_class() {
        let d = FakeDispatcher::new();
        let profile = collapse_profile();
        let cfg = CampaignConfig {
            threads: 2,
            ..Default::default()
        };
        let strategy = Strategy::Collapsed {
            profile: &profile,
            checkpoints: 0,
        };
        let m = masks(9);
        let log = CampaignRunner::new(&d, &program(), StructureId::IntRegFile, 4, &cfg)
            .with_strategy(strategy)
            .run(&m);
        let partition = partition_equivalence(&m, &profile);
        assert_eq!(
            d.calls.load(Ordering::SeqCst),
            2,
            "golden + 1 representative"
        );
        assert_eq!(partition.dispatch_count(), 1);
        assert_eq!(partition.class_count(), 3);
        assert!((partition.collapse_ratio() - 3.0).abs() < 1e-12);
        assert_eq!(log.runs.len(), 9, "every mask logged exactly once");
        for (i, run) in log.runs.iter().enumerate() {
            assert_eq!(run.spec.id, i as u64);
            let prov = run.provenance.expect("collapsed runs carry provenance");
            if (3..6).contains(&i) {
                assert_eq!(prov.proof, ProofKind::LatchInterval);
                assert_eq!(prov.representative, 3);
                assert_eq!(prov.members, 3);
            } else {
                assert_eq!(prov.proof, ProofKind::DeadInterval);
                assert_eq!(
                    run.result.status,
                    RunStatus::EarlyStopMasked(EarlyStop::StaticallyPruned)
                );
                assert!(!run.result.is_measured());
            }
        }
        // The representative executed for real; members inherited its
        // classification fields but no fabricated measurements.
        let rep = &log.runs[3].result;
        assert!(matches!(rep.status, RunStatus::SimulatorAssert(_)));
        assert_eq!(rep.cycles, Some(100));
        for i in [4usize, 5] {
            let member = &log.runs[i].result;
            assert_eq!(member.status, rep.status);
            assert_eq!(member.output, rep.output);
            assert_eq!(member.exceptions, rep.exceptions);
            assert_eq!(member.fault_consumed, rep.fault_consumed);
            assert_eq!(member.cycles, None, "member {i} never executed");
            assert_eq!(member.instructions, None);
        }
    }

    #[test]
    fn collapsed_journal_resumes_without_redispatching_classes() {
        let cfg = CampaignConfig {
            threads: 1,
            ..Default::default()
        };
        let p = program();
        let m = masks(9);
        let profile = collapse_profile();

        let path = temp_journal("collapsed.jsonl");
        let d = FakeDispatcher::new();
        let runner = CampaignRunner::new(&d, &p, StructureId::IntRegFile, 4, &cfg).with_strategy(
            Strategy::Collapsed {
                profile: &profile,
                checkpoints: 0,
            },
        );
        let full = runner.run_journaled(&m, &path, &[]).expect("journaled run");
        assert_eq!(d.calls.load(Ordering::SeqCst), 2, "golden + representative");
        // The journal holds dead classes first; loading places runs by index.
        assert_eq!(CampaignLog::load(&path).expect("load"), full);
        let back = load_journal(&path).expect("journal loads");
        assert_eq!(back.runs.len(), 9, "members journaled too");
        for (_, log) in &back.runs {
            assert!(log.provenance.is_some(), "provenance survives the journal");
        }

        // Crash after the dead classes and the representative line: resume
        // replicates the remaining members from the journaled
        // representative without booting a simulator for them.
        let text = std::fs::read_to_string(&path).expect("read journal");
        let kept: String = text.lines().take(8).map(|l| format!("{l}\n")).collect();
        assert!(kept.lines().count() < text.lines().count());
        std::fs::write(&path, kept).expect("truncate journal");
        let d2 = FakeDispatcher::new();
        let runner2 = CampaignRunner::new(&d2, &p, StructureId::IntRegFile, 4, &cfg).with_strategy(
            Strategy::Collapsed {
                profile: &profile,
                checkpoints: 0,
            },
        );
        let resumed = runner2.resume(&m, &path, &[]).expect("resume");
        assert_eq!(d2.calls.load(Ordering::SeqCst), 1, "golden only");
        assert_eq!(full, resumed);

        // Crash before the representative ran: resume re-dispatches it once
        // and replicates, still converging on the identical log.
        let text = std::fs::read_to_string(&path).expect("read journal");
        let kept: String = text.lines().take(5).map(|l| format!("{l}\n")).collect();
        std::fs::write(&path, kept).expect("truncate journal");
        let d3 = FakeDispatcher::new();
        let runner3 = CampaignRunner::new(&d3, &p, StructureId::IntRegFile, 4, &cfg).with_strategy(
            Strategy::Collapsed {
                profile: &profile,
                checkpoints: 0,
            },
        );
        let again = runner3.resume(&m, &path, &[]).expect("resume");
        assert_eq!(
            d3.calls.load(Ordering::SeqCst),
            2,
            "golden + re-dispatched representative"
        );
        assert_eq!(full, again);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn collapsed_metrics_report_partition_and_savings() {
        let d = FakeDispatcher::new();
        let profile = collapse_profile();
        let reg = Arc::new(MetricsRegistry::new());
        let cfg = CampaignConfig {
            threads: 2,
            ..Default::default()
        };
        let log = CampaignRunner::new(&d, &program(), StructureId::IntRegFile, 4, &cfg)
            .with_strategy(Strategy::Collapsed {
                profile: &profile,
                checkpoints: 0,
            })
            .with_metrics(Arc::clone(&reg))
            .run(&masks(9));
        assert_eq!(log.runs.len(), 9);
        assert_eq!(reg.value("campaign.collapse.masks"), Some(9));
        assert_eq!(reg.value("campaign.collapse.classes"), Some(3));
        assert_eq!(reg.value("campaign.collapse.classes.dead"), Some(2));
        assert_eq!(reg.value("campaign.collapse.classes.latch"), Some(1));
        assert_eq!(reg.value("campaign.collapse.classes.singleton"), Some(0));
        assert_eq!(reg.value("campaign.collapse.dead_masks"), Some(6));
        assert_eq!(reg.value("campaign.collapse.replicated"), Some(2));
        assert_eq!(reg.value("campaign.collapse.dispatched"), Some(1));
        assert_eq!(
            reg.value("campaign.collapse.ratio_permille"),
            Some(3000),
            "9 masks / 3 classes = 3.000×"
        );
    }

    #[test]
    fn metrics_registry_tallies_runs_statuses_and_phases() {
        let d = FakeDispatcher::new();
        let reg = Arc::new(MetricsRegistry::new());
        let cfg = CampaignConfig {
            threads: 2,
            ..Default::default()
        };
        let log = CampaignRunner::new(&d, &program(), StructureId::IntRegFile, 9, &cfg)
            .with_metrics(Arc::clone(&reg))
            .run(&masks(9));
        assert_eq!(log.runs.len(), 9);
        assert_eq!(reg.value("campaign.runs"), Some(9));
        assert_eq!(reg.value("campaign.status.completed"), Some(6));
        assert_eq!(reg.value("campaign.status.sim_assert"), Some(3));
        assert_eq!(reg.value("campaign.sim_cycles"), Some(900));
        // Final classification: masks 0/3/6 assert, the rest match golden.
        assert_eq!(reg.value("campaign.class.assert"), Some(3));
        assert_eq!(reg.value("campaign.class.masked"), Some(6));
        // Every phase gauge is stamped (a fake campaign can be faster than
        // 1ns, so presence — not magnitude — is what's checked).
        for phase in [
            "phase.golden_ns",
            "phase.snapshots_ns",
            "phase.injection_ns",
            "phase.classify_ns",
        ] {
            assert!(reg.value(phase).is_some(), "{phase} never stamped");
        }
    }

    #[test]
    fn tracing_without_dispatcher_support_matches_untraced_run() {
        // FakeDispatcher keeps the default traced paths (no event streams):
        // a traced campaign must produce the identical log and zero traces.
        let d = FakeDispatcher::new();
        let cfg = CampaignConfig {
            threads: 2,
            ..Default::default()
        };
        let plain =
            CampaignRunner::new(&d, &program(), StructureId::IntRegFile, 9, &cfg).run(&masks(8));
        let reg = Arc::new(MetricsRegistry::new());
        let traced = CampaignRunner::new(&d, &program(), StructureId::IntRegFile, 9, &cfg)
            .with_tracing(true)
            .with_metrics(Arc::clone(&reg))
            .run(&masks(8));
        assert_eq!(plain, traced);
        assert_eq!(reg.value("campaign.traces").unwrap_or(0), 0);
    }
}
