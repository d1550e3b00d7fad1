//! The injector-dispatcher interface between the campaign controller and a
//! microarchitectural simulator.
//!
//! In the paper, "the *Injection Campaign Controller* reads the masks from
//! the repository and sends injection requests to the *Injector Dispatcher*
//! which is the module that directly communicates with the MARSS or Gem5
//! simulator". [`InjectorDispatcher`] is that module's contract. It has one
//! implementation, [`crate::substrate::SimDispatcher`]: MaFIN (over
//! MarsSim) and GeFIN (over GemSim) are presets of it that differ only in
//! their core configuration.

use crate::model::{InjectionSpec, RawRunResult, RunLimits};
use difi_isa::program::{Isa, Program};
use difi_obs::trace::FaultTrace;
use difi_uarch::fault::{StructureDesc, StructureId};
use difi_uarch::residency::ResidencyLog;
use difi_uarch::ProfileCounters;
use std::sync::Arc;

/// An opaque handle on golden-run state, captured at one cycle.
///
/// Captured by [`InjectorDispatcher::golden_snapshots`] and consumed by
/// [`InjectorDispatcher::run_from`], which downcasts `state` back to the
/// dispatcher's concrete type and forks from it only when it was captured
/// under the dispatcher's own configuration and program; any other
/// snapshot runs cold. [`crate::substrate::SimDispatcher`]'s snapshots of
/// one capture share one pool of golden cores, which every warm run
/// changes: it takes a core out, advances it to the run's injection cycle
/// and puts a copy of the advanced core back. The campaign controller
/// captures one snapshot per pooled core, all at cycle 0, hands any of
/// them to every cycle-scheduled run and shares the set across worker
/// threads; the pool's lock makes concurrent forks safe, and no fork
/// changes a result.
pub struct GoldenSnapshot {
    /// Cycle at which the golden run was captured (the cold-run state at
    /// the *top* of this cycle, before any of its work).
    pub cycle: u64,
    /// Dispatcher-private simulator state.
    pub state: Box<dyn std::any::Any + Send + Sync>,
}

impl std::fmt::Debug for GoldenSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GoldenSnapshot")
            .field("cycle", &self.cycle)
            .finish_non_exhaustive()
    }
}

/// A stateless handle that can run one workload under one fault mask on a
/// freshly booted simulator instance.
///
/// Implementations must be `Sync`: the campaign controller calls
/// [`InjectorDispatcher::run`] from several worker threads at once, each
/// call booting its own simulator.
pub trait InjectorDispatcher: Sync {
    /// Human-readable injector name (`"MaFIN-x86"`, `"GeFIN-ARM"`, …).
    fn name(&self) -> &str;

    /// The ISA this dispatcher simulates.
    fn isa(&self) -> Isa;

    /// Geometry of every injectable structure in this simulator's
    /// configuration (the per-simulator realization of Table IV).
    fn structures(&self) -> Vec<StructureDesc>;

    /// Boots a fresh simulator, loads `program`, injects per `spec` —
    /// storage bit flips or a control-flow attack scenario — and runs to a
    /// terminal state. `spec` may be fault-free (a golden run).
    fn run(&self, program: &Program, spec: &InjectionSpec, limits: &RunLimits) -> RawRunResult;

    /// Runs one golden (fault-free) execution with residency tracing
    /// enabled on `structures`, returning the recorded per-structure traces
    /// for the ACE analysis.
    ///
    /// The default returns no traces — a dispatcher without instrumentation
    /// support simply yields nothing to prune with, which is always safe.
    fn golden_residency(
        &self,
        program: &Program,
        structures: &[StructureId],
        max_cycles: u64,
    ) -> Vec<ResidencyLog> {
        let _ = (program, structures, max_cycles);
        Vec::new()
    }

    /// Runs the golden (fault-free) prefix once, capturing a resumable
    /// snapshot at each cycle in `at_cycles` (must be sorted ascending).
    /// Capture stops early if the program terminates first, so the returned
    /// set may be shorter than requested. The snapshots may share state
    /// (`SimDispatcher`'s share one pool of the captured cores), so the set
    /// costs at most one simulator state per snapshot however many runs
    /// fork from it. The campaign controller asks for one snapshot per
    /// worker, at most K, all at cycle 0.
    ///
    /// The default returns `None` — a dispatcher without checkpoint support
    /// simply opts out, and the campaign controller falls back to cold
    /// starts.
    fn golden_snapshots(
        &self,
        program: &Program,
        at_cycles: &[u64],
        limits: &RunLimits,
    ) -> Option<Vec<GoldenSnapshot>> {
        let _ = (program, at_cycles, limits);
        None
    }

    /// Runs `spec` warm: forks the golden run held by `snap` at the mask's
    /// first injection cycle ([`InjectionSpec::warm_start_cycle`]) and
    /// simulates only the remainder. `SimDispatcher` advances the latest
    /// golden core at or before that cycle fault-free to exactly that
    /// cycle, so the snapshot's shared state changes with every call; a
    /// mask with no such cycle, or whose cycle precedes every pooled core,
    /// runs cold.
    ///
    /// Contract: the result is byte-identical to a cold
    /// [`InjectorDispatcher::run`] of the same `(program, spec, limits)`,
    /// whichever snapshot of the set is passed and in whatever order or
    /// from however many threads the set is used — the fault-free prefix
    /// is deterministic, so replaying it adds information the golden state
    /// already holds. The default falls back to the cold path, which is
    /// always correct.
    fn run_from(
        &self,
        snap: &GoldenSnapshot,
        program: &Program,
        spec: &InjectionSpec,
        limits: &RunLimits,
    ) -> RawRunResult {
        let _ = snap;
        self.run(program, spec, limits)
    }

    /// Runs the golden (fault-free) execution while recording the
    /// per-commit architectural signature vector the tracer compares
    /// injection runs against. Recording is pure observation: the returned
    /// result must be byte-identical to a plain golden
    /// [`InjectorDispatcher::run`].
    ///
    /// The default records nothing — a dispatcher without tracing support
    /// still produces a correct golden run, and downstream divergence
    /// events are simply absent.
    fn golden_run_recording(
        &self,
        program: &Program,
        spec: &InjectionSpec,
        limits: &RunLimits,
    ) -> (RawRunResult, Option<Arc<Vec<u64>>>) {
        (self.run(program, spec, limits), None)
    }

    /// Runs `spec` cold with fault-lifecycle tracing enabled, comparing
    /// committed state against `golden_sig` (when given) for the
    /// divergence event.
    ///
    /// Contract: the [`RawRunResult`] is byte-identical to a plain
    /// [`InjectorDispatcher::run`] of the same arguments — tracing
    /// observes, never perturbs. The default opts out of tracing.
    fn run_traced(
        &self,
        program: &Program,
        spec: &InjectionSpec,
        limits: &RunLimits,
        golden_sig: Option<&Arc<Vec<u64>>>,
    ) -> (RawRunResult, Option<FaultTrace>) {
        let _ = golden_sig;
        (self.run(program, spec, limits), None)
    }

    /// Runs `spec` warm from `snap` with fault-lifecycle tracing enabled.
    /// Same observation-only contract as [`InjectorDispatcher::run_traced`];
    /// the trace must equal the cold-run trace of the same mask. The
    /// default opts out of tracing.
    fn run_from_traced(
        &self,
        snap: &GoldenSnapshot,
        program: &Program,
        spec: &InjectionSpec,
        limits: &RunLimits,
        golden_sig: Option<&Arc<Vec<u64>>>,
    ) -> (RawRunResult, Option<FaultTrace>) {
        let _ = golden_sig;
        (self.run_from(snap, program, spec, limits), None)
    }

    /// Runs `spec` cold with the pipeline stall/occupancy profiler enabled.
    ///
    /// Contract: the [`RawRunResult`] is byte-identical to a plain
    /// [`InjectorDispatcher::run`] of the same arguments — the profiler
    /// observes, never perturbs. The default opts out of profiling.
    fn run_profiled(
        &self,
        program: &Program,
        spec: &InjectionSpec,
        limits: &RunLimits,
    ) -> (RawRunResult, Option<ProfileCounters>) {
        (self.run(program, spec, limits), None)
    }

    /// Runs `spec` warm from `snap` with the profiler enabled. `snap` must
    /// come from [`InjectorDispatcher::golden_snapshots_profiled`] so the
    /// snapshot already carries its profiled-prefix counters; the returned
    /// counters then equal a cold [`InjectorDispatcher::run_profiled`] of
    /// the same mask exactly. The default opts out of profiling.
    fn run_from_profiled(
        &self,
        snap: &GoldenSnapshot,
        program: &Program,
        spec: &InjectionSpec,
        limits: &RunLimits,
    ) -> (RawRunResult, Option<ProfileCounters>) {
        (self.run_from(snap, program, spec, limits), None)
    }

    /// Like [`InjectorDispatcher::golden_snapshots`], but the captured
    /// prefix runs with the profiler enabled so each snapshot carries the
    /// stall/occupancy counters of its fault-free prefix. Restoring such a
    /// snapshot through [`InjectorDispatcher::run_from_profiled`] therefore
    /// yields final counters byte-identical to a cold profiled run. The
    /// default opts out; the campaign controller falls back to cold
    /// profiled runs, which is always correct.
    fn golden_snapshots_profiled(
        &self,
        program: &Program,
        at_cycles: &[u64],
        limits: &RunLimits,
    ) -> Option<Vec<GoldenSnapshot>> {
        let _ = (program, at_cycles, limits);
        None
    }
}

/// Looks up a structure's geometry on a dispatcher.
pub fn structure_desc(
    d: &dyn InjectorDispatcher,
    id: difi_uarch::fault::StructureId,
) -> Option<StructureDesc> {
    d.structures().into_iter().find(|s| s.id == id)
}
