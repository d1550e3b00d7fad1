//! A forwarding [`InjectorDispatcher`] that times every call from outside.
//!
//! Every trait method is forwarded, so wrapping a dispatcher changes no
//! result: a method left to its default would silently change behaviour
//! (an unforwarded `golden_snapshots` turns every warm start cold). A
//! change to the dispatcher trait edits this file only.
//!
//! Fault-free calls are the golden layer; calls carrying a fault are
//! injection dispatches. The probe always notes when the first dispatch
//! began (the end of the campaign's set-up) and keeps cheap counters; with
//! a span recorder it also records one span per call.

use crate::spans::{timed, Spans};
use difi::core::dispatch::GoldenSnapshot;
use difi::prelude::*;
use difi::uarch::residency::ResidencyLog;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// The probe over one dispatcher.
pub struct Probe<'a> {
    inner: &'a dyn InjectorDispatcher,
    spans: Option<&'a Spans>,
    first_dispatch: OnceLock<Instant>,
    /// Injection dispatches.
    pub calls: AtomicU64,
    /// Injection dispatches that restored a snapshot.
    pub warm_calls: AtomicU64,
    /// Cycles the dispatches simulated (from their start point, so a warm
    /// run does not count the restored prefix).
    pub sim_cycles: AtomicU64,
    /// Cycles of the fault-free runs.
    pub golden_cycles: AtomicU64,
    /// Snapshots captured.
    pub snapshots: AtomicU64,
}

impl<'a> Probe<'a> {
    /// Wraps `inner`, recording spans into `spans` when given.
    pub fn new(inner: &'a dyn InjectorDispatcher, spans: Option<&'a Spans>) -> Probe<'a> {
        Probe {
            inner,
            spans,
            first_dispatch: OnceLock::new(),
            calls: AtomicU64::new(0),
            warm_calls: AtomicU64::new(0),
            sim_cycles: AtomicU64::new(0),
            golden_cycles: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
        }
    }

    /// When the first injection dispatch began, if any did.
    pub fn first_dispatch(&self) -> Option<Instant> {
        self.first_dispatch.get().copied()
    }

    fn golden<R>(&self, f: impl FnOnce() -> R, result: impl Fn(&R) -> &RawRunResult) -> R {
        let r = timed(self.spans, "golden", None, f);
        let cycles = result(&r).cycles.unwrap_or(0);
        self.golden_cycles.fetch_add(cycles, Ordering::Relaxed);
        r
    }

    fn dispatch<R>(
        &self,
        spec: &InjectionSpec,
        snap: Option<&GoldenSnapshot>,
        f: impl FnOnce() -> R,
        result: impl Fn(&R) -> &RawRunResult,
    ) -> R {
        self.first_dispatch.get_or_init(Instant::now);
        let r = timed(self.spans, "dispatch", Some(spec.id), f);
        let from = snap.map_or(0, |s| s.cycle);
        let cycles = result(&r).cycles.unwrap_or(from);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.warm_calls
            .fetch_add(u64::from(snap.is_some()), Ordering::Relaxed);
        self.sim_cycles
            .fetch_add(cycles.saturating_sub(from), Ordering::Relaxed);
        r
    }

    fn capture(
        &self,
        f: impl FnOnce() -> Option<Vec<GoldenSnapshot>>,
    ) -> Option<Vec<GoldenSnapshot>> {
        let snaps = timed(self.spans, "snapshots", None, f);
        let n = snaps.as_ref().map_or(0, Vec::len) as u64;
        self.snapshots.fetch_add(n, Ordering::Relaxed);
        snaps
    }
}

fn pair<A>(r: &(RawRunResult, A)) -> &RawRunResult {
    &r.0
}

fn itself(r: &RawRunResult) -> &RawRunResult {
    r
}

impl InjectorDispatcher for Probe<'_> {
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
        let f = || self.inner.run(program, spec, limits);
        if spec.is_fault_free() {
            self.golden(f, itself)
        } else {
            self.dispatch(spec, None, f, itself)
        }
    }

    fn golden_residency(
        &self,
        program: &Program,
        structures: &[StructureId],
        max_cycles: u64,
    ) -> Vec<ResidencyLog> {
        timed(self.spans, "ace.residency", None, || {
            self.inner.golden_residency(program, structures, max_cycles)
        })
    }

    fn golden_snapshots(
        &self,
        program: &Program,
        at_cycles: &[u64],
        limits: &RunLimits,
    ) -> Option<Vec<GoldenSnapshot>> {
        self.capture(|| self.inner.golden_snapshots(program, at_cycles, limits))
    }

    fn run_from(
        &self,
        snap: &GoldenSnapshot,
        program: &Program,
        spec: &InjectionSpec,
        limits: &RunLimits,
    ) -> RawRunResult {
        let f = || self.inner.run_from(snap, program, spec, limits);
        self.dispatch(spec, Some(snap), f, itself)
    }

    fn golden_run_recording(
        &self,
        program: &Program,
        spec: &InjectionSpec,
        limits: &RunLimits,
    ) -> (RawRunResult, Option<Arc<Vec<u64>>>) {
        let f = || self.inner.golden_run_recording(program, spec, limits);
        self.golden(f, pair)
    }

    fn run_traced(
        &self,
        program: &Program,
        spec: &InjectionSpec,
        limits: &RunLimits,
        golden_sig: Option<&Arc<Vec<u64>>>,
    ) -> (RawRunResult, Option<FaultTrace>) {
        let f = || self.inner.run_traced(program, spec, limits, golden_sig);
        self.dispatch(spec, None, f, pair)
    }

    fn run_from_traced(
        &self,
        snap: &GoldenSnapshot,
        program: &Program,
        spec: &InjectionSpec,
        limits: &RunLimits,
        golden_sig: Option<&Arc<Vec<u64>>>,
    ) -> (RawRunResult, Option<FaultTrace>) {
        let f = || {
            self.inner
                .run_from_traced(snap, program, spec, limits, golden_sig)
        };
        self.dispatch(spec, Some(snap), f, pair)
    }

    fn run_profiled(
        &self,
        program: &Program,
        spec: &InjectionSpec,
        limits: &RunLimits,
    ) -> (RawRunResult, Option<ProfileCounters>) {
        let f = || self.inner.run_profiled(program, spec, limits);
        if spec.is_fault_free() {
            self.golden(f, pair)
        } else {
            self.dispatch(spec, None, f, pair)
        }
    }

    fn run_from_profiled(
        &self,
        snap: &GoldenSnapshot,
        program: &Program,
        spec: &InjectionSpec,
        limits: &RunLimits,
    ) -> (RawRunResult, Option<ProfileCounters>) {
        let f = || self.inner.run_from_profiled(snap, program, spec, limits);
        self.dispatch(spec, Some(snap), f, pair)
    }

    fn golden_snapshots_profiled(
        &self,
        program: &Program,
        at_cycles: &[u64],
        limits: &RunLimits,
    ) -> Option<Vec<GoldenSnapshot>> {
        self.capture(|| {
            self.inner
                .golden_snapshots_profiled(program, at_cycles, limits)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::GOLDEN_MAX_CYCLES;
    use difi::core::dispatch::structure_desc;

    /// A probe-wrapped cell logs exactly what the bare one logs, and the
    /// probe sees the warm starts: an unforwarded `golden_snapshots` would
    /// leave the log unchanged but turn every warm start cold.
    #[test]
    fn probe_wrapped_cells_log_exactly_like_bare_ones() {
        let mafin = MaFin::new();
        let program = build(Bench::Fft, mafin.isa()).expect("fft assembles");
        let golden = golden_run(&mafin, &program, GOLDEN_MAX_CYCLES);
        let desc = structure_desc(&mafin, StructureId::L2Data).expect("MaFIN has an L2");
        let masks = MaskGenerator::new(2015).transient(&desc, golden.cycles_measured(), 8);
        let cfg = CampaignConfig {
            threads: 1,
            early_stop: true,
            golden_max_cycles: GOLDEN_MAX_CYCLES,
        };
        let cases = [
            (Strategy::Cold, false),
            (Strategy::Checkpointed { checkpoints: 8 }, false),
            (Strategy::Checkpointed { checkpoints: 8 }, true),
        ];
        for (strategy, tracing) in cases {
            let cell = |d: &dyn InjectorDispatcher| {
                CampaignRunner::new(d, &program, StructureId::L2Data, 2015, &cfg)
                    .with_strategy(strategy)
                    .with_tracing(tracing)
                    .run(&masks)
            };
            let bare = cell(&mafin);
            let spans = Spans::default();
            let probe = Probe::new(&mafin, Some(&spans));
            assert_eq!(cell(&probe), bare, "{strategy:?}, tracing {tracing}");
            assert_eq!(probe.calls.load(Ordering::Relaxed), 8);
            let warm = probe.warm_calls.load(Ordering::Relaxed);
            match strategy {
                Strategy::Cold => assert_eq!(warm, 0),
                _ => assert!(warm > 0, "no warm starts through the probe"),
            }
            assert!(probe.first_dispatch().is_some());
            let spans = spans.finish();
            assert_eq!(spans.iter().filter(|s| s.name == "dispatch").count(), 8);
            assert_eq!(spans.iter().filter(|s| s.name == "golden").count(), 1);
        }
    }
}
