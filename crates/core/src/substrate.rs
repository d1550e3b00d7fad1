//! The paper's two injectors as *configurations* of one dispatcher.
//!
//! MaFIN and GeFIN share one injector design — mask generator, campaign
//! controller with its injector dispatcher, parser — placed over two
//! simulators. Here the two simulators are two Table-II parameter sets of
//! one out-of-order engine (`difi_uarch::pipeline::OoOCore`), so the
//! injector dispatcher is one type, [`SimDispatcher`], and the paper's three
//! setups are three values of it:
//!
//! * **MaFIN-x86** ([`MaFin::new`]) runs **MarsSim**, the MARSS-flavoured
//!   core of [`mars_config`] (Table II column 1, plus the behaviours of
//!   Remarks 1, 3, 6, 8): a 64-entry ROB, 32-entry issue queue and a
//!   **32-entry unified LSQ whose loads and stores both hold data**; 256
//!   integer + 256 FP physical registers; **aggressive load issue** before
//!   older store addresses resolve, with alias replay; a **QEMU-style
//!   hypervisor escape** — kernel services bypass the caches and committed
//!   stores keep main memory coherent (store-through); a tournament
//!   predictor whose chooser is bound to the **branch address**, split
//!   4-way BTBs (1K direct + 512 indirect) and a 16-entry RAS; next-line
//!   **prefetchers** on L1I and L1D (the paper's added components, Table IV
//!   "New"); and **assertion-rich** model code: undecodable bytes and
//!   impossible internal states stop the simulation with an assertion,
//!   wrong-path or not.
//! * **GeFIN-x86** and **GeFIN-ARM** ([`GeFin::x86`], [`GeFin::arm`]) run
//!   **GemSim**, the gem5-flavoured core of [`gem_config`] (Table II
//!   columns 2–3): a 40-entry ROB, 32-entry issue queue and **split 16/16
//!   load/store queues where only the store queue holds data**; 256
//!   integer and 128 FP physical registers; **conservative load issue** —
//!   loads wait for all older store addresses; the whole system handled internally —
//!   kernel accesses travel **through the cache hierarchy** over strict
//!   write-back memory (a dirty line is the only copy); a tournament
//!   predictor whose chooser (and global component) are indexed purely by
//!   the **global history**, and one direct-mapped 2K-entry BTB; and
//!   **compact checking**: undecodable bytes become ISA faults raised at
//!   commit (squashed on the wrong path) and internal anomalies surface as
//!   simulator crashes rather than assertions. Per-ISA functional units
//!   follow Table II: the x86 model is wide (6 int ALUs, 4 FP), the ARM
//!   model narrow (2 int ALUs, 2 FP).
//!
//! Every run — cold or warm, plain, traced, profiled, recording or
//! residency-tracing — takes the same path: boot a core (or clone a golden
//! snapshot of this configuration), enable the requested observers,
//! translate the mask into engine coordinates, simulate, and convert the
//! engine's exit into the campaign's raw-result record.
//!
//! ```
//! use difi_core::substrate::{GeFin, MaFin};
//! use difi_core::{InjectorDispatcher, InjectionSpec, RunLimits};
//! use difi_isa::asm::Asm;
//! use difi_isa::program::Isa;
//!
//! # fn main() -> Result<(), difi_util::Error> {
//! let mut a = Asm::new(Isa::X86e);
//! a.li(4, 7);
//! a.write_int(4);
//! a.exit(0);
//! let prog = a.finish("seven")?;
//! let mafin = MaFin::new();
//! let golden = mafin.run(&prog, &InjectionSpec::fault_free(0),
//!                        &RunLimits::golden(1_000_000));
//! assert_eq!(golden.output, b"7\n");
//!
//! let mut a = Asm::new(Isa::Arme);
//! a.li(4, 11);
//! a.write_int(4);
//! a.exit(0);
//! let prog = a.finish("eleven")?;
//! let gefin = GeFin::arm();
//! let golden = gefin.run(&prog, &InjectionSpec::fault_free(0),
//!                        &RunLimits::golden(1_000_000));
//! assert_eq!(golden.output, b"11\n");
//! # Ok(())
//! # }
//! ```

use crate::dispatch::{GoldenSnapshot, InjectorDispatcher};
use crate::model::{
    EarlyStop, FaultDuration, InjectTime, InjectionSpec, RawRunResult, RunLimits, RunStatus,
    ScenarioKind,
};
use difi_isa::program::{Isa, Program};
use difi_obs::trace::{FaultTrace, TraceEvent, TraceEventKind};
use difi_uarch::cache::CacheConfig;
use difi_uarch::fault::{StructureDesc, StructureId};
use difi_uarch::pipeline::engine::{
    EarlyWhy, EngineFault, EngineLimits, EngineScenario, ScenarioTrigger,
};
use difi_uarch::pipeline::{BtbOrg, CoreConfig, CorePolicy, LsqOrg, OoOCore, SimExit, SimRun};
use difi_uarch::predictor::TournamentConfig;
use difi_uarch::residency::ResidencyLog;
use difi_uarch::ProfileCounters;
use std::sync::Arc;

/// The MarsSim core configuration (Table II, MARSS/x86 column).
pub fn mars_config() -> CoreConfig {
    CoreConfig {
        int_prf: 256,
        fp_prf: 256,
        iq_entries: 32,
        rob_entries: 64,
        lsq: LsqOrg::Unified { entries: 32 },
        width: 4,
        fetch_bytes: 16,
        int_alus: 2,
        mul_div_units: 1,
        fp_units: 2,
        mem_ports: 4,
        ras_depth: 16,
        predictor: TournamentConfig::MARSS,
        btb: BtbOrg::MarssSplit,
        l1i: CacheConfig::L1,
        l1d: CacheConfig::L1,
        l2: CacheConfig::L2,
        policy: CorePolicy {
            aggressive_loads: true,
            hypervisor_kernel: true,
            store_through: true,
            decode_fault_asserts: true,
            payload_error_asserts: true,
            rich_asserts: true,
            prefetchers: true,
            model_cache_data: true,
        },
    }
}

/// MarsSim as *original* MARSS: no modeled cache data arrays (loads read
/// the QEMU-coherent main memory) and no added prefetchers. The baseline of
/// the EXP-OVH comparison — the paper reports the data-array extension cost
/// ≈40% of simulation throughput (§III.C).
pub fn perf_only_config() -> CoreConfig {
    let mut c = mars_config();
    c.policy.prefetchers = false;
    c.policy.model_cache_data = false;
    c
}

/// The GemSim core configuration for one ISA (Table II, gem5 columns).
pub fn gem_config(isa: Isa) -> CoreConfig {
    let (int_alus, mul_div, fp_units) = match isa {
        // gem5/x86: 6 int ALUs, 2 complex int, 4 FP (+ SIMD, unmodeled).
        Isa::X86e => (6, 2, 4),
        // gem5/ARM: 2 int ALUs, 1 complex int, 2 FP & SIMD.
        Isa::Arme => (2, 1, 2),
    };
    CoreConfig {
        int_prf: 256,
        fp_prf: 128,
        iq_entries: 32,
        rob_entries: 40,
        lsq: LsqOrg::Split {
            loads: 16,
            stores: 16,
        },
        width: 4,
        fetch_bytes: 16,
        int_alus,
        mul_div_units: mul_div,
        fp_units,
        mem_ports: 2,
        ras_depth: 16,
        predictor: TournamentConfig::GEM5,
        btb: BtbOrg::Gem5Unified,
        l1i: CacheConfig::L1,
        l1d: CacheConfig::L1,
        l2: CacheConfig::L2,
        policy: CorePolicy {
            aggressive_loads: false,
            hypervisor_kernel: false,
            store_through: false,
            decode_fault_asserts: false,
            payload_error_asserts: false,
            rich_asserts: false,
            prefetchers: false,
            model_cache_data: true,
        },
    }
}

/// **MaFIN** — the MARSS-based fault injector: a name for a
/// [`SimDispatcher`] preset, with no values of its own.
pub enum MaFin {}

impl MaFin {
    /// MaFIN-x86: the dispatcher over the paper's MarsSim configuration.
    #[allow(
        clippy::new_ret_no_self,
        reason = "MaFIN is the paper's name for a configuration of the one dispatcher type, \
                  so its constructor returns that type"
    )]
    pub fn new() -> SimDispatcher {
        SimDispatcher {
            name: "MaFIN-x86",
            isa: Isa::X86e,
            cfg: mars_config(),
        }
    }
}

/// **GeFIN** — the gem5-based fault injector: a name for one
/// [`SimDispatcher`] preset per ISA, with no values of its own.
pub enum GeFin {}

impl GeFin {
    /// GeFIN-x86: the dispatcher over the gem5/x86 configuration.
    pub fn x86() -> SimDispatcher {
        SimDispatcher {
            name: "GeFIN-x86",
            isa: Isa::X86e,
            cfg: gem_config(Isa::X86e),
        }
    }

    /// GeFIN-ARM: the dispatcher over the gem5/ARM configuration.
    pub fn arm() -> SimDispatcher {
        SimDispatcher {
            name: "GeFIN-ARM",
            isa: Isa::Arme,
            cfg: gem_config(Isa::Arme),
        }
    }
}

/// The injector dispatcher over one core configuration; build one with the
/// [`MaFin`] or [`GeFin`] presets.
#[derive(Debug, Clone)]
pub struct SimDispatcher {
    name: &'static str,
    isa: Isa,
    cfg: CoreConfig,
}

/// The observers one [`SimDispatcher`] run enables; the default is none.
/// Each only reads pipeline state, so none changes the run's result.
#[derive(Clone, Copy, Default)]
struct Observe<'a> {
    /// Fault-lifecycle tracing.
    trace: bool,
    /// The golden signature a traced run compares its commits against.
    golden_sig: Option<&'a Arc<Vec<u64>>>,
    /// The pipeline stall/occupancy profiler.
    profile: bool,
    /// Per-commit architectural signature recording.
    record_signature: bool,
    /// Structures to record residency on, for the ACE analysis.
    residency: &'a [StructureId],
}

/// One run's result plus what each enabled observer recorded.
struct Observed {
    result: RawRunResult,
    trace: Option<FaultTrace>,
    profile: Option<ProfileCounters>,
    signature: Option<Arc<Vec<u64>>>,
    residency: Vec<ResidencyLog>,
}

impl SimDispatcher {
    /// Boots a fresh simulator instance for one run (exposed for diagnostics
    /// and the runtime-statistics studies behind Remarks 1–11).
    pub fn boot(&self, program: &Program) -> OoOCore {
        OoOCore::new(self.cfg, program)
    }

    /// The single run path: from a fresh core, or from a clone of `start`
    /// when it holds a core of this configuration booted with this program —
    /// any other snapshot falls back to the always-correct cold start.
    fn simulate(
        &self,
        start: Option<&GoldenSnapshot>,
        program: &Program,
        spec: &InjectionSpec,
        limits: &RunLimits,
        observe: Observe<'_>,
    ) -> Observed {
        assert_eq!(
            program.isa, self.isa,
            "{} simulates {} programs",
            self.name, self.isa
        );
        let mut core = match start.and_then(|s| s.state.downcast_ref::<OoOCore>()) {
            Some(paused) if *paused.config() == self.cfg && paused.program() == program => {
                paused.clone()
            }
            _ => self.boot(program),
        };
        if observe.trace {
            core.enable_fault_tracing(observe.golden_sig.cloned());
        }
        if observe.record_signature {
            core.enable_signature_recording();
        }
        if observe.profile {
            core.enable_profiling();
        }
        core.enable_residency(observe.residency);
        let run = core.run_scenario(
            &to_engine_faults(spec),
            to_engine_scenario(spec),
            &to_engine_limits(limits),
        );
        Observed {
            result: to_raw_result(&core, run),
            trace: if observe.trace {
                assemble_trace(&core, spec)
            } else {
                None
            },
            profile: core.profile_counters(),
            signature: observe
                .record_signature
                .then(|| Arc::new(core.take_signature())),
            residency: if observe.residency.is_empty() {
                Vec::new()
            } else {
                core.take_residency()
            },
        }
    }

    /// Drives the fault-free prefix once, pausing at each cycle of
    /// `at_cycles` (sorted ascending) and snapshotting via `Clone`. Capture
    /// stops early if the program terminates before a requested cycle. With
    /// `profiled`, each snapshot also carries its prefix's profile counters.
    fn capture(
        &self,
        program: &Program,
        at_cycles: &[u64],
        limits: &RunLimits,
        profiled: bool,
    ) -> Vec<GoldenSnapshot> {
        assert_eq!(
            program.isa, self.isa,
            "{} simulates {} programs",
            self.name, self.isa
        );
        let mut core = self.boot(program);
        if profiled {
            core.enable_profiling();
        }
        let elim = to_engine_limits(limits);
        let mut snaps = Vec::with_capacity(at_cycles.len());
        for &cycle in at_cycles {
            if core.run_until(&[], &elim, Some(cycle)).is_some() {
                break; // terminal state before this checkpoint — stop capturing
            }
            snaps.push(GoldenSnapshot {
                cycle,
                state: Box::new(core.clone()),
            });
        }
        snaps
    }
}

impl InjectorDispatcher for SimDispatcher {
    fn name(&self) -> &str {
        self.name
    }

    fn isa(&self) -> Isa {
        self.isa
    }

    fn structures(&self) -> Vec<StructureDesc> {
        OoOCore::structures(&self.cfg)
    }

    fn run(&self, program: &Program, spec: &InjectionSpec, limits: &RunLimits) -> RawRunResult {
        self.simulate(None, program, spec, limits, Observe::default())
            .result
    }

    fn golden_residency(
        &self,
        program: &Program,
        structures: &[StructureId],
        max_cycles: u64,
    ) -> Vec<ResidencyLog> {
        let spec = InjectionSpec::fault_free(u64::MAX);
        let observe = Observe {
            residency: structures,
            ..Observe::default()
        };
        self.simulate(
            None,
            program,
            &spec,
            &RunLimits::golden(max_cycles),
            observe,
        )
        .residency
    }

    fn golden_snapshots(
        &self,
        program: &Program,
        at_cycles: &[u64],
        limits: &RunLimits,
    ) -> Option<Vec<GoldenSnapshot>> {
        Some(self.capture(program, at_cycles, limits, false))
    }

    fn run_from(
        &self,
        snap: &GoldenSnapshot,
        program: &Program,
        spec: &InjectionSpec,
        limits: &RunLimits,
    ) -> RawRunResult {
        self.simulate(Some(snap), program, spec, limits, Observe::default())
            .result
    }

    fn golden_run_recording(
        &self,
        program: &Program,
        spec: &InjectionSpec,
        limits: &RunLimits,
    ) -> (RawRunResult, Option<Arc<Vec<u64>>>) {
        let observe = Observe {
            record_signature: true,
            ..Observe::default()
        };
        let o = self.simulate(None, program, spec, limits, observe);
        (o.result, o.signature)
    }

    fn run_traced(
        &self,
        program: &Program,
        spec: &InjectionSpec,
        limits: &RunLimits,
        golden_sig: Option<&Arc<Vec<u64>>>,
    ) -> (RawRunResult, Option<FaultTrace>) {
        let observe = Observe {
            trace: true,
            golden_sig,
            ..Observe::default()
        };
        let o = self.simulate(None, program, spec, limits, observe);
        (o.result, o.trace)
    }

    fn run_from_traced(
        &self,
        snap: &GoldenSnapshot,
        program: &Program,
        spec: &InjectionSpec,
        limits: &RunLimits,
        golden_sig: Option<&Arc<Vec<u64>>>,
    ) -> (RawRunResult, Option<FaultTrace>) {
        let observe = Observe {
            trace: true,
            golden_sig,
            ..Observe::default()
        };
        let o = self.simulate(Some(snap), program, spec, limits, observe);
        (o.result, o.trace)
    }

    fn run_profiled(
        &self,
        program: &Program,
        spec: &InjectionSpec,
        limits: &RunLimits,
    ) -> (RawRunResult, Option<ProfileCounters>) {
        let observe = Observe {
            profile: true,
            ..Observe::default()
        };
        let o = self.simulate(None, program, spec, limits, observe);
        (o.result, o.profile)
    }

    fn run_from_profiled(
        &self,
        snap: &GoldenSnapshot,
        program: &Program,
        spec: &InjectionSpec,
        limits: &RunLimits,
    ) -> (RawRunResult, Option<ProfileCounters>) {
        let observe = Observe {
            profile: true,
            ..Observe::default()
        };
        let o = self.simulate(Some(snap), program, spec, limits, observe);
        (o.result, o.profile)
    }

    fn golden_snapshots_profiled(
        &self,
        program: &Program,
        at_cycles: &[u64],
        limits: &RunLimits,
    ) -> Option<Vec<GoldenSnapshot>> {
        Some(self.capture(program, at_cycles, limits, true))
    }
}

/// Translates campaign fault records into engine coordinates.
fn to_engine_faults(spec: &InjectionSpec) -> Vec<EngineFault> {
    spec.faults()
        .iter()
        .map(|f| EngineFault {
            structure: f.structure,
            entry: f.entry,
            bit: f.bit,
            kind: f.kind.into(),
            at_cycle: match f.at {
                InjectTime::Cycle(c) => Some(c),
                InjectTime::Instruction(_) => None,
            },
            at_instruction: match f.at {
                InjectTime::Instruction(n) => Some(n),
                InjectTime::Cycle(_) => None,
            },
            duration_cycles: match f.duration {
                FaultDuration::Intermittent { cycles } => Some(cycles),
                _ => None,
            },
        })
        .collect()
}

/// Translates the campaign's scenario into engine coordinates. Bit-flip
/// scenarios carry no control-flow payload ([`EngineScenario::None`]); their
/// sites go through [`to_engine_faults`].
fn to_engine_scenario(spec: &InjectionSpec) -> EngineScenario {
    let at = |t: InjectTime| match t {
        InjectTime::Cycle(c) => ScenarioTrigger::Cycle(c),
        InjectTime::Instruction(n) => ScenarioTrigger::Instruction(n),
    };
    match spec.scenario {
        ScenarioKind::BitFlips { .. } => EngineScenario::None,
        ScenarioKind::InstructionSkip { at: t, count } => {
            EngineScenario::InstructionSkip { at: at(t), count }
        }
        ScenarioKind::OpcodeCorrupt { at: t, xor } => {
            EngineScenario::OpcodeCorrupt { at: at(t), xor }
        }
        ScenarioKind::BranchInvert { at: t, count } => {
            EngineScenario::BranchInvert { at: at(t), count }
        }
    }
}

/// Translates campaign limits into engine limits.
fn to_engine_limits(limits: &RunLimits) -> EngineLimits {
    EngineLimits {
        max_cycles: limits.max_cycles,
        early_stop: limits.early_stop,
        deadlock_window: limits.deadlock_window,
    }
}

/// Assembles a finished engine run into the campaign's raw-result record.
fn to_raw_result(core: &OoOCore, run: SimRun) -> RawRunResult {
    let status = match run.exit {
        SimExit::Exited(code) => RunStatus::Completed { exit_code: code },
        SimExit::ProcessCrash(f) => RunStatus::ProcessCrash(f.to_string()),
        SimExit::SystemCrash(m) => RunStatus::SystemCrash(m.to_string()),
        SimExit::SimAssert(m) => RunStatus::SimulatorAssert(m),
        SimExit::SimCrash(m) => RunStatus::SimulatorCrash(m),
        SimExit::Timeout => RunStatus::Timeout,
        SimExit::EarlyMasked => RunStatus::EarlyStopMasked(match core.early_reason() {
            EarlyWhy::DeadEntry => EarlyStop::DeadEntry,
            EarlyWhy::Overwritten => EarlyStop::OverwrittenBeforeRead,
        }),
    };
    RawRunResult {
        status,
        output: run.output,
        exceptions: Some(run.exceptions),
        cycles: Some(run.stats.cycles),
        instructions: Some(run.stats.committed_instructions),
        fault_consumed: run.fault_consumed,
    }
}

/// Assembles the event stream of one traced run from the core's raw
/// observations. Events are ordered by cycle; construction order (injected,
/// then watch lifecycles in arm order, then divergence) breaks ties
/// deterministically via the stable sort.
fn assemble_trace(core: &OoOCore, spec: &InjectionSpec) -> Option<FaultTrace> {
    let report = core.trace_report()?;
    let mut events = Vec::new();
    for ev in &report.injected {
        events.push(TraceEvent {
            cycle: ev.cycle,
            kind: TraceEventKind::Injected,
            detail: format!("{} entry {} bit {}", ev.structure.name(), ev.entry, ev.bit),
        });
    }
    // Control-flow scenarios have no storage injection hook; synthesize the
    // injection event from the engine's first-fire stamp so every trace
    // carries its scenario identity.
    if !matches!(spec.scenario, ScenarioKind::BitFlips { .. }) {
        if let Some(cycle) = core.scenario_fired_at() {
            events.push(TraceEvent {
                cycle,
                kind: TraceEventKind::Injected,
                detail: spec.scenario.name().to_string(),
            });
        }
    }
    for (s, w) in &report.watches {
        // The hook keeps the two stamps mutually exclusive: a read blocks
        // the overwritten transition and vice versa.
        if let Some(cycle) = w.first_read_at {
            events.push(TraceEvent {
                cycle,
                kind: TraceEventKind::FirstConsumed,
                detail: format!("{} entry {} bit {}", s.name(), w.entry, w.bit),
            });
        } else if let Some(cycle) = w.overwritten_at {
            events.push(TraceEvent {
                cycle,
                kind: TraceEventKind::OverwrittenDead,
                detail: format!("{} entry {} bit {}", s.name(), w.entry, w.bit),
            });
        }
    }
    if let Some(d) = report.divergence {
        events.push(TraceEvent {
            cycle: d.cycle,
            kind: TraceEventKind::ArchDivergence,
            detail: format!("commit #{}", d.commit_index),
        });
    }
    events.sort_by_key(|e| e.cycle);
    Some(FaultTrace {
        id: spec.id,
        structure: match &spec.scenario {
            ScenarioKind::BitFlips { faults } => faults
                .first()
                .map(|f| f.structure.name())
                .unwrap_or("none")
                .to_string(),
            other => other.name().to_string(),
        },
        scenario: spec.scenario.name().to_string(),
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mars_config_matches_table_ii() {
        let c = mars_config();
        assert_eq!(c.int_prf, 256);
        assert_eq!(c.fp_prf, 256);
        assert_eq!(c.iq_entries, 32);
        assert_eq!(c.rob_entries, 64);
        assert_eq!(c.lsq, LsqOrg::Unified { entries: 32 });
        assert_eq!(c.l1d.capacity(), 32 * 1024);
        assert_eq!(c.l2.capacity(), 1024 * 1024);
        assert!(c.policy.hypervisor_kernel);
        assert!(c.policy.aggressive_loads);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn gem_configs_match_table_ii() {
        let x = gem_config(Isa::X86e);
        assert_eq!(x.int_prf, 256);
        assert_eq!(x.fp_prf, 128);
        assert_eq!(x.rob_entries, 40);
        assert_eq!(
            x.lsq,
            LsqOrg::Split {
                loads: 16,
                stores: 16
            }
        );
        assert_eq!(x.int_alus, 6);
        let a = gem_config(Isa::Arme);
        assert_eq!(a.int_alus, 2);
        assert_eq!(a.fp_units, 2);
        assert!(!a.policy.aggressive_loads);
        assert!(!a.policy.hypervisor_kernel);
        assert!(x.validate().is_ok() && a.validate().is_ok());
    }

    #[test]
    fn mafin_structures_cover_table_iv() {
        let s = MaFin::new().structures();
        let find = |id| s.iter().find(|d| d.id == id).copied();
        let lsq = find(StructureId::LsqData).unwrap();
        assert_eq!(lsq.entries, 32, "unified queue exposes 32 data entries");
        let rf = find(StructureId::IntRegFile).unwrap();
        assert_eq!(rf.total_bits(), 256 * 64);
        let l1d = find(StructureId::L1dData).unwrap();
        assert_eq!(l1d.total_bits(), 32 * 1024 * 8);
        let btb = find(StructureId::Btb).unwrap();
        assert_eq!(btb.entries, 1024 + 512, "1K direct + 512 indirect entries");
        assert!(find(StructureId::L1iData).is_some());
        assert!(find(StructureId::DtlbValid).is_some());
    }

    #[test]
    fn gefin_lsq_data_plane_is_store_queue_only() {
        let s = GeFin::x86().structures();
        let lsq = s.iter().find(|d| d.id == StructureId::LsqData).unwrap();
        assert_eq!(
            lsq.entries, 16,
            "only the 16-entry store queue holds data (Remark 1)"
        );
        let btb = s.iter().find(|d| d.id == StructureId::Btb).unwrap();
        assert_eq!(btb.entries, 2048, "direct-mapped 2K unified BTB");
        let fp = s.iter().find(|d| d.id == StructureId::FpRegFile).unwrap();
        assert_eq!(fp.entries, 128);
    }

    #[test]
    fn names_and_isas() {
        assert_eq!(MaFin::new().name(), "MaFIN-x86");
        assert_eq!(GeFin::x86().name(), "GeFIN-x86");
        assert_eq!(GeFin::arm().name(), "GeFIN-ARM");
        assert_eq!(GeFin::arm().isa(), Isa::Arme);
    }

    #[test]
    fn dispatcher_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<SimDispatcher>();
    }
}
