//! Cycle-driven execution engine of [`OoOCore`].

use super::*;
use crate::fault::FaultKind;
use difi_isa::emu::{eval_fp_op, eval_fp_predicate, eval_int_op, extend};
use difi_isa::kernel::{self, KernelMem, KernelOutcome};
use difi_isa::uop::{BranchKind, FpOp, Uop, UopKind};
use difi_isa::MAX_INST_LEN;

/// One fault in engine coordinates (dispatchers translate the campaign's
/// serializable records into this form).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineFault {
    /// Target structure.
    pub structure: StructureId,
    /// Entry within the structure.
    pub entry: u64,
    /// Bit within the entry.
    pub bit: u32,
    /// Flip or stuck polarity.
    pub kind: FaultKind,
    /// Injection cycle (`None` = use `at_instruction`).
    pub at_cycle: Option<u64>,
    /// Injection at the Nth committed instruction.
    pub at_instruction: Option<u64>,
    /// Stuck window length in cycles (`None` = permanent for stuck kinds).
    pub duration_cycles: Option<u64>,
}

impl EngineFault {
    /// The trace event of this fault applied at `cycle`.
    pub fn injected_at(&self, cycle: u64) -> crate::trace::InjectedEvent {
        crate::trace::InjectedEvent {
            cycle,
            structure: self.structure,
            entry: self.entry,
            bit: self.bit,
        }
    }
}

/// Engine-level run limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineLimits {
    /// Hard cycle ceiling.
    pub max_cycles: u64,
    /// Enable the §III.B.2 early-stop optimizations.
    pub early_stop: bool,
    /// Cycles without a commit before declaring deadlock.
    pub deadlock_window: u64,
}

/// Why an early-masked stop fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EarlyWhy {
    /// Fault landed in an invalid/unused entry of a data plane.
    DeadEntry,
    /// Every faulty bit was overwritten before being read.
    Overwritten,
}

/// When a control-flow attack scenario arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioTrigger {
    /// Arms at the start of the given cycle.
    Cycle(u64),
    /// Arms once the Nth instruction has committed.
    Instruction(u64),
}

/// A control-flow attack scenario in engine coordinates. Unlike
/// [`EngineFault`]s, which corrupt *storage*, these act at the fetch/decode
/// boundary of the pipeline (the ARMORY/InjectV attack models).
///
/// All state is `Copy` and rebuilt at the top of every `run_scenario` call,
/// so warm-start snapshot clones replay scenarios identically — the same
/// contract the per-run `pending` fault list obeys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineScenario {
    /// No scenario: plain storage-fault semantics.
    #[default]
    None,
    /// Decode the next `count` fetched instructions as NOPs.
    InstructionSkip {
        /// Arming point.
        at: ScenarioTrigger,
        /// Instructions to suppress.
        count: u64,
    },
    /// XOR the next fetched instruction's bytes with `xor` before decode.
    OpcodeCorrupt {
        /// Arming point.
        at: ScenarioTrigger,
        /// Little-endian corruption pattern over the first 8 bytes.
        xor: u64,
    },
    /// Invert the condition of the next `count` conditional direct branches.
    BranchInvert {
        /// Arming point.
        at: ScenarioTrigger,
        /// Branches to invert.
        count: u64,
    },
}

impl EngineScenario {
    /// Remaining-payload counter at run entry.
    pub fn initial_remaining(self) -> u64 {
        match self {
            EngineScenario::None => 0,
            EngineScenario::InstructionSkip { count, .. }
            | EngineScenario::BranchInvert { count, .. } => count,
            EngineScenario::OpcodeCorrupt { .. } => 1,
        }
    }

    /// The cycle trigger, if this scenario arms on a cycle.
    pub fn trigger_cycle(self) -> Option<u64> {
        match self {
            EngineScenario::None => None,
            EngineScenario::InstructionSkip { at, .. }
            | EngineScenario::OpcodeCorrupt { at, .. }
            | EngineScenario::BranchInvert { at, .. } => match at {
                ScenarioTrigger::Cycle(c) => Some(c),
                ScenarioTrigger::Instruction(_) => None,
            },
        }
    }

    /// The instruction trigger, if this scenario arms on a commit count.
    pub fn trigger_instruction(self) -> Option<u64> {
        match self {
            EngineScenario::None => None,
            EngineScenario::InstructionSkip { at, .. }
            | EngineScenario::OpcodeCorrupt { at, .. }
            | EngineScenario::BranchInvert { at, .. } => match at {
                ScenarioTrigger::Cycle(_) => None,
                ScenarioTrigger::Instruction(n) => Some(n),
            },
        }
    }
}

const ITLB_MISS_PENALTY: u64 = 5;
const FETCH_QUEUE_CAP: usize = 12;

impl OoOCore {
    /// Runs the core to a terminal state, injecting `faults` on schedule.
    pub fn run(&mut self, faults: &[EngineFault], limits: &EngineLimits) -> SimRun {
        self.run_scenario(faults, EngineScenario::None, limits)
    }

    /// Runs the core to a terminal state with storage faults *and* a
    /// control-flow attack scenario.
    pub fn run_scenario(
        &mut self,
        faults: &[EngineFault],
        scenario: EngineScenario,
        limits: &EngineLimits,
    ) -> SimRun {
        self.run_until_scenario(faults, scenario, limits, None)
            .expect("a run without a pause cycle always reaches a terminal state")
    }

    /// Runs the core like [`OoOCore::run`], but pauses at the *beginning* of
    /// cycle `pause_at` — before any of that cycle's work (hook clock tick,
    /// limit checks, fault application, pipeline stages).
    ///
    /// Returns `None` on a pause. The core then holds exactly the state a
    /// cold run would have at the top of cycle `pause_at`, so a `Clone` of
    /// it is a resumable snapshot: calling `run`/`run_until` on the clone
    /// with the full fault list replays the remainder identically, because
    /// the per-run scheduling state (`pending` faults) is rebuilt from the
    /// argument and no fault can have fired before the pause on a
    /// fault-free prefix.
    ///
    /// Pausing is only meaningful while no fault has been applied yet; the
    /// warm-start engine pauses fault-free golden runs exclusively.
    pub fn run_until(
        &mut self,
        faults: &[EngineFault],
        limits: &EngineLimits,
        pause_at: Option<u64>,
    ) -> Option<SimRun> {
        self.run_until_scenario(faults, EngineScenario::None, limits, pause_at)
    }

    /// Runs the core like [`OoOCore::run_until`], additionally executing a
    /// control-flow attack scenario at the fetch/decode boundary.
    ///
    /// Scenario bookkeeping is plain-`Copy` core state reset here at run
    /// entry, so — exactly like the rebuilt `pending` fault list — a golden
    /// snapshot clone replays any scenario deterministically from its pause
    /// point (no scenario can have fired before the pause on a fault-free
    /// prefix, because golden runs pass [`EngineScenario::None`]).
    pub fn run_until_scenario(
        &mut self,
        faults: &[EngineFault],
        scenario: EngineScenario,
        limits: &EngineLimits,
        pause_at: Option<u64>,
    ) -> Option<SimRun> {
        let mut pending: Vec<EngineFault> = faults.to_vec();
        let mut dead_entry_all = !pending.is_empty();
        let mut applied_any = false;
        self.scenario = scenario;
        self.scenario_armed = false;
        self.scenario_remaining = scenario.initial_remaining();
        self.scenario_fired_at = None;

        while self.exit.is_none() {
            if pause_at == Some(self.cycle) {
                return None;
            }
            self.hook_tick();
            if self.out_of_limits(limits) {
                self.exit = Some(SimExit::Timeout);
                break;
            }
            // Apply cycle-scheduled faults.
            let mut i = 0;
            while i < pending.len() {
                if pending[i].at_cycle == Some(self.cycle) {
                    let f = pending.remove(i);
                    dead_entry_all &= self.lands_dead(&f);
                    self.apply_engine_fault(&f);
                    applied_any = true;
                } else {
                    i += 1;
                }
            }
            if !self.scenario_armed {
                if let Some(c) = self.scenario.trigger_cycle() {
                    if self.cycle >= c {
                        self.scenario_armed = true;
                    }
                }
            }
            if applied_any
                && pending.is_empty()
                && limits.early_stop
                && (dead_entry_all || (self.faults_dead() && !self.faults_consumed()))
            {
                self.exit = Some(SimExit::EarlyMasked(if self.faults_dead() {
                    EarlyWhy::Overwritten
                } else {
                    EarlyWhy::DeadEntry
                }));
                break;
            }

            let committed_before = self.stats.committed_instructions;
            let uops_before = self.stats.committed_uops;
            let flushes_before = self.stats.flushes;
            self.commit_stage();
            // Instruction-scheduled faults fire when the commit counter
            // crosses their threshold.
            if self.stats.committed_instructions > committed_before {
                let now = self.stats.committed_instructions;
                let mut i = 0;
                while i < pending.len() {
                    if pending[i].at_instruction.is_some_and(|n| n <= now) {
                        let f = pending.remove(i);
                        dead_entry_all &= self.lands_dead(&f);
                        self.apply_engine_fault(&f);
                        applied_any = true;
                    } else {
                        i += 1;
                    }
                }
                if !self.scenario_armed {
                    if let Some(n) = self.scenario.trigger_instruction() {
                        if now >= n {
                            self.scenario_armed = true;
                        }
                    }
                }
            }
            if self.exit.is_some() {
                break;
            }
            self.fire_events();
            if self.exit.is_some() {
                break;
            }
            self.issue_stage();
            if self.exit.is_some() {
                break;
            }
            self.rename_stage();
            self.fetch_stage();
            if self.profile {
                self.profile_cycle(uops_before, flushes_before);
            }
            self.cycle += 1;
        }

        let exit = self.exit.clone().unwrap_or(SimExit::Timeout);
        let output = std::mem::take(&mut self.output);
        let run = self.sim_run(exit, output);
        self.stats = run.stats;
        Some(run)
    }

    /// The run [`OoOCore::run`] with `faults` would return if called now on
    /// this core, paused on a fault-free run (as a fork's golden core is),
    /// when that run stops at the top of this cycle by early-stop rule (i):
    /// early stop is on, neither limit check fires, and every fault is due
    /// this cycle and [lands dead](OoOCore::lands_dead). `None` when the
    /// run would go on.
    ///
    /// Decided without applying anything, so the core is left untouched: a
    /// flip into a data plane changes no entry's validity, so each fault
    /// lands dead here exactly when it does after the cycle's earlier
    /// faults.
    pub fn dead_on_arrival(&self, faults: &[EngineFault], limits: &EngineLimits) -> Option<SimRun> {
        let stops = self.exit.is_none()
            && limits.early_stop
            && !faults.is_empty()
            && !self.out_of_limits(limits)
            && faults
                .iter()
                .all(|f| f.at_cycle == Some(self.cycle) && self.lands_dead(f));
        stops.then(|| {
            self.sim_run(
                SimExit::EarlyMasked(EarlyWhy::DeadEntry),
                self.output.clone(),
            )
        })
    }

    /// The top-of-cycle limit checks: the cycle ceiling, and the commit
    /// watchdog.
    fn out_of_limits(&self, limits: &EngineLimits) -> bool {
        self.cycle >= limits.max_cycles
            || self.cycle.saturating_sub(self.last_commit_cycle) > limits.deadlock_window
    }

    /// A run ending now in `exit`, with the statistics gathered so far.
    fn sim_run(&self, exit: SimExit, output: Vec<u8>) -> SimRun {
        let stats = SimStats {
            cycles: self.cycle,
            predictor: self.pred.stats,
            l1i: self.sys.l1i.stats,
            l1d: self.sys.l1d.stats,
            l2: self.sys.l2.stats,
            itlb: self.itlb.stats,
            dtlb: self.dtlb.stats,
            ..self.stats
        };
        SimRun {
            exit,
            output,
            exceptions: stats.exceptions,
            stats,
            fault_consumed: self.faults_consumed() || self.scenario_fired_at.is_some(),
        }
    }

    /// Attributes the cycle now ending to exactly one [`ProfileCounters`]
    /// bucket and accumulates the occupancy sums. Runs just before the
    /// cycle counter advances, so every cycle counted in `SimStats::cycles`
    /// is attributed exactly once — break paths (timeout, exit, early stop)
    /// leave both the cycle counter and the profile untouched for the
    /// partial cycle. When several stall causes hold simultaneously the
    /// first matching arm wins; DESIGN.md §15 documents the priority order.
    fn profile_cycle(&mut self, uops_before: u64, flushes_before: u64) {
        self.prof.profiled_cycles += 1;
        self.prof.rob_occ_sum += self.rob_count as u64;
        self.prof.iq_occ_sum += self.iq.occupancy() as u64;
        self.prof.lsq_occ_sum += self.lsq_order.len() as u64;
        if self.stats.committed_uops > uops_before {
            self.prof.committed_cycles += 1;
        } else if self.stats.flushes > flushes_before {
            self.prof.stall_squash += 1;
        } else if self.rob_count > 0 {
            // Back-pressure first (a full queue explains the whole cycle),
            // then the incomplete head's µop kind decides memory vs. compute.
            if self.rob_free() == 0 {
                self.prof.stall_rob_full += 1;
            } else if self.iq.free_slots() == 0 {
                self.prof.stall_iq_full += 1;
            } else if self.lsq_is_full() {
                self.prof.stall_lsq_full += 1;
            } else if matches!(
                self.rob_pay[self.rob_head].uop.kind,
                UopKind::Load | UopKind::Store
            ) {
                self.prof.stall_dcache += 1;
            } else {
                self.prof.stall_backend += 1;
            }
        } else if self.fetch_wait || self.cycle < self.fetch_stall_until {
            self.prof.stall_fetch += 1;
        } else {
            self.prof.stall_decode_empty += 1;
        }
    }

    /// Whether the LSQ can accept no further entry of any kind (both
    /// partitions full in the split organization).
    fn lsq_is_full(&self) -> bool {
        match self.cfg.lsq {
            LsqOrg::Unified { entries } => self.lsq_order.len() == entries,
            LsqOrg::Split { loads, stores } => {
                let lq_used = self
                    .lsq_order
                    .iter()
                    .filter(|&l| (l as usize) < loads)
                    .count();
                lq_used == loads && self.lsq_order.len() - lq_used == stores
            }
        }
    }

    fn note_scenario_fired(&mut self) {
        if self.scenario_fired_at.is_none() {
            self.scenario_fired_at = Some(self.cycle);
        }
    }

    // ----------------------------------------------------------------- faults

    /// Early-stop rule (i) for one fault about to be applied: a transient
    /// flip into a currently unused entry of a data plane whose every
    /// allocation writes the entry before reading it
    /// ([`StructureId::dead_entry_stop_safe`]). A stuck-at bit never lands
    /// dead: it is forced back after every later write.
    pub fn lands_dead(&self, f: &EngineFault) -> bool {
        f.kind == FaultKind::Flip
            && f.structure.dead_entry_stop_safe()
            && self.entry_unused(f.structure, f.entry)
    }

    /// Applies one fault now.
    pub fn apply_engine_fault(&mut self, f: &EngineFault) {
        if let Some(t) = &mut self.trace {
            t.note_injected(f.injected_at(self.cycle));
        }
        match f.kind {
            FaultKind::Flip => self.route_flip(f.structure, f.entry, f.bit),
            FaultKind::Stuck0 | FaultKind::Stuck1 => {
                let v = f.kind == FaultKind::Stuck1;
                self.route_stuck(f.structure, f.entry, f.bit, v);
                if let Some(d) = f.duration_cycles {
                    self.events.push(
                        Event {
                            at: self.cycle + d,
                            rob: usize::MAX,
                            seq: u64::MAX,
                            kind: EventKind::DisarmStuck {
                                structure: f.structure,
                                entry: f.entry,
                                bit: f.bit,
                            },
                        },
                        self.cycle,
                    );
                }
            }
        }
        self.note_hooked(f.structure);
    }

    fn route_flip(&mut self, s: StructureId, e: u64, b: u32) {
        match s {
            StructureId::IntRegFile => self.iprf.inject_flip(e, b),
            StructureId::FpRegFile => self.fprf.inject_flip(e, b),
            StructureId::IssueQueue => self.iq.inject_flip(e, b),
            StructureId::LsqData => self.lsq_data.inject_flip(e, b),
            StructureId::L1dData => self.sys.l1d.inject_data_flip(e, b),
            StructureId::L1dTag => self.sys.l1d.inject_tag_flip(e, b),
            StructureId::L1dValid => self.sys.l1d.inject_valid_flip(e),
            StructureId::L1iData => self.sys.l1i.inject_data_flip(e, b),
            StructureId::L1iTag => self.sys.l1i.inject_tag_flip(e, b),
            StructureId::L1iValid => self.sys.l1i.inject_valid_flip(e),
            StructureId::L2Data => self.sys.l2.inject_data_flip(e, b),
            StructureId::L2Tag => self.sys.l2.inject_tag_flip(e, b),
            StructureId::L2Valid => self.sys.l2.inject_valid_flip(e),
            StructureId::DtlbEntry => self.dtlb.inject_entry_flip(e, b),
            StructureId::DtlbValid => self.dtlb.inject_valid_flip(e),
            StructureId::ItlbEntry => self.itlb.inject_entry_flip(e, b),
            StructureId::ItlbValid => self.itlb.inject_valid_flip(e),
            StructureId::Btb => self.btb.inject_flip(e, b),
            StructureId::Ras => self.ras.inject_flip(e, b),
        }
    }

    fn route_stuck(&mut self, s: StructureId, e: u64, b: u32, v: bool) {
        match s {
            StructureId::IntRegFile => self.iprf.inject_stuck(e, b, v),
            StructureId::FpRegFile => self.fprf.inject_stuck(e, b, v),
            StructureId::IssueQueue => self.iq.inject_stuck(e, b, v),
            StructureId::LsqData => self.lsq_data.inject_stuck(e, b, v),
            StructureId::L1dData => self.sys.l1d.inject_data_stuck(e, b, v),
            StructureId::L1dTag => self.sys.l1d.inject_tag_stuck(e, b, v),
            StructureId::L1dValid => self.sys.l1d.inject_valid_stuck(e, v),
            StructureId::L1iData => self.sys.l1i.inject_data_stuck(e, b, v),
            StructureId::L1iTag => self.sys.l1i.inject_tag_stuck(e, b, v),
            StructureId::L1iValid => self.sys.l1i.inject_valid_stuck(e, v),
            StructureId::L2Data => self.sys.l2.inject_data_stuck(e, b, v),
            StructureId::L2Tag => self.sys.l2.inject_tag_stuck(e, b, v),
            StructureId::L2Valid => self.sys.l2.inject_valid_stuck(e, v),
            StructureId::DtlbEntry => self.dtlb.inject_entry_stuck(e, b, v),
            StructureId::DtlbValid => self.dtlb.inject_valid_stuck(e, v),
            StructureId::ItlbEntry => self.itlb.inject_entry_stuck(e, b, v),
            StructureId::ItlbValid => self.itlb.inject_valid_stuck(e, v),
            StructureId::Btb => self.btb.inject_stuck(e, b, v),
            StructureId::Ras => self.ras.inject_stuck(e, b, v),
        }
    }

    /// True when `entry` of `structure` is currently unused (early-stop
    /// rule i applies only to data planes; see
    /// [`StructureId::dead_entry_stop_safe`]).
    pub fn entry_unused(&self, s: StructureId, e: u64) -> bool {
        match s {
            StructureId::IntRegFile => self.ifree.contains(e as u16),
            StructureId::FpRegFile => self.ffree.contains(e as u16),
            StructureId::IssueQueue => self.iq.peek_unused(e as usize),
            StructureId::LsqData => {
                let idx = match self.cfg.lsq {
                    LsqOrg::Unified { .. } => e as usize,
                    LsqOrg::Split { loads, .. } => loads + e as usize,
                };
                !self.lsq_meta[idx].valid
            }
            StructureId::L1dData => !self.sys.l1d.peek_valid(e as usize),
            StructureId::L1iData => !self.sys.l1i.peek_valid(e as usize),
            StructureId::L2Data => !self.sys.l2.peek_valid(e as usize),
            _ => false,
        }
    }

    // --------------------------------------------------------------- asserts

    /// Checks an internal invariant. Under the MARSS-style `rich_asserts`
    /// policy a violation raises a simulator assertion; under the gem5-style
    /// policy it surfaces as a simulator crash (Remark 8).
    fn massert(&mut self, cond: bool, msg: &str) -> bool {
        if !cond && self.exit.is_none() {
            self.exit = Some(if self.cfg.policy.rich_asserts {
                SimExit::SimAssert(msg.to_string())
            } else {
                SimExit::SimCrash(msg.to_string())
            });
        }
        cond
    }

    // ------------------------------------------------------------------- rob

    #[inline]
    fn rob_next(&self, i: usize) -> usize {
        (i + 1) % self.rob_seq.len()
    }

    #[inline]
    fn rob_prev(&self, i: usize) -> usize {
        (i + self.rob_seq.len() - 1) % self.rob_seq.len()
    }

    fn rob_free(&self) -> usize {
        self.rob_seq.len() - self.rob_count
    }

    // ---------------------------------------------------------------- kernel

    fn kernel_call<R>(&mut self, f: impl FnOnce(&mut dyn KernelMem, &MemoryMap) -> R) -> R {
        let map = self.map;
        if self.cfg.policy.hypervisor_kernel {
            self.stats.hypervisor_calls += 1;
            let mut adapter = BypassKernelMem {
                sys: &mut self.sys,
                map,
            };
            f(&mut adapter, &map)
        } else {
            let mut adapter = CachedKernelMem {
                sys: &mut self.sys,
                map,
            };
            f(&mut adapter, &map)
        }
    }

    // ---------------------------------------------------------------- commit

    fn commit_stage(&mut self) {
        let mut budget = self.cfg.width;
        while budget > 0 && self.rob_count > 0 && self.exit.is_none() {
            let head = self.rob_head;
            if self.rob_seq[head] == 0 {
                self.massert(false, "rob head empty while count nonzero");
                return;
            }
            if !self.rob_completed[head] {
                break;
            }
            let slot = self.rob_pay[head];
            // Deferred ISA fault reaching commit (architecturally real).
            if let Some(f) = slot.fault {
                self.exit = Some(
                    if slot.from_decoder && self.cfg.policy.decode_fault_asserts {
                        // MARSS-style: the model cannot represent the corrupted
                        // instruction and stops with an assertion (Remark 8).
                        SimExit::SimAssert(format!(
                            "decoder: cannot decode instruction at {:#x} ({f})",
                            slot.pc
                        ))
                    } else {
                        // gem5-style: surface the ISA fault to the guest.
                        SimExit::ProcessCrash(f)
                    },
                );
                return;
            }
            // Alignment fixups are handled + logged by the kernel.
            if slot.alignment_exc {
                let out = self.kernel_call(|m, map| kernel::log_exception(m, map));
                match out {
                    Ok(()) => self.stats.exceptions += 1,
                    Err(KernelOutcome::Panic(msg)) => {
                        self.exit = Some(SimExit::SystemCrash(msg));
                        return;
                    }
                    Err(_) => {}
                }
            }
            match slot.uop.kind {
                UopKind::Store if self.commit_store(&slot).is_err() => {
                    return;
                }
                UopKind::Syscall => {
                    self.syscalls_in_rob = self.syscalls_in_rob.saturating_sub(1);
                    if self.commit_syscall().is_err() {
                        return;
                    }
                }
                UopKind::Hint => {
                    let out = self.kernel_call(|m, map| kernel::log_exception(m, map));
                    match out {
                        Ok(()) => self.stats.exceptions += 1,
                        Err(KernelOutcome::Panic(msg)) => {
                            self.exit = Some(SimExit::SystemCrash(msg));
                            return;
                        }
                        Err(_) => {}
                    }
                }
                UopKind::Branch => {
                    if slot.uop.branch == BranchKind::CondDirect {
                        self.pred.update(slot.pc, slot.taken);
                        if slot.taken {
                            self.btb.update_direct(slot.pc, slot.uop.target);
                        }
                    } else if slot.uop.branch == BranchKind::JumpInd {
                        self.btb.update_indirect(slot.pc, slot.actual_next);
                    }
                }
                UopKind::Load => self.stats.committed_loads += 1,
                _ => {}
            }
            if matches!(
                self.exit,
                Some(SimExit::SystemCrash(_) | SimExit::ProcessCrash(_))
            ) {
                return;
            }
            // Release the previous mapping of the destination.
            if let Some(dest) = slot.dest_arch {
                let keep = slot.prev_preg;
                if dest.is_fp() {
                    self.ffree.release(keep);
                    self.fprf.set_ready(keep, true);
                } else {
                    self.ifree.release(keep);
                    self.iprf.set_ready(keep, true);
                }
                self.iq.note_ready(keep, dest.is_fp());
                if self.profile {
                    self.prof.wakeups += 1;
                }
            }
            // Free the LSQ entry (commit order must match allocation order).
            if let Some(l) = slot.lsq_slot {
                let ok = self.lsq_order.front() == Some(l);
                if !self.massert(ok, "lsq commit order violated") {
                    return;
                }
                self.lsq_order.pop_front();
                self.lsq_meta[l as usize] = LsqMeta::empty();
            }
            if slot.uop.kind == UopKind::Store {
                self.stats.committed_stores += 1;
            }
            self.rob_seq[head] = 0;
            self.rob_ev_at[head] = NO_EVENT;
            self.rob_head = self.rob_next(head);
            self.rob_count -= 1;
            if self.trace.is_some() {
                // Committed-state signature: PC + destination value, read
                // without fault-hook side effects so tracing never perturbs
                // liveness or the run's result.
                let val = match slot.uop.pd {
                    Some((p, true)) => self.fprf.peek(p),
                    Some((p, false)) => self.iprf.peek(p),
                    None => 0,
                };
                let cycle = self.cycle;
                if let Some(t) = &mut self.trace {
                    t.fold(slot.pc);
                    t.fold(val);
                    if slot.inst_end {
                        t.commit_boundary(cycle);
                    }
                }
            }
            self.stats.committed_uops += 1;
            if slot.inst_end {
                self.stats.committed_instructions += 1;
            }
            self.last_commit_cycle = self.cycle;
            budget -= 1;
        }
    }

    fn commit_store(&mut self, slot: &RobPayload) -> Result<(), ()> {
        let Some(l) = slot.lsq_slot else {
            self.massert(false, "store commit without lsq slot");
            return Err(());
        };
        let meta = self.lsq_meta[l as usize];
        let Some(addr) = meta.addr else {
            self.massert(false, "store commit without resolved address");
            return Err(());
        };
        let value = self.lsq_data.read(meta.data_slot);
        let w = meta.width.bytes() as usize;
        let bytes = value.to_le_bytes();
        self.sys.write_data(addr, &bytes[..w]);
        Ok(())
    }

    fn commit_syscall(&mut self) -> Result<(), ()> {
        let r0 = self.read_arch_int(0);
        let r1 = self.read_arch_int(1);
        let r2 = self.read_arch_int(2);
        let out = self.kernel_call(|m, map| kernel::handle_syscall(m, map, r0, r1, r2));
        match out {
            KernelOutcome::Continue(bytes) => {
                // Unknown syscall numbers are the ENOSYS path: the kernel
                // logged an exception before resuming the process.
                if !matches!(
                    r0,
                    kernel::sys::EXIT | kernel::sys::WRITE | kernel::sys::WRITE_INT
                ) {
                    self.stats.exceptions += 1;
                }
                self.output.extend_from_slice(&bytes);
                Ok(())
            }
            KernelOutcome::Exit(code) => {
                // Let the syscall instruction finish its commit accounting;
                // the run loop observes `exit` afterwards.
                self.exit = Some(SimExit::Exited(code));
                Ok(())
            }
            KernelOutcome::Panic(msg) => {
                self.exit = Some(SimExit::SystemCrash(msg));
                Err(())
            }
            KernelOutcome::Kill(f) => {
                self.exit = Some(SimExit::ProcessCrash(f));
                Err(())
            }
        }
    }

    /// Architectural read of an integer register through the current rename
    /// map (used by syscall commit; notes PRF reads like real operand reads).
    fn read_arch_int(&mut self, arch: usize) -> u64 {
        let p = self.imap.get(arch);
        self.iprf.read(p)
    }

    // ---------------------------------------------------------------- events

    fn fire_events(&mut self) {
        let now = self.cycle;
        let due = self.events.take_due(now);
        for &e in &due {
            if self.exit.is_some() {
                break;
            }
            if let EventKind::DisarmStuck {
                structure,
                entry,
                bit,
            } = e.kind
            {
                if let Some((h, row)) = self.hook_at(structure, entry) {
                    h.disarm_stuck(row, bit);
                }
                continue;
            }
            // Squashed entries drop their events. The `e.seq != 0` guard
            // matters: an event recorded against an empty slot (reachable
            // only through payload corruption) carries seq 0, which must not
            // match a *freed* slot's rob_seq of 0.
            let valid = e.seq != 0 && self.rob_seq[e.rob] == e.seq && !self.rob_completed[e.rob];
            if !valid {
                continue;
            }
            if self.rob_ev_at[e.rob] == e.at {
                self.rob_ev_at[e.rob] = NO_EVENT;
            }
            match e.kind {
                EventKind::WriteBack { preg, fp, value } => {
                    self.write_preg(preg, fp, value);
                    self.rob_completed[e.rob] = true;
                }
                EventKind::LoadWriteBack {
                    preg,
                    fp,
                    lsq_data_slot,
                    value,
                    width,
                    signed,
                } => {
                    let raw = match lsq_data_slot {
                        // Unified LSQ: the staged value is read back from
                        // the (injectable) data array at writeback time.
                        Some(slot) => self.lsq_data.read(slot),
                        None => value,
                    };
                    let v = extend(mask_width(raw, width), width, signed);
                    self.write_preg(preg, fp, v);
                    self.rob_completed[e.rob] = true;
                }
                EventKind::BranchResolve => {
                    self.resolve_branch(e.rob);
                }
                EventKind::Complete => {
                    self.rob_completed[e.rob] = true;
                }
                EventKind::DisarmStuck { .. } => unreachable!("handled above"),
            }
        }
        self.events.put_back(due);
    }

    fn write_preg(&mut self, preg: u16, fp: bool, value: u64) {
        if fp {
            self.fprf.write(preg, value);
            self.fprf.set_ready(preg, true);
        } else {
            self.iprf.write(preg, value);
            self.iprf.set_ready(preg, true);
        }
        self.iq.note_ready(preg, fp);
        if self.profile {
            self.prof.wakeups += 1;
        }
    }

    fn resolve_branch(&mut self, rob_idx: usize) {
        let pred_next = self.rob_pay[rob_idx].pred_next;
        let actual_next = self.rob_pay[rob_idx].actual_next;
        let inst_seq = self.rob_seq[rob_idx];
        self.rob_completed[rob_idx] = true;
        if actual_next != pred_next {
            self.squash_younger(inst_seq, actual_next);
        }
    }

    // ---------------------------------------------------------------- squash

    /// Squashes every ROB entry with `seq > bound` (strictly younger),
    /// restores the rename maps, frees resources, and redirects fetch.
    fn squash_younger(&mut self, bound: u64, new_pc: u64) {
        while self.rob_count > 0 {
            let idx = self.rob_prev(self.rob_tail);
            let seq = self.rob_seq[idx];
            if seq == 0 {
                self.massert(false, "rob tail empty during squash");
                return;
            }
            if seq <= bound {
                break;
            }
            let slot = self.rob_pay[idx];
            // Eagerly drop the entry's pending wheel event so it never has
            // to be skipped lazily (an event already drained into the
            // in-flight scratch still dies on the seq-validity check).
            let ev_at = self.rob_ev_at[idx];
            if ev_at != NO_EVENT {
                self.events.cancel(ev_at, idx, seq);
                self.rob_ev_at[idx] = NO_EVENT;
            }
            self.rob_seq[idx] = 0;
            self.rob_tail = idx;
            self.rob_count -= 1;
            if slot.uop.kind == UopKind::Syscall {
                self.syscalls_in_rob = self.syscalls_in_rob.saturating_sub(1);
            }
            if let Some(dest) = slot.dest_arch {
                let newp = if dest.is_fp() {
                    let cur = self.fmap.get(dest.class_index());
                    self.fmap.set(dest.class_index(), slot.prev_preg);
                    cur
                } else {
                    let cur = self.imap.get(dest.class_index());
                    self.imap.set(dest.class_index(), slot.prev_preg);
                    cur
                };
                if self.cfg.policy.rich_asserts
                    && !self.massert(
                        Some((newp, dest.is_fp())) == slot.uop.pd,
                        "rename walk-back mismatch",
                    )
                {
                    return;
                }
                if dest.is_fp() {
                    self.ffree.release(newp);
                    self.fprf.set_ready(newp, true);
                } else {
                    self.ifree.release(newp);
                    self.iprf.set_ready(newp, true);
                }
                self.iq.note_ready(newp, dest.is_fp());
                if self.profile {
                    self.prof.wakeups += 1;
                }
            }
            if let Some(iqs) = slot.iq_slot {
                if self.iq.occupied(iqs) {
                    self.iq.free(iqs);
                }
            }
            if let Some(l) = slot.lsq_slot {
                let ok = self.lsq_order.back() == Some(l);
                if !self.massert(ok, "lsq squash order violated") {
                    return;
                }
                self.lsq_order.pop_back();
                self.lsq_meta[l as usize] = LsqMeta::empty();
            }
        }
        self.fetch_queue.clear();
        self.fetch_wait = false;
        self.fetch_pc = new_pc;
        self.stats.flushes += 1;
        if self.profile {
            self.prof.squashes += 1;
        }
    }

    // ----------------------------------------------------------------- issue

    fn issue_stage(&mut self) {
        // Gather ready candidates oldest-first into the reusable scratch
        // (its capacity survives across cycles; early returns below end the
        // run, so losing it there is immaterial).
        let mut candidates = std::mem::take(&mut self.issue_scratch);
        if self.iq.passive() {
            // No armed hook, no residency: the walk covers only entries the
            // wakeup chains have marked operands-ready — squashes and
            // writebacks maintain the mask, so nothing here re-polls the
            // register files (the armed path below stays unchanged).
            for slot in self.iq.ready_slots() {
                let w = self.iq.wake(slot);
                let rob_idx = w.rob as usize;
                debug_assert!(
                    self.rob_seq[rob_idx] != 0,
                    "iq entry references empty rob slot without faults"
                );
                debug_assert!(
                    self.src_ready(w.pa) && self.src_ready(w.pb),
                    "ready mask out of sync with register files"
                );
                if self.rob_retry_at[rob_idx] > self.cycle {
                    continue;
                }
                let seq = self.rob_seq[rob_idx];
                if w.is_load && !self.cfg.policy.aggressive_loads {
                    // gem5 policy: wait until all older stores have addresses.
                    let blocked = self.lsq_order.iter().any(|l| {
                        let m = &self.lsq_meta[l as usize];
                        m.valid && m.is_store && m.seq < seq && m.addr.is_none()
                    });
                    if blocked {
                        continue;
                    }
                }
                candidates.push((seq, slot));
            }
            candidates.sort_unstable();
            return self.issue_from(candidates);
        }
        for slot in 0..self.iq.slots() {
            if !self.iq.occupied(slot) {
                continue;
            }
            let u = match self.iq.read(slot) {
                Ok(u) => u,
                Err(e) => {
                    // Corrupted payload: impossible encoding reached the
                    // scheduler (Remark 8 divergence).
                    self.exit = Some(if self.cfg.policy.payload_error_asserts {
                        SimExit::SimAssert(format!("issue queue payload: {e}"))
                    } else {
                        SimExit::SimCrash(format!("scheduler wedged: {e}"))
                    });
                    return;
                }
            };
            let rob_idx = u.rob as usize;
            if self.rob_seq[rob_idx] == 0 {
                // A fault retargeted the payload's ROB pointer at a hole.
                self.exit = Some(if self.cfg.policy.payload_error_asserts {
                    SimExit::SimAssert("iq entry references empty rob slot".into())
                } else {
                    SimExit::SimCrash("iq entry references empty rob slot".into())
                });
                return;
            }
            if self.rob_retry_at[rob_idx] > self.cycle {
                continue;
            }
            if !self.operands_ready(&u) {
                continue;
            }
            let seq = self.rob_seq[rob_idx];
            if u.kind == UopKind::Load && !self.cfg.policy.aggressive_loads {
                // gem5 policy: wait until all older stores have addresses.
                let blocked = self.lsq_order.iter().any(|l| {
                    let m = &self.lsq_meta[l as usize];
                    m.valid && m.is_store && m.seq < seq && m.addr.is_none()
                });
                if blocked {
                    continue;
                }
            }
            candidates.push((seq, slot));
        }
        candidates.sort_unstable();
        self.issue_from(candidates);
    }

    /// Issues the gathered candidate list oldest-first within the cycle's
    /// width and functional-unit budgets, then returns the (cleared)
    /// scratch vector to the core for next cycle.
    fn issue_from(&mut self, mut candidates: Vec<(u64, usize)>) {
        let mut int_budget = self.cfg.int_alus;
        let mut muldiv_budget = self.cfg.mul_div_units;
        let mut fp_budget = self.cfg.fp_units;
        let mut mem_budget = self.cfg.mem_ports;
        let mut issued = 0;
        let flushes_before = self.stats.flushes;
        for &(_, slot) in &candidates {
            if issued >= self.cfg.width || self.exit.is_some() {
                break;
            }
            // A mid-issue squash (alias replay) invalidates the candidate
            // list: freed slots must not be touched again this cycle.
            if self.stats.flushes != flushes_before {
                break;
            }
            if !self.iq.occupied(slot) {
                continue;
            }
            let u = match self.iq.read(slot) {
                Ok(u) => u,
                Err(_) => continue,
            };
            let ok = match u.kind {
                UopKind::Alu if u.alu.is_div() || u.alu == difi_isa::uop::IntOp::Mul => {
                    if muldiv_budget == 0 {
                        false
                    } else {
                        muldiv_budget -= 1;
                        true
                    }
                }
                UopKind::Alu | UopKind::Branch => {
                    if int_budget == 0 {
                        false
                    } else {
                        int_budget -= 1;
                        true
                    }
                }
                UopKind::Fp => {
                    if fp_budget == 0 {
                        false
                    } else {
                        fp_budget -= 1;
                        true
                    }
                }
                UopKind::Load | UopKind::Store => {
                    if mem_budget == 0 {
                        false
                    } else {
                        mem_budget -= 1;
                        true
                    }
                }
                _ => true,
            };
            if !ok {
                continue;
            }
            let keep_in_iq = self.execute_uop(&u);
            if !keep_in_iq {
                self.iq.free(slot);
                let r = u.rob as usize;
                if self.rob_seq[r] != 0 {
                    self.rob_issued[r] = true;
                    self.rob_pay[r].iq_slot = None;
                }
            }
            issued += 1;
        }
        candidates.clear();
        self.issue_scratch = candidates;
    }

    /// Readiness of one wakeup-word source (see [`crate::queues::WakeInfo`]).
    /// Release builds only consult the incrementally-maintained ready mask;
    /// this re-poll survives as the debug-mode cross-check of that mask.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    #[inline]
    fn src_ready(&self, enc: u16) -> bool {
        if enc == crate::queues::NONE_SRC {
            true
        } else if enc & 1 << 15 != 0 {
            self.fprf.is_ready(enc & !(1 << 15))
        } else {
            self.iprf.is_ready(enc)
        }
    }

    fn operands_ready(&self, u: &RenamedUop) -> bool {
        let ready = |r: Option<(u16, bool)>| match r {
            None => true,
            Some((p, true)) => self.fprf.is_ready(p),
            Some((p, false)) => self.iprf.is_ready(p),
        };
        ready(u.pa) && ready(u.pb)
    }

    fn read_src(&mut self, r: Option<(u16, bool)>, imm: i64) -> u64 {
        match r {
            None => imm as u64,
            Some((p, true)) => self.fprf.read(p),
            Some((p, false)) => self.iprf.read(p),
        }
    }

    /// Executes one µop. Returns `true` when the µop must stay in the issue
    /// queue for a retry (blocked partial store overlap).
    fn execute_uop(&mut self, u: &RenamedUop) -> bool {
        let rob_idx = u.rob as usize;
        match u.kind {
            UopKind::Alu => {
                let a = self.read_src(u.pa, u.imm);
                let b = self.read_src(u.pb, u.imm);
                let lat = if u.alu.is_div() {
                    12
                } else if u.alu == difi_isa::uop::IntOp::Mul {
                    3
                } else {
                    1
                };
                let value = match eval_int_op(u.alu, u.width, a, b) {
                    Ok(v) => v,
                    Err(f) => {
                        if self.rob_seq[rob_idx] != 0 {
                            self.rob_pay[rob_idx].fault = Some(f);
                        }
                        0
                    }
                };
                let Some((preg, fp)) = u.pd else {
                    // Only reachable through payload corruption: the encoded
                    // destination-valid bit was cleared.
                    self.massert(false, "alu uop without destination");
                    return false;
                };
                self.push_event(rob_idx, lat, EventKind::WriteBack { preg, fp, value });
                false
            }
            UopKind::Fp => {
                let a = self.read_src(u.pa, 0);
                let b = self.read_src(u.pb, 0);
                let value = if u.fp == FpOp::CmpFlags
                    && u.pd.is_some_and(|(_, fp)| !fp)
                    && !self.flags_dest(u)
                {
                    eval_fp_predicate(u.imm, a, b)
                } else {
                    eval_fp_op(u.fp, a, b, u.imm)
                };
                let lat = if matches!(u.fp, FpOp::Div | FpOp::Sqrt) {
                    12
                } else {
                    4
                };
                let Some((preg, fp)) = u.pd else {
                    self.massert(false, "fp uop without destination");
                    return false;
                };
                self.push_event(rob_idx, lat, EventKind::WriteBack { preg, fp, value });
                false
            }
            UopKind::Load => self.execute_load(u),
            UopKind::Store => {
                self.execute_store(u);
                false
            }
            UopKind::Branch => {
                self.execute_branch(u);
                false
            }
            // Nop/Syscall/Hint complete at dispatch and never reach here.
            _ => {
                self.massert(false, "non-executable uop issued");
                false
            }
        }
    }

    /// The x86e FP compare writes the renamed FLAGS register (an integer
    /// preg); the arme predicate form writes a plain integer register. They
    /// are distinguished at decode by `cond_on_flags` being irrelevant —
    /// here by the destination's *architectural* identity, recorded in the
    /// ROB slot.
    fn flags_dest(&self, u: &RenamedUop) -> bool {
        let i = u.rob as usize;
        self.rob_seq[i] != 0 && self.rob_pay[i].dest_arch == Some(difi_isa::uop::Reg::FLAGS)
    }

    fn push_event(&mut self, rob_idx: usize, lat: u64, kind: EventKind) {
        // A corrupted payload can point at a free slot: record seq 0 so the
        // event can never validate against a later occupant (seqs start at 1).
        let seq = self.rob_seq[rob_idx];
        let at = self.cycle + lat.max(1);
        self.events.push(
            Event {
                at,
                rob: rob_idx,
                seq,
                kind,
            },
            self.cycle,
        );
        if seq != 0 {
            // Remember the due cycle so a squash can cancel the event
            // eagerly. A second event for the same slot (payload corruption)
            // overwrites the stamp; the stale one dies on the seq check.
            self.rob_ev_at[rob_idx] = at;
        }
    }

    fn execute_load(&mut self, u: &RenamedUop) -> bool {
        let rob_idx = u.rob as usize;
        let base = self.read_src(u.pa, 0);
        let vaddr = base.wrapping_add(u.imm as u64);
        let (paddr, _hit) = self.dtlb.translate(vaddr);
        let w = u.width.bytes();
        let (Some((preg, fp)), Some(lsq_slot)) = (u.pd, u.lsq) else {
            self.massert(false, "load uop with corrupted destination/lsq fields");
            return false;
        };
        if (lsq_slot as usize) >= self.lsq_meta.len() {
            self.massert(false, "load lsq index out of range");
            return false;
        }
        self.stats.issued_loads += 1;

        if !self.map.contains(paddr, w) {
            if self.rob_seq[rob_idx] != 0 {
                self.rob_pay[rob_idx].fault = Some(difi_isa::uop::Fault::OutOfBounds(paddr));
            }
            self.push_event(
                rob_idx,
                1,
                EventKind::LoadWriteBack {
                    preg,
                    fp,
                    lsq_data_slot: None,
                    value: 0,
                    width: u.width,
                    signed: u.signed,
                },
            );
            return false;
        }
        if self.isa == difi_isa::program::Isa::Arme && paddr % w != 0 && self.rob_seq[rob_idx] != 0
        {
            self.rob_pay[rob_idx].alignment_exc = true;
        }

        // Record the resolved address.
        let seq;
        {
            let m = &mut self.lsq_meta[lsq_slot as usize];
            m.addr = Some(paddr);
            m.width = u.width;
            seq = m.seq;
        }

        // Store scan: youngest older store overlapping this access.
        let mut forward: Option<(u16, u64)> = None; // (data_slot, store_seq)
        let mut partial_block = false;
        for l in self.lsq_order.iter() {
            let m = &self.lsq_meta[l as usize];
            if !m.valid || !m.is_store || m.seq >= seq {
                continue;
            }
            let Some(saddr) = m.addr else {
                continue; // aggressive policy: unknown-address stores ignored
            };
            let sw = m.width.bytes();
            let overlap = saddr < paddr + w && paddr < saddr + sw;
            if !overlap {
                continue;
            }
            if saddr == paddr && sw == w && m.data_ready {
                match forward {
                    Some((_, fseq)) if fseq > m.seq => {}
                    _ => forward = Some((m.data_slot, m.seq)),
                }
            } else {
                partial_block = true;
            }
        }
        if partial_block {
            // Retry once the conflicting store drains.
            if self.rob_seq[rob_idx] != 0 {
                self.rob_retry_at[rob_idx] = self.cycle + 3;
            }
            return true;
        }

        let (raw, lat) = if let Some((dslot, fseq)) = forward {
            let v = self.lsq_data.read(dslot);
            self.lsq_meta[lsq_slot as usize].forwarded_from = Some(fseq);
            (mask_width(v, u.width), 1u32)
        } else {
            let mut buf = [0u8; 8];
            let lat = self.sys.read_data(paddr, &mut buf[..w as usize]);
            (u64::from_le_bytes(buf), lat)
        };

        {
            let m = &mut self.lsq_meta[lsq_slot as usize];
            m.executed = true;
            m.data_ready = true;
        }

        let staged = match self.cfg.lsq {
            LsqOrg::Unified { .. } => {
                // MARSS: the load stages its value in the unified queue's
                // data field; writeback re-reads it (so LSQ faults can hit
                // load data — Remark 1).
                self.lsq_data.write(lsq_slot, raw);
                Some(lsq_slot)
            }
            LsqOrg::Split { .. } => None,
        };
        self.push_event(
            rob_idx,
            lat as u64,
            EventKind::LoadWriteBack {
                preg,
                fp,
                lsq_data_slot: staged,
                value: raw,
                width: u.width,
                signed: u.signed,
            },
        );
        false
    }

    fn execute_store(&mut self, u: &RenamedUop) {
        let rob_idx = u.rob as usize;
        let base = self.read_src(u.pa, 0);
        let vaddr = base.wrapping_add(u.imm as u64);
        let (paddr, _hit) = self.dtlb.translate(vaddr);
        let w = u.width.bytes();
        let data = self.read_src(u.pb, 0);
        let Some(lsq_slot) = u.lsq else {
            self.massert(false, "store uop with corrupted lsq field");
            return;
        };
        if (lsq_slot as usize) >= self.lsq_meta.len() {
            self.massert(false, "store lsq index out of range");
            return;
        }

        if self.rob_seq[rob_idx] != 0 {
            if !self.map.contains(paddr, w) {
                self.rob_pay[rob_idx].fault = Some(difi_isa::uop::Fault::OutOfBounds(paddr));
            } else if self.map.in_code(paddr, w) {
                self.rob_pay[rob_idx].fault = Some(difi_isa::uop::Fault::CodeWrite(paddr));
            } else if self.isa == difi_isa::program::Isa::Arme && paddr % w != 0 {
                self.rob_pay[rob_idx].alignment_exc = true;
            }
        }

        let seq;
        {
            let m = &mut self.lsq_meta[lsq_slot as usize];
            m.addr = Some(paddr);
            m.width = u.width;
            m.data_ready = true;
            m.executed = true;
            seq = m.seq;
        }
        self.lsq_data
            .write(self.lsq_meta[lsq_slot as usize].data_slot, data);
        self.push_event(rob_idx, 1, EventKind::Complete);

        // MARSS aggressive policy: detect younger loads that already ran
        // past this store (memory-order violation) and replay them.
        if self.cfg.policy.aggressive_loads {
            let mut violator: Option<(u64, usize)> = None;
            for l in self.lsq_order.iter() {
                let m = &self.lsq_meta[l as usize];
                if !m.valid || m.is_store || m.seq <= seq || !m.executed {
                    continue;
                }
                let Some(laddr) = m.addr else { continue };
                let lw = m.width.bytes();
                let overlap = paddr < laddr + lw && laddr < paddr + w;
                if overlap && m.forwarded_from != Some(seq) {
                    match violator {
                        Some((vseq, _)) if vseq < m.seq => {}
                        _ => violator = Some((m.seq, m.rob as usize)),
                    }
                }
            }
            if let Some((_, load_rob)) = violator {
                if self.rob_seq[load_rob] != 0 {
                    let replay_pc = self.rob_pay[load_rob].pc;
                    let bound = self.rob_seq[load_rob];
                    self.stats.load_replays += 1;
                    // Squash the load and everything younger; the bound is
                    // one below the load's own seq so the load itself goes.
                    self.squash_younger(bound.saturating_sub(1), replay_pc);
                }
            }
        }
    }

    fn execute_branch(&mut self, u: &RenamedUop) {
        let rob_idx = u.rob as usize;
        if self.rob_seq[rob_idx] == 0 {
            return;
        }
        let fallthrough = self.rob_pay[rob_idx].pc + self.rob_pay[rob_idx].ilen as u64;
        let (taken, actual_next) = match u.branch {
            BranchKind::CondDirect => {
                let taken = if u.cond_on_flags {
                    let fl = self.read_src(u.pa, 0);
                    u.cond.eval_flags(fl)
                } else {
                    let a = self.read_src(u.pa, 0);
                    let b = u.pb.map_or(0, |_| self.read_src(u.pb, 0));
                    u.cond.eval_regs(a, b)
                };
                (taken, if taken { u.target } else { fallthrough })
            }
            BranchKind::Jump | BranchKind::Call => {
                if let Some((preg, fp)) = u.pd {
                    // arme bl: write the link register.
                    self.write_preg(preg, fp, u.imm as u64);
                }
                (true, u.target)
            }
            BranchKind::JumpInd | BranchKind::Ret => {
                let t = self.read_src(u.pa, 0);
                (true, t)
            }
        };
        if self.rob_seq[rob_idx] != 0 {
            self.rob_pay[rob_idx].taken = taken;
            self.rob_pay[rob_idx].actual_next = actual_next;
        }
        self.push_event(rob_idx, 1, EventKind::BranchResolve);
    }

    // ---------------------------------------------------------------- rename

    fn requires_iq(kind: UopKind) -> bool {
        !matches!(kind, UopKind::Nop | UopKind::Syscall | UopKind::Hint)
    }

    fn rename_stage(&mut self) {
        let mut budget = self.cfg.width;
        while budget > 0 && self.exit.is_none() {
            // Serialize behind in-flight syscalls so their commit observes
            // clean architectural register state.
            if self.syscalls_in_rob > 0 {
                break;
            }
            let Some(inst) = self.fetch_queue.front() else {
                break;
            };
            let n = inst.uops.len().max(1);
            if n > budget && budget < self.cfg.width {
                break; // let the instruction start a fresh cycle
            }
            // Resource check across the whole instruction (one pass over
            // the µops, accumulating every per-resource demand).
            if self.rob_free() < n {
                break;
            }
            let (mut iq_needed, mut int_dests, mut fp_dests) = (0, 0, 0);
            let (mut loads, mut stores) = (0, 0);
            for u in inst.uops.iter() {
                iq_needed += Self::requires_iq(u.kind) as usize;
                match u.rd {
                    Some(r) if r.is_fp() => fp_dests += 1,
                    Some(_) => int_dests += 1,
                    None => {}
                }
                loads += (u.kind == UopKind::Load) as usize;
                stores += (u.kind == UopKind::Store) as usize;
            }
            if self.iq.free_slots() < iq_needed {
                break;
            }
            if self.ifree.available() < int_dests || self.ffree.available() < fp_dests {
                break;
            }
            if (loads | stores) != 0 && !self.lsq_has_room(loads, stores) {
                break;
            }

            let inst = self.fetch_queue.pop_front().expect("checked above");
            if let Some(f) = inst.decode_fault {
                // gem5 policy: a pseudo-entry carries the decode fault to
                // commit (squashed if wrong-path).
                let seq = self.alloc_seq();
                let idx = self.rob_tail;
                self.rob_seq[idx] = seq;
                self.rob_completed[idx] = true;
                self.rob_issued[idx] = true;
                self.rob_retry_at[idx] = 0;
                self.rob_ev_at[idx] = NO_EVENT;
                self.rob_pay[idx] = RobPayload {
                    pc: inst.pc,
                    ilen: inst.len,
                    uop: RenamedUop::nop(),
                    dest_arch: None,
                    prev_preg: 0,
                    fault: Some(f),
                    from_decoder: true,
                    alignment_exc: false,
                    taken: false,
                    actual_next: 0,
                    pred_next: inst.pred_next,
                    iq_slot: None,
                    lsq_slot: None,
                    inst_end: true,
                };
                self.rob_tail = self.rob_next(idx);
                self.rob_count += 1;
                budget -= 1;
                continue;
            }

            let last = inst.uops.len().saturating_sub(1);
            for (i, uop) in inst.uops.iter().enumerate() {
                self.dispatch_uop(&inst, uop, i == last);
                budget = budget.saturating_sub(1);
                if self.exit.is_some() {
                    return;
                }
            }
            if inst.uops.is_empty() {
                // A bare NOP-only instruction still retires.
                let nop = Uop::nop();
                self.dispatch_uop(&inst, &nop, true);
                budget = budget.saturating_sub(1);
            }
        }
    }

    fn alloc_seq(&mut self) -> u64 {
        self.seq_counter += 1;
        self.seq_counter
    }

    fn dispatch_uop(&mut self, inst: &PendingInst, uop: &Uop, is_last: bool) {
        let seq = self.alloc_seq();
        let idx = self.rob_tail;

        let rename_src = |core: &OoOCore, r: Option<difi_isa::uop::Reg>| -> Option<(u16, bool)> {
            r.map(|reg| {
                if reg.is_fp() {
                    (core.fmap.get(reg.class_index()), true)
                } else {
                    (core.imap.get(reg.class_index()), false)
                }
            })
        };
        let pa = rename_src(self, uop.ra);
        let pb = rename_src(self, uop.rb);

        // Destination rename.
        let (pd, dest_arch, prev_preg) = if let Some(rd) = uop.rd {
            if rd.is_fp() {
                let Some(newp) = self.ffree.alloc() else {
                    self.massert(false, "fp free list exhausted at dispatch");
                    return;
                };
                let prev = self.fmap.set(rd.class_index(), newp);
                self.fprf.set_ready(newp, false);
                (Some((newp, true)), Some(rd), prev)
            } else {
                let Some(newp) = self.ifree.alloc() else {
                    self.massert(false, "int free list exhausted at dispatch");
                    return;
                };
                let prev = self.imap.set(rd.class_index(), newp);
                self.iprf.set_ready(newp, false);
                (Some((newp, false)), Some(rd), prev)
            }
        } else {
            (None, None, 0)
        };

        // LSQ allocation.
        let lsq_slot = match uop.kind {
            UopKind::Load => self.lsq_alloc(false, seq, idx as u16),
            UopKind::Store => self.lsq_alloc(true, seq, idx as u16),
            _ => None,
        };

        let renamed = RenamedUop {
            kind: uop.kind,
            alu: uop.alu,
            fp: uop.fp,
            width: uop.width,
            signed: uop.signed,
            cond: uop.cond,
            cond_on_flags: uop.cond_on_flags,
            branch: uop.branch,
            pd,
            pa,
            pb,
            imm: uop.imm,
            target: uop.target,
            rob: idx as u16,
            lsq: lsq_slot,
        };

        let needs_iq = Self::requires_iq(uop.kind);
        let iq_slot = if needs_iq {
            let Some(s) = self.iq.find_free() else {
                self.massert(false, "issue queue full at dispatch");
                return;
            };
            let ready = |src: Option<(u16, bool)>| match src {
                None => true,
                Some((p, true)) => self.fprf.is_ready(p),
                Some((p, false)) => self.iprf.is_ready(p),
            };
            let (pa_ready, pb_ready) = (ready(renamed.pa), ready(renamed.pb));
            self.iq.insert_tracked(s, renamed, pa_ready, pb_ready);
            Some(s)
        } else {
            None
        };

        self.rob_seq[idx] = seq;
        self.rob_completed[idx] = !needs_iq;
        self.rob_issued[idx] = !needs_iq;
        self.rob_retry_at[idx] = 0;
        self.rob_ev_at[idx] = NO_EVENT;
        self.rob_pay[idx] = RobPayload {
            pc: inst.pc,
            ilen: inst.len,
            uop: renamed,
            dest_arch,
            prev_preg,
            fault: None,
            from_decoder: false,
            alignment_exc: false,
            taken: false,
            actual_next: 0,
            pred_next: inst.pred_next,
            iq_slot,
            lsq_slot,
            inst_end: is_last,
        };
        self.rob_tail = self.rob_next(idx);
        self.rob_count += 1;
        if uop.kind == UopKind::Syscall {
            self.syscalls_in_rob += 1;
        }
    }

    fn lsq_has_room(&self, loads: usize, stores: usize) -> bool {
        match self.cfg.lsq {
            LsqOrg::Unified { entries } => {
                let used = self.lsq_order.len();
                entries - used >= loads + stores
            }
            LsqOrg::Split {
                loads: lq,
                stores: sq,
            } => {
                let lq_used = self.lsq_order.iter().filter(|&l| (l as usize) < lq).count();
                let sq_used = self.lsq_order.len() - lq_used;
                lq - lq_used >= loads && sq - sq_used >= stores
            }
        }
    }

    fn lsq_alloc(&mut self, is_store: bool, seq: u64, rob: u16) -> Option<u16> {
        let slot = match self.cfg.lsq {
            LsqOrg::Unified { entries } => {
                (0..entries as u16).find(|&i| !self.lsq_meta[i as usize].valid)
            }
            LsqOrg::Split { loads, stores } => {
                if is_store {
                    (loads as u16..(loads + stores) as u16)
                        .find(|&i| !self.lsq_meta[i as usize].valid)
                } else {
                    (0..loads as u16).find(|&i| !self.lsq_meta[i as usize].valid)
                }
            }
        }?;
        let data_slot = match self.cfg.lsq {
            LsqOrg::Unified { .. } => slot,
            LsqOrg::Split { loads, .. } => {
                if is_store {
                    slot - loads as u16
                } else {
                    0 // loads carry no data in the split organization
                }
            }
        };
        self.lsq_meta[slot as usize] = LsqMeta {
            valid: true,
            is_store,
            addr: None,
            width: Width::B8,
            seq,
            data_ready: false,
            data_slot,
            executed: false,
            forwarded_from: None,
            rob,
        };
        self.lsq_order.push_back(slot);
        Some(slot)
    }

    // ----------------------------------------------------------------- fetch

    fn fetch_stage(&mut self) {
        if self.fetch_wait || self.cycle < self.fetch_stall_until || self.exit.is_some() {
            return;
        }
        let mut budget = self.cfg.fetch_bytes as i64;
        let mut fetched = 0usize;
        while budget > 0
            && fetched < self.cfg.width
            && self.fetch_queue.len() < FETCH_QUEUE_CAP
            && self.exit.is_none()
        {
            let pc = self.fetch_pc;
            let (paddr, itlb_hit) = self.itlb.translate(pc);
            if !itlb_hit {
                self.fetch_stall_until = self.cycle + ITLB_MISS_PENALTY;
            }
            if !self.map.contains(paddr, 1) {
                self.fetch_fault(pc, difi_isa::uop::Fault::OutOfBounds(paddr));
                return;
            }
            let avail = (self.map.size - paddr).min(MAX_INST_LEN as u64) as usize;
            let mut buf = [0u8; MAX_INST_LEN];
            let lat = self.sys.fetch(paddr, &mut buf[..avail]);
            if lat > self.sys.lat.l1_hit {
                self.fetch_stall_until = self.cycle + (lat - self.sys.lat.l1_hit) as u64;
            }
            // Opcode corruption acts on the raw bytes before decode, so the
            // corrupted word misses the exact-byte decode cache and
            // re-decodes (possibly to a different instruction or a fault).
            if self.scenario_armed && self.scenario_remaining > 0 {
                if let EngineScenario::OpcodeCorrupt { xor, .. } = self.scenario {
                    let x = xor.to_le_bytes();
                    for (b, m) in buf[..avail].iter_mut().zip(x.iter()) {
                        *b ^= m;
                    }
                    self.scenario_remaining -= 1;
                    self.note_scenario_fired();
                }
            }
            // Decode through the direct-mapped cache: a hit requires both the
            // pc tag and the exact fetched bytes to match, so faulty bytes
            // (icache/memory corruption) always miss and re-decode. Both
            // byte arrays zero-fill past `avail`, so the whole fixed-size
            // compare (which the compiler flattens to two word compares)
            // equals the `..avail` prefix compare.
            let slot = (pc as usize) & (super::DECODE_CACHE_SLOTS - 1);
            let e = &self.decode_cache[slot];
            let hit = e.pc == pc && e.avail as usize == avail && e.bytes == buf;
            if hit && self.profile {
                self.prof.memo_hits += 1;
            }
            let d = if hit {
                self.decode_cache[slot].d
            } else {
                let d = difi_isa::decode(self.isa, &buf[..avail], pc);
                self.decode_cache[slot] = super::DecodeCacheEntry {
                    pc,
                    avail: avail as u8,
                    bytes: buf,
                    d,
                };
                d
            };
            if let Some(f) = d.fault {
                self.fetch_fault(pc, f);
                return;
            }
            // Post-decode attack payloads mutate a local copy; the decode
            // cache keeps the pristine decode of the untouched bytes.
            let mut d = d;
            if self.scenario_armed && self.scenario_remaining > 0 {
                match self.scenario {
                    EngineScenario::InstructionSkip { .. } => {
                        // The skipped instruction occupies its fetch slot and
                        // retires as a bare NOP: no µops, fall-through next
                        // pc, and no predictor/RAS/BTB interaction — exactly
                        // the ARMORY skip semantics.
                        self.scenario_remaining -= 1;
                        self.note_scenario_fired();
                        budget -= d.len as i64;
                        let fallthrough = pc + d.len as u64;
                        self.fetch_queue.push_back(PendingInst {
                            pc,
                            len: d.len,
                            uops: difi_isa::uop::UopVec::new(),
                            pred_next: fallthrough,
                            decode_fault: None,
                        });
                        fetched += 1;
                        self.fetch_pc = fallthrough;
                        continue;
                    }
                    EngineScenario::BranchInvert { .. } => {
                        if let Some(b) = d
                            .uops
                            .iter()
                            .position(|u| u.is_branch() && u.branch == BranchKind::CondDirect)
                        {
                            d.uops[b].cond = d.uops[b].cond.invert();
                            self.scenario_remaining -= 1;
                            self.note_scenario_fired();
                        }
                    }
                    EngineScenario::None | EngineScenario::OpcodeCorrupt { .. } => {}
                }
            }
            budget -= d.len as i64;
            let (pred_next, _pred_taken) = self.predict(pc, d.len, &d.uops);
            self.fetch_queue.push_back(PendingInst {
                pc,
                len: d.len,
                uops: d.uops,
                pred_next,
                decode_fault: None,
            });
            fetched += 1;
            let fallthrough = pc + self.fetch_queue.back().expect("just pushed").len as u64;
            self.fetch_pc = pred_next;
            if pred_next != fallthrough {
                break; // taken-branch fetch break
            }
        }
    }

    /// Handles an undecodable fetch: a pseudo-instruction carries the fault
    /// to commit (squashed when the fetch was down the wrong path). The
    /// Remark 8 divergence is decided at commit: MARSS-style models assert,
    /// gem5-style models raise the ISA fault to the guest.
    fn fetch_fault(&mut self, pc: u64, f: difi_isa::uop::Fault) {
        self.fetch_queue.push_back(PendingInst {
            pc,
            len: 1,
            uops: difi_isa::uop::UopVec::new(),
            pred_next: pc + 1,
            decode_fault: Some(f),
        });
        self.fetch_wait = true;
    }

    fn predict(&mut self, pc: u64, len: u8, uops: &[Uop]) -> (u64, bool) {
        let fallthrough = pc + len as u64;
        let Some(b) = uops.iter().find(|u| u.is_branch()) else {
            return (fallthrough, false);
        };
        match b.branch {
            BranchKind::CondDirect => {
                let taken = self.pred.predict(pc);
                if taken {
                    let target = self.btb.lookup_direct(pc).unwrap_or(b.target);
                    (target, true)
                } else {
                    (fallthrough, false)
                }
            }
            BranchKind::Jump => (b.target, true),
            BranchKind::Call => {
                self.ras.push(fallthrough);
                (b.target, true)
            }
            BranchKind::Ret => match self.ras.pop() {
                Some(t) => (t, true),
                None => (fallthrough, false),
            },
            BranchKind::JumpInd => match self.btb.lookup_indirect(pc) {
                Some(t) => (t, true),
                None => (fallthrough, false),
            },
        }
    }
}

fn mask_width(v: u64, w: Width) -> u64 {
    match w {
        Width::B1 => v & 0xFF,
        Width::B2 => v & 0xFFFF,
        Width::B4 => v & 0xFFFF_FFFF,
        Width::B8 => v,
    }
}

/// Kernel memory adapter: hypervisor style — straight to main memory.
struct BypassKernelMem<'a> {
    sys: &'a mut MemSystem,
    map: MemoryMap,
}

impl KernelMem for BypassKernelMem<'_> {
    fn read_u64(&mut self, addr: u64) -> Result<u64, difi_isa::uop::Fault> {
        if !self.map.contains(addr, 8) {
            return Err(difi_isa::uop::Fault::OutOfBounds(addr));
        }
        let mut b = [0u8; 8];
        self.sys.bypass_read(addr, &mut b);
        Ok(u64::from_le_bytes(b))
    }

    fn write_u64(&mut self, addr: u64, value: u64) -> Result<(), difi_isa::uop::Fault> {
        if !self.map.contains(addr, 8) {
            return Err(difi_isa::uop::Fault::OutOfBounds(addr));
        }
        self.sys.bypass_write(addr, &value.to_le_bytes());
        Ok(())
    }

    fn read_bytes(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), difi_isa::uop::Fault> {
        if !self.map.contains(addr, buf.len() as u64) {
            return Err(difi_isa::uop::Fault::OutOfBounds(addr));
        }
        self.sys.bypass_read(addr, buf);
        Ok(())
    }
}

/// Kernel memory adapter: gem5 style — kernel accesses travel through the
/// data cache like any other access (so cache faults reach kernel state).
struct CachedKernelMem<'a> {
    sys: &'a mut MemSystem,
    map: MemoryMap,
}

impl KernelMem for CachedKernelMem<'_> {
    fn read_u64(&mut self, addr: u64) -> Result<u64, difi_isa::uop::Fault> {
        if !self.map.contains(addr, 8) {
            return Err(difi_isa::uop::Fault::OutOfBounds(addr));
        }
        let mut b = [0u8; 8];
        self.sys.read_data(addr, &mut b);
        Ok(u64::from_le_bytes(b))
    }

    fn write_u64(&mut self, addr: u64, value: u64) -> Result<(), difi_isa::uop::Fault> {
        if !self.map.contains(addr, 8) {
            return Err(difi_isa::uop::Fault::OutOfBounds(addr));
        }
        self.sys.write_data(addr, &value.to_le_bytes());
        Ok(())
    }

    fn read_bytes(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), difi_isa::uop::Fault> {
        if !self.map.contains(addr, buf.len() as u64) {
            return Err(difi_isa::uop::Fault::OutOfBounds(addr));
        }
        self.sys.read_data(addr, buf);
        Ok(())
    }
}
