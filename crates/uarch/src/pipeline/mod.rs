//! The shared out-of-order core engine.
//!
//! One engine, two personalities: every policy switch in [`CorePolicy`]
//! corresponds to a MARSS/gem5 difference the paper documents (§IV and
//! Remarks 1–8). `difi_core::substrate` holds the MARSS-flavoured
//! configuration behind MaFIN and the gem5-flavoured ones behind GeFIN. See
//! DESIGN.md ("Engine-sharing note") for why the reproduction makes the
//! divergences explicit knobs instead of duplicating the codebase.
//!
//! The pipeline models fetch (with tournament + BTB + RAS prediction and
//! wrong-path execution), decode/crack, rename (physical register files,
//! walk-back recovery via the ROB), dispatch into a packed-payload issue
//! queue and a load/store queue, out-of-order issue with functional-unit
//! limits, speculative load issue with alias replay (MARSS policy),
//! store-to-load forwarding, branch resolution with full squash, and
//! in-order commit that drains stores, raises deferred ISA faults, trains
//! predictors, and calls into the nano-kernel.

pub mod engine;

use crate::cache::CacheConfig;
use crate::fault::{FaultHook, StructureDesc, StructureId, WatchReport};
use crate::mem::{MainMemory, MemPolicy, MemSystem};
use crate::predictor::{Btb, BtbConfig, Ras, Tournament, TournamentConfig};
use crate::queues::{IssueQueue, LsqDataArray, OrderRing, PayloadLimits, RenamedUop};
use crate::regfile::{FreeList, PhysRegFile, RenameMap};
use crate::residency::ResidencyLog;
use crate::stats::{ProfileCounters, SimStats};
use crate::tlb::{Tlb, TlbConfig};
use crate::trace::{CoreTrace, TraceReport};
use difi_isa::program::{Isa, MemoryMap, Program};
use difi_isa::uop::{Fault, Reg, UopVec, Width};
use std::sync::Arc;

/// Branch-target-buffer organization (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BtbOrg {
    /// MARSS: a 4-way 1K-entry BTB for direct branches plus a 4-way
    /// 512-entry BTB for indirect branches.
    MarssSplit,
    /// gem5: one direct-mapped 2K-entry BTB for all branches.
    Gem5Unified,
}

/// Load/store queue organization (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LsqOrg {
    /// MARSS: one unified queue; loads *and* stores hold data.
    Unified {
        /// Total entries (32 in the paper's configuration).
        entries: usize,
    },
    /// gem5: split queues; only the store queue holds data.
    Split {
        /// Load-queue entries (16).
        loads: usize,
        /// Store-queue entries (16).
        stores: usize,
    },
}

impl LsqOrg {
    /// Entries carrying injectable data bits.
    pub fn data_entries(&self) -> usize {
        match *self {
            LsqOrg::Unified { entries } => entries,
            LsqOrg::Split { stores, .. } => stores,
        }
    }

    /// Total queue capacity.
    pub fn total_entries(&self) -> usize {
        match *self {
            LsqOrg::Unified { entries } => entries,
            LsqOrg::Split { loads, stores } => loads + stores,
        }
    }
}

/// Behavioural switches — each one is a documented MARSS/gem5 difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorePolicy {
    /// MARSS issues loads before older store addresses are known and
    /// replays on alias violations; gem5 waits (Remark 3).
    pub aggressive_loads: bool,
    /// Kernel services run through the QEMU-style hypervisor: memory
    /// accesses bypass the caches (MARSS), vs. through the cache hierarchy
    /// (gem5). Implies `store_through`.
    pub hypervisor_kernel: bool,
    /// Committed stores also update main memory (MARSS/QEMU coherence).
    pub store_through: bool,
    /// Undecodable instruction bytes raise a simulator assertion at decode
    /// time, even on the wrong path (MARSS); otherwise they become deferred
    /// ISA faults raised at commit (gem5) — Remark 8.
    pub decode_fault_asserts: bool,
    /// Corrupted issue-queue payloads raise assertions (MARSS) vs.
    /// simulator crashes (gem5) — Remark 8.
    pub payload_error_asserts: bool,
    /// Dense internal consistency checking (MARSS's assert-rich style).
    pub rich_asserts: bool,
    /// Next-line prefetchers on the L1 caches (added to MARSS, Table IV).
    pub prefetchers: bool,
    /// Model the cache data arrays (MaFIN's §III.C extension). `false`
    /// reproduces *original* MARSS performance mode: no cache-data fault
    /// injection, ≈40% faster (the EXP-OVH comparison). Requires
    /// `store_through`.
    pub model_cache_data: bool,
}

/// Full core configuration (Table II parameters plus the policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Integer physical registers.
    pub int_prf: usize,
    /// FP physical registers.
    pub fp_prf: usize,
    /// Issue-queue entries.
    pub iq_entries: usize,
    /// Reorder-buffer entries.
    pub rob_entries: usize,
    /// LSQ organization.
    pub lsq: LsqOrg,
    /// Fetch/rename/issue/commit width in µops.
    pub width: usize,
    /// Fetch bytes per cycle.
    pub fetch_bytes: usize,
    /// Simple integer ALUs.
    pub int_alus: usize,
    /// Multiply/divide units.
    pub mul_div_units: usize,
    /// FP units.
    pub fp_units: usize,
    /// Memory ports (AGUs).
    pub mem_ports: usize,
    /// Return-address stack depth.
    pub ras_depth: usize,
    /// Tournament predictor configuration.
    pub predictor: TournamentConfig,
    /// BTB organization.
    pub btb: BtbOrg,
    /// L1I geometry.
    pub l1i: CacheConfig,
    /// L1D geometry.
    pub l1d: CacheConfig,
    /// L2 geometry.
    pub l2: CacheConfig,
    /// Behaviour switches.
    pub policy: CorePolicy,
}

impl CoreConfig {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message when a parameter combination is unusable (e.g. too
    /// few physical registers to cover the architectural state).
    pub fn validate(&self) -> Result<(), String> {
        if self.int_prf < Reg::NUM_INT + self.width {
            return Err("integer PRF too small".into());
        }
        if self.fp_prf < Reg::NUM_FP + self.width {
            return Err("fp PRF too small".into());
        }
        if self.rob_entries == 0 || self.rob_entries > 256 {
            return Err("rob entries out of range (1..=256)".into());
        }
        if self.policy.hypervisor_kernel && !self.policy.store_through {
            return Err("hypervisor kernel requires store-through coherence".into());
        }
        if !self.policy.model_cache_data && !self.policy.store_through {
            return Err("performance mode (no data arrays) requires store-through".into());
        }
        if self.lsq.data_entries() > 128 {
            return Err("lsq too large for payload encoding".into());
        }
        Ok(())
    }
}

/// Terminal state of one detailed-simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimExit {
    /// Workload exited with this code.
    Exited(u64),
    /// Unrecoverable ISA fault killed the process.
    ProcessCrash(Fault),
    /// Nano-kernel panic.
    SystemCrash(&'static str),
    /// Simulator assertion fired (message attached).
    SimAssert(String),
    /// Simulator reached an unhandled internal state.
    SimCrash(String),
    /// Cycle budget or commit watchdog expired.
    Timeout,
    /// Early stop: every injected fault proven masked, for this reason.
    EarlyMasked(engine::EarlyWhy),
}

/// Result of a detailed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRun {
    /// Terminal state.
    pub exit: SimExit,
    /// Console output.
    pub output: Vec<u8>,
    /// Handled (logged) ISA exceptions.
    pub exceptions: u64,
    /// Runtime statistics.
    pub stats: SimStats,
    /// True when any injected fault was read after injection.
    pub fault_consumed: bool,
}

/// The cold per-entry payload of one reorder-buffer slot.
///
/// The ROB is stored structure-of-arrays: the fields the cycle loop probes
/// every cycle (`seq`, `completed`, `issued`, `retry_at`, the pending-event
/// stamp) live in parallel arrays on [`OoOCore`], while this `Copy` record
/// holds everything touched only at dispatch, execute, squash, and commit.
/// A slot is *free* when its `rob_seq` entry is 0 (sequence numbers start
/// at 1 and are never reused).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RobPayload {
    pub pc: u64,
    pub ilen: u8,
    pub uop: RenamedUop,
    /// Destination architectural register (for walk-back), with its class.
    pub dest_arch: Option<Reg>,
    pub prev_preg: u16,
    /// Deferred ISA fault, surfaced at commit.
    pub fault: Option<Fault>,
    /// The fault came from the decoder (an undecodable instruction) — the
    /// Remark 8 case where MARSS asserts and gem5 raises an ISA fault.
    pub from_decoder: bool,
    /// Misaligned access fixed up at execute; logged at commit (arme).
    pub alignment_exc: bool,
    /// Resolved branch outcome.
    pub taken: bool,
    pub actual_next: u64,
    /// The fetch path taken after this instruction (prediction).
    pub pred_next: u64,
    pub iq_slot: Option<usize>,
    pub lsq_slot: Option<u16>,
    /// Last µop of its architectural instruction.
    pub inst_end: bool,
}

impl RobPayload {
    pub(crate) fn blank() -> RobPayload {
        RobPayload {
            pc: 0,
            ilen: 0,
            uop: RenamedUop::nop(),
            dest_arch: None,
            prev_preg: 0,
            fault: None,
            from_decoder: false,
            alignment_exc: false,
            taken: false,
            actual_next: 0,
            pred_next: 0,
            iq_slot: None,
            lsq_slot: None,
            inst_end: false,
        }
    }
}

/// Sentinel in `rob_ev_at` meaning "no pending event for this slot".
pub(crate) const NO_EVENT: u64 = u64::MAX;

/// Load/store queue entry metadata (data bits live in [`LsqDataArray`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LsqMeta {
    pub valid: bool,
    pub is_store: bool,
    pub addr: Option<u64>,
    pub width: Width,
    pub seq: u64,
    /// Store data written / load value staged.
    pub data_ready: bool,
    /// For split organization: index into the data array (stores only).
    pub data_slot: u16,
    /// Load already performed its memory access.
    pub executed: bool,
    /// Load obtained its value by forwarding from this store seq.
    pub forwarded_from: Option<u64>,
    pub rob: u16,
}

impl LsqMeta {
    pub(crate) fn empty() -> LsqMeta {
        LsqMeta {
            valid: false,
            is_store: false,
            addr: None,
            width: Width::B8,
            seq: 0,
            data_ready: false,
            data_slot: 0,
            executed: false,
            forwarded_from: None,
            rob: 0,
        }
    }
}

/// Pending completion event.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EventKind {
    /// Write `value` to a physical register and wake dependents.
    WriteBack { preg: u16, fp: bool, value: u64 },
    /// Load writeback: read the staged value from the LSQ data array
    /// (unified organization) or use the captured value (split).
    LoadWriteBack {
        preg: u16,
        fp: bool,
        lsq_data_slot: Option<u16>,
        value: u64,
        width: Width,
        signed: bool,
    },
    /// Resolve a branch: compare against prediction, squash on mispredict.
    BranchResolve,
    /// Plain completion (stores, effect-free ops).
    Complete,
    /// Disarm an intermittent stuck fault.
    DisarmStuck {
        structure: StructureId,
        entry: u64,
        bit: u32,
    },
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub at: u64,
    pub rob: usize,
    pub seq: u64,
    pub kind: EventKind,
}

/// Number of cycle buckets in the event wheel. Must exceed the largest
/// execute latency the engine schedules against a ROB entry: the worst case
/// is a load straddling two cache lines with both missing to memory
/// (2 + 2×`memory` = 186 cycles under the default [`crate::mem::LatencyModel`]).
/// Power of two so the modulo compiles to a mask.
pub(crate) const WHEEL_BUCKETS: usize = 512;

/// A cycle-bucketed event wheel.
///
/// Replaces a flat `Vec<Event>` that was scanned (and compacted with
/// `swap_remove`) every cycle. Events land in the bucket of their due cycle;
/// draining is O(events due *now*). Events beyond the wheel horizon — only
/// long intermittent-fault disarms in practice — wait in `overflow` and
/// migrate into buckets as their cycle approaches. Bucket and scratch
/// capacities are retained across cycles, so the steady state allocates
/// nothing.
#[derive(Debug, Clone)]
pub(crate) struct EventWheel {
    buckets: Vec<Vec<Event>>,
    overflow: Vec<Event>,
    scratch: Vec<Event>,
}

impl EventWheel {
    pub(crate) fn new() -> EventWheel {
        EventWheel {
            buckets: (0..WHEEL_BUCKETS).map(|_| Vec::with_capacity(8)).collect(),
            overflow: Vec::new(),
            scratch: Vec::with_capacity(8),
        }
    }

    /// Schedules `e`. Requires `e.at >= now` (the engine always schedules
    /// with latency ≥ 1, or same-cycle before the wheel is drained).
    pub(crate) fn push(&mut self, e: Event, now: u64) {
        debug_assert!(e.at >= now, "event scheduled in the past");
        if e.at - now < WHEEL_BUCKETS as u64 {
            self.buckets[(e.at % WHEEL_BUCKETS as u64) as usize].push(e);
        } else {
            self.overflow.push(e);
        }
    }

    /// Drops the event for (`rob`, `seq`) scheduled at `at`, if it is still
    /// in the wheel (a squashed entry's event may already be in flight in
    /// the drained scratch — the engine's seq-validity check covers that).
    pub(crate) fn cancel(&mut self, at: u64, rob: usize, seq: u64) {
        let b = &mut self.buckets[(at % WHEEL_BUCKETS as u64) as usize];
        if let Some(i) = b.iter().position(|e| e.rob == rob && e.seq == seq) {
            b.swap_remove(i);
            return;
        }
        if let Some(i) = self
            .overflow
            .iter()
            .position(|e| e.at == at && e.rob == rob && e.seq == seq)
        {
            self.overflow.swap_remove(i);
        }
    }

    /// Removes and returns the events due at `now`, sorted by sequence
    /// number so same-cycle completions fire in program order regardless of
    /// scheduling order. Return the vector via [`EventWheel::put_back`] when
    /// done so its capacity is recycled.
    pub(crate) fn take_due(&mut self, now: u64) -> Vec<Event> {
        if !self.overflow.is_empty() {
            let mut i = 0;
            while i < self.overflow.len() {
                if self.overflow[i].at.saturating_sub(now) < WHEEL_BUCKETS as u64 {
                    let e = self.overflow.swap_remove(i);
                    self.buckets[(e.at % WHEEL_BUCKETS as u64) as usize].push(e);
                } else {
                    i += 1;
                }
            }
        }
        let mut due = std::mem::take(&mut self.scratch);
        let b = (now % WHEEL_BUCKETS as u64) as usize;
        std::mem::swap(&mut due, &mut self.buckets[b]);
        debug_assert!(due.iter().all(|e| e.at == now), "stale event in bucket");
        due.sort_unstable_by_key(|e| e.seq);
        due
    }

    /// Returns a drained vector's storage to the wheel.
    pub(crate) fn put_back(&mut self, mut due: Vec<Event>) {
        due.clear();
        self.scratch = due;
    }
}

/// Front-end BTB unit covering both Table II organizations.
#[derive(Debug, Clone)]
pub(crate) struct BtbUnit {
    pub direct: Btb,
    /// Present only in the MARSS split organization.
    pub indirect: Option<Btb>,
}

impl BtbUnit {
    pub(crate) fn new(org: BtbOrg) -> BtbUnit {
        match org {
            BtbOrg::MarssSplit => BtbUnit {
                direct: Btb::new(BtbConfig::MARSS_DIRECT),
                indirect: Some(Btb::new(BtbConfig::MARSS_INDIRECT)),
            },
            BtbOrg::Gem5Unified => BtbUnit {
                direct: Btb::new(BtbConfig::GEM5),
                indirect: None,
            },
        }
    }

    pub(crate) fn lookup_direct(&mut self, pc: u64) -> Option<u64> {
        self.direct.lookup(pc)
    }

    pub(crate) fn lookup_indirect(&mut self, pc: u64) -> Option<u64> {
        match &mut self.indirect {
            Some(b) => b.lookup(pc),
            None => self.direct.lookup(pc),
        }
    }

    pub(crate) fn update_direct(&mut self, pc: u64, target: u64) {
        self.direct.update(pc, target);
    }

    pub(crate) fn update_indirect(&mut self, pc: u64, target: u64) {
        match &mut self.indirect {
            Some(b) => b.update(pc, target),
            None => self.direct.update(pc, target),
        }
    }

    /// Total injectable entries across the unit.
    pub(crate) fn entries(&self) -> usize {
        self.direct.entries() + self.indirect.as_ref().map_or(0, |b| b.entries())
    }

    pub(crate) fn entry_bits(&self) -> u64 {
        self.direct.entry_bits()
    }

    /// Global entry of the indirect table's row 0: the direct table's rows
    /// come first, then the indirect table's.
    fn indirect_base(&self) -> u64 {
        self.direct.entries() as u64
    }

    /// The table holding global `entry`, and the entry's row in it — the
    /// one place the split organization numbers its entries.
    fn table(&mut self, entry: u64) -> Option<(&mut Btb, u64)> {
        let base = self.indirect_base();
        if entry < base {
            return Some((&mut self.direct, entry));
        }
        self.indirect.as_mut().map(|b| (b, entry - base))
    }

    pub(crate) fn inject_flip(&mut self, entry: u64, bit: u32) {
        if let Some((b, row)) = self.table(entry) {
            b.inject_flip(row, bit);
        }
    }

    pub(crate) fn inject_stuck(&mut self, entry: u64, bit: u32, value: bool) {
        if let Some((b, row)) = self.table(entry) {
            b.inject_stuck(row, bit, value);
        }
    }
}

/// A decoded instruction waiting for rename.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingInst {
    pub pc: u64,
    pub len: u8,
    pub uops: UopVec,
    pub pred_next: u64,
    /// Deferred decode fault (gem5 policy).
    pub decode_fault: Option<Fault>,
}

/// One slot of the direct-mapped decode cache. A hit requires the tag `pc`
/// to match *and* the fetched bytes to equal the cached ones, so the cache
/// is a pure memoization of [`difi_isa::decode`] — exact under any fault
/// model (corrupted fetch bytes miss and re-decode).
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecodeCacheEntry {
    pub pc: u64,
    pub avail: u8,
    pub bytes: [u8; difi_isa::MAX_INST_LEN],
    pub d: difi_isa::uop::Decoded,
}

impl DecodeCacheEntry {
    const INVALID_PC: u64 = u64::MAX;

    fn blank() -> DecodeCacheEntry {
        DecodeCacheEntry {
            pc: DecodeCacheEntry::INVALID_PC,
            avail: 0,
            bytes: [0; difi_isa::MAX_INST_LEN],
            d: difi_isa::uop::Decoded::illegal(0),
        }
    }
}

/// Slots in the decode cache (power of two; indexed by low pc bits).
pub(crate) const DECODE_CACHE_SLOTS: usize = 512;

/// The fault hooks behind structure `s` of core `$core`, each with the
/// global entry of its row 0: one hook per storage plane, two for MaFIN's
/// split BTB (the indirect table's rows follow the direct table's). The
/// core's one structure-to-hook table, spelled once for both borrow kinds:
/// [`OoOCore::hooks`] expands it with `&`, [`OoOCore::hooks_mut`] with
/// `&mut`.
macro_rules! plane_hooks {
    ($core:expr, $s:expr $(, $m:tt)?) => {{
        let c = $core;
        match $s {
            StructureId::IntRegFile => [Some((&$($m)? c.iprf.hook, 0)), None],
            StructureId::FpRegFile => [Some((&$($m)? c.fprf.hook, 0)), None],
            StructureId::IssueQueue => [Some((&$($m)? c.iq.hook, 0)), None],
            StructureId::LsqData => [Some((&$($m)? c.lsq_data.hook, 0)), None],
            StructureId::L1dData => [Some((&$($m)? c.sys.l1d.data_hook, 0)), None],
            StructureId::L1dTag => [Some((&$($m)? c.sys.l1d.tag_hook, 0)), None],
            StructureId::L1dValid => [Some((&$($m)? c.sys.l1d.valid_hook, 0)), None],
            StructureId::L1iData => [Some((&$($m)? c.sys.l1i.data_hook, 0)), None],
            StructureId::L1iTag => [Some((&$($m)? c.sys.l1i.tag_hook, 0)), None],
            StructureId::L1iValid => [Some((&$($m)? c.sys.l1i.valid_hook, 0)), None],
            StructureId::L2Data => [Some((&$($m)? c.sys.l2.data_hook, 0)), None],
            StructureId::L2Tag => [Some((&$($m)? c.sys.l2.tag_hook, 0)), None],
            StructureId::L2Valid => [Some((&$($m)? c.sys.l2.valid_hook, 0)), None],
            StructureId::DtlbEntry => [Some((&$($m)? c.dtlb.entry_hook, 0)), None],
            StructureId::DtlbValid => [Some((&$($m)? c.dtlb.valid_hook, 0)), None],
            StructureId::ItlbEntry => [Some((&$($m)? c.itlb.entry_hook, 0)), None],
            StructureId::ItlbValid => [Some((&$($m)? c.itlb.valid_hook, 0)), None],
            StructureId::Btb => {
                let base = c.btb.indirect_base();
                let indirect = match &$($m)? c.btb.indirect {
                    Some(b) => Some((&$($m)? b.hook, base)),
                    None => None,
                };
                [Some((&$($m)? c.btb.direct.hook, 0)), indirect]
            }
            StructureId::Ras => [Some((&$($m)? c.ras.hook, 0)), None],
        }
    }};
}

/// The out-of-order core. Construct one per run via [`OoOCore::new`], apply
/// faults with [`OoOCore::apply_engine_fault`] (or mid-run via the engine's
/// schedule), and drive it with [`OoOCore::run`].
#[derive(Debug, Clone)]
pub struct OoOCore {
    pub(crate) cfg: CoreConfig,
    /// The program this core booted, shared by every clone of it.
    pub(crate) program: Arc<Program>,
    /// The program's ISA and memory map, kept inline because fetch and
    /// every memory access read them.
    pub(crate) isa: Isa,
    pub(crate) map: MemoryMap,
    /// The memory system (public for diagnostics and injection glue).
    pub sys: MemSystem,
    pub(crate) itlb: Tlb,
    pub(crate) dtlb: Tlb,
    pub(crate) pred: Tournament,
    pub(crate) btb: BtbUnit,
    pub(crate) ras: Ras,
    pub(crate) iprf: PhysRegFile,
    pub(crate) fprf: PhysRegFile,
    pub(crate) imap: RenameMap,
    pub(crate) fmap: RenameMap,
    pub(crate) ifree: FreeList,
    pub(crate) ffree: FreeList,
    pub(crate) iq: IssueQueue,
    /// ROB hot fields, structure-of-arrays. `rob_seq[i] == 0` ⇒ slot free.
    pub(crate) rob_seq: Vec<u64>,
    pub(crate) rob_completed: Vec<bool>,
    pub(crate) rob_issued: Vec<bool>,
    /// Retry backoff for loads blocked on partial store overlaps.
    pub(crate) rob_retry_at: Vec<u64>,
    /// Due cycle of the slot's pending wheel event ([`NO_EVENT`] = none).
    pub(crate) rob_ev_at: Vec<u64>,
    /// Cold per-slot payload.
    pub(crate) rob_pay: Vec<RobPayload>,
    pub(crate) rob_head: usize,
    pub(crate) rob_tail: usize,
    pub(crate) rob_count: usize,
    pub(crate) lsq_meta: Vec<LsqMeta>,
    pub(crate) lsq_order: OrderRing,
    pub(crate) lsq_data: LsqDataArray,
    pub(crate) events: EventWheel,
    /// Reusable issue-candidate scratch (sorted each cycle, never dropped).
    pub(crate) issue_scratch: Vec<(u64, usize)>,
    pub(crate) fetch_pc: u64,
    /// Direct-mapped decoded-instruction cache, validated against the raw
    /// bytes each fetch actually read — exact under injected faults
    /// (corrupted bytes simply miss and re-decode).
    pub(crate) decode_cache: Vec<DecodeCacheEntry>,
    pub(crate) fetch_queue: std::collections::VecDeque<PendingInst>,
    pub(crate) fetch_wait: bool,
    pub(crate) fetch_stall_until: u64,
    /// Syscalls serialize the pipeline (x86 `syscall` semantics): rename
    /// stalls while one is in flight so commit sees architectural state.
    pub(crate) syscalls_in_rob: u32,
    pub(crate) cycle: u64,
    pub(crate) seq_counter: u64,
    pub(crate) last_commit_cycle: u64,
    pub(crate) output: Vec<u8>,
    pub(crate) exit: Option<SimExit>,
    /// Runtime statistics (public: dispatchers snapshot it).
    pub stats: SimStats,
    /// Structures whose hooks hold a fault or a residency recorder, in the
    /// order they got one: the hook clock ticks exactly these, and the
    /// liveness queries and watch reports read them.
    pub(crate) hooked: Vec<StructureId>,
    /// Fault-propagation tracing state; `None` (the common case) costs one
    /// pointer test per cycle and per committed µop.
    pub(crate) trace: Option<Box<CoreTrace>>,
    /// Pipeline profiler gate: when false (the common case) the cycle loop
    /// pays one untaken branch and [`ProfileCounters`] stays untouched.
    pub(crate) profile: bool,
    /// Stall/occupancy counters, bumped inline while `profile` is set.
    /// Plain fields (no atomics, no allocation), cloned with the core so a
    /// warm-started snapshot carries its profiled prefix.
    pub(crate) prof: ProfileCounters,
    /// Active control-flow attack scenario (all-`Copy` state, reset at the
    /// top of every `run_until_scenario` call so snapshot clones replay it).
    pub(crate) scenario: engine::EngineScenario,
    pub(crate) scenario_armed: bool,
    pub(crate) scenario_remaining: u64,
    pub(crate) scenario_fired_at: Option<u64>,
}

impl OoOCore {
    /// Boots a core with `program` loaded and the nano-kernel installed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CoreConfig::validate`] or the
    /// program fails validation — both indicate caller bugs, not runtime
    /// conditions.
    pub fn new(cfg: CoreConfig, program: &Program) -> OoOCore {
        cfg.validate().expect("invalid core configuration");
        program.validate().expect("invalid program");
        // Code, data and the nano-kernel state go straight into pages: only
        // the few pages they cover exist, the rest of memory reads as zeros.
        let map = program.map;
        let mut mem = MainMemory::new(map.size);
        mem.write(map.code_base, &program.code);
        mem.write(map.data_base, &program.data);
        for (addr, word) in difi_isa::kernel::boot_words(&map) {
            mem.write(addr, &word.to_le_bytes());
        }
        let mem_policy = MemPolicy {
            store_through_to_memory: cfg.policy.store_through,
            l1d_prefetch: cfg.policy.prefetchers,
            l1i_prefetch: cfg.policy.prefetchers,
            model_data_arrays: cfg.policy.model_cache_data,
        };
        let sys = MemSystem::with_configs(mem, mem_policy, cfg.l1i, cfg.l1d, cfg.l2);
        let mut iprf = PhysRegFile::new(cfg.int_prf);
        let fprf = PhysRegFile::new(cfg.fp_prf);
        // Boot register state: arch reg i → phys i; SP initialized.
        iprf.write(Reg::SP.0 as u16, program.map.stack_top);
        let lsq_n = cfg.lsq.total_entries();
        let payload_limits = PayloadLimits {
            int_prf: cfg.int_prf as u16,
            fp_prf: cfg.fp_prf as u16,
            rob: cfg.rob_entries as u16,
            lsq: lsq_n as u16,
        };
        OoOCore {
            program: Arc::new(program.clone()),
            isa: program.isa,
            map,
            sys,
            itlb: Tlb::new(TlbConfig::default()),
            dtlb: Tlb::new(TlbConfig::default()),
            pred: Tournament::new(cfg.predictor),
            btb: BtbUnit::new(cfg.btb),
            ras: Ras::new(cfg.ras_depth),
            iprf,
            fprf,
            imap: RenameMap::identity(Reg::NUM_INT),
            fmap: RenameMap::identity(Reg::NUM_FP),
            ifree: FreeList::new(Reg::NUM_INT as u16, cfg.int_prf as u16),
            ffree: FreeList::new(Reg::NUM_FP as u16, cfg.fp_prf as u16),
            iq: IssueQueue::new(cfg.iq_entries, payload_limits),
            rob_seq: vec![0; cfg.rob_entries],
            rob_completed: vec![false; cfg.rob_entries],
            rob_issued: vec![false; cfg.rob_entries],
            rob_retry_at: vec![0; cfg.rob_entries],
            rob_ev_at: vec![NO_EVENT; cfg.rob_entries],
            rob_pay: vec![RobPayload::blank(); cfg.rob_entries],
            rob_head: 0,
            rob_tail: 0,
            rob_count: 0,
            lsq_meta: vec![LsqMeta::empty(); lsq_n],
            lsq_order: OrderRing::new(lsq_n),
            lsq_data: LsqDataArray::new(cfg.lsq.data_entries()),
            events: EventWheel::new(),
            issue_scratch: Vec::with_capacity(cfg.iq_entries),
            fetch_pc: program.entry,
            decode_cache: vec![DecodeCacheEntry::blank(); DECODE_CACHE_SLOTS],
            fetch_queue: std::collections::VecDeque::with_capacity(16),
            fetch_wait: false,
            fetch_stall_until: 0,
            syscalls_in_rob: 0,
            cycle: 0,
            seq_counter: 0,
            last_commit_cycle: 0,
            output: Vec::new(),
            exit: None,
            stats: SimStats::default(),
            hooked: Vec::new(),
            trace: None,
            profile: false,
            prof: ProfileCounters::default(),
            scenario: engine::EngineScenario::None,
            scenario_armed: false,
            scenario_remaining: 0,
            scenario_fired_at: None,
            cfg,
        }
    }

    /// The configuration this core was booted with.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// The program this core was booted with.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The cycle the core is at: a paused core is at the top of it.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The injectable structures of this configuration (the per-simulator
    /// realization of Table IV).
    pub fn structures(cfg: &CoreConfig) -> Vec<StructureDesc> {
        let l1_lines = (cfg.l1d.sets * cfg.l1d.ways) as u64;
        let l1i_lines = (cfg.l1i.sets * cfg.l1i.ways) as u64;
        let l2_lines = (cfg.l2.sets * cfg.l2.ways) as u64;
        let line_bits = (cfg.l1d.line * 8) as u64;
        // Tag widths per the cache's 32-bit physical space.
        let tag_bits =
            |sets: usize, line: usize| (32 - sets.trailing_zeros() - line.trailing_zeros()) as u64;
        let tlb = Tlb::new(TlbConfig::default());
        let btb_unit = BtbUnit::new(cfg.btb);
        vec![
            StructureDesc {
                id: StructureId::IntRegFile,
                entries: cfg.int_prf as u64,
                bits: 64,
            },
            StructureDesc {
                id: StructureId::FpRegFile,
                entries: cfg.fp_prf as u64,
                bits: 64,
            },
            StructureDesc {
                id: StructureId::IssueQueue,
                entries: cfg.iq_entries as u64,
                bits: crate::queues::IQ_ENTRY_BITS as u64,
            },
            StructureDesc {
                id: StructureId::LsqData,
                entries: cfg.lsq.data_entries() as u64,
                bits: 64,
            },
            StructureDesc {
                id: StructureId::L1dData,
                entries: l1_lines,
                bits: line_bits,
            },
            StructureDesc {
                id: StructureId::L1dTag,
                entries: l1_lines,
                bits: tag_bits(cfg.l1d.sets, cfg.l1d.line),
            },
            StructureDesc {
                id: StructureId::L1dValid,
                entries: l1_lines,
                bits: 1,
            },
            StructureDesc {
                id: StructureId::L1iData,
                entries: l1i_lines,
                bits: line_bits,
            },
            StructureDesc {
                id: StructureId::L1iTag,
                entries: l1i_lines,
                bits: tag_bits(cfg.l1i.sets, cfg.l1i.line),
            },
            StructureDesc {
                id: StructureId::L1iValid,
                entries: l1i_lines,
                bits: 1,
            },
            StructureDesc {
                id: StructureId::L2Data,
                entries: l2_lines,
                bits: line_bits,
            },
            StructureDesc {
                id: StructureId::L2Tag,
                entries: l2_lines,
                bits: tag_bits(cfg.l2.sets, cfg.l2.line),
            },
            StructureDesc {
                id: StructureId::L2Valid,
                entries: l2_lines,
                bits: 1,
            },
            StructureDesc {
                id: StructureId::DtlbEntry,
                entries: tlb.entries() as u64,
                bits: tlb.entry_bits() as u64,
            },
            StructureDesc {
                id: StructureId::DtlbValid,
                entries: tlb.entries() as u64,
                bits: 1,
            },
            StructureDesc {
                id: StructureId::ItlbEntry,
                entries: tlb.entries() as u64,
                bits: tlb.entry_bits() as u64,
            },
            StructureDesc {
                id: StructureId::ItlbValid,
                entries: tlb.entries() as u64,
                bits: 1,
            },
            StructureDesc {
                id: StructureId::Btb,
                entries: btb_unit.entries() as u64,
                bits: btb_unit.entry_bits(),
            },
            StructureDesc {
                id: StructureId::Ras,
                entries: cfg.ras_depth as u64,
                bits: crate::predictor::RAS_ENTRY_BITS as u64,
            },
        ]
    }

    /// The fault hooks behind `s`, each with the global entry of its row 0
    /// (see [`plane_hooks`]).
    fn hooks(&self, s: StructureId) -> [Option<(&FaultHook, u64)>; 2] {
        plane_hooks!(self, s)
    }

    /// [`OoOCore::hooks`] for mutation.
    fn hooks_mut(&mut self, s: StructureId) -> [Option<(&mut FaultHook, u64)>; 2] {
        plane_hooks!(self, s, mut)
    }

    /// The hook holding global `entry` of `s`, and the entry's row in it.
    pub(crate) fn hook_at(&mut self, s: StructureId, entry: u64) -> Option<(&mut FaultHook, u64)> {
        self.hooks_mut(s)
            .into_iter()
            .flatten()
            .filter(|(_, base)| *base <= entry)
            .last()
            .map(|(h, base)| (h, entry - base))
    }

    /// Lists `s` among the hooked structures and stamps its hooks with the
    /// current cycle, so accesses later in this cycle carry it.
    pub(crate) fn note_hooked(&mut self, s: StructureId) {
        if !self.hooked.contains(&s) {
            self.hooked.push(s);
        }
        self.hook_tick();
    }

    /// Stamps every hook holding a fault or a recorder with the current
    /// cycle (called once per cycle at the top of the run loop).
    pub(crate) fn hook_tick(&mut self) {
        let cycle = self.cycle;
        for i in 0..self.hooked.len() {
            for (h, _) in self.hooks_mut(self.hooked[i]).into_iter().flatten() {
                h.set_now(cycle);
            }
        }
    }

    /// True when every fault on every hooked structure is provably dead.
    pub(crate) fn faults_dead(&self) -> bool {
        self.hooked.iter().all(|&s| {
            self.hooks(s)
                .into_iter()
                .flatten()
                .all(|(h, _)| h.all_faults_dead())
        })
    }

    /// True when any fault on any hooked structure has been read.
    pub(crate) fn faults_consumed(&self) -> bool {
        self.hooked.iter().any(|&s| {
            self.hooks(s)
                .into_iter()
                .flatten()
                .any(|(h, _)| h.any_fault_consumed())
        })
    }

    /// Enables residency tracing (golden-run instrumentation for the ACE
    /// analysis) on every data-plane structure in `which`: the plane's hook
    /// records its accesses.
    ///
    /// Structures for which
    /// [`residency_prune_safe`](crate::residency::residency_prune_safe) is
    /// false are silently skipped: their traces could not license any
    /// pruning or AVF conclusion, so recording them would only mislead.
    pub fn enable_residency(&mut self, which: &[StructureId]) {
        for &s in which {
            if !crate::residency::residency_prune_safe(s) {
                continue;
            }
            for (h, _) in self.hooks_mut(s).into_iter().flatten() {
                h.enable_residency();
            }
            self.note_hooked(s);
        }
    }

    /// Detaches all residency recorders, sealing each into a
    /// [`ResidencyLog`] stamped with this run's cycle count.
    pub fn take_residency(&mut self) -> Vec<ResidencyLog> {
        let descs = Self::structures(&self.cfg);
        let cycles = self.cycle;
        let mut logs = Vec::new();
        for i in 0..self.hooked.len() {
            let s = self.hooked[i];
            let Some(desc) = descs.iter().find(|d| d.id == s) else {
                continue;
            };
            for (h, _) in self.hooks_mut(s).into_iter().flatten() {
                if let Some(t) = h.take_residency() {
                    logs.push(t.into_log(*desc, cycles));
                }
            }
        }
        logs
    }

    // ---------------------------------------------------------------- tracing

    /// Enables golden-mode tracing: the core records one FNV-1a signature
    /// per committed architectural instruction (PC + destination values).
    /// Pure observation — destination values are read with
    /// [`PhysRegFile::peek`], so machine state and fault liveness are
    /// untouched and the run's result is unchanged.
    pub fn enable_signature_recording(&mut self) {
        self.trace = Some(Box::new(CoreTrace::recording()));
    }

    /// Detaches the trace and returns the recorded golden signature vector
    /// (empty when recording was never enabled).
    pub fn take_signature(&mut self) -> Vec<u64> {
        match self.trace.take() {
            Some(t) => t.into_signature(),
            None => Vec::new(),
        }
    }

    /// Enables injection-mode tracing: fault applications and liveness
    /// transitions are cycle-stamped, and each committed instruction is
    /// compared against `golden` (when given) to find the first
    /// architectural divergence. Comparison starts at this core's current
    /// committed-instruction count, so a warm-started clone — whose
    /// fault-free prefix already retired inside the snapshot — lines up
    /// with the golden vector exactly as a cold run does.
    pub fn enable_fault_tracing(&mut self, golden: Option<Arc<Vec<u64>>>) {
        let at = self.stats.committed_instructions as usize;
        self.trace = Some(Box::new(CoreTrace::comparing(golden, at)));
    }

    /// Enables the pipeline stall/occupancy profiler. Pure observation —
    /// the profiler only reads pipeline state, so the run's result is
    /// byte-identical to an unprofiled run.
    ///
    /// Enabling only raises the gate; the counters are *not* reset, so a
    /// clone of a profiled golden snapshot resumes with its prefix counts
    /// intact and a warm-started run's final counters equal the cold run's.
    pub fn enable_profiling(&mut self) {
        self.profile = true;
    }

    /// The profiler's counters, or `None` when profiling was never enabled.
    pub fn profile_counters(&self) -> Option<ProfileCounters> {
        self.profile.then_some(self.prof)
    }

    /// The raw observations of a traced run: fault applications, per-watch
    /// lifecycles, the first divergence and the scenario's firing. `None`
    /// when tracing was never enabled.
    pub fn trace_report(&self) -> Option<TraceReport> {
        let t = self.trace.as_ref()?;
        let mut watches = Vec::new();
        for &s in &self.hooked {
            for (h, base) in self.hooks(s).into_iter().flatten() {
                for r in h.watch_reports() {
                    let entry = r.entry + base;
                    watches.push((s, WatchReport { entry, ..r }));
                }
            }
        }
        Some(TraceReport {
            injected: t.injected_events().to_vec(),
            watches,
            divergence: t.divergence(),
            scenario_fired_at: self.scenario_fired_at,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, rob: usize, seq: u64) -> Event {
        Event {
            at,
            rob,
            seq,
            kind: EventKind::Complete,
        }
    }

    #[test]
    fn wheel_fires_same_cycle_events_in_seq_order() {
        let mut w = EventWheel::new();
        // Insert in scrambled seq order; all due the same cycle.
        w.push(ev(10, 0, 7), 5);
        w.push(ev(10, 1, 3), 5);
        w.push(ev(10, 2, 9), 6);
        w.push(ev(10, 3, 1), 9);
        for now in 5..10 {
            assert!(w.take_due(now).is_empty(), "nothing due at {now}");
        }
        let due = w.take_due(10);
        let seqs: Vec<u64> = due.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 3, 7, 9]);
        w.put_back(due);
        assert!(w.take_due(11).is_empty());
    }

    #[test]
    fn wheel_overflow_events_survive_the_horizon() {
        let mut w = EventWheel::new();
        let far = WHEEL_BUCKETS as u64 * 3 + 17;
        w.push(ev(far, 0, 1), 0);
        // An event inside the horizon that shares the same bucket index must
        // not be confused with the far one.
        let near = far % WHEEL_BUCKETS as u64;
        w.push(ev(near, 1, 2), 0);
        for now in 0..=far {
            let due = w.take_due(now);
            if now == near {
                assert_eq!(due.len(), 1);
                assert_eq!(due[0].seq, 2);
            } else if now == far {
                assert_eq!(due.len(), 1);
                assert_eq!(due[0].seq, 1);
            } else {
                assert!(due.is_empty(), "spurious event at {now}");
            }
            w.put_back(due);
        }
    }

    #[test]
    fn wheel_cancel_removes_only_the_target() {
        let mut w = EventWheel::new();
        w.push(ev(4, 0, 10), 0);
        w.push(ev(4, 1, 11), 0);
        let far = WHEEL_BUCKETS as u64 + 100;
        w.push(ev(far, 2, 12), 0);
        w.cancel(4, 0, 10); // in-bucket cancel
        w.cancel(far, 2, 12); // overflow cancel
        w.cancel(4, 5, 99); // no such event: no-op
        let due = w.take_due(4);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].seq, 11);
        w.put_back(due);
        let mut any = false;
        for now in 5..=far {
            let due = w.take_due(now);
            any |= !due.is_empty();
            w.put_back(due);
        }
        assert!(!any, "cancelled overflow event still fired");
    }

    // ---------------------------------------------------------- hook routing

    use crate::fault::FaultKind;
    use engine::{EngineFault, EngineLimits};

    /// Table II's three setups as far as hook routing can tell them apart:
    /// MaFIN's split BTB, unified LSQ and 256 FP registers on x86; GeFIN's
    /// unified BTB, split load/store queues and 128 FP registers on x86 and
    /// on ARM. (Policies and functional units do not reach the hooks.)
    fn setups() -> [(Isa, CoreConfig); 3] {
        let mafin = CoreConfig {
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
        };
        let gefin = CoreConfig {
            fp_prf: 128,
            lsq: LsqOrg::Split {
                loads: 16,
                stores: 16,
            },
            btb: BtbOrg::Gem5Unified,
            ..mafin
        };
        [(Isa::X86e, mafin), (Isa::X86e, gefin), (Isa::Arme, gefin)]
    }

    /// Every fault hook of `c`, field by field: an enumeration that does
    /// not go through the routing under test.
    fn every_hook(c: &OoOCore) -> Vec<&FaultHook> {
        let mut hooks = vec![&c.iprf.hook, &c.fprf.hook, &c.iq.hook, &c.lsq_data.hook];
        for cache in [&c.sys.l1d, &c.sys.l1i, &c.sys.l2] {
            hooks.extend([&cache.data_hook, &cache.tag_hook, &cache.valid_hook]);
        }
        for tlb in [&c.dtlb, &c.itlb] {
            hooks.extend([&tlb.entry_hook, &tlb.valid_hook]);
        }
        hooks.push(&c.btb.direct.hook);
        hooks.extend(c.btb.indirect.as_ref().map(|b| &b.hook));
        hooks.push(&c.ras.hook);
        hooks
    }

    /// The stuck bits armed on any hook of `c` in rows below `rows`, as
    /// (hook ordinal, row, bit).
    fn stuck_bits(c: &OoOCore, rows: u64) -> Vec<(usize, u64, u32)> {
        let mut bits = Vec::new();
        for (k, h) in every_hook(c).into_iter().enumerate() {
            for row in 0..rows {
                bits.extend(h.stuck_fixups(row).map(|(bit, _)| (k, row, bit)));
            }
        }
        bits
    }

    /// Faults land at cycle `AT`; an intermittent window closes at
    /// `AT + WINDOW`, and every run pauses at `PAUSE`, after it.
    const AT: u64 = 20;
    const WINDOW: u64 = 5;
    const PAUSE: u64 = 27;

    fn fault(s: StructureId, entry: u64, kind: FaultKind, window: Option<u64>) -> EngineFault {
        EngineFault {
            structure: s,
            entry,
            bit: 0,
            kind,
            at_cycle: Some(AT),
            at_instruction: None,
            duration_cycles: window,
        }
    }

    /// A core of `cfg` running `program` with `faults`, paused at `PAUSE`.
    fn paused(cfg: CoreConfig, program: &Program, faults: &[EngineFault], trace: bool) -> OoOCore {
        let mut core = OoOCore::new(cfg, program);
        if trace {
            core.enable_fault_tracing(None);
        }
        let limits = EngineLimits {
            max_cycles: u64::MAX,
            early_stop: false,
            deadlock_window: 100_000,
        };
        let run = core.run_until(faults, &limits, Some(PAUSE));
        assert!(
            run.is_none(),
            "{faults:?} ended the run before cycle {PAUSE}"
        );
        core
    }

    #[test]
    fn every_structure_arms_disarms_and_reports_one_entry() {
        for (isa, cfg) in setups() {
            let program =
                difi_workloads::build(difi_workloads::Bench::Fft, isa).expect("fft builds");
            for d in OoOCore::structures(&cfg) {
                let s = d.id;
                // Two entries that share a row of their own hooks where a
                // structure spans two: MaFIN's indirect BTB starts at
                // entry 1024 of 1536.
                let (a, b) = (1, d.entries * 2 / 3 + 1);
                for (window_at, other_at) in [(a, b), (b, a)] {
                    let at = format!("{s} on {isa} {:?}, window at {window_at}", cfg.btb);
                    let intermittent = fault(s, window_at, FaultKind::Stuck1, Some(WINDOW));
                    let permanent = fault(s, other_at, FaultKind::Stuck1, None);
                    let closed = paused(cfg, &program, &[intermittent], false);
                    assert_eq!(
                        stuck_bits(&closed, d.entries),
                        vec![],
                        "{at}: the stuck bit outlived its window"
                    );
                    let alone = stuck_bits(&paused(cfg, &program, &[permanent], false), d.entries);
                    assert_eq!(alone.len(), 1, "{at}: permanent at {other_at}");
                    let both = paused(cfg, &program, &[intermittent, permanent], false);
                    assert_eq!(
                        stuck_bits(&both, d.entries),
                        alone,
                        "{at}: closing the window moved the permanent stuck bit at {other_at}"
                    );
                }
                for entry in [a, b] {
                    let flip = fault(s, entry, FaultKind::Flip, None);
                    let report = paused(cfg, &program, &[flip], true)
                        .trace_report()
                        .expect("tracing on");
                    let injected: Vec<_> = report
                        .injected
                        .iter()
                        .map(|e| (e.structure, e.entry))
                        .collect();
                    assert_eq!(injected, vec![(s, entry)]);
                    assert!(!report.watches.is_empty(), "{s} entry {entry}: no watch");
                    for (ws, w) in &report.watches {
                        assert_eq!(
                            (*ws, w.entry),
                            (s, entry),
                            "{s} on {isa} {:?}: the watch names another entry",
                            cfg.btb
                        );
                    }
                }
            }
        }
    }
}
