//! Fault models (Table III), injection specifications, and raw run results.
//!
//! A *fault mask* in the paper carries: the target core, the
//! microarchitecture structure, the exact bit position, the injection time
//! (cycle or instruction), the fault type, and the population (single or
//! multiple). [`FaultRecord`] is one such fault; [`InjectionSpec`] is the
//! mask — a set of faults injected in one run, supporting every multiplicity
//! combination of §III.A (multiple bits of one entry, multiple entries,
//! multiple structures, and mixtures).
//!
//! Everything here serializes to/from the line-oriented JSON of the logs
//! repository through `difi_util::json` — hand-rolled because the build
//! environment pins the workspace to the standard library.

use difi_uarch::fault::{FaultKind, StructureId};
use difi_util::json::Json;
use difi_util::{Error, Result};

/// When a fault is injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectTime {
    /// At a simulated cycle (the usual sampling dimension).
    Cycle(u64),
    /// When the Nth architectural instruction commits (directed studies).
    Instruction(u64),
}

impl InjectTime {
    fn to_json(self) -> Json {
        match self {
            InjectTime::Cycle(c) => Json::obj(vec![("Cycle", Json::U64(c))]),
            InjectTime::Instruction(n) => Json::obj(vec![("Instruction", Json::U64(n))]),
        }
    }

    fn from_json(j: &Json) -> Result<InjectTime> {
        if let Some(c) = j.get("Cycle").and_then(Json::as_u64) {
            Ok(InjectTime::Cycle(c))
        } else if let Some(n) = j.get("Instruction").and_then(Json::as_u64) {
            Ok(InjectTime::Instruction(n))
        } else {
            Err(Error::Parse(format!("bad inject time: {j}")))
        }
    }
}

/// How long a fault persists (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDuration {
    /// Transient: a single bit flip at the injection time.
    Transient,
    /// Intermittent: stuck for `cycles` simulated cycles, then released.
    Intermittent {
        /// Length of the stuck window in cycles.
        cycles: u64,
    },
    /// Permanent: stuck for the rest of the run.
    Permanent,
}

impl FaultDuration {
    fn to_json(self) -> Json {
        match self {
            FaultDuration::Transient => Json::Str("Transient".into()),
            FaultDuration::Intermittent { cycles } => Json::obj(vec![(
                "Intermittent",
                Json::obj(vec![("cycles", Json::U64(cycles))]),
            )]),
            FaultDuration::Permanent => Json::Str("Permanent".into()),
        }
    }

    fn from_json(j: &Json) -> Result<FaultDuration> {
        match j.as_str() {
            Some("Transient") => return Ok(FaultDuration::Transient),
            Some("Permanent") => return Ok(FaultDuration::Permanent),
            _ => {}
        }
        if let Some(cycles) = j
            .get("Intermittent")
            .and_then(|v| v.get("cycles"))
            .and_then(Json::as_u64)
        {
            return Ok(FaultDuration::Intermittent { cycles });
        }
        Err(Error::Parse(format!("bad fault duration: {j}")))
    }
}

/// One bit-level fault to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// Target core (always 0 in the single-core study; kept for the
    /// multicore-capable mask format of the paper).
    pub core: u32,
    /// Target structure.
    pub structure: StructureId,
    /// Entry (row) within the structure.
    pub entry: u64,
    /// Bit within the entry.
    pub bit: u32,
    /// Flip or stuck polarity. `Flip` is only meaningful with
    /// [`FaultDuration::Transient`]; stuck polarities pair with intermittent
    /// or permanent durations.
    pub kind: FaultKindSer,
    /// Injection time.
    pub at: InjectTime,
    /// Persistence.
    pub duration: FaultDuration,
}

impl FaultRecord {
    /// JSON form used by the mask repository.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("core", Json::U64(u64::from(self.core))),
            ("structure", Json::Str(self.structure.name().into())),
            ("entry", Json::U64(self.entry)),
            ("bit", Json::U64(u64::from(self.bit))),
            ("kind", Json::Str(self.kind.name().into())),
            ("at", self.at.to_json()),
            ("duration", self.duration.to_json()),
        ])
    }

    /// Parses the repository JSON form.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] when a field is missing or malformed.
    pub fn from_json(j: &Json) -> Result<FaultRecord> {
        let field_u64 = |key: &str| -> Result<u64> {
            j.req(key)?
                .as_u64()
                .ok_or_else(|| Error::Parse(format!("field '{key}' is not an integer")))
        };
        let structure_name = j
            .req("structure")?
            .as_str()
            .ok_or_else(|| Error::Parse("field 'structure' is not a string".into()))?;
        let structure = StructureId::from_name(structure_name)
            .ok_or_else(|| Error::Parse(format!("unknown structure {structure_name}")))?;
        let kind_name = j
            .req("kind")?
            .as_str()
            .ok_or_else(|| Error::Parse("field 'kind' is not a string".into()))?;
        Ok(FaultRecord {
            core: u32::try_from(field_u64("core")?)
                .map_err(|_| Error::Parse("field 'core' out of range".into()))?,
            structure,
            entry: field_u64("entry")?,
            bit: u32::try_from(field_u64("bit")?)
                .map_err(|_| Error::Parse("field 'bit' out of range".into()))?,
            kind: FaultKindSer::from_name(kind_name)?,
            at: InjectTime::from_json(j.req("at")?)?,
            duration: FaultDuration::from_json(j.req("duration")?)?,
        })
    }
}

/// Serializable mirror of [`FaultKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKindSer {
    /// Transient bit flip.
    Flip,
    /// Stuck at zero.
    Stuck0,
    /// Stuck at one.
    Stuck1,
}

impl FaultKindSer {
    /// Stable name used in persisted masks.
    pub fn name(self) -> &'static str {
        match self {
            FaultKindSer::Flip => "Flip",
            FaultKindSer::Stuck0 => "Stuck0",
            FaultKindSer::Stuck1 => "Stuck1",
        }
    }

    /// Inverse of [`FaultKindSer::name`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] for an unknown name.
    pub fn from_name(s: &str) -> Result<FaultKindSer> {
        match s {
            "Flip" => Ok(FaultKindSer::Flip),
            "Stuck0" => Ok(FaultKindSer::Stuck0),
            "Stuck1" => Ok(FaultKindSer::Stuck1),
            _ => Err(Error::Parse(format!("unknown fault kind {s}"))),
        }
    }
}

impl From<FaultKindSer> for FaultKind {
    fn from(k: FaultKindSer) -> FaultKind {
        match k {
            FaultKindSer::Flip => FaultKind::Flip,
            FaultKindSer::Stuck0 => FaultKind::Stuck0,
            FaultKindSer::Stuck1 => FaultKind::Stuck1,
        }
    }
}

/// What one injection run does to the machine — the substrate-agnostic
/// fault-scenario layer.
///
/// The paper's storage bit flips are one variant ([`ScenarioKind::BitFlips`],
/// covering every §III.A multiplicity combination); the other three are the
/// control-flow attack models of the ARMORY/InjectV lineage, executed by the
/// substrate at the fetch/decode boundary. Every downstream mechanism
/// (collapse, resume, tracing, checkpoints) operates on [`InjectionSpec`]
/// and therefore works for all variants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Storage bit flips / stuck-ats — the paper's fault model. An empty
    /// fault list is the fault-free (golden) scenario.
    BitFlips {
        /// The faults to inject (single- or multi-site, one atomic set).
        faults: Vec<FaultRecord>,
    },
    /// The next `count` fetched instructions after the trigger decode to
    /// nothing and retire as NOPs (ARMORY's instruction-skip attack).
    InstructionSkip {
        /// Trigger time.
        at: InjectTime,
        /// Instructions to suppress.
        count: u64,
    },
    /// The first instruction fetched after the trigger has its opcode bytes
    /// XORed with `xor` (little-endian over the first 8 bytes) before
    /// decode — an instruction-corruption attack.
    OpcodeCorrupt {
        /// Trigger time.
        at: InjectTime,
        /// Corruption pattern (must be non-zero to have any effect).
        xor: u64,
    },
    /// The next `count` conditional direct branches decoded after the
    /// trigger have their condition codes inverted (branch-condition
    /// inversion, the classic key-extraction fault).
    BranchInvert {
        /// Trigger time.
        at: InjectTime,
        /// Conditional branches to invert.
        count: u64,
    },
}

impl ScenarioKind {
    /// Stable scenario-family name (used in traces and reports).
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioKind::BitFlips { .. } => "bit_flips",
            ScenarioKind::InstructionSkip { .. } => "instruction_skip",
            ScenarioKind::OpcodeCorrupt { .. } => "opcode_corrupt",
            ScenarioKind::BranchInvert { .. } => "branch_invert",
        }
    }

    /// The trigger time of a control-flow attack scenario (`None` for
    /// [`ScenarioKind::BitFlips`], whose sites carry their own times).
    pub fn trigger(&self) -> Option<InjectTime> {
        match *self {
            ScenarioKind::BitFlips { .. } => None,
            ScenarioKind::InstructionSkip { at, .. }
            | ScenarioKind::OpcodeCorrupt { at, .. }
            | ScenarioKind::BranchInvert { at, .. } => Some(at),
        }
    }

    fn to_json(&self) -> Json {
        let with_at = |kind: &'static str, at: InjectTime, key: &'static str, v: u64| {
            Json::obj(vec![
                ("kind", Json::Str(kind.into())),
                ("at", at.to_json()),
                (key, Json::U64(v)),
            ])
        };
        match *self {
            // BitFlips is serialized by the spec itself (legacy layout).
            ScenarioKind::BitFlips { ref faults } => {
                Json::Arr(faults.iter().map(FaultRecord::to_json).collect())
            }
            ScenarioKind::InstructionSkip { at, count } => {
                with_at("instruction_skip", at, "count", count)
            }
            ScenarioKind::OpcodeCorrupt { at, xor } => with_at("opcode_corrupt", at, "xor", xor),
            ScenarioKind::BranchInvert { at, count } => {
                with_at("branch_invert", at, "count", count)
            }
        }
    }

    fn from_json(j: &Json) -> Result<ScenarioKind> {
        let kind = j
            .req("kind")?
            .as_str()
            .ok_or_else(|| Error::Parse("scenario 'kind' is not a string".into()))?;
        let at = InjectTime::from_json(j.req("at")?)?;
        let field_u64 = |key: &str| -> Result<u64> {
            j.req(key)?
                .as_u64()
                .ok_or_else(|| Error::Parse(format!("scenario field '{key}' is not an integer")))
        };
        match kind {
            "instruction_skip" => Ok(ScenarioKind::InstructionSkip {
                at,
                count: field_u64("count")?,
            }),
            "opcode_corrupt" => Ok(ScenarioKind::OpcodeCorrupt {
                at,
                xor: field_u64("xor")?,
            }),
            "branch_invert" => Ok(ScenarioKind::BranchInvert {
                at,
                count: field_u64("count")?,
            }),
            other => Err(Error::Parse(format!("unknown scenario kind {other}"))),
        }
    }
}

/// A complete fault mask for one injection run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectionSpec {
    /// Identifier within the campaign (mask repository index).
    pub id: u64,
    /// What this run does to the machine.
    pub scenario: ScenarioKind,
}

impl InjectionSpec {
    /// A single-fault transient mask — the model used throughout the paper's
    /// experimental section.
    pub fn single_transient(
        id: u64,
        structure: StructureId,
        entry: u64,
        bit: u32,
        cycle: u64,
    ) -> InjectionSpec {
        InjectionSpec::bit_flips(
            id,
            vec![FaultRecord {
                core: 0,
                structure,
                entry,
                bit,
                kind: FaultKindSer::Flip,
                at: InjectTime::Cycle(cycle),
                duration: FaultDuration::Transient,
            }],
        )
    }

    /// A bit-flip mask over an explicit fault set (the legacy spec shape).
    pub fn bit_flips(id: u64, faults: Vec<FaultRecord>) -> InjectionSpec {
        InjectionSpec {
            id,
            scenario: ScenarioKind::BitFlips { faults },
        }
    }

    /// The fault-free (golden) mask: a bit-flip scenario with no sites.
    pub fn fault_free(id: u64) -> InjectionSpec {
        InjectionSpec::bit_flips(id, Vec::new())
    }

    /// The storage fault sites of this mask: the fault list of a
    /// [`ScenarioKind::BitFlips`] scenario, empty for every control-flow
    /// attack scenario (which has no storage site).
    pub fn faults(&self) -> &[FaultRecord] {
        match &self.scenario {
            ScenarioKind::BitFlips { faults } => faults,
            _ => &[],
        }
    }

    /// True for the golden scenario: bit flips with no sites. Control-flow
    /// attack scenarios are *never* fault-free, even with `count == 0`.
    pub fn is_fault_free(&self) -> bool {
        matches!(&self.scenario, ScenarioKind::BitFlips { faults } if faults.is_empty())
    }

    /// The golden cycle a warm start forks this mask at: its earliest
    /// cycle-scheduled fault, or a control-flow scenario's cycle trigger.
    /// Every cycle before it is fault-free. `None` forces a cold start:
    /// either the mask is fault-free, or it is scheduled by instruction
    /// count, whose firing cycle is unknown before simulation.
    pub fn warm_start_cycle(&self) -> Option<u64> {
        if let Some(at) = self.scenario.trigger() {
            return match at {
                InjectTime::Cycle(c) => Some(c),
                InjectTime::Instruction(_) => None,
            };
        }
        let mut earliest: Option<u64> = None;
        for f in self.faults() {
            match f.at {
                InjectTime::Cycle(c) => earliest = Some(earliest.map_or(c, |m| m.min(c))),
                InjectTime::Instruction(_) => return None,
            }
        }
        earliest
    }

    /// JSON form used by the mask repository. Bit-flip masks keep the
    /// original `{"id":…,"faults":[…]}` layout byte-for-byte, so every
    /// pre-scenario journal, log, and fixture round-trips unchanged; attack
    /// scenarios serialize as `{"id":…,"scenario":{…}}`.
    pub fn to_json(&self) -> Json {
        match &self.scenario {
            ScenarioKind::BitFlips { .. } => Json::obj(vec![
                ("id", Json::U64(self.id)),
                ("faults", self.scenario.to_json()),
            ]),
            _ => Json::obj(vec![
                ("id", Json::U64(self.id)),
                ("scenario", self.scenario.to_json()),
            ]),
        }
    }

    /// Parses the repository JSON form (both the legacy `"faults"` layout
    /// and the scenario layout).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] when a field is missing or malformed.
    pub fn from_json(j: &Json) -> Result<InjectionSpec> {
        let id = j
            .req("id")?
            .as_u64()
            .ok_or_else(|| Error::Parse("field 'id' is not an integer".into()))?;
        if let Some(s) = j.get("scenario") {
            return Ok(InjectionSpec {
                id,
                scenario: ScenarioKind::from_json(s)?,
            });
        }
        let faults = j
            .req("faults")?
            .as_arr()
            .ok_or_else(|| Error::Parse("field 'faults' is not an array".into()))?
            .iter()
            .map(FaultRecord::from_json)
            .collect::<Result<Vec<_>>>()?;
        Ok(InjectionSpec::bit_flips(id, faults))
    }
}

/// Execution limits for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLimits {
    /// Hard cycle budget. The campaign sets this to 3× the fault-free cycle
    /// count, the paper's timeout threshold.
    pub max_cycles: u64,
    /// Enable the §III.B.2 early-stop optimizations.
    pub early_stop: bool,
    /// Cycles without a commit before the run is declared deadlocked
    /// (subsumed by the Timeout class).
    pub deadlock_window: u64,
}

impl RunLimits {
    /// Limits for a fault-free (golden) run: generous ceiling, no early
    /// stop.
    pub fn golden(max_cycles: u64) -> RunLimits {
        RunLimits {
            max_cycles,
            early_stop: false,
            deadlock_window: 200_000,
        }
    }

    /// The paper's campaign limits for a benchmark whose golden run took
    /// `golden_cycles`.
    pub fn campaign(golden_cycles: u64) -> RunLimits {
        RunLimits {
            max_cycles: golden_cycles.saturating_mul(3),
            early_stop: true,
            deadlock_window: 200_000,
        }
    }
}

/// Why a run ended — the raw, unclassified record written to the logs
/// repository.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunStatus {
    /// The workload ran to completion (exit code attached). Whether it is
    /// Masked / SDC / DUE is the parser's decision, not the simulator's.
    Completed {
        /// The workload's exit code.
        exit_code: u64,
    },
    /// Cycle budget exhausted or commit stalled — deadlock or livelock.
    Timeout,
    /// The simulated process died (illegal instruction, wild access, …).
    ProcessCrash(String),
    /// The simulated system died (nano-kernel panic).
    SystemCrash(String),
    /// A simulator assertion fired (MARSS-style rich checking).
    SimulatorAssert(String),
    /// The simulator itself reached an unhandled internal state.
    SimulatorCrash(String),
    /// The run was stopped early because the fault was proven masked.
    EarlyStopMasked(EarlyStop),
}

impl RunStatus {
    /// JSON form used by the logs repository.
    pub fn to_json(&self) -> Json {
        match self {
            RunStatus::Completed { exit_code } => Json::obj(vec![(
                "Completed",
                Json::obj(vec![("exit_code", Json::U64(*exit_code))]),
            )]),
            RunStatus::Timeout => Json::Str("Timeout".into()),
            RunStatus::ProcessCrash(m) => Json::obj(vec![("ProcessCrash", Json::Str(m.clone()))]),
            RunStatus::SystemCrash(m) => Json::obj(vec![("SystemCrash", Json::Str(m.clone()))]),
            RunStatus::SimulatorAssert(m) => {
                Json::obj(vec![("SimulatorAssert", Json::Str(m.clone()))])
            }
            RunStatus::SimulatorCrash(m) => {
                Json::obj(vec![("SimulatorCrash", Json::Str(m.clone()))])
            }
            RunStatus::EarlyStopMasked(e) => {
                Json::obj(vec![("EarlyStopMasked", Json::Str(e.name().into()))])
            }
        }
    }

    /// Parses the logs-repository JSON form.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] on an unknown or malformed status.
    pub fn from_json(j: &Json) -> Result<RunStatus> {
        if j.as_str() == Some("Timeout") {
            return Ok(RunStatus::Timeout);
        }
        if let Some(c) = j.get("Completed") {
            let exit_code = c
                .req("exit_code")?
                .as_u64()
                .ok_or_else(|| Error::Parse("bad exit_code".into()))?;
            return Ok(RunStatus::Completed { exit_code });
        }
        let str_variant = |key: &str| j.get(key).and_then(Json::as_str).map(String::from);
        if let Some(m) = str_variant("ProcessCrash") {
            return Ok(RunStatus::ProcessCrash(m));
        }
        if let Some(m) = str_variant("SystemCrash") {
            return Ok(RunStatus::SystemCrash(m));
        }
        if let Some(m) = str_variant("SimulatorAssert") {
            return Ok(RunStatus::SimulatorAssert(m));
        }
        if let Some(m) = str_variant("SimulatorCrash") {
            return Ok(RunStatus::SimulatorCrash(m));
        }
        if let Some(name) = j.get("EarlyStopMasked").and_then(Json::as_str) {
            return Ok(RunStatus::EarlyStopMasked(EarlyStop::from_name(name)?));
        }
        Err(Error::Parse(format!("bad run status: {j}")))
    }
}

/// Which early-stop rule fired (§III.B.2), or whether the static pruner
/// classified the mask before dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EarlyStop {
    /// Rule (i): the fault landed in an invalid/unused entry.
    DeadEntry,
    /// Rule (ii): the faulty entry was overwritten before ever being read.
    OverwrittenBeforeRead,
    /// The static ACE analysis proved the fault site dead before dispatch;
    /// the run was never executed (`difi-ace` pruning).
    StaticallyPruned,
}

impl EarlyStop {
    /// Stable name used in persisted logs.
    pub fn name(self) -> &'static str {
        match self {
            EarlyStop::DeadEntry => "DeadEntry",
            EarlyStop::OverwrittenBeforeRead => "OverwrittenBeforeRead",
            EarlyStop::StaticallyPruned => "StaticallyPruned",
        }
    }

    /// Inverse of [`EarlyStop::name`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] for an unknown name.
    pub fn from_name(s: &str) -> Result<EarlyStop> {
        match s {
            "DeadEntry" => Ok(EarlyStop::DeadEntry),
            "OverwrittenBeforeRead" => Ok(EarlyStop::OverwrittenBeforeRead),
            "StaticallyPruned" => Ok(EarlyStop::StaticallyPruned),
            _ => Err(Error::Parse(format!("unknown early-stop rule {s}"))),
        }
    }
}

/// The static argument backing one fault-equivalence class produced by
/// mask-space collapsing (`difi_ace::equivalence`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProofKind {
    /// All members fall in a dead interval: the corruption is erased by a
    /// write before any read, or never accessed on a complete trace. The
    /// class is resolved statically, without dispatching any member.
    DeadInterval,
    /// All members latch until the same first read of the same bit; the
    /// class representative is simulated and its result replicated.
    LatchInterval,
    /// No static proof applies; the class holds exactly one mask, which is
    /// simulated normally.
    Singleton,
}

impl ProofKind {
    /// Stable name used in persisted journals and logs.
    pub fn name(self) -> &'static str {
        match self {
            ProofKind::DeadInterval => "DeadInterval",
            ProofKind::LatchInterval => "LatchInterval",
            ProofKind::Singleton => "Singleton",
        }
    }

    /// Inverse of [`ProofKind::name`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] for an unknown name.
    pub fn from_name(s: &str) -> Result<ProofKind> {
        match s {
            "DeadInterval" => Ok(ProofKind::DeadInterval),
            "LatchInterval" => Ok(ProofKind::LatchInterval),
            "Singleton" => Ok(ProofKind::Singleton),
            _ => Err(Error::Parse(format!("unknown proof kind {s}"))),
        }
    }
}

/// Equivalence-class provenance attached to every run of a collapsed
/// campaign: which class the mask belongs to, which mask stood in for it,
/// and under what proof — enough to audit (and re-check) the collapse from
/// the journal alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassProvenance {
    /// Class index within the campaign's partition (dense, 0-based, in
    /// order of each class's first mask).
    pub class_id: u64,
    /// Mask id ([`InjectionSpec::id`]) of the class representative whose
    /// simulated result the members inherit. A mask is its own
    /// representative when it *is* the representative (or a singleton).
    pub representative: u64,
    /// The proof justifying the collapse.
    pub proof: ProofKind,
    /// Total masks in the class (including the representative).
    pub members: u64,
}

impl ClassProvenance {
    /// JSON form used by the logs repository and the campaign journal.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("class_id", Json::U64(self.class_id)),
            ("representative", Json::U64(self.representative)),
            ("proof", Json::Str(self.proof.name().into())),
            ("members", Json::U64(self.members)),
        ])
    }

    /// Parses the repository JSON form.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] when a field is missing or malformed.
    pub fn from_json(j: &Json) -> Result<ClassProvenance> {
        let field_u64 = |key: &str| -> Result<u64> {
            j.req(key)?
                .as_u64()
                .ok_or_else(|| Error::Parse(format!("field '{key}' is not an integer")))
        };
        let proof_name = j
            .req("proof")?
            .as_str()
            .ok_or_else(|| Error::Parse("field 'proof' is not a string".into()))?;
        Ok(ClassProvenance {
            class_id: field_u64("class_id")?,
            representative: field_u64("representative")?,
            proof: ProofKind::from_name(proof_name)?,
            members: field_u64("members")?,
        })
    }
}

/// Everything one injection run reports back to the campaign controller.
///
/// The three measurement fields are `None` exactly when the run never
/// executed on a simulator — today only statically-pruned masks
/// ([`EarlyStop::StaticallyPruned`]). A run the simulator actually drove,
/// however briefly (including §III.B.2 early stops, whose partial cycle
/// counts are the early-stop savings metric), always measures all three.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawRunResult {
    /// Terminal status.
    pub status: RunStatus,
    /// Bytes the workload wrote to the console.
    pub output: Vec<u8>,
    /// Handled (logged) ISA exceptions at end of run; `None` when the run
    /// never executed.
    pub exceptions: Option<u64>,
    /// Simulated cycles consumed; `None` when the run never executed.
    pub cycles: Option<u64>,
    /// Committed architectural instructions; `None` when the run never
    /// executed.
    pub instructions: Option<u64>,
    /// True if any injected fault was read after injection.
    pub fault_consumed: bool,
}

impl RawRunResult {
    /// A result for a run that was classified without ever executing
    /// (static pruning): no fabricated measurements.
    pub fn unexecuted(status: RunStatus) -> RawRunResult {
        RawRunResult {
            status,
            output: Vec::new(),
            exceptions: None,
            cycles: None,
            instructions: None,
            fault_consumed: false,
        }
    }

    /// True when the run actually executed and its measurements are real.
    pub fn is_measured(&self) -> bool {
        self.cycles.is_some()
    }

    /// The measured cycle count of a run that executed.
    ///
    /// # Panics
    ///
    /// Panics on an unexecuted (statically pruned) run — callers sizing
    /// timeouts or masks from a *golden* run can rely on this, since a
    /// golden run always executes.
    pub fn cycles_measured(&self) -> u64 {
        self.cycles
            .expect("run executed on a simulator and measured cycles")
    }

    /// JSON form used by the logs repository.
    pub fn to_json(&self) -> Json {
        let opt = |v: Option<u64>| v.map_or(Json::Null, Json::U64);
        Json::obj(vec![
            ("status", self.status.to_json()),
            (
                "output",
                Json::Arr(
                    self.output
                        .iter()
                        .map(|b| Json::U64(u64::from(*b)))
                        .collect(),
                ),
            ),
            ("exceptions", opt(self.exceptions)),
            ("cycles", opt(self.cycles)),
            ("instructions", opt(self.instructions)),
            ("fault_consumed", Json::Bool(self.fault_consumed)),
        ])
    }

    /// Parses the logs-repository JSON form.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] when a field is missing or malformed.
    pub fn from_json(j: &Json) -> Result<RawRunResult> {
        let field_opt_u64 = |key: &str| -> Result<Option<u64>> {
            match j.req(key)? {
                Json::Null => Ok(None),
                v => v
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| Error::Parse(format!("field '{key}' is not an integer"))),
            }
        };
        let output = j
            .req("output")?
            .as_arr()
            .ok_or_else(|| Error::Parse("field 'output' is not an array".into()))?
            .iter()
            .map(|b| {
                b.as_u64()
                    .and_then(|v| u8::try_from(v).ok())
                    .ok_or_else(|| Error::Parse("bad output byte".into()))
            })
            .collect::<Result<Vec<u8>>>()?;
        let fault_consumed = j
            .req("fault_consumed")?
            .as_bool()
            .ok_or_else(|| Error::Parse("field 'fault_consumed' is not a bool".into()))?;
        Ok(RawRunResult {
            status: RunStatus::from_json(j.req("status")?)?,
            output,
            exceptions: field_opt_u64("exceptions")?,
            cycles: field_opt_u64("cycles")?,
            instructions: field_opt_u64("instructions")?,
            fault_consumed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_transient_builder() {
        let s = InjectionSpec::single_transient(7, StructureId::L1dData, 100, 5, 12345);
        assert_eq!(s.faults().len(), 1);
        let f = &s.faults()[0];
        assert_eq!(f.structure, StructureId::L1dData);
        assert_eq!(f.at, InjectTime::Cycle(12345));
        assert_eq!(f.duration, FaultDuration::Transient);
        assert!(!s.is_fault_free());
        assert!(InjectionSpec::fault_free(0).is_fault_free());
    }

    #[test]
    fn spec_json_roundtrip() {
        let s = InjectionSpec::single_transient(1, StructureId::IntRegFile, 3, 63, 9);
        let j = s.to_json().to_string();
        assert!(j.contains("int_prf"));
        let back = InjectionSpec::from_json(&difi_util::json::parse(&j).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn bit_flip_spec_keeps_legacy_json_layout() {
        // Byte-compatibility contract: bit-flip masks must serialize exactly
        // as before the scenario layer existed, so old journals and logs
        // round-trip unchanged.
        let s = InjectionSpec::single_transient(1, StructureId::IntRegFile, 3, 63, 9);
        let j = s.to_json().to_string();
        assert!(j.starts_with("{\"id\":1,\"faults\":["), "{j}");
        assert!(!j.contains("scenario"), "{j}");
    }

    #[test]
    fn attack_scenario_json_roundtrip() {
        let scenarios = [
            ScenarioKind::InstructionSkip {
                at: InjectTime::Cycle(440),
                count: 2,
            },
            ScenarioKind::OpcodeCorrupt {
                at: InjectTime::Instruction(17),
                xor: 0x90,
            },
            ScenarioKind::BranchInvert {
                at: InjectTime::Cycle(12),
                count: 1,
            },
        ];
        for (i, sc) in scenarios.into_iter().enumerate() {
            let s = InjectionSpec {
                id: i as u64,
                scenario: sc,
            };
            let j = s.to_json().to_string();
            assert!(j.contains("\"scenario\""), "{j}");
            assert!(j.contains(s.scenario.name()), "{j}");
            let back = InjectionSpec::from_json(&difi_util::json::parse(&j).unwrap()).unwrap();
            assert_eq!(back, s);
            assert!(s.faults().is_empty());
            assert!(!s.is_fault_free(), "attack scenarios are never golden");
        }
    }

    #[test]
    fn warm_start_cycle_picks_earliest_cycle_fault() {
        let spec = InjectionSpec::single_transient(0, StructureId::IntRegFile, 0, 0, 500);
        assert_eq!(spec.warm_start_cycle(), Some(500));

        let site = |cycle| InjectionSpec::single_transient(1, StructureId::IntRegFile, 1, 1, cycle);
        let multi = InjectionSpec::bit_flips(1, [site(900).faults(), site(300).faults()].concat());
        assert_eq!(multi.warm_start_cycle(), Some(300));

        // Instruction-scheduled faults force a cold start.
        let mut faults = site(900).faults().to_vec();
        faults[0].at = InjectTime::Instruction(10);
        assert_eq!(InjectionSpec::bit_flips(2, faults).warm_start_cycle(), None);

        // So does a fault-free mask.
        assert_eq!(InjectionSpec::fault_free(3).warm_start_cycle(), None);

        // Cycle-triggered attack scenarios warm-start at their trigger;
        // instruction-triggered ones force a cold start.
        let skip = |at| InjectionSpec {
            id: 4,
            scenario: ScenarioKind::InstructionSkip { at, count: 1 },
        };
        assert_eq!(skip(InjectTime::Cycle(700)).warm_start_cycle(), Some(700));
        assert_eq!(skip(InjectTime::Instruction(40)).warm_start_cycle(), None);
    }

    #[test]
    fn unknown_scenario_kind_is_a_parse_error() {
        let j = difi_util::json::parse(
            r#"{"id":0,"scenario":{"kind":"rowhammer","at":{"Cycle":1},"count":1}}"#,
        )
        .unwrap();
        assert!(InjectionSpec::from_json(&j).is_err());
    }

    #[test]
    fn run_limits_campaign_is_three_times_golden() {
        let l = RunLimits::campaign(1000);
        assert_eq!(l.max_cycles, 3000);
        assert!(l.early_stop);
    }

    #[test]
    fn raw_result_json_roundtrip() {
        let r = RawRunResult {
            status: RunStatus::SimulatorAssert("rob head invalid".into()),
            output: b"xyz".to_vec(),
            exceptions: Some(2),
            cycles: Some(500),
            instructions: Some(120),
            fault_consumed: true,
        };
        let j = r.to_json().to_string();
        let back = RawRunResult::from_json(&difi_util::json::parse(&j).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn unexecuted_result_json_roundtrip_keeps_measurements_absent() {
        let r = RawRunResult::unexecuted(RunStatus::EarlyStopMasked(EarlyStop::StaticallyPruned));
        assert!(!r.is_measured());
        let j = r.to_json().to_string();
        assert!(j.contains("\"cycles\":null"), "no fabricated zero: {j}");
        let back = RawRunResult::from_json(&difi_util::json::parse(&j).unwrap()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.cycles, None);
    }

    #[test]
    fn early_stop_names_roundtrip() {
        for e in [
            EarlyStop::DeadEntry,
            EarlyStop::OverwrittenBeforeRead,
            EarlyStop::StaticallyPruned,
        ] {
            assert_eq!(EarlyStop::from_name(e.name()).unwrap(), e);
        }
        let r = RunStatus::EarlyStopMasked(EarlyStop::StaticallyPruned);
        let j = r.to_json().to_string();
        let back = RunStatus::from_json(&difi_util::json::parse(&j).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn proof_kind_names_roundtrip() {
        for p in [
            ProofKind::DeadInterval,
            ProofKind::LatchInterval,
            ProofKind::Singleton,
        ] {
            assert_eq!(ProofKind::from_name(p.name()).unwrap(), p);
        }
        assert!(ProofKind::from_name("Bogus").is_err());
    }

    #[test]
    fn class_provenance_json_roundtrip() {
        let p = ClassProvenance {
            class_id: 12,
            representative: 340,
            proof: ProofKind::LatchInterval,
            members: 17,
        };
        let j = p.to_json().to_string();
        let back = ClassProvenance::from_json(&difi_util::json::parse(&j).unwrap()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn fault_kind_conversion() {
        assert_eq!(FaultKind::from(FaultKindSer::Flip), FaultKind::Flip);
        assert_eq!(FaultKind::from(FaultKindSer::Stuck0), FaultKind::Stuck0);
        assert_eq!(FaultKind::from(FaultKindSer::Stuck1), FaultKind::Stuck1);
    }
}
