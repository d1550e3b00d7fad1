//! # difi-core
//!
//! The paper's primary contribution: a differential microarchitecture-level
//! fault-injection framework in the MaFIN/GeFIN mold. Both injectors share
//! this infrastructure and differ only in the core configuration behind one
//! [`dispatch::InjectorDispatcher`] implementation,
//! [`substrate::SimDispatcher`] (MarsSim for MaFIN, GemSim for GeFIN).
//!
//! Mirroring Fig. 1 of the paper, a campaign flows through three modules:
//!
//! 1. **Fault mask generator** ([`masks`]) — produces the *masks repository*:
//!    randomized (or directed) fault masks for any structure, fault type
//!    (transient / intermittent / permanent), and multiplicity, sized by the
//!    statistical-sampling rules of [`difi_util::stats`].
//! 2. **Injection campaign controller** ([`campaign`]) — one
//!    [`campaign::CampaignRunner`] execution core drains the masks
//!    repository through an [`dispatch::InjectorDispatcher`] under a
//!    pluggable [`campaign::Strategy`] (cold / checkpointed warm-start /
//!    equivalence-collapsed), applying the paper's §III.B.2 early-stop
//!    optimizations in parallel worker threads. Completed runs stream to
//!    [`sink::RunSink`]s — in-memory collection, an append-only JSONL
//!    [`journal`] enabling crash-resume, and live progress telemetry — and
//!    land in the *logs repository* ([`logs`]).
//! 3. **Parser** ([`classify`]) — turns raw run logs into the six-class
//!    fault-effect taxonomy (Masked / SDC / DUE / Timeout / Crash / Assert),
//!    reconfigurable without re-running the campaign.
//!
//! [`report`] aggregates classified outcomes into the per-benchmark /
//! per-structure tables behind the paper's Figs. 2–6.

pub mod campaign;
pub mod classify;
pub mod dispatch;
pub mod journal;
pub mod logs;
pub mod masks;
pub mod model;
pub mod report;
pub mod sink;
pub mod substrate;

pub use campaign::{CampaignConfig, CampaignRunner, Strategy};
pub use classify::{Classifier, Outcome};
pub use dispatch::{GoldenSnapshot, InjectorDispatcher};
pub use journal::{load_journal, CampaignHeader};
pub use logs::{CampaignLog, RunLog};
pub use model::{
    EarlyStop, FaultRecord, InjectTime, InjectionSpec, RawRunResult, RunLimits, RunStatus,
    ScenarioKind,
};
pub use report::{AvfComparison, AvfRow, LatencyReport, ProfileReport};
pub use sink::{JournalSink, MemoryProfileSink, MemoryTraceSink, ProgressSink, RunSink, TraceSink};
