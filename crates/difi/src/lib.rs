//! # difi — differential fault injection on microarchitectural simulators
//!
//! The facade crate of the workspace reproducing *"Differential Fault
//! Injection on Microarchitectural Simulators"* (Kaliorakis, Tselonis,
//! Chatzidimitriou, Foutris, Gizopoulos — IISWC 2015).
//!
//! It re-exports the whole stack and provides the paper's three experimental
//! configurations ([`setups`]): **MaFIN-x86** (MARSS-flavoured MarsSim),
//! **GeFIN-x86** and **GeFIN-ARM** (gem5-flavoured GemSim).
//!
//! ## Quickstart
//!
//! ```
//! use difi::prelude::*;
//!
//! # fn main() -> Result<(), difi_util::Error> {
//! // Build a benchmark for the MaFIN setup, generate masks, run a tiny
//! // campaign, classify it.
//! let mafin = MaFin::new();
//! let program = build(Bench::Sha, mafin.isa())?;
//! let golden = golden_run(&mafin, &program, 50_000_000);
//!
//! let desc = difi_core::dispatch::structure_desc(&mafin, StructureId::IntRegFile).unwrap();
//! let masks = MaskGenerator::new(42).transient(&desc, golden.cycles_measured(), 5);
//! let log = CampaignRunner::new(&mafin, &program, StructureId::IntRegFile, 42,
//!                              &CampaignConfig::default())
//!     .run(&masks);
//! let counts = classify_log(&log);
//! assert_eq!(counts.total(), 5);
//! # Ok(())
//! # }
//! ```

pub use difi_ace as ace;
pub use difi_core as core;
pub use difi_isa as isa;
pub use difi_obs as obs;
pub use difi_uarch as uarch;
pub use difi_util as util;
pub use difi_workloads as workloads;

/// The paper's three experimental setups.
pub mod setups {
    use difi_core::substrate::{GeFin, MaFin};
    use difi_core::InjectorDispatcher;

    /// Boxed dispatchers for MaFIN-x86, GeFIN-x86, GeFIN-ARM — the three
    /// bars of every figure, in the paper's order.
    pub fn all() -> Vec<Box<dyn InjectorDispatcher + Send>> {
        vec![
            Box::new(MaFin::new()),
            Box::new(GeFin::x86()),
            Box::new(GeFin::arm()),
        ]
    }

    /// The five structures the paper characterizes (Figs. 2–6), in figure
    /// order.
    pub fn figure_structures() -> [(difi_uarch::StructureId, &'static str); 5] {
        use difi_uarch::StructureId as S;
        [
            (S::IntRegFile, "Fig. 2 — integer physical register file"),
            (S::L1dData, "Fig. 3 — L1D cache (data arrays)"),
            (S::L1iData, "Fig. 4 — L1I cache (instruction arrays)"),
            (S::L2Data, "Fig. 5 — L2 cache (data arrays)"),
            (S::LsqData, "Fig. 6 — Load/Store Queue (data field)"),
        ]
    }
}

/// One-stop imports for examples and tools.
pub mod prelude {
    pub use crate::setups;
    pub use difi_ace::{AceProfile, SiteClass, StaticAvf};
    pub use difi_core::campaign::{golden_run, CampaignConfig, CampaignRunner, Strategy};
    pub use difi_core::classify::{Classifier, FineOutcome, Outcome};
    pub use difi_core::dispatch::GoldenSnapshot;
    pub use difi_core::journal::{load_journal, CampaignHeader, JournalContents};
    pub use difi_core::logs::{CampaignLog, RunLog};
    pub use difi_core::masks::{partition_equivalence, MaskClass, MaskGenerator, MaskPartition};
    pub use difi_core::model::{
        ClassProvenance, EarlyStop, FaultDuration, FaultKindSer, FaultRecord, InjectTime,
        InjectionSpec, ProofKind, RawRunResult, RunLimits, RunStatus, ScenarioKind,
    };
    pub use difi_core::report::{
        classify_log, classify_log_with, AvfComparison, AvfRow, ClassCounts, Figure, FigureRow,
        LatencyReport, LatencyRow, ProfileReport,
    };
    pub use difi_core::sink::{
        JournalSink, MemoryProfileSink, MemoryTraceSink, ProgressSink, RunSink, TraceSink,
    };
    pub use difi_core::substrate::{gem_config, mars_config, GeFin, MaFin};
    pub use difi_core::InjectorDispatcher;
    pub use difi_isa::program::{Isa, Program};
    pub use difi_obs::metrics::{
        Counter, CycleHistogram, Gauge, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
    };
    pub use difi_obs::trace::{FaultTrace, TraceEvent, TraceEventKind};
    pub use difi_uarch::fault::{StructureDesc, StructureId};
    pub use difi_uarch::residency::{Instrument, ResidencyLog};
    pub use difi_uarch::ProfileCounters;
    pub use difi_workloads::{build, reference_output, Bench};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn setups_are_the_papers_three() {
        let names: Vec<String> = setups::all().iter().map(|d| d.name().to_string()).collect();
        assert_eq!(names, ["MaFIN-x86", "GeFIN-x86", "GeFIN-ARM"]);
    }

    #[test]
    fn figure_structures_match_figs_2_to_6() {
        let s = setups::figure_structures();
        assert_eq!(s.len(), 5);
        assert_eq!(s[0].0, StructureId::IntRegFile);
        assert_eq!(s[4].0, StructureId::LsqData);
    }
}
