//! # difi-ace
//!
//! Static ACE/AVF vulnerability analysis for the differential
//! fault-injection study.
//!
//! Injection campaigns measure vulnerability by brute force; ACE analysis
//! (Mukherjee et al., MICRO-36) bounds it by reasoning about which bits can
//! affect Correct Execution. This crate reasons over one golden-run
//! structure-residency trace ([`difi_uarch::residency`]):
//!
//! * [`residency`] — the queryable [`AceProfile`]: occupancy-weighted
//!   static AVF estimates per structure, and the per-site provably-masked
//!   query.
//! * [`equivalence`] — the three-way site classification (dead / latched /
//!   unproven) the campaign controller collapses masks by: dead sites
//!   resolve without dispatch, and each latch class runs one representative
//!   fault per write-to-first-read interval and replicates its result to
//!   the rest.
//!
//! Everything is conservative in the safe direction: a site this crate
//! calls masked is masked along every execution the analysis models, so
//! resolving it statically never changes a campaign's verdict — only its
//! cost.

pub mod equivalence;
pub mod residency;

pub use equivalence::SiteClass;
pub use residency::{AceProfile, StaticAvf};
