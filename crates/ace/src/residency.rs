//! Residency-trace consumption: provably-masked site classification and
//! per-structure static AVF estimation.
//!
//! The golden run records, per structure entry, a cycle-stamped list of
//! reads and writes ([`ResidencyLog`]). From that single trace this module
//! answers two questions:
//!
//! 1. **Masking** — is a transient flip of bit *b* of entry *e* at cycle *c*
//!    provably masked? Yes iff the first recorded access at cycle ≥ *c*
//!    that overlaps *b* is a *write* (the corrupt value is overwritten
//!    before any read), or no such access exists *and* the trace is
//!    complete (the corrupt value is never consumed). This is exactly the
//!    dynamic counterpart of the paper's §III.B.2 early-stop rules, applied
//!    *before dispatch* instead of inside the simulator; the site
//!    classification in [`crate::equivalence`] decides it.
//! 2. **Static AVF** — what fraction of the structure's bit-cycles are ACE?
//!    A bit-cycle is ACE when the value it holds is eventually read before
//!    being overwritten; summing read-terminated windows over the trace
//!    gives the occupancy-weighted AVF estimate of Mukherjee et al. without
//!    any injection.
//!
//! Both answers are only sound for pure data planes
//! ([`residency_prune_safe`]);
//! [`AceProfile::new`] refuses control-plane traces.

use crate::equivalence::SiteClass;
use difi_uarch::fault::StructureId;
use difi_uarch::residency::{residency_prune_safe, ResidencyLog};

/// Per-structure static AVF estimate derived from one residency trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticAvf {
    /// The structure the estimate is for.
    pub structure: StructureId,
    /// ACE bit-cycles: bit-cycles whose value is eventually read.
    pub ace_bit_cycles: u64,
    /// Total bit-cycles of the structure over the traced run.
    pub total_bit_cycles: u64,
    /// `ace / total` (0 when the structure was never read).
    pub avf: f64,
    /// False when the trace hit its event cap; the estimate is then a
    /// lower bound (dropped reads can only add ACE cycles).
    pub exact: bool,
}

/// A queryable ACE profile of one structure, built from a golden-run
/// residency trace.
#[derive(Debug, Clone)]
pub struct AceProfile {
    log: ResidencyLog,
}

impl AceProfile {
    /// Wraps a residency trace for querying.
    ///
    /// Returns `None` when `log` traces a control-plane structure, for
    /// which no residency-based conclusion is sound (a flipped tag or
    /// valid bit acts through lookup behavior, not through data reads).
    pub fn new(log: ResidencyLog) -> Option<AceProfile> {
        if residency_prune_safe(log.structure) {
            Some(AceProfile { log })
        } else {
            None
        }
    }

    /// The structure this profile covers.
    pub fn structure(&self) -> StructureId {
        self.log.structure
    }

    /// The underlying trace.
    pub fn log(&self) -> &ResidencyLog {
        &self.log
    }

    /// True when a transient flip of `bit` of `entry` at the top of cycle
    /// `cycle` is **provably masked** in the traced execution: the site is
    /// [`SiteClass::Dead`].
    ///
    /// Soundness: fault application happens at the top of the cycle, before
    /// any access of that cycle, so every recorded event with
    /// `event.cycle >= cycle` executes after the corruption. If the first
    /// such event overlapping `bit` is a write, the corruption is erased
    /// unread; if no such event exists and the trace is complete, the
    /// corruption is never consumed. In both cases the architectural
    /// outcome is byte-for-byte the golden one.
    pub fn is_provably_masked(&self, entry: u64, bit: u32, cycle: u64) -> bool {
        matches!(self.site_class(entry, bit, cycle), SiteClass::Dead { .. })
    }

    /// Occupancy-weighted static AVF of the structure.
    ///
    /// For each read event at cycle `t` covering bit `b`, the window since
    /// `b`'s previous access (or cycle 0) is ACE — the value held across it
    /// is consumed. Write-terminated windows are un-ACE. Bits never read
    /// contribute nothing.
    pub fn static_avf(&self) -> StaticAvf {
        let bits = self.log.bits as usize;
        let mut ace: u64 = 0;
        for entry_events in self.log.events.values() {
            let mut last = vec![0u64; bits];
            for e in entry_events {
                let lo = e.bit_lo as usize;
                let hi = (e.bit_lo + e.len).min(self.log.bits as u32) as usize;
                for slot in &mut last[lo..hi] {
                    if !e.write {
                        ace += e.cycle - *slot;
                    }
                    *slot = e.cycle;
                }
            }
        }
        let total = self.log.entries * self.log.bits * self.log.cycles;
        StaticAvf {
            structure: self.log.structure,
            ace_bit_cycles: ace,
            total_bit_cycles: total,
            avf: if total == 0 {
                0.0
            } else {
                ace as f64 / total as f64
            },
            exact: self.log.complete,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use difi_uarch::fault::StructureDesc;
    use difi_uarch::residency::ResidencyTracker;

    fn profile(build: impl Fn(&mut ResidencyTracker), cycles: u64) -> AceProfile {
        let mut t = ResidencyTracker::new();
        build(&mut t);
        let desc = StructureDesc {
            id: StructureId::IntRegFile,
            entries: 4,
            bits: 64,
        };
        AceProfile::new(t.into_log(desc, cycles)).expect("data plane")
    }

    #[test]
    fn write_first_proves_masked_read_first_does_not() {
        let p = profile(
            |t| {
                t.set_cycle(10);
                t.on_write(1, 0, 64);
                t.set_cycle(20);
                t.on_read(1, 0, 64);
            },
            100,
        );
        // Flip before the write: overwritten unread.
        assert!(p.is_provably_masked(1, 5, 3));
        // Flip between write and read: consumed.
        assert!(!p.is_provably_masked(1, 5, 11));
        // Flip after the last read, complete trace: never consumed.
        assert!(p.is_provably_masked(1, 5, 21));
        // Untouched entry, complete trace: never consumed.
        assert!(p.is_provably_masked(2, 0, 0));
    }

    #[test]
    fn incomplete_trace_blocks_no_further_access_conclusion() {
        let mut t = ResidencyTracker::with_capacity(1);
        t.set_cycle(10);
        t.on_write(1, 0, 64);
        t.on_read(1, 0, 64); // dropped: cap hit
        let desc = StructureDesc {
            id: StructureId::IntRegFile,
            entries: 4,
            bits: 64,
        };
        let p = AceProfile::new(t.into_log(desc, 100)).expect("data plane");
        // Write-seen-first remains valid on the exact prefix...
        assert!(p.is_provably_masked(1, 0, 5));
        // ...but "never accessed again" is no longer provable.
        assert!(!p.is_provably_masked(1, 0, 50));
        assert!(!p.is_provably_masked(2, 0, 0));
    }

    #[test]
    fn control_plane_traces_are_rejected() {
        let t = ResidencyTracker::new();
        let desc = StructureDesc {
            id: StructureId::L1dTag,
            entries: 4,
            bits: 20,
        };
        assert!(AceProfile::new(t.into_log(desc, 10)).is_none());
    }

    #[test]
    fn static_avf_counts_read_terminated_windows() {
        // Entry 0, bit 0..64: write@10, read@30 → 20 ACE cycles per bit.
        let p = profile(
            |t| {
                t.set_cycle(10);
                t.on_write(0, 0, 64);
                t.set_cycle(30);
                t.on_read(0, 0, 64);
            },
            100,
        );
        let avf = p.static_avf();
        assert_eq!(avf.ace_bit_cycles, 20 * 64);
        assert_eq!(avf.total_bit_cycles, 4 * 64 * 100);
        assert!(avf.exact);
        let expect = (20.0 * 64.0) / (4.0 * 64.0 * 100.0);
        assert!((avf.avf - expect).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_sites_are_never_pruned() {
        let p = profile(|_| {}, 100);
        assert!(!p.is_provably_masked(99, 0, 0));
        assert!(!p.is_provably_masked(0, 64, 0));
    }
}
