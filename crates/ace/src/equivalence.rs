//! Fault-equivalence site classification: the static core of mask-space
//! collapsing.
//!
//! This module partitions the (entry, bit, cycle) space of one structure
//! into three parts, each carrying a machine-checkable equivalence argument
//! ([`AceProfile::is_provably_masked`](crate::AceProfile::is_provably_masked)
//! is the binary view: "is the site dead?"):
//!
//! * [`SiteClass::Dead`] — the first recorded access at cycle ≥ *c*
//!   overlapping the bit is a **write**, or no such access exists and the
//!   trace is complete. The corruption is erased (or never consumed); the
//!   run is provably masked. All dead sites of one (entry, bit) pair that
//!   share the same erasing event behave identically — the degenerate
//!   "provably masked" class.
//! * [`SiteClass::Latched`] — the first recorded access at cycle ≥ *c*
//!   overlapping the bit is a **read**, at event index *k* of the entry's
//!   trace. The flipped bit sits untouched from injection until that read
//!   (no earlier event covers it, by minimality of *k*), so at the read the
//!   machine state is *golden state + this one flipped bit* — identical for
//!   every injection cycle that resolves to the same *k*. A deterministic
//!   simulator therefore produces an identical suffix, hence an identical
//!   classification, output, exception count, and fault-consumption flag.
//! * [`SiteClass::Unproven`] — the site is out of the traced range, or the
//!   trace is incomplete and records no covering access at cycle ≥ *c* (the
//!   dropped suffix could hold the first consumer). No equivalence argument
//!   applies; the site must be simulated individually.
//!
//! ## Soundness of the latch argument under truncated traces
//!
//! The tracker drops a *time-ordered suffix* of events when its cap is hit
//! (`complete = false`), never an interior event. An event found in the
//! retained prefix is therefore genuinely the first covering access — both
//! `Dead { first_event: Some(_) }` (write seen first) and `Latched` remain
//! valid on incomplete traces. Only "no covering access at all" loses its
//! meaning, which is exactly the case mapped to `Unproven`.
//!
//! Classes never span distinct (entry, bit) pairs: the latch argument fixes
//! *which* bit is flipped, and two different flipped bits reach their first
//! consumer as different machine states.

use crate::residency::AceProfile;

/// Static classification of one transient-flip fault site
/// (entry, bit, cycle) against a golden-run residency trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SiteClass {
    /// Provably masked: the first covering access at cycle ≥ the injection
    /// cycle is the write at event index `first_event` of the entry's
    /// trace, or (`first_event == None`) no covering access exists and the
    /// trace is complete.
    Dead {
        /// Index of the erasing write in the entry's event list, or `None`
        /// when no covering access exists on a complete trace.
        first_event: Option<usize>,
    },
    /// The fault latches until the read at event index `first_event` of the
    /// entry's trace — its first consumer. Every site of the same
    /// (entry, bit) resolving to the same index is behaviorally equivalent.
    Latched {
        /// Index of the first covering read in the entry's event list.
        first_event: usize,
    },
    /// No static argument applies (site out of range, or incomplete trace
    /// with no recorded covering access).
    Unproven,
}

impl AceProfile {
    /// Classifies the transient-flip site (`entry`, `bit`, top of `cycle`)
    /// by the first access at cycle ≥ `cycle` in the entry's event list
    /// that covers `bit`.
    pub fn site_class(&self, entry: u64, bit: u32, cycle: u64) -> SiteClass {
        if entry >= self.log().entries || u64::from(bit) >= self.log().bits {
            return SiteClass::Unproven;
        }
        for (k, e) in self.log().events_for(entry).iter().enumerate() {
            if e.cycle < cycle || !e.covers(bit) {
                continue;
            }
            return if e.write {
                SiteClass::Dead {
                    first_event: Some(k),
                }
            } else {
                SiteClass::Latched { first_event: k }
            };
        }
        if self.log().complete {
            SiteClass::Dead { first_event: None }
        } else {
            SiteClass::Unproven
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use difi_uarch::fault::{StructureDesc, StructureId};
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
    fn write_to_first_read_interval_is_one_latch_class() {
        // write@10, read@20: every injection cycle in (10, 20] latches
        // until the read at event index 1.
        let p = profile(
            |t| {
                t.set_cycle(10);
                t.on_write(1, 0, 64);
                t.set_cycle(20);
                t.on_read(1, 0, 64);
            },
            100,
        );
        for c in [11, 15, 20] {
            assert_eq!(p.site_class(1, 5, c), SiteClass::Latched { first_event: 1 });
        }
        // Before the write: erased by event 0.
        assert_eq!(
            p.site_class(1, 5, 3),
            SiteClass::Dead {
                first_event: Some(0)
            }
        );
        // After the read, complete trace: never consumed.
        assert_eq!(
            p.site_class(1, 5, 21),
            SiteClass::Dead { first_event: None }
        );
        // Injection *at* the write cycle applies top-of-cycle, before the
        // write executes: still erased.
        assert_eq!(
            p.site_class(1, 5, 10),
            SiteClass::Dead {
                first_event: Some(0)
            }
        );
    }

    #[test]
    fn zero_length_interval_write_and_read_same_cycle() {
        // Edge case: write and read stamped on the same cycle. Events are
        // recorded in program order within the cycle, so the write is still
        // the first covering event for a top-of-cycle injection — a
        // zero-length residency interval collapses into the dead class.
        let p = profile(
            |t| {
                t.set_cycle(10);
                t.on_write(2, 0, 64);
                t.on_read(2, 0, 64);
            },
            100,
        );
        assert_eq!(
            p.site_class(2, 0, 10),
            SiteClass::Dead {
                first_event: Some(0)
            }
        );
        // One cycle later only the (already executed) events are behind us:
        // nothing covers the bit any more, trace complete → dead.
        assert_eq!(
            p.site_class(2, 0, 11),
            SiteClass::Dead { first_event: None }
        );
    }

    #[test]
    fn write_after_write_without_read_stays_dead_per_erasing_event() {
        // w@10, w@20, no read: sites before each write are dead, keyed by
        // *which* write erases them — two distinct dead classes, never a
        // latch class.
        let p = profile(
            |t| {
                t.set_cycle(10);
                t.on_write(0, 8, 8);
                t.set_cycle(20);
                t.on_write(0, 8, 8);
            },
            100,
        );
        assert_eq!(
            p.site_class(0, 9, 5),
            SiteClass::Dead {
                first_event: Some(0)
            }
        );
        assert_eq!(
            p.site_class(0, 9, 11),
            SiteClass::Dead {
                first_event: Some(1)
            }
        );
        assert_eq!(
            p.site_class(0, 9, 21),
            SiteClass::Dead { first_event: None }
        );
        // A bit outside both writes was never accessed: complete → dead.
        assert_eq!(p.site_class(0, 0, 5), SiteClass::Dead { first_event: None });
    }

    #[test]
    fn interval_truncated_at_end_of_run() {
        // A value written near the end of the run and never read again:
        // with a complete trace the tail interval is dead; with an
        // incomplete trace (cap hit) the same sites become unproven, while
        // in-prefix conclusions survive.
        let complete = profile(
            |t| {
                t.set_cycle(90);
                t.on_write(3, 0, 64);
            },
            100,
        );
        assert_eq!(
            complete.site_class(3, 7, 95),
            SiteClass::Dead { first_event: None }
        );

        let mut t = ResidencyTracker::with_capacity(2);
        t.set_cycle(10);
        t.on_write(3, 0, 64);
        t.set_cycle(20);
        t.on_read(3, 0, 64);
        t.set_cycle(90);
        t.on_write(3, 0, 64); // dropped: cap hit
        let desc = StructureDesc {
            id: StructureId::IntRegFile,
            entries: 4,
            bits: 64,
        };
        let p = AceProfile::new(t.into_log(desc, 100)).expect("data plane");
        // Prefix events are exact: write-first and latch survive.
        assert_eq!(
            p.site_class(3, 7, 5),
            SiteClass::Dead {
                first_event: Some(0)
            }
        );
        assert_eq!(
            p.site_class(3, 7, 15),
            SiteClass::Latched { first_event: 1 }
        );
        // Past the retained prefix nothing is provable.
        assert_eq!(p.site_class(3, 7, 50), SiteClass::Unproven);
        assert_eq!(p.site_class(2, 0, 0), SiteClass::Unproven);
    }

    #[test]
    fn out_of_range_sites_are_unproven() {
        let p = profile(|_| {}, 100);
        assert_eq!(p.site_class(99, 0, 0), SiteClass::Unproven);
        assert_eq!(p.site_class(0, 64, 0), SiteClass::Unproven);
    }
}
