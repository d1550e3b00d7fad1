//! Raw fault-propagation observation points on the out-of-order core.
//!
//! This module carries no event model of its own — it records the minimal
//! facts the dispatcher layer needs to assemble a `difi-obs` fault trace:
//! when each fault was applied, how each watched bit lived and died (via
//! [`FaultHook`](crate::fault::FaultHook) cycle stamps), and the first
//! commit at which architectural state diverged from the golden run.
//!
//! Divergence detection hashes the committed instruction stream: for every
//! retiring µop the PC and the committed destination value (read with
//! [`PhysRegFile::peek`](crate::regfile::PhysRegFile::peek), which has no
//! fault-hook side effects) are folded (FNV-1a-style multiply–xor) into a
//! per-instruction signature. A golden run records the signature vector; an injection run
//! compares each committed instruction against the golden entry at the same
//! commit index and records the first mismatch. Signatures are
//! *per-instruction*, not accumulated, so a warm-started run — whose
//! fault-free prefix is replayed inside the snapshot — can begin comparing
//! at its restored commit index and still agree with a cold run.
//!
//! Cost when disabled: the core holds `Option<Box<CoreTrace>>` = `None`,
//! so tracing adds one pointer test per cycle and one per committed µop.

use crate::fault::{StructureId, WatchReport};
use std::sync::Arc;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one `u64` into the signature hash: a word-wise FNV-1a-style
/// multiply–xor step. One xor and one multiply per µop value keeps the
/// per-commit tracing cost inside the <5% overhead budget (the byte-wise
/// FNV loop was 8× this); order sensitivity — the property divergence
/// detection needs — is preserved by the multiply between folds.
#[inline]
pub fn fnv1a_fold(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

/// One fault application, stamped with the cycle it landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedEvent {
    /// Cycle at which the fault was applied.
    pub cycle: u64,
    /// Target structure.
    pub structure: StructureId,
    /// Entry index within the structure.
    pub entry: u64,
    /// Bit position within the entry.
    pub bit: u32,
}

/// The first committed-state divergence from the golden run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divergence {
    /// Cycle of the diverging commit.
    pub cycle: u64,
    /// Zero-based commit index (architectural instruction count) of the
    /// diverging instruction.
    pub commit_index: u64,
}

/// Per-run tracing state attached to the core while observability is on.
#[derive(Debug, Clone)]
pub struct CoreTrace {
    /// Golden mode: record signatures instead of comparing them.
    record: bool,
    /// Golden signature vector to compare against (injection mode).
    golden_sig: Option<Arc<Vec<u64>>>,
    /// Recorded signatures (golden mode).
    sig: Vec<u64>,
    /// Commit index of the *next* instruction to retire.
    commit_index: usize,
    /// Running FNV-1a hash of the in-flight instruction's µops.
    inst_hash: u64,
    /// First divergence found, if any.
    divergence: Option<Divergence>,
    /// Fault applications, in application order.
    injected: Vec<InjectedEvent>,
}

impl CoreTrace {
    /// Golden-mode trace: records the commit signature vector.
    pub fn recording() -> CoreTrace {
        CoreTrace {
            record: true,
            golden_sig: None,
            sig: Vec::new(),
            commit_index: 0,
            inst_hash: FNV_OFFSET,
            divergence: None,
            injected: Vec::new(),
        }
    }

    /// Injection-mode trace comparing against `golden` starting at
    /// `commit_index` (non-zero for warm-started cores that already
    /// committed their fault-free prefix).
    pub fn comparing(golden: Option<Arc<Vec<u64>>>, commit_index: usize) -> CoreTrace {
        CoreTrace {
            record: false,
            golden_sig: golden,
            sig: Vec::new(),
            commit_index,
            inst_hash: FNV_OFFSET,
            divergence: None,
            injected: Vec::new(),
        }
    }

    /// Folds one value of the committing µop into the instruction hash.
    #[inline]
    pub fn fold(&mut self, v: u64) {
        self.inst_hash = fnv1a_fold(self.inst_hash, v);
    }

    /// Seals the in-flight instruction at an architectural commit boundary:
    /// records its signature (golden mode) or compares it against the
    /// golden vector (injection mode), noting the first mismatch. Committing
    /// past the end of the golden vector is itself a divergence — the run
    /// is executing instructions the golden program never committed.
    pub fn commit_boundary(&mut self, cycle: u64) {
        let h = std::mem::replace(&mut self.inst_hash, FNV_OFFSET);
        if self.record {
            self.sig.push(h);
        } else if self.divergence.is_none() {
            if let Some(golden) = &self.golden_sig {
                let matches = golden.get(self.commit_index) == Some(&h);
                if !matches {
                    self.divergence = Some(Divergence {
                        cycle,
                        commit_index: self.commit_index as u64,
                    });
                }
            }
        }
        self.commit_index += 1;
    }

    /// Records one fault application.
    pub fn note_injected(&mut self, ev: InjectedEvent) {
        self.injected.push(ev);
    }

    /// The recorded golden signature vector (golden mode).
    pub fn into_signature(self) -> Vec<u64> {
        self.sig
    }

    /// Fault applications so far, in application order.
    pub fn injected_events(&self) -> &[InjectedEvent] {
        &self.injected
    }

    /// First divergence, if one was found.
    pub fn divergence(&self) -> Option<Divergence> {
        self.divergence
    }
}

/// Everything the dispatcher layer needs to assemble a fault trace, pulled
/// off the core after a traced run.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Fault applications, in application order.
    pub injected: Vec<InjectedEvent>,
    /// Per-structure watch lifecycles, in structure-injection then arm
    /// order.
    pub watches: Vec<(StructureId, WatchReport)>,
    /// First committed-state divergence from the golden run, if any.
    pub divergence: Option<Divergence>,
    /// Cycle at which the run's control-flow scenario first fired its
    /// payload, if it did.
    pub scenario_fired_at: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_then_comparing_agrees() {
        let mut golden = CoreTrace::recording();
        for inst in 0..4u64 {
            golden.fold(0x1000 + inst); // pc
            golden.fold(inst * 7); // dest value
            golden.commit_boundary(10 + inst);
        }
        let sig = Arc::new(golden.into_signature());
        assert_eq!(sig.len(), 4);

        // Identical stream: no divergence.
        let mut same = CoreTrace::comparing(Some(sig.clone()), 0);
        for inst in 0..4u64 {
            same.fold(0x1000 + inst);
            same.fold(inst * 7);
            same.commit_boundary(10 + inst);
        }
        assert_eq!(same.divergence(), None);

        // Third instruction's value differs: divergence at commit 2.
        let mut diff = CoreTrace::comparing(Some(sig.clone()), 0);
        for inst in 0..4u64 {
            diff.fold(0x1000 + inst);
            diff.fold(if inst == 2 { 999 } else { inst * 7 });
            diff.commit_boundary(10 + inst);
        }
        assert_eq!(
            diff.divergence(),
            Some(Divergence {
                cycle: 12,
                commit_index: 2
            })
        );

        // Warm start: begin at commit index 2, matching suffix — clean.
        let mut warm = CoreTrace::comparing(Some(sig.clone()), 2);
        for inst in 2..4u64 {
            warm.fold(0x1000 + inst);
            warm.fold(inst * 7);
            warm.commit_boundary(10 + inst);
        }
        assert_eq!(warm.divergence(), None);

        // Committing past the golden end is a divergence.
        let mut over = CoreTrace::comparing(Some(sig), 4);
        over.fold(0xdead);
        over.commit_boundary(99);
        assert_eq!(
            over.divergence(),
            Some(Divergence {
                cycle: 99,
                commit_index: 4
            })
        );
    }

    #[test]
    fn no_golden_vector_means_no_divergence_claims() {
        let mut t = CoreTrace::comparing(None, 0);
        t.fold(1);
        t.commit_boundary(5);
        assert_eq!(t.divergence(), None);
    }

    #[test]
    fn fnv_distinguishes_order() {
        let a = fnv1a_fold(fnv1a_fold(FNV_OFFSET, 1), 2);
        let b = fnv1a_fold(fnv1a_fold(FNV_OFFSET, 2), 1);
        assert_ne!(a, b);
    }
}
