//! The Fault Mask Generator and the masks repository.
//!
//! "In the first step, the *Fault Mask Generator* module produces the fault
//! masks that are used during the injection campaign. … The Fault Mask
//! Generator can produce (by user defined parameters) a random set of fault
//! masks for any type of fault (transient, intermittent, permanent) for the
//! entire simulation time of the benchmark." (§III.B)
//!
//! Masks are sampled uniformly over `(entry, bit, cycle)` — the statistical
//! fault-sampling population of Leveugle et al. — from a seeded
//! deterministic generator, so a campaign is reproducible from
//! `(seed, parameters)` alone.

use crate::model::{
    ClassProvenance, FaultDuration, FaultKindSer, FaultRecord, InjectTime, InjectionSpec,
    ProofKind, ScenarioKind,
};
use difi_ace::{AceProfile, SiteClass};
use difi_uarch::fault::StructureDesc;
use difi_util::rng::Xoshiro256;
use difi_util::stats::sample_size;
use std::collections::BTreeMap;

/// The fault mask generator.
#[derive(Debug)]
pub struct MaskGenerator {
    rng: Xoshiro256,
    next_id: u64,
}

impl MaskGenerator {
    /// Creates a generator from a campaign seed.
    pub fn new(seed: u64) -> MaskGenerator {
        MaskGenerator {
            rng: Xoshiro256::seed_from(seed),
            next_id: 0,
        }
    }

    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    fn random_site(&mut self, desc: &StructureDesc, cycles: u64) -> (u64, u32, u64) {
        let entry = self.rng.gen_range(0, desc.entries);
        let bit = self.rng.gen_range(0, desc.bits) as u32;
        let cycle = self.rng.gen_range(0, cycles.max(1));
        (entry, bit, cycle)
    }

    /// Generates `n` single-bit transient masks for one structure over a
    /// benchmark whose fault-free execution takes `cycles` — the campaign
    /// shape used for every figure of the paper.
    pub fn transient(&mut self, desc: &StructureDesc, cycles: u64, n: u64) -> Vec<InjectionSpec> {
        (0..n)
            .map(|_| {
                let (entry, bit, cycle) = self.random_site(desc, cycles);
                let id = self.id();
                InjectionSpec::single_transient(id, desc.id, entry, bit, cycle)
            })
            .collect()
    }

    /// Generates `n` single-bit intermittent masks (random polarity, random
    /// start, window of `window_cycles`).
    pub fn intermittent(
        &mut self,
        desc: &StructureDesc,
        cycles: u64,
        window_cycles: u64,
        n: u64,
    ) -> Vec<InjectionSpec> {
        (0..n)
            .map(|_| {
                let (entry, bit, cycle) = self.random_site(desc, cycles);
                let kind = if self.rng.gen_bool(0.5) {
                    FaultKindSer::Stuck0
                } else {
                    FaultKindSer::Stuck1
                };
                InjectionSpec::bit_flips(
                    self.id(),
                    vec![FaultRecord {
                        core: 0,
                        structure: desc.id,
                        entry,
                        bit,
                        kind,
                        at: InjectTime::Cycle(cycle),
                        duration: FaultDuration::Intermittent {
                            cycles: window_cycles,
                        },
                    }],
                )
            })
            .collect()
    }

    /// Generates `n` single-bit permanent masks (present from cycle 0).
    pub fn permanent(&mut self, desc: &StructureDesc, n: u64) -> Vec<InjectionSpec> {
        (0..n)
            .map(|_| {
                let entry = self.rng.gen_range(0, desc.entries);
                let bit = self.rng.gen_range(0, desc.bits) as u32;
                let kind = if self.rng.gen_bool(0.5) {
                    FaultKindSer::Stuck0
                } else {
                    FaultKindSer::Stuck1
                };
                InjectionSpec::bit_flips(
                    self.id(),
                    vec![FaultRecord {
                        core: 0,
                        structure: desc.id,
                        entry,
                        bit,
                        kind,
                        at: InjectTime::Cycle(0),
                        duration: FaultDuration::Permanent,
                    }],
                )
            })
            .collect()
    }

    /// Generates `n` multi-bit transient masks with `bits_per_fault` flips
    /// in the *same entry* (§III.A multiplicity case i).
    pub fn multi_bit_same_entry(
        &mut self,
        desc: &StructureDesc,
        cycles: u64,
        bits_per_fault: u32,
        n: u64,
    ) -> Vec<InjectionSpec> {
        (0..n)
            .map(|_| {
                let entry = self.rng.gen_range(0, desc.entries);
                let cycle = self.rng.gen_range(0, cycles.max(1));
                let mut bits: Vec<u32> = Vec::new();
                while (bits.len() as u32) < bits_per_fault.min(desc.bits as u32) {
                    let b = self.rng.gen_range(0, desc.bits) as u32;
                    if !bits.contains(&b) {
                        bits.push(b);
                    }
                }
                InjectionSpec::bit_flips(
                    self.id(),
                    bits.into_iter()
                        .map(|bit| FaultRecord {
                            core: 0,
                            structure: desc.id,
                            entry,
                            bit,
                            kind: FaultKindSer::Flip,
                            at: InjectTime::Cycle(cycle),
                            duration: FaultDuration::Transient,
                        })
                        .collect(),
                )
            })
            .collect()
    }

    /// Generates `n` transient masks with one flip in *each* of the given
    /// structures simultaneously (§III.A multiplicity case iii).
    pub fn multi_structure(
        &mut self,
        descs: &[StructureDesc],
        cycles: u64,
        n: u64,
    ) -> Vec<InjectionSpec> {
        (0..n)
            .map(|_| {
                let cycle = self.rng.gen_range(0, cycles.max(1));
                let id = self.id();
                InjectionSpec::bit_flips(
                    id,
                    descs
                        .iter()
                        .map(|d| {
                            let entry = self.rng.gen_range(0, d.entries);
                            let bit = self.rng.gen_range(0, d.bits) as u32;
                            FaultRecord {
                                core: 0,
                                structure: d.id,
                                entry,
                                bit,
                                kind: FaultKindSer::Flip,
                                at: InjectTime::Cycle(cycle),
                                duration: FaultDuration::Transient,
                            }
                        })
                        .collect(),
                )
            })
            .collect()
    }

    /// Generates `n` spatially-correlated transient masks: `span` *adjacent*
    /// bits of one entry flip in the same cycle (a burst upset, the
    /// multi-bit pattern neighbouring cells suffer from one particle
    /// strike).
    pub fn correlated_adjacent_bits(
        &mut self,
        desc: &StructureDesc,
        cycles: u64,
        span: u32,
        n: u64,
    ) -> Vec<InjectionSpec> {
        let span = span.clamp(1, desc.bits as u32);
        (0..n)
            .map(|_| {
                let entry = self.rng.gen_range(0, desc.entries);
                let start = self.rng.gen_range(0, desc.bits - span as u64 + 1) as u32;
                let cycle = self.rng.gen_range(0, cycles.max(1));
                InjectionSpec::bit_flips(
                    self.id(),
                    (start..start + span)
                        .map(|bit| FaultRecord {
                            core: 0,
                            structure: desc.id,
                            entry,
                            bit,
                            kind: FaultKindSer::Flip,
                            at: InjectTime::Cycle(cycle),
                            duration: FaultDuration::Transient,
                        })
                        .collect(),
                )
            })
            .collect()
    }

    /// Generates `n` spatially-correlated transient masks across `span`
    /// *adjacent entries*: the same bit flips in neighbouring rows in the
    /// same cycle (a column-wise burst).
    pub fn correlated_adjacent_entries(
        &mut self,
        desc: &StructureDesc,
        cycles: u64,
        span: u64,
        n: u64,
    ) -> Vec<InjectionSpec> {
        let span = span.clamp(1, desc.entries);
        (0..n)
            .map(|_| {
                let start = self.rng.gen_range(0, desc.entries - span + 1);
                let bit = self.rng.gen_range(0, desc.bits) as u32;
                let cycle = self.rng.gen_range(0, cycles.max(1));
                InjectionSpec::bit_flips(
                    self.id(),
                    (start..start + span)
                        .map(|entry| FaultRecord {
                            core: 0,
                            structure: desc.id,
                            entry,
                            bit,
                            kind: FaultKindSer::Flip,
                            at: InjectTime::Cycle(cycle),
                            duration: FaultDuration::Transient,
                        })
                        .collect(),
                )
            })
            .collect()
    }

    /// Generates `n` instruction-skip attack scenarios, each suppressing
    /// `count` instructions from a random cycle of the benchmark.
    pub fn instruction_skip(&mut self, cycles: u64, count: u64, n: u64) -> Vec<InjectionSpec> {
        (0..n)
            .map(|_| {
                let cycle = self.rng.gen_range(0, cycles.max(1));
                InjectionSpec {
                    id: self.id(),
                    scenario: ScenarioKind::InstructionSkip {
                        at: InjectTime::Cycle(cycle),
                        count,
                    },
                }
            })
            .collect()
    }

    /// Generates `n` opcode-corruption attack scenarios with random non-zero
    /// single-byte XOR patterns at random cycles.
    pub fn opcode_corrupt(&mut self, cycles: u64, n: u64) -> Vec<InjectionSpec> {
        (0..n)
            .map(|_| {
                let cycle = self.rng.gen_range(0, cycles.max(1));
                let xor = self.rng.gen_range(1, 256);
                InjectionSpec {
                    id: self.id(),
                    scenario: ScenarioKind::OpcodeCorrupt {
                        at: InjectTime::Cycle(cycle),
                        xor,
                    },
                }
            })
            .collect()
    }

    /// Generates `n` branch-condition-inversion attack scenarios (one
    /// inverted branch each) at random cycles.
    pub fn branch_invert(&mut self, cycles: u64, n: u64) -> Vec<InjectionSpec> {
        (0..n)
            .map(|_| {
                let cycle = self.rng.gen_range(0, cycles.max(1));
                InjectionSpec {
                    id: self.id(),
                    scenario: ScenarioKind::BranchInvert {
                        at: InjectTime::Cycle(cycle),
                        count: 1,
                    },
                }
            })
            .collect()
    }

    /// Generates a seeded mix of every scenario family — single-bit flips,
    /// correlated bursts, and all three control-flow attacks — for
    /// cross-scenario differential testing and the CLI's `mixed` mode.
    pub fn mixed_scenarios(
        &mut self,
        desc: &StructureDesc,
        cycles: u64,
        n: u64,
    ) -> Vec<InjectionSpec> {
        let mut out = Vec::with_capacity(n as usize);
        for i in 0..n {
            let mut batch = match i % 5 {
                0 => self.transient(desc, cycles, 1),
                1 => self.correlated_adjacent_bits(desc, cycles, 2, 1),
                2 => self.instruction_skip(cycles, 1, 1),
                3 => self.opcode_corrupt(cycles, 1),
                _ => self.branch_invert(cycles, 1),
            };
            out.append(&mut batch);
        }
        out
    }

    /// The exhaustive-sweep driver: **every bit of every entry × every cycle
    /// of the window** as single-bit transient masks, in a seeded
    /// deterministic order (canonical cycle-major enumeration followed by a
    /// seeded Fisher–Yates shuffle, so shards drawn from a prefix stay
    /// statistically unbiased while the full sequence is reproducible from
    /// the seed).
    ///
    /// Affordability comes from the warm-start engine: the runs of one
    /// window fork the golden run a few cycles apart.
    pub fn exhaustive_sweep(
        &mut self,
        desc: &StructureDesc,
        window_start: u64,
        window_len: u64,
    ) -> Vec<InjectionSpec> {
        let mut out = Vec::new();
        for cycle in window_start..window_start + window_len.max(1) {
            for entry in 0..desc.entries {
                for bit in 0..desc.bits as u32 {
                    let id = self.id();
                    out.push(InjectionSpec::single_transient(
                        id, desc.id, entry, bit, cycle,
                    ));
                }
            }
        }
        self.rng.shuffle(&mut out);
        out
    }

    /// The branch-inversion sweep: one single-inversion scenario per cycle
    /// of the window, in ascending cycle order (the shape behind the
    /// "which rounds leak" attack report, where cycle buckets map to
    /// algorithm phases).
    pub fn branch_invert_sweep(
        &mut self,
        window_start: u64,
        window_len: u64,
    ) -> Vec<InjectionSpec> {
        (window_start..window_start + window_len.max(1))
            .map(|cycle| InjectionSpec {
                id: self.id(),
                scenario: ScenarioKind::BranchInvert {
                    at: InjectTime::Cycle(cycle),
                    count: 1,
                },
            })
            .collect()
    }

    /// The statistically required number of transient masks for this
    /// structure/benchmark pair (population = storage bits × cycles),
    /// per Leveugle et al. — §IV.A of the paper.
    pub fn required_samples(
        desc: &StructureDesc,
        cycles: u64,
        confidence: f64,
        error_margin: f64,
    ) -> u64 {
        let population = desc.total_bits().saturating_mul(cycles.max(1));
        sample_size(population, confidence, error_margin)
    }
}

/// True when every fault in `spec` is **provably masked** by the golden-run
/// ACE profile, so the run's outcome is known to be Masked without
/// dispatching it.
///
/// The proof only covers the exact shape the profile reasons about:
/// single-cycle transient flips, injected by cycle, into the profile's own
/// (data-plane) structure. Any other fault — stuck-at kinds, intermittent
/// or permanent durations, instruction-indexed injection, other structures
/// — disqualifies the whole spec, which must then be dispatched normally.
///
/// Multi-fault specs are prunable when each fault is individually proven:
/// by induction over cycles, a run whose every corrupt bit is overwritten
/// (or never accessed) before any read follows the golden access sequence
/// exactly, so the per-fault proofs compose.
///
/// Control-flow attack scenarios have no storage site for the residency
/// profile to reason about, so [`InjectionSpec::faults`] returns an empty
/// slice for them and this predicate is `false` — never-prune is the sound
/// default for any non-bit-flip scenario.
fn spec_provably_masked(spec: &InjectionSpec, profile: &AceProfile) -> bool {
    !spec.faults().is_empty()
        && spec.faults().iter().all(|f| {
            f.kind == FaultKindSer::Flip
                && f.duration == FaultDuration::Transient
                && f.structure == profile.structure()
                && matches!(f.at, InjectTime::Cycle(c)
                    if profile.is_provably_masked(f.entry, f.bit, c))
        })
}

/// One fault-equivalence class over a masks repository.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskClass {
    /// Dense class index, assigned in order of each class's first mask.
    pub id: u64,
    /// The static argument that makes the members equivalent.
    pub proof: ProofKind,
    /// Mask indices into the repository, ascending. `members[0]` is the
    /// canonical representative.
    pub members: Vec<usize>,
}

impl MaskClass {
    /// Index of the mask that stands in for the class.
    pub fn representative(&self) -> usize {
        self.members[0]
    }
}

/// The full partition of a masks repository into equivalence classes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskPartition {
    /// The classes, ordered by their first member's repository index.
    pub classes: Vec<MaskClass>,
}

impl MaskPartition {
    /// Total masks across all classes.
    pub fn mask_count(&self) -> usize {
        self.classes.iter().map(|c| c.members.len()).sum()
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Classes backed by `proof`.
    pub fn classes_with(&self, proof: ProofKind) -> usize {
        self.classes.iter().filter(|c| c.proof == proof).count()
    }

    /// Simulator dispatches a collapsed campaign needs: one representative
    /// per non-dead class (dead classes resolve statically).
    pub fn dispatch_count(&self) -> usize {
        self.classes
            .iter()
            .filter(|c| c.proof != ProofKind::DeadInterval)
            .count()
    }

    /// Masks per class — the collapse factor (1.0 for an empty repository).
    pub fn collapse_ratio(&self) -> f64 {
        if self.classes.is_empty() {
            1.0
        } else {
            self.mask_count() as f64 / self.class_count() as f64
        }
    }

    /// Per-mask provenance records, indexed by repository position.
    /// `masks` must be the repository the partition was built from.
    pub fn provenance(&self, masks: &[InjectionSpec]) -> Vec<ClassProvenance> {
        let mut out = vec![
            ClassProvenance {
                class_id: 0,
                representative: 0,
                proof: ProofKind::Singleton,
                members: 0,
            };
            masks.len()
        ];
        for class in &self.classes {
            let prov = ClassProvenance {
                class_id: class.id,
                representative: masks[class.representative()].id,
                proof: class.proof,
                members: class.members.len() as u64,
            };
            for &i in &class.members {
                out[i] = prov;
            }
        }
        out
    }
}

/// Partitions a masks repository into provably-equivalent classes against
/// one structure's golden-run ACE profile.
///
/// Only the exact shape the profile reasons about is eligible for
/// non-trivial classes — a *single* cycle-timed transient flip into the
/// profile's own (data-plane) structure. For eligible masks, [`SiteClass`]
/// decides the class:
///
/// * `Dead` sites of one (entry, bit) sharing the same erasing event merge
///   into one [`ProofKind::DeadInterval`] class, resolved without dispatch;
/// * `Latched` sites of one (entry, bit) sharing the same first-read event
///   merge into one [`ProofKind::LatchInterval`] class — one member is
///   simulated, the rest inherit its result;
/// * `Unproven` sites become [`ProofKind::Singleton`] classes.
///
/// Ineligible masks become singletons too, with one exception: a
/// *multi-fault* spec whose every fault is a cycle-timed transient flip of
/// a provably dead site becomes a one-member `DeadInterval` class (the
/// per-fault proofs compose; DESIGN.md §7).
///
/// Classes never span distinct (entry, bit) pairs or different specs'
/// fault shapes; every mask lands in exactly one class.
pub fn partition_equivalence(masks: &[InjectionSpec], profile: &AceProfile) -> MaskPartition {
    // Group key: (entry, bit, kind-tag, event-index). Tags: 0 = dead via a
    // covering write event, 1 = dead via "never accessed" (complete trace),
    // 2 = latched on a first read.
    let mut groups: BTreeMap<(u64, u32, u8, u64), Vec<usize>> = BTreeMap::new();
    // (first-member index, proof, members) for classes built outside the
    // grouping map (singletons and multi-fault dead specs).
    let mut solo: Vec<(usize, ProofKind)> = Vec::new();

    for (i, m) in masks.iter().enumerate() {
        // Attack scenarios yield an empty fault slice here, so they can
        // only ever fall through to the sound Singleton arm below.
        let site = match m.faults() {
            [f] if f.kind == FaultKindSer::Flip
                && f.duration == FaultDuration::Transient
                && f.structure == profile.structure() =>
            {
                match f.at {
                    InjectTime::Cycle(c) => Some((f.entry, f.bit, c)),
                    InjectTime::Instruction(_) => None,
                }
            }
            _ => None,
        };
        match site {
            Some((entry, bit, cycle)) => match profile.site_class(entry, bit, cycle) {
                SiteClass::Dead {
                    first_event: Some(k),
                } => groups.entry((entry, bit, 0, k as u64)).or_default().push(i),
                SiteClass::Dead { first_event: None } => {
                    groups.entry((entry, bit, 1, 0)).or_default().push(i);
                }
                SiteClass::Latched { first_event } => groups
                    .entry((entry, bit, 2, first_event as u64))
                    .or_default()
                    .push(i),
                SiteClass::Unproven => solo.push((i, ProofKind::Singleton)),
            },
            None if spec_provably_masked(m, profile) => {
                solo.push((i, ProofKind::DeadInterval));
            }
            None => solo.push((i, ProofKind::Singleton)),
        }
    }

    let mut classes: Vec<MaskClass> = Vec::new();
    for ((_, _, tag, _), members) in groups {
        let proof = match tag {
            0 | 1 => ProofKind::DeadInterval,
            _ => ProofKind::LatchInterval,
        };
        classes.push(MaskClass {
            id: 0,
            proof,
            members,
        });
    }
    for (i, proof) in solo {
        classes.push(MaskClass {
            id: 0,
            proof,
            members: vec![i],
        });
    }
    // Deterministic class ids: order classes by their first member's
    // repository position, then number densely.
    classes.sort_by_key(|c| c.members[0]);
    for (id, class) in classes.iter_mut().enumerate() {
        class.id = id as u64;
    }
    MaskPartition { classes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use difi_uarch::fault::StructureId;

    fn desc() -> StructureDesc {
        StructureDesc {
            id: StructureId::IntRegFile,
            entries: 256,
            bits: 64,
        }
    }

    /// Mutable access to a bit-flip spec's fault list (test shorthand).
    fn faults_mut(s: &mut InjectionSpec) -> &mut Vec<FaultRecord> {
        match &mut s.scenario {
            ScenarioKind::BitFlips { faults } => faults,
            other => panic!("not a bit-flip spec: {other:?}"),
        }
    }

    #[test]
    fn transient_masks_in_bounds_and_deterministic() {
        let mut g1 = MaskGenerator::new(42);
        let mut g2 = MaskGenerator::new(42);
        let a = g1.transient(&desc(), 10_000, 500);
        let b = g2.transient(&desc(), 10_000, 500);
        assert_eq!(a, b, "same seed → same masks repository");
        for m in &a {
            let f = &m.faults()[0];
            assert!(f.entry < 256);
            assert!(f.bit < 64);
            assert!(matches!(f.at, InjectTime::Cycle(c) if c < 10_000));
            assert_eq!(f.duration, FaultDuration::Transient);
        }
        assert_eq!(a.len(), 500);
    }

    #[test]
    fn generator_determinism_across_seed_sweep() {
        // Property (seeded sweep): for any seed, regenerating the masks
        // repository — across *every* generator method, old and new, in the
        // same call order — yields a byte-identical repository. Shard and
        // resume determinism rely on this.
        let tiny = StructureDesc {
            id: StructureId::L2Data,
            entries: 4,
            bits: 8,
        };
        for seed in 0..50u64 {
            let mut g1 = MaskGenerator::new(seed);
            let mut g2 = MaskGenerator::new(seed);
            let gen = |g: &mut MaskGenerator| {
                let mut all = g.transient(&desc(), 5_000, 20);
                all.extend(g.intermittent(&desc(), 5_000, 64, 10));
                all.extend(g.permanent(&desc(), 5));
                all.extend(g.multi_bit_same_entry(&desc(), 5_000, 2, 8));
                all.extend(g.multi_structure(&[desc(), tiny], 5_000, 6));
                all.extend(g.correlated_adjacent_bits(&desc(), 5_000, 3, 8));
                all.extend(g.correlated_adjacent_entries(&desc(), 5_000, 3, 8));
                all.extend(g.instruction_skip(5_000, 2, 6));
                all.extend(g.opcode_corrupt(5_000, 6));
                all.extend(g.branch_invert(5_000, 6));
                all.extend(g.mixed_scenarios(&desc(), 5_000, 10));
                all.extend(g.exhaustive_sweep(&tiny, 100, 3));
                all.extend(g.branch_invert_sweep(100, 5));
                all
            };
            let a = gen(&mut g1);
            let b = gen(&mut g2);
            assert_eq!(a, b, "seed {seed}: repository must be reproducible");
            let mut ids: Vec<u64> = a.iter().map(|m| m.id).collect();
            let n = ids.len();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), n, "seed {seed}: mask ids are unique");
        }
    }

    #[test]
    fn exhaustive_sweep_covers_every_site_exactly_once() {
        let tiny = StructureDesc {
            id: StructureId::L2Data,
            entries: 3,
            bits: 4,
        };
        let sweep = MaskGenerator::new(7).exhaustive_sweep(&tiny, 50, 6);
        assert_eq!(sweep.len(), 3 * 4 * 6, "entries × bits × window cycles");
        let mut sites: Vec<(u64, u32, u64)> = sweep
            .iter()
            .map(|m| {
                let f = &m.faults()[0];
                let InjectTime::Cycle(c) = f.at else {
                    panic!("sweeps are cycle-timed")
                };
                assert!((50..56).contains(&c), "cycle {c} outside the window");
                (f.entry, f.bit, c)
            })
            .collect();
        let n = sites.len();
        sites.sort_unstable();
        sites.dedup();
        assert_eq!(sites.len(), n, "no (entry, bit, cycle) site repeats");
        // The shuffled order is seed-stable but not the naive loop order.
        let cycle_of = |m: &InjectionSpec| match m.faults()[0].at {
            InjectTime::Cycle(c) => c,
            InjectTime::Instruction(_) => unreachable!(),
        };
        let in_loop_order = sweep.windows(2).all(|w| cycle_of(&w[0]) <= cycle_of(&w[1]));
        assert!(!in_loop_order, "sweep order must be seed-shuffled");
    }

    #[test]
    fn branch_invert_sweep_hits_every_cycle_in_the_window() {
        let sweep = MaskGenerator::new(3).branch_invert_sweep(200, 8);
        assert_eq!(sweep.len(), 8);
        for (i, m) in sweep.iter().enumerate() {
            assert_eq!(m.scenario.name(), "branch_invert");
            assert_eq!(
                m.scenario.trigger(),
                Some(InjectTime::Cycle(200 + i as u64))
            );
            assert!(m.faults().is_empty(), "attack scenarios carry no flips");
            assert!(!m.is_fault_free(), "attack scenarios are not fault-free");
        }
    }

    #[test]
    fn pruner_accepts_only_cycle_timed_transient_flips() {
        use difi_ace::AceProfile;
        use difi_uarch::residency::ResidencyTracker;

        // Empty, complete trace of the whole structure: every in-range
        // transient flip is provably masked (nothing is ever read).
        let t = ResidencyTracker::new();
        let profile = AceProfile::new(t.into_log(desc(), 1_000)).expect("data plane");
        let transient = InjectionSpec::single_transient(0, StructureId::IntRegFile, 3, 7, 50);
        assert!(spec_provably_masked(&transient, &profile));

        // Instruction-timed, stuck, or foreign-structure faults never prune.
        let mut by_instr = transient.clone();
        faults_mut(&mut by_instr)[0].at = InjectTime::Instruction(5);
        assert!(!spec_provably_masked(&by_instr, &profile));
        let mut stuck = transient.clone();
        faults_mut(&mut stuck)[0].kind = FaultKindSer::Stuck1;
        faults_mut(&mut stuck)[0].duration = FaultDuration::Permanent;
        assert!(!spec_provably_masked(&stuck, &profile));
        let mut other = transient.clone();
        faults_mut(&mut other)[0].structure = StructureId::L2Data;
        assert!(!spec_provably_masked(&other, &profile));
        let empty = InjectionSpec::fault_free(9);
        assert!(!spec_provably_masked(&empty, &profile));

        let masks = vec![transient, by_instr];
        let proofs: Vec<ProofKind> = partition_equivalence(&masks, &profile)
            .classes
            .iter()
            .map(|c| c.proof)
            .collect();
        assert_eq!(proofs, vec![ProofKind::DeadInterval, ProofKind::Singleton]);
    }

    fn traced_profile() -> AceProfile {
        use difi_uarch::residency::ResidencyTracker;
        // Entry 3, bits 0..64: write@100, read@200, write@300, read@400.
        let mut t = ResidencyTracker::new();
        t.set_cycle(100);
        t.on_write(3, 0, 64);
        t.set_cycle(200);
        t.on_read(3, 0, 64);
        t.set_cycle(300);
        t.on_write(3, 0, 64);
        t.set_cycle(400);
        t.on_read(3, 0, 64);
        AceProfile::new(t.into_log(desc(), 1_000)).expect("data plane")
    }

    #[test]
    fn partition_merges_latch_intervals_and_dead_intervals() {
        let p = traced_profile();
        let mk =
            |id, cycle| InjectionSpec::single_transient(id, StructureId::IntRegFile, 3, 7, cycle);
        let masks = vec![
            mk(0, 150), // latches until read@200 (event 1)
            mk(1, 180), // same latch class
            mk(2, 50),  // dead: erased by write@100 (event 0)
            mk(3, 90),  // same dead class
            mk(4, 350), // latches until read@400 (event 3)
            mk(5, 500), // dead: never accessed again, complete trace
            mk(6, 250), // dead: erased by write@300 (event 2)
        ];
        let part = partition_equivalence(&masks, &p);
        assert_eq!(part.mask_count(), 7);
        assert_eq!(part.class_count(), 5);
        assert_eq!(part.classes_with(ProofKind::LatchInterval), 2);
        assert_eq!(part.classes_with(ProofKind::DeadInterval), 3);
        assert_eq!(part.dispatch_count(), 2);
        assert!(part.collapse_ratio() > 1.0);
        // Class ids follow first-member order; members ascend. The two dead
        // proofs with distinct erasing events (write@300 vs. never-accessed)
        // deliberately do NOT merge — each class keeps one checkable
        // argument.
        let by_members: Vec<(ProofKind, Vec<usize>)> = part
            .classes
            .iter()
            .map(|c| (c.proof, c.members.clone()))
            .collect();
        assert_eq!(
            by_members,
            vec![
                (ProofKind::LatchInterval, vec![0, 1]),
                (ProofKind::DeadInterval, vec![2, 3]),
                (ProofKind::LatchInterval, vec![4]),
                (ProofKind::DeadInterval, vec![5]),
                (ProofKind::DeadInterval, vec![6]),
            ]
        );
        assert_eq!(
            part.classes.iter().map(|c| c.id).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn partition_never_merges_across_bits_entries_or_shapes() {
        let p = traced_profile();
        let masks = vec![
            // Same interval, different bits: distinct latch classes.
            InjectionSpec::single_transient(0, StructureId::IntRegFile, 3, 7, 150),
            InjectionSpec::single_transient(1, StructureId::IntRegFile, 3, 8, 150),
            // Different entry (never touched, complete trace): dead class of
            // its own (entry, bit).
            InjectionSpec::single_transient(2, StructureId::IntRegFile, 0, 7, 150),
            // Ineligible shapes: singletons even at identical sites.
            {
                let mut m = InjectionSpec::single_transient(3, StructureId::IntRegFile, 3, 7, 150);
                faults_mut(&mut m)[0].at = InjectTime::Instruction(5);
                m
            },
            InjectionSpec::single_transient(4, StructureId::L2Data, 3, 7, 150),
        ];
        let part = partition_equivalence(&masks, &p);
        assert_eq!(part.class_count(), 5, "nothing merges: {:?}", part.classes);
        assert_eq!(part.classes_with(ProofKind::Singleton), 2);
    }

    #[test]
    fn partition_dead_classes_agree_with_binary_pruner() {
        // Over a seeded random repository, the union of DeadInterval class
        // members must equal the masks the per-spec proof accepts exactly.
        let p = traced_profile();
        let mut g = MaskGenerator::new(99);
        let masks = g.transient(&desc(), 1_000, 300);
        let part = partition_equivalence(&masks, &p);
        assert_eq!(part.mask_count(), masks.len());
        let mut dead: Vec<usize> = part
            .classes
            .iter()
            .filter(|c| c.proof == ProofKind::DeadInterval)
            .flat_map(|c| c.members.iter().copied())
            .collect();
        dead.sort_unstable();
        let proven: Vec<usize> = (0..masks.len())
            .filter(|&i| spec_provably_masked(&masks[i], &p))
            .collect();
        assert_eq!(dead, proven);
        // Every mask lands in exactly one class.
        let mut all: Vec<usize> = part
            .classes
            .iter()
            .flat_map(|c| c.members.iter().copied())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..masks.len()).collect::<Vec<_>>());
    }

    #[test]
    fn provenance_maps_every_mask_to_its_class() {
        let p = traced_profile();
        let mk =
            |id, cycle| InjectionSpec::single_transient(id, StructureId::IntRegFile, 3, 7, cycle);
        let masks = vec![mk(10, 150), mk(11, 180), mk(12, 50)];
        let part = partition_equivalence(&masks, &p);
        let prov = part.provenance(&masks);
        assert_eq!(prov.len(), 3);
        assert_eq!(prov[0].class_id, prov[1].class_id);
        assert_eq!(prov[0].representative, 10, "representative is a mask id");
        assert_eq!(prov[1].representative, 10);
        assert_eq!(prov[0].proof, ProofKind::LatchInterval);
        assert_eq!(prov[0].members, 2);
        assert_eq!(prov[2].proof, ProofKind::DeadInterval);
        assert_eq!(prov[2].members, 1);
        assert_eq!(prov[2].representative, 12);
    }

    #[test]
    fn different_seeds_differ() {
        let a = MaskGenerator::new(1).transient(&desc(), 1000, 100);
        let b = MaskGenerator::new(2).transient(&desc(), 1000, 100);
        assert_ne!(a, b);
    }

    #[test]
    fn masks_cover_the_site_space() {
        let mut g = MaskGenerator::new(7);
        let ms = g.transient(&desc(), 1_000_000, 2000);
        let distinct_entries: std::collections::HashSet<u64> =
            ms.iter().map(|m| m.faults()[0].entry).collect();
        assert!(distinct_entries.len() > 200, "entries well spread");
        let high_bits = ms.iter().filter(|m| m.faults()[0].bit >= 32).count();
        assert!((600..1400).contains(&high_bits), "bits well spread");
    }

    #[test]
    fn intermittent_and_permanent_shapes() {
        let mut g = MaskGenerator::new(3);
        let i = g.intermittent(&desc(), 1000, 50, 10);
        for m in &i {
            assert!(matches!(
                m.faults()[0].duration,
                FaultDuration::Intermittent { cycles: 50 }
            ));
            assert!(matches!(
                m.faults()[0].kind,
                FaultKindSer::Stuck0 | FaultKindSer::Stuck1
            ));
        }
        let p = g.permanent(&desc(), 10);
        for m in &p {
            assert_eq!(m.faults()[0].duration, FaultDuration::Permanent);
            assert_eq!(m.faults()[0].at, InjectTime::Cycle(0));
        }
    }

    #[test]
    fn multi_bit_faults_share_entry_and_cycle() {
        let mut g = MaskGenerator::new(4);
        let ms = g.multi_bit_same_entry(&desc(), 1000, 3, 20);
        for m in &ms {
            assert_eq!(m.faults().len(), 3);
            let e = m.faults()[0].entry;
            let c = m.faults()[0].at;
            assert!(m.faults().iter().all(|f| f.entry == e && f.at == c));
            let mut bits: Vec<u32> = m.faults().iter().map(|f| f.bit).collect();
            bits.sort_unstable();
            bits.dedup();
            assert_eq!(bits.len(), 3, "bits are distinct");
        }
    }

    #[test]
    fn multi_structure_faults_hit_each_structure() {
        let d2 = StructureDesc {
            id: StructureId::L1dData,
            entries: 512,
            bits: 512,
        };
        let mut g = MaskGenerator::new(5);
        let ms = g.multi_structure(&[desc(), d2], 1000, 5);
        for m in &ms {
            assert_eq!(m.faults().len(), 2);
            assert_eq!(m.faults()[0].structure, StructureId::IntRegFile);
            assert_eq!(m.faults()[1].structure, StructureId::L1dData);
        }
    }

    #[test]
    fn required_samples_matches_paper() {
        // Any realistically large population → 1843 at 99%/3%.
        let n = MaskGenerator::required_samples(&desc(), 10_000_000, 0.99, 0.03);
        assert_eq!(n, 1843);
    }

    #[test]
    fn mask_ids_are_unique_across_batches() {
        let mut g = MaskGenerator::new(6);
        let a = g.transient(&desc(), 100, 10);
        let b = g.permanent(&desc(), 10);
        let mut ids: Vec<u64> = a.iter().chain(b.iter()).map(|m| m.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 20);
    }
}
