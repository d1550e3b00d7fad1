//! Differential oracle for the pipeline profiler: per-run stall/occupancy
//! counters are a *deterministic function of the mask*, independent of the
//! execution strategy. On real workloads and all three experimental setups,
//! identical masks must produce byte-identical [`ProfileCounters`] under
//! cold starts, the checkpointed warm-start engine, and mask-space collapse
//! — and enabling profiling must leave the campaign log itself
//! byte-identical (the profiler observes, never perturbs). Every profiled
//! run must also satisfy the attribution totality identity:
//! `committed_cycles + Σ stall_cause_cycles == profiled_cycles == cycles`.

use difi::prelude::*;
use std::collections::BTreeMap;

/// The integer physical register file: a data-plane structure with a
/// residency trace on all three setups, so the collapsed strategy is
/// exercised for real rather than falling back to cold dispatch.
const STRUCTURE: StructureId = StructureId::IntRegFile;

/// Campaign size: full-scale in release (scripts/check.sh runs this test in
/// release explicitly); trimmed in debug where the simulator is ~10× slower,
/// while keeping the required 3-strategies × 2-workloads × 3-setups matrix
/// intact.
const N_MASKS: u64 = if cfg!(debug_assertions) { 3 } else { 8 };

fn backends() -> Vec<Box<dyn InjectorDispatcher + Send>> {
    vec![
        Box::new(MaFin::new()),
        Box::new(GeFin::x86()),
        Box::new(GeFin::arm()),
    ]
}

struct Cell {
    program: Program,
    masks: Vec<InjectionSpec>,
    cfg: CampaignConfig,
}

fn cell(dispatcher: &dyn InjectorDispatcher, bench: Bench) -> Cell {
    let program = build(bench, dispatcher.isa()).expect("assembles");
    let golden = golden_run(dispatcher, &program, 200_000_000);
    let desc = difi::core::dispatch::structure_desc(dispatcher, STRUCTURE).expect("injectable");
    let masks = MaskGenerator::new(1979).transient(&desc, golden.cycles_measured(), N_MASKS);
    let cfg = CampaignConfig {
        threads: 2,
        early_stop: true,
        golden_max_cycles: 200_000_000,
    };
    Cell {
        program,
        masks,
        cfg,
    }
}

/// Every profiled cycle is attributed exactly once: commits plus the eight
/// stall causes must tile the profiled window with nothing left over, and
/// the profiled window must span the whole run.
fn assert_totality(tag: &str, i: usize, p: &ProfileCounters, cycles: Option<u64>) {
    assert_eq!(
        p.committed_cycles + p.stall_total(),
        p.profiled_cycles,
        "{tag}: mask {i} profile does not tile its cycles"
    );
    assert_eq!(
        Some(p.profiled_cycles),
        cycles,
        "{tag}: mask {i} profiled a different cycle count than the run reports"
    );
}

/// The runs of `log` that stopped at their injection cycle because their
/// fault landed in an unused entry: a warm campaign answers these at the
/// fork, without running the core.
fn dead_on_arrival(log: &CampaignLog) -> usize {
    log.runs
        .iter()
        .filter(|r| {
            r.result.status == RunStatus::EarlyStopMasked(EarlyStop::DeadEntry)
                && r.result.cycles == r.spec.warm_start_cycle()
        })
        .count()
}

#[test]
fn profiles_are_identical_across_all_strategies() {
    for bench in [Bench::Sha, Bench::Fft] {
        for dispatcher in backends() {
            let d = dispatcher.as_ref();
            let c = cell(d, bench);
            let tag = format!("{}_{bench:?}", d.name());

            // Strategy 1 — cold, profiled. The reference counters.
            let cold_mem = MemoryProfileSink::new();
            let cold_runner =
                CampaignRunner::new(d, &c.program, STRUCTURE, 1979, &c.cfg).with_profiling(true);
            let cold_log = cold_runner.run_with_sinks(&c.masks, &[&cold_mem]);
            let cold_profiles = cold_mem.into_profiles();
            assert_eq!(
                cold_profiles.len(),
                c.masks.len(),
                "{tag}: every dispatched mask must produce a profile"
            );
            let golden_prof = cold_runner
                .golden_profile()
                .unwrap_or_else(|| panic!("{tag}: golden run was not profiled"));
            assert_eq!(
                golden_prof.committed_cycles + golden_prof.stall_total(),
                golden_prof.profiled_cycles,
                "{tag}: golden profile does not tile its cycles"
            );
            for (i, p) in &cold_profiles {
                assert_totality(&tag, *i, p, cold_log.runs[*i].result.cycles);
            }

            // Profiling observes, never perturbs: the profiled log is
            // byte-identical to a plain unprofiled campaign.
            let plain = CampaignRunner::new(d, &c.program, STRUCTURE, 1979, &c.cfg).run(&c.masks);
            assert_eq!(
                plain, cold_log,
                "{tag}: enabling profiling changed the campaign log"
            );

            // Strategy 2 — checkpointed warm-start, profiled. A run resumed
            // from a profiled snapshot must report the same counters as its
            // cold twin (the snapshot carries the prefix counters).
            let warm_mem = MemoryProfileSink::new();
            let warm_log = CampaignRunner::new(d, &c.program, STRUCTURE, 1979, &c.cfg)
                .with_strategy(Strategy::Checkpointed { checkpoints: 3 })
                .with_profiling(true)
                .run_with_sinks(&c.masks, &[&warm_mem]);
            assert_eq!(cold_log, warm_log, "{tag}: warm-start log diverged");
            assert_eq!(
                cold_profiles,
                warm_mem.into_profiles(),
                "{tag}: warm-start profiles diverged from cold"
            );
            assert!(
                dead_on_arrival(&warm_log) > 0,
                "{tag}: no warm run was answered at its fork"
            );

            // Strategy 3 — mask-space collapse, profiled. Only class
            // representatives dispatch (replicated members never profile),
            // so the collapsed profile set is a subset of the cold one —
            // but each representative's counters must match its cold twin,
            // and every mask must keep its cold verdict.
            let residency = d
                .golden_residency(&c.program, &[STRUCTURE], c.cfg.golden_max_cycles)
                .pop();
            let profile = residency
                .and_then(AceProfile::new)
                .unwrap_or_else(|| panic!("{tag}: no residency profile for {STRUCTURE:?}"));
            let coll_mem = MemoryProfileSink::new();
            let coll_log = CampaignRunner::new(d, &c.program, STRUCTURE, 1979, &c.cfg)
                .with_strategy(Strategy::Collapsed {
                    profile: &profile,
                    checkpoints: 0,
                })
                .with_profiling(true)
                .run_with_sinks(&c.masks, &[&coll_mem]);
            assert_eq!(cold_log.runs.len(), coll_log.runs.len());
            let classifier = Classifier::from_golden(&cold_log.golden);
            for (a, b) in cold_log.runs.iter().zip(&coll_log.runs) {
                assert_eq!(a.spec.id, b.spec.id, "{tag}: collapsed mask order diverged");
                assert_eq!(
                    classifier.classify(&a.result),
                    classifier.classify(&b.result),
                    "{tag}: collapsing changed the verdict of mask {}",
                    a.spec.id
                );
            }
            // Exactly the partition's representatives profile: dead classes
            // resolve statically (possibly all of them) and members
            // replicate, neither touching the simulator.
            let coll_profiles = coll_mem.into_profiles();
            let part = partition_equivalence(&c.masks, &profile);
            assert_eq!(
                coll_profiles.len(),
                part.dispatch_count(),
                "{tag}: profiled-run count disagrees with the partition's dispatch count"
            );
            let by_index: BTreeMap<usize, &ProfileCounters> =
                cold_profiles.iter().map(|(i, p)| (*i, p)).collect();
            for (i, p) in &coll_profiles {
                assert_eq!(
                    Some(&p),
                    by_index.get(i),
                    "{tag}: representative {i} produced different counters under collapse"
                );
                assert_totality(&tag, *i, p, coll_log.runs[*i].result.cycles);
            }
        }
    }
}
