//! ACE-pruning soundness and savings: the static analysis may only remove
//! simulated work, never change a verdict.
//!
//! (a) Soundness spot-check: every mask the pruner classifies Masked is
//!     re-run as a *real* injection (early stops disabled) and must come
//!     back Masked, on two workloads × both simulator backends.
//! (b) Savings: a pruned campaign dispatches measurably fewer runs than the
//!     unpruned campaign over the same masks while producing identical
//!     per-class totals.

use difi::prelude::*;

const STRUCTURE: StructureId = StructureId::IntRegFile;
const MAX_CYCLES: u64 = 200_000_000;

fn profile_for(dispatcher: &dyn InjectorDispatcher, program: &Program) -> AceProfile {
    let logs = dispatcher.golden_residency(program, &[STRUCTURE], MAX_CYCLES);
    let log = logs.into_iter().next().expect("residency trace recorded");
    AceProfile::new(log).expect("int_prf is a data plane")
}

/// A campaign run under [`Strategy::Pruned`], with the split its pruner
/// made.
struct Pruned {
    log: CampaignLog,
    /// Spec ids classified Masked before dispatch.
    pruned_ids: Vec<u64>,
    /// Masks dispatched to the simulator.
    dispatched: usize,
}

fn pruned_campaign(
    dispatcher: &dyn InjectorDispatcher,
    bench: Bench,
    n: u64,
    seed: u64,
) -> (Pruned, Vec<InjectionSpec>, Program) {
    let program = build(bench, dispatcher.isa()).expect("assembles");
    let golden = golden_run(dispatcher, &program, MAX_CYCLES);
    let desc = difi::core::dispatch::structure_desc(dispatcher, STRUCTURE).expect("injectable");
    let masks = MaskGenerator::new(seed).transient(&desc, golden.cycles_measured(), n);
    let profile = profile_for(dispatcher, &program);
    let log = CampaignRunner::new(dispatcher, &program, STRUCTURE, seed, &cfg())
        .with_strategy(Strategy::Pruned { profile: &profile })
        .run(&masks);
    let (pruned, dispatch) = partition_provably_masked(&masks, &profile);
    let pruned = Pruned {
        log,
        pruned_ids: pruned.iter().map(|&i| masks[i].id).collect(),
        dispatched: dispatch.len(),
    };
    (pruned, masks, program)
}

fn cfg() -> CampaignConfig {
    CampaignConfig {
        threads: 2,
        early_stop: true,
        golden_max_cycles: MAX_CYCLES,
    }
}

#[test]
fn pruned_masks_reclassify_masked_under_real_injection() {
    // Soundness: two workloads × both backends; every pruned mask, actually
    // injected with every early stop disabled, must classify Masked.
    let mafin = MaFin::new();
    let gefin = GeFin::x86();
    let backends: [&dyn InjectorDispatcher; 2] = [&mafin, &gefin];
    for dispatcher in backends {
        for bench in [Bench::Fft, Bench::Qsort] {
            let (pruned, masks, program) = pruned_campaign(dispatcher, bench, 14, 2025);
            assert!(
                !pruned.pruned_ids.is_empty(),
                "{} {bench}: register-file masks must include provably-dead sites",
                dispatcher.name()
            );
            let classifier = Classifier::from_golden(&pruned.log.golden);
            let mut limits = RunLimits::campaign(pruned.log.golden.cycles_measured());
            limits.early_stop = false;
            for id in &pruned.pruned_ids {
                let spec = masks
                    .iter()
                    .find(|m| m.id == *id)
                    .expect("pruned id exists");
                let result = dispatcher.run(&program, spec, &limits);
                assert_eq!(
                    classifier.classify(&result),
                    Outcome::Masked,
                    "{} {bench}: mask {id} was pruned but a real run contradicts it ({:?})",
                    dispatcher.name(),
                    result.status
                );
            }
        }
    }
}

#[test]
fn pruning_saves_dispatches_with_identical_totals() {
    let mafin = MaFin::new();
    let gefin = GeFin::x86();
    let backends: [&dyn InjectorDispatcher; 2] = [&mafin, &gefin];
    for dispatcher in backends {
        let (pruned, masks, program) = pruned_campaign(dispatcher, Bench::Fft, 20, 7);
        let baseline = CampaignRunner::new(dispatcher, &program, STRUCTURE, 7, &cfg()).run(&masks);
        // Fewer dispatches, nothing dropped.
        assert!(
            pruned.dispatched < masks.len(),
            "{}: pruning must save dispatches",
            dispatcher.name()
        );
        assert_eq!(
            pruned.dispatched + pruned.pruned_ids.len(),
            masks.len(),
            "every mask is either dispatched or logged as pruned"
        );
        assert_eq!(pruned.log.runs.len(), baseline.runs.len());
        // Identical per-class totals.
        let cp = classify_log(&pruned.log);
        let cb = classify_log(&baseline);
        assert_eq!(cp.masked, cb.masked, "{}", dispatcher.name());
        assert_eq!(cp.sdc, cb.sdc, "{}", dispatcher.name());
        assert_eq!(cp.due, cb.due, "{}", dispatcher.name());
        assert_eq!(cp.timeout, cb.timeout, "{}", dispatcher.name());
        assert_eq!(cp.crash, cb.crash, "{}", dispatcher.name());
        assert_eq!(cp.assert_, cb.assert_, "{}", dispatcher.name());
        // Pruned runs are logged with the dedicated early-stop reason.
        let logged_pruned = pruned
            .log
            .runs
            .iter()
            .filter(|r| {
                matches!(
                    r.result.status,
                    RunStatus::EarlyStopMasked(EarlyStop::StaticallyPruned)
                )
            })
            .count();
        assert_eq!(logged_pruned, pruned.pruned_ids.len());
    }
}

#[test]
fn static_avf_tracks_measured_vulnerability_order() {
    // The AVF comparison axis: static ACE-derived AVF must upper-bound (or
    // at least not wildly undercut) the measured non-Masked rate for the
    // register file, and the comparison renders for both backends.
    let mafin = MaFin::new();
    let gefin = GeFin::x86();
    let backends: [&dyn InjectorDispatcher; 2] = [&mafin, &gefin];
    let mut cmp = AvfComparison::new();
    for dispatcher in backends {
        let (pruned, _, program) = pruned_campaign(dispatcher, Bench::Fft, 16, 11);
        let profile = profile_for(dispatcher, &program);
        let avf = profile.static_avf();
        assert!(avf.exact, "small traces must be complete");
        let counts = classify_log(&pruned.log);
        cmp.push(
            "fft",
            dispatcher.name(),
            "int_prf",
            avf.avf,
            avf.exact,
            &counts,
        );
        assert!(
            avf.avf >= counts.vulnerability() - 0.15,
            "{}: static AVF {:.4} should not undercut measured {:.4} by a wide margin",
            dispatcher.name(),
            avf.avf,
            counts.vulnerability()
        );
    }
    let table = cmp.render();
    assert!(table.contains("int_prf"));
    assert!(table.contains("MaFIN-x86") && table.contains("GeFIN-x86"));
}
