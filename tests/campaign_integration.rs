//! End-to-end campaign integration: mask generation → parallel campaign →
//! logs repository round-trip → reconfigurable classification, across the
//! paper's three setups.

use difi::prelude::*;

fn small_campaign(
    dispatcher: &dyn InjectorDispatcher,
    bench: Bench,
    structure: StructureId,
    n: u64,
    early_stop: bool,
) -> CampaignLog {
    let program = build(bench, dispatcher.isa()).expect("assembles");
    let golden = golden_run(dispatcher, &program, 200_000_000);
    let desc = difi::core::dispatch::structure_desc(dispatcher, structure).expect("injectable");
    let masks = MaskGenerator::new(99).transient(&desc, golden.cycles_measured(), n);
    CampaignRunner::new(
        dispatcher,
        &program,
        structure,
        99,
        &CampaignConfig {
            threads: 1,
            early_stop,
            golden_max_cycles: 200_000_000,
        },
    )
    .run(&masks)
}

#[test]
fn campaign_classifies_every_run_on_all_setups() {
    for dispatcher in setups::all() {
        let log = small_campaign(
            dispatcher.as_ref(),
            Bench::Fft,
            StructureId::IntRegFile,
            12,
            true,
        );
        let counts = classify_log(&log);
        assert_eq!(counts.total(), 12, "{}", dispatcher.name());
        assert!(
            counts.masked >= 6,
            "{}: register-file faults are mostly masked (paper Fig. 2)",
            dispatcher.name()
        );
    }
}

#[test]
fn early_stop_does_not_change_verdicts() {
    // §III.B.2: the optimizations are pure speedups — identical masks must
    // classify identically with and without them.
    let mafin = MaFin::new();
    let with = small_campaign(&mafin, Bench::Fft, StructureId::L2Data, 25, true);
    let without = small_campaign(&mafin, Bench::Fft, StructureId::L2Data, 25, false);
    let cw = classify_log(&with);
    let co = classify_log(&without);
    assert_eq!(cw.masked, co.masked);
    assert_eq!(cw.sdc, co.sdc);
    assert_eq!(cw.crash, co.crash);
    // And they must save simulated work.
    let cyc = |l: &CampaignLog| l.runs.iter().filter_map(|r| r.result.cycles).sum::<u64>();
    assert!(
        cyc(&with) < cyc(&without),
        "early stop must reduce simulated cycles"
    );

    // Stuck-at faults on every setup. A stuck bit in an unused entry is
    // forced back after every later write, so it is live: rule (i) must
    // not stop its run.
    for dispatcher in setups::all() {
        let d = dispatcher.as_ref();
        let program = build(Bench::Fft, d.isa()).expect("assembles");
        let golden = golden_run(d, &program, 200_000_000);
        for structure in [StructureId::IntRegFile, StructureId::L1dData] {
            let desc = difi::core::dispatch::structure_desc(d, structure).expect("injectable");
            let mut gen = MaskGenerator::new(7);
            let mut masks = gen.intermittent(&desc, golden.cycles_measured(), 20_000, 8);
            masks.extend(gen.permanent(&desc, 8));
            let campaign = |early_stop| {
                let cfg = CampaignConfig {
                    threads: 2,
                    early_stop,
                    golden_max_cycles: 200_000_000,
                };
                CampaignRunner::new(d, &program, structure, 7, &cfg).run(&masks)
            };
            let (with, without) = (campaign(true), campaign(false));
            let classifier = Classifier::from_golden(&without.golden);
            for (w, o) in with.runs.iter().zip(&without.runs) {
                assert_eq!(
                    classifier.classify(&w.result),
                    classifier.classify(&o.result),
                    "{} {structure}: early stop changed the verdict of mask {} ({:?})",
                    d.name(),
                    w.spec.id,
                    w.spec.faults()[0].duration
                );
            }
        }
    }
}

#[test]
fn logs_repository_roundtrip_preserves_reclassification() {
    let gefin = GeFin::x86();
    let log = small_campaign(&gefin, Bench::Fft, StructureId::L1dData, 15, true);
    let dir = std::env::temp_dir().join("difi_integration");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("campaign.jsonl");
    log.save(&path).expect("save");
    let back = CampaignLog::load(&path).expect("load");
    assert_eq!(back, log);
    // Reclassify the loaded log with a reconfigured parser: no re-run needed.
    let six = classify_log(&back);
    let regrouped = classify_log_with(
        &back,
        &Classifier::from_golden(&back.golden).simulator_crash_as_assert(),
    );
    assert_eq!(six.total(), regrouped.total());
    assert!(regrouped.assert_ >= six.assert_);
    assert_eq!(
        six.crash + six.assert_,
        regrouped.crash + regrouped.assert_,
        "regrouping moves runs between crash and assert only"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn campaigns_are_reproducible_from_the_seed() {
    let mafin = MaFin::new();
    let a = small_campaign(&mafin, Bench::Fft, StructureId::L1iData, 10, true);
    let b = small_campaign(&mafin, Bench::Fft, StructureId::L1iData, 10, true);
    assert_eq!(a.runs.len(), b.runs.len());
    for (ra, rb) in a.runs.iter().zip(&b.runs) {
        assert_eq!(ra.spec, rb.spec);
        assert_eq!(ra.result, rb.result, "same seed ⇒ same outcome");
    }
}

#[test]
fn multi_fault_masks_run_end_to_end() {
    // §III.A: multiple faults per run, across structures.
    let mafin = MaFin::new();
    let program = build(Bench::Fft, mafin.isa()).expect("assembles");
    let golden = golden_run(&mafin, &program, 200_000_000);
    let l1d = difi::core::dispatch::structure_desc(&mafin, StructureId::L1dData).unwrap();
    let rf = difi::core::dispatch::structure_desc(&mafin, StructureId::IntRegFile).unwrap();
    let mut gen = MaskGenerator::new(5);
    let mut masks = gen.multi_bit_same_entry(&l1d, golden.cycles_measured(), 3, 5);
    masks.extend(gen.multi_structure(&[l1d, rf], golden.cycles_measured(), 5));
    let log = CampaignRunner::new(
        &mafin,
        &program,
        StructureId::L1dData,
        5,
        &CampaignConfig::default(),
    )
    .run(&masks);
    assert_eq!(log.runs.len(), 10);
    assert_eq!(classify_log(&log).total(), 10);
}

#[test]
fn intermittent_and_permanent_models_run_end_to_end() {
    let gefin = GeFin::arm();
    let program = build(Bench::Fft, gefin.isa()).expect("assembles");
    let golden = golden_run(&gefin, &program, 200_000_000);
    let desc = difi::core::dispatch::structure_desc(&gefin, StructureId::IntRegFile).unwrap();
    let mut gen = MaskGenerator::new(6);
    let mut masks = gen.intermittent(&desc, golden.cycles_measured(), 500, 6);
    masks.extend(gen.permanent(&desc, 6));
    let log = CampaignRunner::new(
        &gefin,
        &program,
        StructureId::IntRegFile,
        6,
        &CampaignConfig::default(),
    )
    .run(&masks);
    let counts = classify_log(&log);
    assert_eq!(counts.total(), 12);
}

#[test]
fn instruction_triggered_masks_apply() {
    let mafin = MaFin::new();
    let program = build(Bench::Fft, mafin.isa()).expect("assembles");
    let spec = InjectionSpec::bit_flips(
        0,
        vec![FaultRecord {
            core: 0,
            structure: StructureId::IntRegFile,
            entry: 250,
            bit: 1,
            kind: FaultKindSer::Flip,
            at: InjectTime::Instruction(100),
            duration: FaultDuration::Transient,
        }],
    );
    let raw = mafin.run(&program, &spec, &RunLimits::campaign(10_000_000));
    // Physical register 250 is free at boot; either early-masked or clean.
    assert!(matches!(
        raw.status,
        RunStatus::EarlyStopMasked(_) | RunStatus::Completed { .. }
    ));
}
