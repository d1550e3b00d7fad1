//! Differential oracle for the checkpointed warm-start engine: on real
//! workloads and both simulator backends, a campaign served from golden-run
//! checkpoints must be **byte-identical** to the cold-start campaign — same
//! classifications, outputs, and exception counts for every mask. The
//! fault-free prefix is deterministic, so restoring it from a snapshot
//! instead of re-simulating it may change wall-clock time only.

use difi::prelude::*;
use std::io::Read;

/// Campaign size: full-scale in release (scripts/check.sh runs this test in
/// release explicitly); trimmed in debug where the simulator is ~10× slower,
/// while keeping the required ≥2-workloads × 3-setups matrix intact.
const N_MASKS: u64 = if cfg!(debug_assertions) { 3 } else { 8 };
const K_CHECKPOINTS: usize = if cfg!(debug_assertions) { 2 } else { 4 };

fn backends() -> Vec<Box<dyn InjectorDispatcher + Send>> {
    vec![
        Box::new(MaFin::new()),
        Box::new(GeFin::x86()),
        Box::new(GeFin::arm()),
    ]
}

fn campaign_pair(
    dispatcher: &dyn InjectorDispatcher,
    bench: Bench,
    n: u64,
    checkpoints: usize,
) -> (CampaignLog, CampaignLog) {
    let program = build(bench, dispatcher.isa()).expect("assembles");
    let golden = golden_run(dispatcher, &program, 200_000_000);
    let structure = StructureId::L2Data;
    let desc = difi::core::dispatch::structure_desc(dispatcher, structure).expect("injectable");
    let masks = MaskGenerator::new(1979).transient(&desc, golden.cycles_measured(), n);
    let cfg = CampaignConfig {
        threads: 2,
        early_stop: true,
        golden_max_cycles: 200_000_000,
    };
    let cold = CampaignRunner::new(dispatcher, &program, structure, 1979, &cfg).run(&masks);
    let warm = CampaignRunner::new(dispatcher, &program, structure, 1979, &cfg)
        .with_strategy(Strategy::Checkpointed { checkpoints })
        .run(&masks);
    (cold, warm)
}

fn saved_bytes(log: &CampaignLog, tag: &str) -> Vec<u8> {
    let dir = std::env::temp_dir().join("difi_warm_start_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{tag}.jsonl"));
    log.save(&path).expect("save");
    let mut bytes = Vec::new();
    std::fs::File::open(&path)
        .expect("open")
        .read_to_end(&mut bytes)
        .expect("read");
    std::fs::remove_file(&path).ok();
    bytes
}

#[test]
fn checkpointed_campaign_is_byte_identical_to_cold_start() {
    // ≥2 workloads × both simulator backends (MarsSim and GemSim).
    for bench in [Bench::Sha, Bench::Fft] {
        for dispatcher in backends() {
            let d = dispatcher.as_ref();
            let (cold, warm) = campaign_pair(d, bench, N_MASKS, K_CHECKPOINTS);
            assert_eq!(
                cold,
                warm,
                "{:?}/{}: warm-start log diverged from cold-start oracle",
                bench,
                d.name()
            );
            // Byte-identical through the logs repository too.
            let tag_c = format!("{}_{bench:?}_cold", d.name());
            let tag_w = format!("{}_{bench:?}_warm", d.name());
            assert_eq!(
                saved_bytes(&cold, &tag_c),
                saved_bytes(&warm, &tag_w),
                "{:?}/{}: serialized logs differ",
                bench,
                d.name()
            );
            // Identical classification tallies follow, but assert anyway —
            // this is the acceptance criterion stated in the paper's terms.
            let cc = classify_log(&cold);
            let cw = classify_log(&warm);
            assert_eq!(cc.total(), N_MASKS);
            assert_eq!(cc, cw, "{:?}/{}", bench, d.name());
        }
    }
}

#[test]
fn snapshots_capture_and_resume_mid_run() {
    // Direct API check on one backend: snapshots come back at the requested
    // cycles, and a run resumed from the *latest eligible* checkpoint equals
    // the cold run bit-for-bit.
    let mafin = MaFin::new();
    let program = build(Bench::Sha, mafin.isa()).expect("assembles");
    let golden = golden_run(&mafin, &program, 200_000_000);
    let g = golden.cycles_measured();
    let limits = RunLimits::campaign(g);

    let at = [g / 4, g / 2];
    let snaps = mafin
        .golden_snapshots(&program, &at, &limits)
        .expect("MaFIN supports warm starts");
    assert_eq!(snaps.len(), 2, "both checkpoints are inside the golden run");
    assert_eq!([snaps[0].cycle, snaps[1].cycle], at);

    // A fault injected in the last quarter may resume from the g/2 snapshot.
    let spec = InjectionSpec::single_transient(0, StructureId::IntRegFile, 7, 12, g / 2 + g / 4);
    let cold = mafin.run(&program, &spec, &limits);
    let warm = mafin.run_from(&snaps[1], &program, &spec, &limits);
    assert_eq!(cold, warm, "resumed run must equal the cold run exactly");

    // Capture past the end of the program stops early instead of spinning.
    let tail = mafin
        .golden_snapshots(&program, &[g / 2, g.saturating_mul(10)], &limits)
        .expect("supported");
    assert_eq!(tail.len(), 1, "unreachable checkpoint is dropped");
}

#[test]
fn a_snapshot_of_another_configuration_runs_cold() {
    // MaFIN-x86 and GeFIN-x86 simulate the same x86e program, so each can
    // downcast the other's snapshot to a core; resuming it would continue
    // the other simulator. A warm run must equal its own dispatcher's cold
    // run whichever setup captured the snapshot.
    let (mafin, gefin) = (MaFin::new(), GeFin::x86());
    let program = build(Bench::Sha, Isa::X86e).expect("assembles");
    let spec = InjectionSpec::single_transient(0, StructureId::IntRegFile, 3, 5, 96_805);
    let pairs: [(&dyn InjectorDispatcher, &dyn InjectorDispatcher); 2] =
        [(&mafin, &gefin), (&gefin, &mafin)];
    for (captured_by, runs) in pairs {
        let golden = golden_run(runs, &program, 200_000_000);
        let limits = RunLimits::campaign(golden.cycles_measured());
        let snaps = captured_by
            .golden_snapshots(&program, &[96_795], &limits)
            .expect("snapshots are supported");
        assert_eq!(snaps.len(), 1, "the checkpoint is inside the golden run");
        assert_eq!(
            runs.run_from(&snaps[0], &program, &spec, &limits),
            runs.run(&program, &spec, &limits),
            "{} resumed a {} snapshot",
            runs.name(),
            captured_by.name()
        );
    }
}

#[test]
fn a_snapshot_of_another_program_runs_cold() {
    // sha and fft are both x86e programs under one configuration, so MaFIN
    // can downcast a snapshot of sha to a core; resuming it would continue
    // sha in place of fft. A warm run of fft must equal fft's cold run.
    let mafin = MaFin::new();
    let sha = build(Bench::Sha, Isa::X86e).expect("assembles");
    let fft = build(Bench::Fft, Isa::X86e).expect("assembles");
    let golden = golden_run(&mafin, &fft, 200_000_000);
    let limits = RunLimits {
        early_stop: false,
        ..RunLimits::campaign(golden.cycles_measured())
    };
    let snaps = mafin
        .golden_snapshots(&sha, &[20_000], &limits)
        .expect("snapshots are supported");
    assert_eq!(snaps.len(), 1, "the checkpoint is inside sha's golden run");
    let spec = InjectionSpec::single_transient(0, StructureId::IntRegFile, 3, 5, 30_000);
    assert_eq!(
        mafin.run_from(&snaps[0], &fft, &spec, &limits),
        mafin.run(&fft, &spec, &limits),
        "MaFIN resumed a snapshot of sha for fft"
    );
}
