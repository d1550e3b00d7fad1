//! Scenario differential oracle: a campaign over a *mixed* scenario list —
//! plain bit flips, correlated multi-bit flips, instruction skip, opcode
//! corruption, branch inversion — must behave exactly like the single-bit
//! campaigns every other oracle covers:
//!
//! (a) Cold, checkpointed (warm-start), and crash-resumed strategies are
//!     **byte-identical** on 2 workloads × the paper's three setups.
//! (b) Collapsing stays sound with scenarios mixed in: every mask keeps its
//!     cold verdict, and the analysis never claims equivalence for an
//!     attack scenario — those land in singleton classes with results
//!     byte-identical to the cold runs.

use difi::prelude::*;
use std::path::PathBuf;

const MAX_CYCLES: u64 = 200_000_000;
const STRUCTURE: StructureId = StructureId::IntRegFile;

/// One spec per scenario kind in debug; two full rotations in release
/// (scripts/check.sh runs this oracle in release explicitly).
const N_MASKS: u64 = if cfg!(debug_assertions) { 5 } else { 10 };

fn backends() -> Vec<Box<dyn InjectorDispatcher + Send>> {
    vec![
        Box::new(MaFin::new()),
        Box::new(GeFin::x86()),
        Box::new(GeFin::arm()),
    ]
}

fn cfg() -> CampaignConfig {
    CampaignConfig {
        threads: 2,
        early_stop: true,
        golden_max_cycles: MAX_CYCLES,
    }
}

struct Cell {
    program: Program,
    masks: Vec<InjectionSpec>,
}

fn cell(dispatcher: &dyn InjectorDispatcher, bench: Bench) -> Cell {
    let program = build(bench, dispatcher.isa()).expect("assembles");
    let golden = golden_run(dispatcher, &program, MAX_CYCLES);
    let desc = difi::core::dispatch::structure_desc(dispatcher, STRUCTURE).expect("injectable");
    let masks = MaskGenerator::new(2015).mixed_scenarios(&desc, golden.cycles_measured(), N_MASKS);
    assert!(
        masks.iter().any(|m| m.scenario.name() != "bit_flips"),
        "the mixed repository must contain attack scenarios"
    );
    assert!(
        masks.iter().any(|m| m.faults().len() > 1),
        "the mixed repository must contain correlated multi-bit flips"
    );
    Cell { program, masks }
}

fn temp_journal(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("difi_scenario_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{tag}.journal"))
}

/// Truncates the journal after the header plus half the run lines — the
/// crash point that forces resume to re-dispatch scenario runs.
fn cut_half(path: &std::path::Path) {
    let bytes = std::fs::read(path).expect("read journal");
    let line_starts: Vec<usize> = std::iter::once(0)
        .chain(
            bytes
                .iter()
                .enumerate()
                .filter(|(_, &b)| b == b'\n')
                .map(|(i, _)| i + 1),
        )
        .filter(|&i| i < bytes.len())
        .collect();
    let n = line_starts.len();
    assert!(n >= 3, "journal too small to cut");
    std::fs::write(path, &bytes[..line_starts[1 + (n - 1) / 2]]).expect("truncate");
}

#[test]
fn mixed_scenarios_are_byte_identical_across_strategies() {
    // Debug builds check one workload to keep `cargo test` fast; the
    // release oracle (scripts/check.sh) covers the full 2×3 matrix.
    let benches: &[Bench] = if cfg!(debug_assertions) {
        &[Bench::Fft]
    } else {
        &[Bench::Sha, Bench::Fft]
    };
    for &bench in benches {
        for dispatcher in backends() {
            let d = dispatcher.as_ref();
            let c = cell(d, bench);
            let tag = format!("{}_{bench:?}", d.name());

            let cold = CampaignRunner::new(d, &c.program, STRUCTURE, 2015, &cfg()).run(&c.masks);
            assert_eq!(cold.runs.len(), c.masks.len(), "{tag}");

            // Warm-start: restore a golden checkpoint before each scenario
            // trigger instead of cold-booting — must change nothing.
            let warm = CampaignRunner::new(d, &c.program, STRUCTURE, 2015, &cfg())
                .with_strategy(Strategy::Checkpointed { checkpoints: 2 })
                .run(&c.masks);
            assert_eq!(cold, warm, "{tag}: checkpointed diverged from cold");

            // Crash-resume mid-campaign: the journaled prefix plus the
            // re-dispatched remainder reconstructs the same log.
            let path = temp_journal(&tag);
            let runner = CampaignRunner::new(d, &c.program, STRUCTURE, 2015, &cfg());
            let journaled = runner
                .run_journaled(&c.masks, &path, &[])
                .expect("journaled campaign");
            assert_eq!(cold, journaled, "{tag}: journaled diverged from cold");
            cut_half(&path);
            let resumed = runner.resume(&c.masks, &path, &[]).expect("resume");
            assert_eq!(cold, resumed, "{tag}: resumed diverged from cold");
            std::fs::remove_file(&path).ok();
        }
    }
}

#[test]
fn collapse_stays_sound_with_scenarios_mixed_in() {
    let mafin = MaFin::new();
    let bench = if cfg!(debug_assertions) {
        Bench::Fft
    } else {
        Bench::Sha
    };
    let c = cell(&mafin, bench);
    let logs = mafin.golden_residency(&c.program, &[STRUCTURE], MAX_CYCLES);
    let profile = AceProfile::new(logs.into_iter().next().expect("residency"))
        .expect("int_prf is a data plane");

    let cold = CampaignRunner::new(&mafin, &c.program, STRUCTURE, 2015, &cfg()).run(&c.masks);
    let collapsed = CampaignRunner::new(&mafin, &c.program, STRUCTURE, 2015, &cfg())
        .with_strategy(Strategy::Collapsed {
            profile: &profile,
            checkpoints: 0,
        })
        .run(&c.masks);
    assert_eq!(cold.runs.len(), collapsed.runs.len());

    let classifier = Classifier::from_golden(&cold.golden);
    for (a, b) in cold.runs.iter().zip(&collapsed.runs) {
        assert_eq!(a.spec, b.spec);
        assert_eq!(
            classifier.classify(&a.result),
            classifier.classify(&b.result),
            "mask {}: collapsing changed the verdict for scenario {}",
            a.spec.id,
            a.spec.scenario.name()
        );
        if a.spec.scenario.name() != "bit_flips" {
            // Guard rail: the equivalence analysis models storage flips
            // only, so attack scenarios must never be claimed equivalent —
            // each dispatches individually and reproduces the cold result.
            let p = b
                .provenance
                .as_ref()
                .expect("collapsed runs carry provenance");
            assert_eq!(p.proof, ProofKind::Singleton, "mask {}", a.spec.id);
            assert_eq!(p.members, 1, "mask {}", a.spec.id);
            assert_eq!(
                a.result, b.result,
                "mask {}: singleton attack scenario must reproduce the cold run",
                a.spec.id
            );
        }
    }
}
