//! Differential oracle for crash-resume: on real workloads and all three
//! experimental setups, a journaled campaign interrupted at an arbitrary
//! point — including mid-append, leaving a torn journal line — and resumed
//! with `CampaignRunner::resume` must produce a `CampaignLog`
//! **byte-identical** to the uninterrupted campaign. Each run is
//! deterministic and independent, and the journal records completed runs
//! exactly; so replaying the missing subset reconstructs the same log.

use difi::prelude::*;
use std::io::Read;
use std::path::{Path, PathBuf};

/// Campaign size: full-scale in release (scripts/check.sh runs this test in
/// release explicitly); trimmed in debug where the simulator is ~10× slower,
/// while keeping the required ≥2-workloads × 3-setups matrix intact.
const N_MASKS: u64 = if cfg!(debug_assertions) { 3 } else { 8 };

fn backends() -> Vec<Box<dyn InjectorDispatcher + Send>> {
    vec![
        Box::new(MaFin::new()),
        Box::new(GeFin::x86()),
        Box::new(GeFin::arm()),
    ]
}

fn temp_journal(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("difi_resume_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{tag}.journal"))
}

fn saved_bytes(log: &CampaignLog, tag: &str) -> Vec<u8> {
    let dir = std::env::temp_dir().join("difi_resume_test");
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

/// The crash points exercised per cell, expressed over the journal's lines
/// (line 0 is the header): everything kept, only the header, half the runs,
/// all but the last run, and a tear mid-way through the last line.
#[derive(Debug, Clone, Copy)]
enum Cut {
    HeaderOnly,
    HalfRuns,
    AllButLast,
    MidLastLine,
    EmptyFile,
}

impl Cut {
    const ALL: [Cut; 5] = [
        Cut::HeaderOnly,
        Cut::HalfRuns,
        Cut::AllButLast,
        Cut::MidLastLine,
        Cut::EmptyFile,
    ];

    /// Applies the cut to a complete journal file in place.
    fn apply(self, path: &Path) {
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
        let n_lines = line_starts.len();
        assert!(n_lines >= 3, "journal too small to cut meaningfully");
        let keep = match self {
            Cut::EmptyFile => 0,
            Cut::HeaderOnly => line_starts[1],
            Cut::HalfRuns => line_starts[1 + (n_lines - 1) / 2],
            Cut::AllButLast => line_starts[n_lines - 1],
            Cut::MidLastLine => {
                // Tear inside the final line — the crash-mid-append case the
                // tolerant loader must drop (and resume must re-dispatch).
                let last = line_starts[n_lines - 1];
                last + (bytes.len() - last) / 2
            }
        };
        std::fs::write(path, &bytes[..keep]).expect("truncate journal");
    }
}

struct Cell {
    program: Program,
    masks: Vec<InjectionSpec>,
    cfg: CampaignConfig,
}

fn cell(dispatcher: &dyn InjectorDispatcher, bench: Bench) -> Cell {
    let program = build(bench, dispatcher.isa()).expect("assembles");
    let golden = golden_run(dispatcher, &program, 200_000_000);
    let desc =
        difi::core::dispatch::structure_desc(dispatcher, StructureId::L2Data).expect("injectable");
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

#[test]
fn resumed_campaign_is_byte_identical_after_any_crash_point() {
    // ≥2 workloads × the paper's three setups × five crash points.
    for bench in [Bench::Sha, Bench::Fft] {
        for dispatcher in backends() {
            let d = dispatcher.as_ref();
            let c = cell(d, bench);
            let runner = CampaignRunner::new(d, &c.program, StructureId::L2Data, 1979, &c.cfg);
            let tag = format!("{}_{bench:?}", d.name());
            let path = temp_journal(&tag);

            let full = runner
                .run_journaled(&c.masks, &path, &[])
                .expect("uninterrupted journaled campaign");
            let full_bytes = saved_bytes(&full, &format!("{tag}_full"));
            let complete_journal = std::fs::read(&path).expect("read journal");

            for cut in Cut::ALL {
                std::fs::write(&path, &complete_journal).expect("restore journal");
                cut.apply(&path);
                let resumed = runner
                    .resume(&c.masks, &path, &[])
                    .unwrap_or_else(|e| panic!("{tag}/{cut:?}: resume failed: {e}"));
                assert_eq!(
                    full, resumed,
                    "{tag}/{cut:?}: resumed log diverged from the uninterrupted one"
                );
                assert_eq!(
                    full_bytes,
                    saved_bytes(&resumed, &format!("{tag}_{cut:?}")),
                    "{tag}/{cut:?}: serialized logs differ"
                );
                // After resume the journal itself is complete: a second
                // resume reloads it without dispatching anything new and
                // still agrees byte-for-byte.
                let again = runner
                    .resume(&c.masks, &path, &[])
                    .unwrap_or_else(|e| panic!("{tag}/{cut:?}: re-resume failed: {e}"));
                assert_eq!(full, again, "{tag}/{cut:?}: second resume diverged");
            }
            std::fs::remove_file(&path).ok();
        }
    }
}

#[test]
fn resume_composes_with_the_warm_start_strategy() {
    // A checkpointed (warm-start) journaled campaign interrupted and
    // resumed must still match its own uninterrupted run — strategies and
    // journaling are orthogonal axes of the runner.
    let mafin = MaFin::new();
    let c = cell(&mafin, Bench::Sha);
    let runner = CampaignRunner::new(&mafin, &c.program, StructureId::L2Data, 1979, &c.cfg)
        .with_strategy(Strategy::Checkpointed { checkpoints: 2 });
    let path = temp_journal("warm_resume");

    let full = runner
        .run_journaled(&c.masks, &path, &[])
        .expect("journaled warm campaign");
    Cut::HalfRuns.apply(&path);
    let resumed = runner.resume(&c.masks, &path, &[]).expect("resume");
    assert_eq!(full, resumed, "warm-start resume diverged");

    // And the whole family agrees with the cold-start oracle.
    let cold =
        CampaignRunner::new(&mafin, &c.program, StructureId::L2Data, 1979, &c.cfg).run(&c.masks);
    assert_eq!(cold, resumed, "resumed warm log diverged from cold oracle");
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_refuses_a_foreign_journal() {
    // Resuming a MaFIN journal under a GeFIN campaign (or with reshaped
    // masks) must fail loudly instead of silently mixing incompatible runs.
    let mafin = MaFin::new();
    let c = cell(&mafin, Bench::Sha);
    let runner = CampaignRunner::new(&mafin, &c.program, StructureId::L2Data, 1979, &c.cfg);
    let path = temp_journal("foreign");
    runner
        .run_journaled(&c.masks, &path, &[])
        .expect("journaled campaign");

    let gefin = GeFin::x86();
    let g = cell(&gefin, Bench::Sha);
    let wrong = CampaignRunner::new(&gefin, &g.program, StructureId::L2Data, 1979, &g.cfg);
    assert!(
        wrong.resume(&g.masks, &path, &[]).is_err(),
        "a GeFIN campaign accepted a MaFIN journal"
    );

    let reseeded = CampaignRunner::new(&mafin, &c.program, StructureId::L2Data, 1980, &c.cfg);
    assert!(
        reseeded.resume(&c.masks, &path, &[]).is_err(),
        "a reseeded campaign accepted the journal"
    );
    std::fs::remove_file(&path).ok();
}
