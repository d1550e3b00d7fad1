//! Forward compatibility with pre-scenario journals.
//!
//! `tests/fixtures/pre_scenario.journal` was produced by the campaign
//! binary *before* the scenario layer existed, when `InjectionSpec` was a
//! plain `{id, faults}` struct. The scenario refactor must keep that
//! on-disk format readable, resumable, and byte-stable: an interrupted
//! campaign journaled by the old binary completes under the new one with
//! the journal ending up byte-identical to an uninterrupted old-format run.

use difi::core::journal::{parse_run_line, run_line};
use difi::prelude::*;
use difi::util::json;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/pre_scenario.journal"
);

fn fixture_text() -> String {
    std::fs::read_to_string(FIXTURE).expect("fixture journal exists")
}

#[test]
fn pre_scenario_journal_loads_with_legacy_specs() {
    let contents = load_journal(std::path::Path::new(FIXTURE)).expect("fixture loads");
    let header = contents.header.expect("fixture has a header");
    assert_eq!(header.injector, "MaFIN-x86");
    assert_eq!(header.benchmark, "sha");
    assert_eq!(header.structure, "l1d_data");
    assert_eq!(header.seed, 2015);
    assert_eq!(header.masks, 6);
    assert!(contents.dropped_tail.is_none());
    assert_eq!(contents.runs.len(), 6);
    for (i, (idx, run)) in contents.runs.iter().enumerate() {
        assert_eq!(*idx, i);
        // Legacy specs parse into the bit-flips scenario, never an attack.
        assert_eq!(run.spec.scenario.name(), "bit_flips");
        assert_eq!(run.spec.faults().len(), 1, "fixture is single-transient");
        assert!(!run.spec.is_fault_free());
    }
    // A finished journal is a saved logs repository.
    let log = CampaignLog::load(std::path::Path::new(FIXTURE)).expect("fixture loads as a log");
    let runs: Vec<RunLog> = contents.runs.into_iter().map(|(_, run)| run).collect();
    assert_eq!(log.runs, runs);
}

#[test]
fn pre_scenario_journal_roundtrips_byte_identically() {
    let text = fixture_text();
    let mut lines = text.lines();
    let head = lines.next().expect("header line");
    let parsed = json::parse(head).expect("header parses");
    let header = CampaignHeader::from_json(&parsed).expect("header decodes");
    assert_eq!(
        header.to_json().to_string(),
        head,
        "header re-serializes byte-identically"
    );
    for line in lines {
        let parsed = json::parse(line).expect("run line parses");
        let (idx, log) = parse_run_line(&parsed).expect("run line decodes");
        assert_eq!(
            run_line(idx, &log).to_string(),
            line,
            "run {idx} re-serializes byte-identically"
        );
        // The scenario layer must not leak into the legacy layout.
        assert!(
            !run_line(idx, &log).to_string().contains("\"scenario\""),
            "bit-flip specs keep the pre-scenario JSON shape"
        );
    }
}

#[test]
fn pre_scenario_journal_resumes_under_the_scenario_layer() {
    let text = fixture_text();
    let all_lines: Vec<&str> = text.lines().collect();
    assert_eq!(all_lines.len(), 7, "header + 6 runs");

    // Re-create the interrupted state the old binary would have left
    // behind: header plus the first four completed runs.
    let dir = std::env::temp_dir().join("difi_journal_compat");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("resume.jsonl");
    let partial: String = all_lines[..5]
        .iter()
        .map(|l| format!("{l}\n"))
        .collect::<Vec<_>>()
        .join("");
    std::fs::write(&path, partial).expect("write partial journal");

    // The exact campaign cell the fixture was produced from.
    let mafin = MaFin::new();
    let program = build(Bench::Sha, mafin.isa()).expect("assembles");
    let golden = golden_run(&mafin, &program, 200_000_000);
    let desc = difi::core::dispatch::structure_desc(&mafin, StructureId::L1dData).unwrap();
    let masks = MaskGenerator::new(2015).transient(&desc, golden.cycles_measured(), 6);

    // The regenerated repository must match the fixture's journaled specs:
    // the generator's random stream is part of the compatibility surface.
    let contents = load_journal(std::path::Path::new(FIXTURE)).expect("fixture loads");
    for (idx, run) in &contents.runs {
        assert_eq!(
            run.spec, masks[*idx],
            "mask {idx}: generator stream drifted from the pre-scenario fixture"
        );
    }

    let cfg = CampaignConfig {
        threads: 1,
        early_stop: true,
        golden_max_cycles: 200_000_000,
    };
    let runner = CampaignRunner::new(&mafin, &program, StructureId::L1dData, 2015, &cfg);
    let log = runner.resume(&masks, &path, &[]).expect("resume succeeds");

    assert_eq!(log.runs.len(), 6);
    for (idx, run) in &contents.runs {
        assert_eq!(
            &log.runs[*idx], run,
            "run {idx}: resumed result diverged from the pre-scenario fixture"
        );
    }
    // The completed journal is byte-identical to the old binary's output.
    let completed = std::fs::read_to_string(&path).expect("read completed journal");
    assert_eq!(
        completed, text,
        "resumed journal is byte-identical to the uninterrupted pre-scenario one"
    );
    std::fs::remove_file(&path).ok();
}
