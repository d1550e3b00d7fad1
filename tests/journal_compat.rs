//! On-disk compatibility of the campaign journal, pinned by two fixtures.
//!
//! `tests/fixtures/pre_scenario.journal` was produced by the campaign
//! binary *before* the scenario layer existed, when `InjectionSpec` was a
//! plain `{id, faults}` struct. The scenario refactor must keep that
//! on-disk format readable, resumable, and byte-stable: an interrupted
//! campaign journaled by the old binary completes under the new one with
//! the journal ending up byte-identical to an uninterrupted old-format run.
//!
//! `tests/fixtures/writer.journal` was written through `JournalSink` by the
//! encoders that built a `Json` tree per line, before lines were streamed,
//! from the records [`writer_fixture`] builds. It covers every `RunStatus`
//! (messages with a quote, a backslash, control characters and non-ASCII
//! text), every `ScenarioKind`, transient, intermittent and permanent
//! faults timed by cycle and by instruction, a multi-fault spec, provenance
//! present and absent, and empty and non-empty output. The streaming
//! encoders must write it byte for byte.
//!
//! Both fixtures also feed a seeded mutation sweep: the reader returns a
//! journal, or an error that names a damaged line, and never panics.

use difi::core::journal::{parse_run_line, run_line};
use difi::prelude::*;
use difi::util::json::{self, WriteJson};
use difi::util::rng::Xoshiro256;
use std::path::Path;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/pre_scenario.journal"
);

const WRITER_FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/writer.journal");

fn fixture_text() -> String {
    std::fs::read_to_string(FIXTURE).expect("fixture journal exists")
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("difi_journal_compat");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// The header and run lines of `tests/fixtures/writer.journal`, in file
/// order (a parallel campaign appends runs as they finish, not by index).
fn writer_fixture() -> (CampaignHeader, Vec<(usize, RunLog)>) {
    use FaultDuration::{Intermittent, Permanent, Transient};
    use FaultKindSer::{Flip, Stuck0, Stuck1};
    use InjectTime::{Cycle, Instruction};
    let site = |structure, entry, bit, kind, at, duration| FaultRecord {
        core: 0,
        structure,
        entry,
        bit,
        kind,
        at,
        duration,
    };
    let golden_output = b"sum=0x1f\n\x00\xff".to_vec();
    let measured = |status, output: &[u8], fault_consumed| RawRunResult {
        status,
        output: output.to_vec(),
        exceptions: Some(2),
        cycles: Some(77_521),
        instructions: Some(40_113),
        fault_consumed,
    };
    let class = |class_id, representative, proof, members| {
        Some(ClassProvenance {
            class_id,
            representative,
            proof,
            members,
        })
    };
    let attack = |id, scenario| InjectionSpec { id, scenario };
    // Every message carries a quote, a backslash, control characters and
    // non-ASCII text, the bytes the string escaper decides on.
    let msg = |what: &str| format!("{what}: \"rob\" at C:\\sim\u{1}\n\t\u{7f} λ 𝕊 \u{2028}");
    let header = CampaignHeader {
        injector: "GeFIN-ARM".into(),
        benchmark: "fft".into(),
        structure: "l1d_data".into(),
        seed: u64::MAX,
        golden: RawRunResult {
            status: RunStatus::Completed { exit_code: 0 },
            output: golden_output.clone(),
            exceptions: Some(0),
            cycles: Some(77_521),
            instructions: Some(40_113),
            fault_consumed: false,
        },
        masks: 14,
    };
    let run = |spec, result, provenance| RunLog {
        spec,
        result,
        provenance,
    };
    let runs = vec![
        (
            3,
            run(
                InjectionSpec::single_transient(3, StructureId::L1dData, 430, 273, 142_227),
                measured(RunStatus::Completed { exit_code: 0 }, &golden_output, true),
                None,
            ),
        ),
        (
            0,
            run(
                InjectionSpec::bit_flips(
                    0,
                    vec![site(
                        StructureId::IntRegFile,
                        17,
                        63,
                        Stuck1,
                        Instruction(1_000),
                        Intermittent { cycles: 250 },
                    )],
                ),
                measured(RunStatus::Timeout, b"", true),
                None,
            ),
        ),
        (
            7,
            run(
                InjectionSpec::single_transient(7, StructureId::L1dData, 12, 0, 9),
                measured(
                    RunStatus::EarlyStopMasked(EarlyStop::OverwrittenBeforeRead),
                    b"",
                    false,
                ),
                class(5, 7, ProofKind::Singleton, 1),
            ),
        ),
        (
            1,
            run(
                InjectionSpec::bit_flips(
                    1,
                    vec![site(
                        StructureId::L2Data,
                        65_535,
                        511,
                        Stuck0,
                        Cycle(0),
                        Permanent,
                    )],
                ),
                measured(RunStatus::ProcessCrash(msg("segfault")), b"part", true),
                None,
            ),
        ),
        (
            12,
            run(
                InjectionSpec::fault_free(12),
                measured(RunStatus::Completed { exit_code: 0 }, &golden_output, false),
                None,
            ),
        ),
        (
            5,
            run(
                InjectionSpec::single_transient(5, StructureId::L1dData, 0, 511, 77_520),
                measured(RunStatus::SimulatorCrash(msg("worker panic")), b"", true),
                None,
            ),
        ),
        (
            9,
            run(
                attack(
                    9,
                    ScenarioKind::InstructionSkip {
                        at: Cycle(440),
                        count: 2,
                    },
                ),
                measured(RunStatus::Completed { exit_code: 1 }, b"sum=0x00\n", false),
                None,
            ),
        ),
        (
            2,
            run(
                InjectionSpec::bit_flips(
                    2,
                    vec![
                        site(StructureId::L1dData, 1, 0, Flip, Cycle(500), Transient),
                        site(
                            StructureId::LsqData,
                            3,
                            7,
                            Stuck1,
                            Instruction(20),
                            Permanent,
                        ),
                        site(
                            StructureId::IntRegFile,
                            0,
                            1,
                            Stuck0,
                            Cycle(501),
                            Intermittent { cycles: 1 },
                        ),
                    ],
                ),
                measured(RunStatus::SimulatorAssert(msg("assert")), b"", true),
                None,
            ),
        ),
        (
            11,
            run(
                attack(
                    11,
                    ScenarioKind::BranchInvert {
                        at: Cycle(12),
                        count: 1,
                    },
                ),
                measured(RunStatus::Completed { exit_code: 255 }, b"\x00", false),
                None,
            ),
        ),
        (
            4,
            run(
                InjectionSpec::single_transient(4, StructureId::L1dData, 96, 64, 30_000),
                measured(RunStatus::SystemCrash(msg("kernel panic")), b"sum=", true),
                class(3, 4, ProofKind::Singleton, 1),
            ),
        ),
        (
            13,
            run(
                attack(
                    13,
                    ScenarioKind::InstructionSkip {
                        at: Instruction(3),
                        count: 0,
                    },
                ),
                measured(RunStatus::Timeout, b"", false),
                None,
            ),
        ),
        (
            6,
            run(
                InjectionSpec::single_transient(6, StructureId::L1dData, 200, 5, 1_000),
                measured(RunStatus::EarlyStopMasked(EarlyStop::DeadEntry), b"", false),
                class(2, 6, ProofKind::LatchInterval, 3),
            ),
        ),
        (
            10,
            run(
                attack(
                    10,
                    ScenarioKind::OpcodeCorrupt {
                        at: Instruction(17),
                        xor: u64::MAX,
                    },
                ),
                measured(
                    RunStatus::ProcessCrash(msg("illegal instruction")),
                    b"",
                    false,
                ),
                None,
            ),
        ),
        (
            8,
            run(
                InjectionSpec::single_transient(8, StructureId::L1dData, 511, 1, 60_000),
                RawRunResult::unexecuted(RunStatus::EarlyStopMasked(EarlyStop::StaticallyPruned)),
                class(0, 8, ProofKind::DeadInterval, 5_000),
            ),
        ),
    ];
    (header, runs)
}

/// Decodes every line of a journal's text and encodes it again: each must
/// come back byte for byte.
fn assert_lines_reencode(text: &str) {
    let mut lines = text.lines();
    let head = lines.next().expect("header line");
    let parsed = json::parse(head).expect("header parses");
    let header = CampaignHeader::from_json(&parsed).expect("header decodes");
    assert_eq!(
        header.to_json_string(),
        head,
        "header re-serializes byte-identically"
    );
    for line in lines {
        let parsed = json::parse(line).expect("run line parses");
        let (idx, log) = parse_run_line(&parsed).expect("run line decodes");
        let mut again = String::new();
        run_line(&mut again, idx, &log);
        assert_eq!(again, line, "run {idx} re-serializes byte-identically");
    }
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
    assert_lines_reencode(&text);
    // The scenario layer must not leak into the legacy layout.
    assert!(
        !text.contains("\"scenario\""),
        "bit-flip specs keep the pre-scenario JSON shape"
    );
}

#[test]
fn pre_scenario_journal_resumes_under_the_scenario_layer() {
    let text = fixture_text();
    let all_lines: Vec<&str> = text.lines().collect();
    assert_eq!(all_lines.len(), 7, "header + 6 runs");

    // Re-create the interrupted state the old binary would have left
    // behind: header plus the first four completed runs.
    let path = temp_path("resume.jsonl");
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

#[test]
fn writer_fixture_is_written_byte_for_byte() {
    let (header, runs) = writer_fixture();
    let path = temp_path("writer.jsonl");
    let sink = JournalSink::create(&path).expect("create journal");
    sink.on_start(&header);
    for (i, run) in &runs {
        sink.on_run(*i, run);
    }
    sink.on_end();
    sink.finish().expect("journal written");
    let written = std::fs::read(&path).expect("read journal");
    let fixture = std::fs::read(WRITER_FIXTURE).expect("writer fixture exists");
    for (k, (got, want)) in written
        .split(|&b| b == b'\n')
        .zip(fixture.split(|&b| b == b'\n'))
        .enumerate()
    {
        assert_eq!(
            String::from_utf8_lossy(got),
            String::from_utf8_lossy(want),
            "line {}",
            k + 1
        );
    }
    assert_eq!(
        written, fixture,
        "the journal is the fixture, byte for byte"
    );

    // Reading the fixture gives the records back.
    let contents = load_journal(Path::new(WRITER_FIXTURE)).expect("writer fixture loads");
    assert_eq!(contents.header, Some(header));
    assert_eq!(contents.runs, runs);
    assert!(contents.dropped_tail.is_none());
    std::fs::remove_file(&path).ok();
}

#[test]
fn writer_fixture_roundtrips_byte_identically() {
    let text = std::fs::read_to_string(WRITER_FIXTURE).expect("writer fixture exists");
    assert_lines_reencode(&text);
}

/// A journal file rewritten in place for every mutated case: creating or
/// emptying a file costs more than the load it feeds.
struct MutatedJournal {
    path: std::path::PathBuf,
    file: std::fs::File,
}

impl MutatedJournal {
    fn new(name: &str) -> MutatedJournal {
        let path = temp_path(name);
        let file = std::fs::File::create(&path).expect("create mutated journal");
        MutatedJournal { path, file }
    }

    /// Writes `bytes` as the journal and loads it. The load must succeed or
    /// fail naming one of the `damaged` lines (0-based); decoding a damaged
    /// line on its own must not panic either.
    fn load(&mut self, bytes: &[u8], damaged: &[usize]) -> Option<JournalContents> {
        use std::io::{Seek, Write};
        self.file.rewind().expect("rewind mutated journal");
        self.file.write_all(bytes).expect("write mutated journal");
        self.file
            .set_len(bytes.len() as u64)
            .expect("truncate mutated journal");
        let lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
        for &k in damaged {
            let Some(Ok(Ok(j))) = lines
                .get(k)
                .map(|l| std::str::from_utf8(l).map(json::parse))
            else {
                continue;
            };
            let _ = CampaignHeader::from_json(&j);
            let _ = parse_run_line(&j);
        }
        match load_journal(&self.path) {
            Ok(contents) => Some(contents),
            Err(e) => {
                let msg = e.to_string();
                assert!(
                    damaged
                        .iter()
                        .any(|k| msg.contains(&format!("line {}:", k + 1))),
                    "damage at lines {damaged:?} (0-based) of {:?} reported as: {msg}",
                    String::from_utf8_lossy(bytes)
                );
                None
            }
        }
    }
}

/// `lines` as journal text, each line newline-terminated except, with
/// `torn`, the last.
fn journal(lines: &[&[u8]], torn: bool) -> Vec<u8> {
    let mut bytes = lines.join(&b'\n');
    if !torn {
        bytes.push(b'\n');
    }
    bytes
}

#[test]
fn mutated_fixtures_load_or_name_the_damaged_line() {
    let mut journal_file = MutatedJournal::new("mutated.jsonl");
    let mut rng = Xoshiro256::seed_from(0x0bad_11e5);
    let mut cases = 0;
    for fixture in [FIXTURE, WRITER_FIXTURE] {
        let bytes = std::fs::read(fixture).expect("fixture exists");
        let lines: Vec<&[u8]> = bytes
            .strip_suffix(b"\n")
            .expect("fixture ends with a newline")
            .split(|&b| b == b'\n')
            .collect();
        let (header, first, last) = (lines[0], lines[1], lines.len() - 1);

        // Truncation at every byte of the header, the first run line and
        // the last line. Followed by an intact line, the cut line is
        // damage; as the file's unterminated end, it is a torn tail, dropped
        // and reported. A line cut to nothing is a blank line, skipped, so
        // the next line is the one that no longer decodes.
        for k in [0, 1, last] {
            for cut in 0..lines[k].len() {
                let cut_line = &lines[k][..cut];
                let (window, at) = if k == 0 {
                    (journal(&[cut_line, first], false), 0)
                } else {
                    (journal(&[header, cut_line, first], false), 1)
                };
                let damaged = if cut == 0 { vec![at, at + 1] } else { vec![at] };
                journal_file.load(&window, &damaged);
                if k > 0 {
                    let torn = journal_file
                        .load(&journal(&[header, cut_line], true), &[1])
                        .expect("a torn last line is dropped, not an error");
                    assert!(torn.runs.is_empty());
                    assert_eq!(torn.dropped_tail.is_some(), cut > 0);
                }
                cases += 1;
            }
        }

        // Single-byte flips and deletions in the header or a run line, or
        // the newline after either, with an intact line after them: the
        // damage lies in the byte's line, or in the next one when a flip
        // splits the line in two or a deletion joins two lines.
        for round in 0..400 {
            let k = rng.gen_range(1, lines.len() as u64) as usize;
            let mut window = journal(&[header, lines[k], first], false);
            let at = rng.gen_range(0, (header.len() + lines[k].len() + 2) as u64) as usize;
            let line = usize::from(at > header.len());
            if round % 3 == 0 {
                window.remove(at);
            } else {
                window[at] ^= rng.gen_range(1, 256) as u8;
            }
            journal_file.load(&window, &[line, line + 1]);
            cases += 1;
        }

        // Swapped lines of the whole fixture.
        for _ in 0..40 {
            let i = rng.gen_range(0, lines.len() as u64) as usize;
            let j = rng.gen_range(0, lines.len() as u64) as usize;
            let mut swapped = lines.clone();
            swapped.swap(i, j);
            if let Some(contents) = journal_file.load(&journal(&swapped, false), &[i, j]) {
                assert!(i == j || i != 0 && j != 0, "a run line is no header");
                assert_eq!(contents.runs.len(), last);
            }
            cases += 1;
        }
    }
    assert!(cases > 2_000, "{cases} cases");
    std::fs::remove_file(&journal_file.path).ok();
}
