//! The logs repository: persistent storage of raw campaign results.
//!
//! "The last task of the Injection Campaign Controller is to store the
//! results of the injection in a *logs repository* which contains all log
//! files for further processing by the Parser." (§III.B) Keeping raw
//! results (not classifications) is what makes the parser reconfigurable
//! without re-running campaigns.
//!
//! A saved [`CampaignLog`] is a finished campaign journal
//! ([`crate::journal`]): the header line, then one run line per mask in mask
//! order. So a saved log resumes without dispatching anything, and any
//! finished journal loads as the log its runner returned.

use crate::journal::{load_journal, CampaignHeader};
use crate::model::{ClassProvenance, InjectionSpec, RawRunResult};
use crate::sink::{JournalSink, RunSink};
use difi_util::{Error, Result};
use std::path::Path;

/// One injection run: the mask that was applied and what happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunLog {
    /// The fault mask.
    pub spec: InjectionSpec,
    /// The raw result.
    pub result: RawRunResult,
    /// Equivalence-class provenance, present on every run of a collapsed
    /// campaign (`None` under all other strategies). Serialized as an
    /// optional `"collapse"` key, so pre-collapse logs parse unchanged and
    /// non-collapsed logs stay byte-identical to earlier releases.
    pub provenance: Option<ClassProvenance>,
}

/// A complete campaign log for one (injector, benchmark, structure) cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignLog {
    /// Injector name (`"MaFIN-x86"` …).
    pub injector: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Target structure name.
    pub structure: String,
    /// Campaign seed (for reproduction).
    pub seed: u64,
    /// The golden (fault-free) run.
    pub golden: RawRunResult,
    /// All injection runs.
    pub runs: Vec<RunLog>,
}

impl CampaignLog {
    /// Saves the log as a finished journal: the bytes a one-thread cold
    /// [`CampaignRunner::run_journaled`](crate::campaign::CampaignRunner::run_journaled)
    /// producing this log would write (other strategies journal the same
    /// lines in dispatch order).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on write failure.
    pub fn save(&self, path: &Path) -> Result<()> {
        let journal = JournalSink::create(path)?;
        journal.on_start(&CampaignHeader {
            injector: self.injector.clone(),
            benchmark: self.benchmark.clone(),
            structure: self.structure.clone(),
            seed: self.seed,
            golden: self.golden.clone(),
            masks: self.runs.len() as u64,
        });
        for (i, run) in self.runs.iter().enumerate() {
            journal.on_run(i, run);
        }
        journal.finish()
    }

    /// Loads a finished journal — a saved log, or the journal of any
    /// campaign that ran to the end — with its runs in mask order.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on read failure and [`Error::Parse`] unless the
    /// file has a header, no torn tail, and exactly one run line for each
    /// index below the header's mask count.
    pub fn load(path: &Path) -> Result<CampaignLog> {
        let contents = load_journal(path)?;
        let bad = |what: String| Error::Parse(format!("{}: {what}", path.display()));
        if let Some(reason) = contents.dropped_tail {
            return Err(bad(format!("torn tail ({reason})")));
        }
        let header = contents
            .header
            .ok_or_else(|| bad("no journal header".into()))?;
        let masks = header.masks;
        let mut runs = contents.runs;
        runs.sort_by_key(|(i, _)| *i);
        for (k, &(i, _)) in runs.iter().enumerate() {
            if i as u64 >= masks {
                return Err(bad(format!(
                    "run index {i} is out of range for {masks} masks"
                )));
            }
            if i < k {
                return Err(bad(format!("run index {i} appears more than once")));
            }
            if i > k {
                return Err(bad(format!("run index {k} is missing")));
            }
        }
        if (runs.len() as u64) < masks {
            return Err(bad(format!("run index {} is missing", runs.len())));
        }
        Ok(CampaignLog {
            injector: header.injector,
            benchmark: header.benchmark,
            structure: header.structure,
            seed: header.seed,
            golden: header.golden,
            runs: runs.into_iter().map(|(_, run)| run).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::RunStatus;
    use difi_uarch::fault::StructureId;

    fn sample_log() -> CampaignLog {
        let golden = RawRunResult {
            status: RunStatus::Completed { exit_code: 0 },
            output: b"ok\n".to_vec(),
            exceptions: Some(0),
            cycles: Some(5000),
            instructions: Some(2000),
            fault_consumed: false,
        };
        let runs = (0..5u64)
            .map(|i| RunLog {
                spec: InjectionSpec::single_transient(i, StructureId::L1dData, i, 3, 100 + i),
                result: RawRunResult {
                    status: if i % 2 == 0 {
                        RunStatus::Completed { exit_code: 0 }
                    } else {
                        RunStatus::SimulatorAssert(format!("assert {i}"))
                    },
                    output: b"ok\n".to_vec(),
                    exceptions: Some(0),
                    cycles: Some(5000 + i),
                    instructions: Some(2000),
                    fault_consumed: i % 2 == 1,
                },
                provenance: None,
            })
            .collect();
        CampaignLog {
            injector: "MaFIN-x86".into(),
            benchmark: "sha".into(),
            structure: "l1d_data".into(),
            seed: 77,
            golden,
            runs,
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join("difi_logs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.jsonl");
        let log = sample_log();
        log.save(&path).unwrap();
        let back = CampaignLog::load(&path).unwrap();
        assert_eq!(back, log);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn seeded_sweep_arbitrary_outputs_roundtrip_byte_exact() {
        // SDC classification is a byte-exact compare against
        // `RawRunResult.output`, so the logs repository must round-trip
        // *arbitrary* byte strings (not just tidy ASCII) and arbitrary
        // status messages without loss — and, since collapsed campaigns
        // attach equivalence-class provenance, arbitrary provenance records
        // too (absent on some rounds, like a mixed-strategy repository).
        use crate::model::{ClassProvenance, EarlyStop, ProofKind};
        use difi_util::rng::Xoshiro256;

        let mut rng = Xoshiro256::seed_from(0xB17E);
        let msg_pool: Vec<char> = ('\u{0}'..='\u{ff}')
            .chain(['"', '\\', '\u{2028}', '\u{1f4a9}'])
            .collect();
        let dir = std::env::temp_dir().join("difi_logs_sweep_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.jsonl");

        for round in 0..30u64 {
            let mut output: Vec<u8> = (0..rng.gen_range(0, 64))
                .map(|_| rng.gen_range(0, 256) as u8)
                .collect();
            if round == 0 {
                // One run covering every byte value exactly once.
                output = (0u16..256).map(|b| b as u8).collect();
            }
            let msg: String = (0..rng.gen_range(0, 24))
                .map(|_| msg_pool[rng.gen_range(0, msg_pool.len() as u64) as usize])
                .collect();
            let status = match round % 5 {
                0 => RunStatus::Completed {
                    exit_code: rng.gen_range(0, 256),
                },
                1 => RunStatus::SimulatorAssert(msg),
                2 => RunStatus::ProcessCrash(msg),
                3 => RunStatus::SimulatorCrash(msg),
                _ => RunStatus::EarlyStopMasked(EarlyStop::DeadEntry),
            };
            let mut log = sample_log();
            log.runs[0].result = RawRunResult {
                status,
                output: output.clone(),
                exceptions: Some(rng.gen_range(0, 10)),
                cycles: Some(rng.gen_range(1, 1_000_000)),
                instructions: Some(rng.gen_range(1, 500_000)),
                fault_consumed: true,
            };
            log.golden.output = output.clone();
            log.runs[1].provenance = match round % 4 {
                0 => None,
                r => Some(ClassProvenance {
                    class_id: rng.gen_range(0, 1 << 32),
                    representative: rng.gen_range(0, 1 << 32),
                    proof: match r {
                        1 => ProofKind::DeadInterval,
                        2 => ProofKind::LatchInterval,
                        _ => ProofKind::Singleton,
                    },
                    members: rng.gen_range(1, 10_000),
                }),
            };

            log.save(&path).unwrap();
            let back = CampaignLog::load(&path).unwrap();
            assert_eq!(back, log, "round {round}: lossy round-trip");
            assert_eq!(
                back.runs[0].result.output, output,
                "round {round}: output bytes changed — would flip Masked↔SDC"
            );
            assert_eq!(
                back.runs[1].provenance, log.runs[1].provenance,
                "round {round}: provenance changed — collapse audit would lie"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_empty_file() {
        let dir = std::env::temp_dir().join("difi_logs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.jsonl");
        std::fs::write(&path, "").unwrap();
        assert!(CampaignLog::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = std::env::temp_dir().join("difi_logs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.jsonl");
        std::fs::write(&path, "not json\n").unwrap();
        assert!(CampaignLog::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_a_journal_without_exactly_one_run_per_mask() {
        let dir = std::env::temp_dir().join("difi_logs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("holes.jsonl");
        sample_log().save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let beyond = lines[5].replace("\"index\":4", "\"index\":5");
        // The layout `save` wrote before it wrote journals.
        let unsized_header = lines[0].replace("\"masks\":5,", "");
        let cases = [
            (lines[..4].to_vec(), "run index 3 is missing"),
            (
                vec![lines[0], lines[1], lines[2], lines[2], lines[4], lines[5]],
                "run index 1 appears more than once",
            ),
            (
                vec![lines[0], lines[1], lines[2], lines[3], lines[4], &beyond],
                "run index 5 is out of range for 5 masks",
            ),
            (vec![&unsized_header], "missing field 'masks'"),
        ];
        for (kept, want) in cases {
            std::fs::write(&path, kept.join("\n")).unwrap();
            let err = CampaignLog::load(&path).unwrap_err().to_string();
            assert!(err.contains(want), "{err}");
            assert!(err.contains(path.to_str().unwrap()), "{err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_missing_seed() {
        let dir = std::env::temp_dir().join("difi_logs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("noseed.jsonl");
        // A header without a seed must be rejected, not silently defaulted.
        let mut log = sample_log();
        log.runs.clear();
        log.save(&path).unwrap();
        let text = std::fs::read_to_string(&path)
            .unwrap()
            .replace("\"seed\":77,", "");
        std::fs::write(&path, text).unwrap();
        let err = CampaignLog::load(&path).unwrap_err();
        assert!(err.to_string().contains("seed"));
        std::fs::remove_file(&path).ok();
    }
}
