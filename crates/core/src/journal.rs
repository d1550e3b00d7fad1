//! The campaign journal: the one on-disk layout of a campaign, in flight or
//! finished (a finished journal is the logs repository, [`crate::logs`]).
//!
//! A journal is one header line (campaign identity, the golden run, the
//! mask count) followed by one line per *completed* run, appended and
//! flushed as workers finish — a crash at run 1999 of 2000 loses at most
//! the line being written. [`load_journal`] reloads the valid prefix
//! (tolerating a torn tail via [`difi_util::jsonl`]);
//! [`CampaignRunner::resume`](crate::campaign::CampaignRunner::resume)
//! skips the reloaded runs and dispatches only the remainder.
//!
//! Lines are written by streaming encoders: [`CampaignHeader`] is a
//! [`WriteJson`] value and [`run_line`] appends a run line, both straight
//! into the sink's reused line buffer. Lines are read back through a
//! parsed [`Json`] tree ([`CampaignHeader::from_json`], [`parse_run_line`]).

use crate::logs::RunLog;
use crate::model::{ClassProvenance, InjectionSpec, RawRunResult};
use difi_util::json::{Json, Obj, WriteJson};
use difi_util::{jsonl, Error, Result};
use std::path::Path;

/// Campaign identity and context, written once at the head of a journal
/// and announced to every [`RunSink`](crate::sink::RunSink) at start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignHeader {
    /// Injector name (`"MaFIN-x86"` …).
    pub injector: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Target structure name.
    pub structure: String,
    /// Campaign seed.
    pub seed: u64,
    /// The golden (fault-free) run.
    pub golden: RawRunResult,
    /// Total masks in the campaign (resume completeness check).
    pub masks: u64,
}

impl WriteJson for CampaignHeader {
    /// JSON form of the journal header line.
    fn write_json(&self, out: &mut String) {
        Obj::open(out)
            .field("injector", self.injector.as_str())
            .field("benchmark", self.benchmark.as_str())
            .field("structure", self.structure.as_str())
            .field("seed", &self.seed)
            .field("masks", &self.masks)
            .field("golden", &self.golden)
            .end();
    }
}

impl CampaignHeader {
    /// Parses the journal header line.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] when a field is missing or malformed.
    pub fn from_json(j: &Json) -> Result<CampaignHeader> {
        let get_str = |k: &str| -> Result<String> {
            j.req(k)?
                .as_str()
                .map(String::from)
                .ok_or_else(|| Error::Parse(format!("header field '{k}' is not a string")))
        };
        let get_u64 = |k: &str| -> Result<u64> {
            j.req(k)?
                .as_u64()
                .ok_or_else(|| Error::Parse(format!("header field '{k}' is not an integer")))
        };
        Ok(CampaignHeader {
            injector: get_str("injector")?,
            benchmark: get_str("benchmark")?,
            structure: get_str("structure")?,
            seed: get_u64("seed")?,
            golden: RawRunResult::from_json(j.req("golden")?)
                .map_err(|e| Error::Parse(format!("bad golden: {e}")))?,
            masks: get_u64("masks")?,
        })
    }
}

/// Appends the journal line for one completed run to `out`, without its
/// newline: its index in the masks repository plus the [`RunLog`] fields.
/// Collapsed-campaign runs carry their equivalence-class provenance as a
/// `"collapse"` object, so a journal is auditable (and resumable) without
/// recomputing the partition.
pub fn run_line(out: &mut String, index: usize, log: &RunLog) {
    let mut line = Obj::open(out)
        .field("index", &index)
        .field("spec", &log.spec)
        .field("result", &log.result);
    if let Some(p) = &log.provenance {
        line = line.field("collapse", p);
    }
    line.end();
}

/// Parses one journal run line back into `(index, RunLog)`.
///
/// # Errors
///
/// Returns [`Error::Parse`] when a field is missing or malformed.
pub fn parse_run_line(j: &Json) -> Result<(usize, RunLog)> {
    let index = j
        .req("index")?
        .as_u64()
        .ok_or_else(|| Error::Parse("journal field 'index' is not an integer".into()))?;
    let index = usize::try_from(index)
        .map_err(|_| Error::Parse("journal field 'index' out of range".into()))?;
    let log = RunLog {
        spec: InjectionSpec::from_json(j.req("spec")?)?,
        result: RawRunResult::from_json(j.req("result")?)?,
        provenance: j
            .get("collapse")
            .map(ClassProvenance::from_json)
            .transpose()?,
    };
    Ok((index, log))
}

/// A reloaded journal: the valid prefix of a (possibly torn) journal file.
#[derive(Debug)]
pub struct JournalContents {
    /// The header, or `None` when the file is empty or its only content is
    /// a torn header line (resume then starts from scratch).
    pub header: Option<CampaignHeader>,
    /// Every completed run in the valid prefix, in append order.
    pub runs: Vec<(usize, RunLog)>,
    /// Byte length of the valid prefix; truncating the file to this length
    /// removes the torn tail so appends resume on a clean line boundary.
    pub valid_len: u64,
    /// Why the tail line was dropped, if one was (resume re-dispatches its
    /// run; [`CampaignLog::load`](crate::logs::CampaignLog::load) fails).
    pub dropped_tail: Option<String>,
}

/// Loads a campaign journal, the one reader of the on-disk layout. A torn
/// tail line (unterminated and unparsable) is dropped and reported in
/// [`JournalContents::dropped_tail`]; any other damage is a hard error that
/// names its line: silent data loss must never be papered over. The runs
/// come back in append order, which is completion order, and are not
/// checked against the header's mask count.
///
/// # Errors
///
/// Returns [`Error::Io`] on read failure and [`Error::Parse`], naming the
/// line, for a line that does not parse or does not decode.
pub fn load_journal(path: &Path) -> Result<JournalContents> {
    let loaded = jsonl::load_tolerant(path)?;
    let dropped_tail = loaded
        .dropped
        .map(|d| format!("journal line {}: {}", d.line_no, d.reason));
    let bad = |what: &str, line_no: usize, e: Error| {
        Error::Parse(format!(
            "bad journal {what} in {}, line {line_no}: {e}",
            path.display()
        ))
    };
    let mut lines = loaded.lines.into_iter();
    let header = match lines.next() {
        None => None,
        Some((n, h)) => Some(CampaignHeader::from_json(&h).map_err(|e| bad("header", n, e))?),
    };
    let runs = lines
        .map(|(n, l)| parse_run_line(&l).map_err(|e| bad("run", n, e)))
        .collect::<Result<Vec<_>>>()?;
    Ok(JournalContents {
        header,
        runs,
        valid_len: loaded.valid_len,
        dropped_tail,
    })
}

/// Truncates a journal to its valid prefix, removing a torn tail so that
/// subsequent appends start on a clean line boundary.
///
/// # Errors
///
/// Returns [`Error::Io`] when the file cannot be opened or truncated.
pub fn truncate_to_valid(path: &Path, valid_len: u64) -> Result<()> {
    let f = std::fs::OpenOptions::new().write(true).open(path)?;
    f.set_len(valid_len).map_err(Error::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ClassProvenance, EarlyStop, InjectionSpec, ProofKind, RunStatus};
    use crate::sink::{JournalSink, RunSink};
    use difi_uarch::fault::StructureId;
    use difi_util::rng::Xoshiro256;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("difi_journal_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn header(n: u64) -> CampaignHeader {
        CampaignHeader {
            injector: "MaFIN-x86".into(),
            benchmark: "sha".into(),
            structure: "l2_data".into(),
            seed: 1979,
            golden: RawRunResult {
                status: RunStatus::Completed { exit_code: 0 },
                output: b"ok\n".to_vec(),
                exceptions: Some(0),
                cycles: Some(9000),
                instructions: Some(4000),
                fault_consumed: false,
            },
            masks: n,
        }
    }

    /// Seeded generator of hostile run logs: arbitrary output bytes and
    /// status strings, the payloads whose fidelity classification depends
    /// on.
    fn arbitrary_run(rng: &mut Xoshiro256, i: u64) -> RunLog {
        let msg_pool: Vec<char> = ('\u{0}'..='\u{ff}')
            .chain(['"', '\\', '\u{2028}', '\u{1f4a9}'])
            .collect();
        let output: Vec<u8> = (0..rng.gen_range(0, 48))
            .map(|_| rng.gen_range(0, 256) as u8)
            .collect();
        let msg: String = (0..rng.gen_range(0, 20))
            .map(|_| msg_pool[rng.gen_range(0, msg_pool.len() as u64) as usize])
            .collect();
        let status = match rng.gen_range(0, 6) {
            0 => RunStatus::Completed {
                exit_code: rng.gen_range(0, 256),
            },
            1 => RunStatus::SimulatorAssert(msg),
            2 => RunStatus::ProcessCrash(msg),
            3 => RunStatus::SimulatorCrash(msg),
            4 => RunStatus::Timeout,
            _ => RunStatus::EarlyStopMasked(EarlyStop::DeadEntry),
        };
        // Mix in equivalence-class provenance the way a collapsed campaign
        // would (and leave it off sometimes, like any other strategy).
        let provenance = match rng.gen_range(0, 4) {
            0 => None,
            r => Some(ClassProvenance {
                class_id: rng.gen_range(0, 1 << 20),
                representative: rng.gen_range(0, 1 << 20),
                proof: match r {
                    1 => ProofKind::DeadInterval,
                    2 => ProofKind::LatchInterval,
                    _ => ProofKind::Singleton,
                },
                members: rng.gen_range(1, 5_000),
            }),
        };
        RunLog {
            spec: InjectionSpec::single_transient(i, StructureId::L2Data, i, 3, 100 + i),
            result: RawRunResult {
                status,
                output,
                exceptions: Some(rng.gen_range(0, 8)),
                cycles: Some(rng.gen_range(1, 1_000_000)),
                instructions: Some(rng.gen_range(1, 500_000)),
                fault_consumed: true,
            },
            provenance,
        }
    }

    #[test]
    fn seeded_sweep_journal_roundtrips_arbitrary_runs() {
        let mut rng = Xoshiro256::seed_from(0x10a9);
        let path = temp_path("sweep.jsonl");
        for round in 0..25u64 {
            let n = rng.gen_range(1, 10);
            let hdr = header(n);
            let runs: Vec<RunLog> = (0..n).map(|i| arbitrary_run(&mut rng, i)).collect();

            let sink = JournalSink::create(&path).unwrap();
            sink.on_start(&hdr);
            // Completion order is arbitrary in a parallel campaign; journal
            // in reverse to prove order independence.
            for (i, run) in runs.iter().enumerate().rev() {
                sink.on_run(i, run);
            }
            sink.on_end();
            sink.finish().unwrap();

            let back = load_journal(&path).unwrap();
            assert_eq!(back.header.as_ref(), Some(&hdr), "round {round}");
            assert!(back.dropped_tail.is_none());
            assert_eq!(back.runs.len(), runs.len());
            for (k, (idx, log)) in back.runs.iter().enumerate() {
                assert_eq!(*idx, n as usize - 1 - k, "append order preserved");
                assert_eq!(log, &runs[*idx], "round {round}: lossy round-trip");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_dropped_and_truncatable() {
        let path = temp_path("torn.jsonl");
        let mut rng = Xoshiro256::seed_from(7);
        let hdr = header(4);
        let sink = JournalSink::create(&path).unwrap();
        sink.on_start(&hdr);
        for i in 0..4u64 {
            sink.on_run(i as usize, &arbitrary_run(&mut rng, i));
        }
        sink.finish().unwrap();

        // Tear the last line mid-way — the crash-mid-append signature.
        let full = std::fs::read(&path).unwrap();
        let last_start = full[..full.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .unwrap()
            + 1;
        let cut = last_start + (full.len() - last_start) / 2;
        std::fs::write(&path, &full[..cut]).unwrap();

        let back = load_journal(&path).unwrap();
        assert_eq!(back.header, Some(hdr));
        assert_eq!(back.runs.len(), 3, "torn run dropped");
        assert!(back.dropped_tail.is_some(), "drop is reported");
        assert_eq!(back.valid_len as usize, last_start);

        // Truncating to the valid prefix makes the journal clean again.
        truncate_to_valid(&path, back.valid_len).unwrap();
        let clean = load_journal(&path).unwrap();
        assert!(clean.dropped_tail.is_none());
        assert_eq!(clean.runs.len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_file_corruption_aborts_the_load() {
        let path = temp_path("corrupt.jsonl");
        let mut rng = Xoshiro256::seed_from(9);
        let sink = JournalSink::create(&path).unwrap();
        sink.on_start(&header(3));
        for i in 0..3u64 {
            sink.on_run(i as usize, &arbitrary_run(&mut rng, i));
        }
        sink.finish().unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        let corrupted = text.replacen("\"index\":0", "\"index\":!", 1);
        assert_ne!(text, corrupted, "corruption applied");
        std::fs::write(&path, corrupted).unwrap();
        assert!(load_journal(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_and_header_only_journals_load() {
        let path = temp_path("empty.jsonl");
        std::fs::write(&path, "").unwrap();
        let back = load_journal(&path).unwrap();
        assert!(back.header.is_none());
        assert!(back.runs.is_empty());

        let sink = JournalSink::create(&path).unwrap();
        sink.on_start(&header(5));
        sink.finish().unwrap();
        let back = load_journal(&path).unwrap();
        assert_eq!(back.header, Some(header(5)));
        assert!(back.runs.is_empty());
        std::fs::remove_file(&path).ok();
    }
}
