//! Line-oriented JSON (JSONL) reading for append-only journals.
//!
//! A journal holds one JSON value per line. Its writer appends each value's
//! text and the terminating newline in one write and flushes it, so a run
//! that crashes mid-campaign loses at most the line being written, and that
//! line never ends in a newline. That failure mode is *expected*, so the
//! loader is tolerant of exactly one torn tail: an unterminated final line
//! that does not parse is **dropped** (reported, not fatal). Damage
//! anywhere else — a newline-terminated line that does not parse, last line
//! included — is a hard [`Error::Parse`] that names the line: silent data
//! loss must never be papered over.

use crate::json::{self, Json};
use crate::{Error, Result};
use std::path::Path;

/// Why the tail of a JSONL file was dropped by [`load_tolerant`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DroppedTail {
    /// 1-based line number of the dropped line.
    pub line_no: usize,
    /// Human-readable reason (parse error, invalid UTF-8, …).
    pub reason: String,
}

/// The result of a tolerant JSONL load.
#[derive(Debug)]
pub struct LoadedLines {
    /// Every successfully parsed line with its 1-based line number, in file
    /// order.
    pub lines: Vec<(usize, Json)>,
    /// Byte length of the valid prefix of the file. Truncating the file to
    /// this length removes the torn tail (if any) so appends resume on a
    /// clean line boundary.
    pub valid_len: u64,
    /// The torn tail line, if one was dropped.
    pub dropped: Option<DroppedTail>,
}

/// Loads a JSONL file, tolerating a torn tail.
///
/// Blank lines are skipped. An unterminated final line that does not parse
/// (or is not valid UTF-8) is dropped — the torn-tail signature of a crash
/// mid-append. An unterminated final line that *does* parse is accepted: a
/// crash can lose the newline alone, and the record before it is complete.
///
/// # Errors
///
/// Returns [`Error::Io`] on read failure and [`Error::Parse`], naming the
/// line, for any newline-terminated line that does not parse.
pub fn load_tolerant(path: &Path) -> Result<LoadedLines> {
    let bytes = std::fs::read(path)?;
    let mut lines = Vec::new();
    let mut pos = 0usize;
    let mut valid_len = 0usize;
    let mut line_no = 0usize;
    let mut dropped = None;

    while pos < bytes.len() {
        let (line_end, next_pos) = match bytes[pos..].iter().position(|&b| b == b'\n') {
            Some(off) => (pos + off, pos + off + 1),
            None => (bytes.len(), bytes.len()),
        };
        line_no += 1;
        let parsed = std::str::from_utf8(&bytes[pos..line_end])
            .map_err(|e| format!("invalid utf-8: {e}"))
            .and_then(|s| {
                if s.trim().is_empty() {
                    Ok(None)
                } else {
                    json::parse(s).map(Some).map_err(|e| e.to_string())
                }
            });
        match parsed {
            Ok(Some(v)) => {
                lines.push((line_no, v));
                valid_len = next_pos;
            }
            Ok(None) => valid_len = next_pos, // blank line: valid, no record
            Err(reason) if line_end == bytes.len() => {
                dropped = Some(DroppedTail { line_no, reason });
            }
            Err(reason) => return Err(Error::Parse(format!("jsonl line {line_no}: {reason}"))),
        }
        pos = next_pos;
    }

    Ok(LoadedLines {
        lines,
        valid_len: valid_len as u64,
        dropped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("difi_jsonl_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn write_file(name: &str, records: &[Json]) -> std::path::PathBuf {
        let path = temp_path(name);
        let text: String = records.iter().map(|r| format!("{r}\n")).collect();
        std::fs::write(&path, text).unwrap();
        path
    }

    fn values(loaded: &LoadedLines) -> Vec<Json> {
        loaded.lines.iter().map(|(_, v)| v.clone()).collect()
    }

    #[test]
    fn roundtrip_multiple_lines() {
        let records = vec![
            Json::obj(vec![("a", Json::U64(1))]),
            Json::Str("two".into()),
            Json::Arr(vec![Json::Bool(true), Json::Null]),
        ];
        let path = write_file("roundtrip.jsonl", &records);
        let loaded = load_tolerant(&path).unwrap();
        assert_eq!(values(&loaded), records);
        assert!(loaded.dropped.is_none());
        assert_eq!(
            loaded.valid_len,
            std::fs::metadata(&path).unwrap().len(),
            "whole file is valid"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn seeded_sweep_hostile_strings_survive_append_reload() {
        // Strings drawn from a hostile pool (JSON syntax bytes, escapes,
        // controls, multi-byte chars) must survive append → reload exactly,
        // at any record count.
        let pool: Vec<char> = ('\u{0}'..='\u{ff}')
            .chain(['"', '\\', '\u{2028}', '\u{fffd}', '\u{1f4a9}', '𐍈'])
            .collect();
        let mut rng = Xoshiro256::seed_from(0x1a5e);
        for round in 0..40u64 {
            let n = rng.gen_range(0, 12) as usize;
            let records: Vec<Json> = (0..n)
                .map(|i| {
                    let len = rng.gen_range(0, 32) as usize;
                    let s: String = (0..len)
                        .map(|_| pool[rng.gen_range(0, pool.len() as u64) as usize])
                        .collect();
                    Json::obj(vec![("i", Json::U64(i as u64)), ("s", Json::Str(s))])
                })
                .collect();
            let path = write_file("sweep.jsonl", &records);
            let loaded = load_tolerant(&path).unwrap();
            assert_eq!(values(&loaded), records, "round {round}: lossy reload");
            assert!(loaded.dropped.is_none());
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn truncated_tail_is_dropped_at_every_cut_point() {
        // Truncating the file anywhere inside the final line must drop that
        // line (and only it), never abort the load.
        let records: Vec<Json> = (0..5u64)
            .map(|i| {
                Json::obj(vec![
                    ("id", Json::U64(i)),
                    ("s", Json::Str("payload".into())),
                ])
            })
            .collect();
        let path = write_file("trunc.jsonl", &records);
        let full = std::fs::read(&path).unwrap();
        let last_start = full[..full.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .unwrap()
            + 1;
        for cut in last_start + 1..full.len() - 1 {
            std::fs::write(&path, &full[..cut]).unwrap();
            let loaded = load_tolerant(&path).unwrap();
            assert_eq!(values(&loaded), records[..4], "cut at byte {cut}");
            let d = loaded.dropped.as_ref().expect("tail dropped");
            assert_eq!(d.line_no, 5);
            assert_eq!(
                loaded.valid_len as usize, last_start,
                "valid prefix ends where the torn line starts"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unterminated_but_complete_tail_is_accepted() {
        // A crash can lose only the newline: the record itself is complete
        // and must be kept.
        let records: Vec<Json> = (0..3u64)
            .map(Json::U64)
            .map(|v| Json::Arr(vec![v]))
            .collect();
        let path = write_file("nonewline.jsonl", &records);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.pop(); // drop final '\n'
        std::fs::write(&path, &bytes).unwrap();
        let loaded = load_tolerant(&path).unwrap();
        assert_eq!(values(&loaded), records);
        assert!(loaded.dropped.is_none());
        assert_eq!(loaded.valid_len as usize, bytes.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_file_corruption_is_a_hard_error() {
        let records: Vec<Json> = (0..4u64)
            .map(|i| Json::obj(vec![("id", Json::U64(i))]))
            .collect();
        let path = write_file("midcorrupt.jsonl", &records);
        let mut text = std::fs::read_to_string(&path).unwrap();
        // Corrupt the second line, keeping later lines intact.
        text = text.replacen("{\"id\":1}", "{\"id\":x}", 1);
        std::fs::write(&path, &text).unwrap();
        let err = load_tolerant(&path).unwrap_err();
        assert!(
            err.to_string().contains("line 2"),
            "error names the damaged line: {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn terminated_unparsable_last_line_is_a_hard_error() {
        // The writer ends every line with its newline, so a torn line is
        // never terminated: a terminated line that does not parse is damage
        // (or not a journal at all), even when it is the last one.
        let path = temp_path("terminated.jsonl");
        for (text, line) in [
            ("not a journal\n", 1),
            ("{\"a\":1}\n{\"a\":\n", 2),
            ("{\"a\":1}\n{\"a\":\n\n", 2),
        ] {
            std::fs::write(&path, text).unwrap();
            let err = load_tolerant(&path).expect_err(text);
            assert!(
                err.to_string().contains(&format!("line {line}:")),
                "{text:?}: {err}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn blank_lines_and_empty_file_are_fine() {
        let path = temp_path("blank.jsonl");
        std::fs::write(&path, "\n  \n{\"a\":1}\n\n").unwrap();
        let loaded = load_tolerant(&path).unwrap();
        assert_eq!(
            loaded.lines,
            vec![(3, Json::obj(vec![("a", Json::U64(1))]))]
        );
        assert!(loaded.dropped.is_none());

        std::fs::write(&path, "").unwrap();
        let loaded = load_tolerant(&path).unwrap();
        assert!(loaded.lines.is_empty());
        assert_eq!(loaded.valid_len, 0);
        std::fs::remove_file(&path).ok();
    }
}
