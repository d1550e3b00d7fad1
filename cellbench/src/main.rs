//! `benchmark` — end-to-end and per-layer cost of one fault-injection
//! campaign cell.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1
//! benchmark run [--seed N] [--rounds R] [--out F]
//! benchmark trace [--seed N]
//! benchmark compare BASE.json CHANGE.json
//! ```
//!
//! The first form is one measured run of one workload. Its last line of
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer ones
//! with `--trace 1`. `run` and `trace` drive that form in child processes
//! of `suite::RUN_SECONDS` each; see `README.md` beside this crate.

mod host;
mod measure;
mod metrics;
mod probe;
mod sinks;
mod spans;
mod stats;
mod suite;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

#[global_allocator]
static HEAP: host::HeapCounter = host::HeapCounter;

const USAGE: &str = "\
benchmark — cost of one fault-injection campaign cell

USAGE:
  benchmark --workload W --seed N --seconds S --trace 0|1
        one measured run; the last output line is the JSON result
  benchmark run [--seed N] [--rounds R] [--out F]
        R round-robin rounds over all workloads     [2015, 5,
        (one child process at a time)                .bench_out/run-N.json]
  benchmark trace [--seed N]
        one traced run per workload; per-layer metrics
        to .bench_out/trace-N.json                  [2015]
  benchmark compare BASE.json CHANGE.json
        verdict per (workload, metric) of two `run` results

WORKLOADS: cold_l1d warm_l2 collapsed_l2 traced_mixed
";

/// Where runs write their scratch files and results, relative to the
/// working directory.
const OUT_DIR: &str = ".bench_out";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match command(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs, restricted to the flags a command accepts.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String], allowed: &[&str]) -> Result<Flags, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !allowed.contains(&flag.as_str()) {
                return Err(format!("unexpected argument '{flag}'\n\n{USAGE}"));
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            if map.insert(flag.clone(), value.clone()).is_some() {
                return Err(format!("{flag} given twice"));
            }
        }
        Ok(Flags(map))
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.0.get(flag).map(String::as_str)
    }

    fn num(&self, flag: &str, default: Option<u64>) -> Result<u64, String> {
        match (self.get(flag), default) {
            (Some(v), _) => v
                .parse()
                .map_err(|_| format!("{flag} takes a whole number, not '{v}'")),
            (None, Some(d)) => Ok(d),
            (None, None) => Err(format!("{flag} is required\n\n{USAGE}")),
        }
    }

    fn seconds(&self) -> Result<u64, String> {
        let s = self.num("--seconds", None)?;
        match s {
            1..=600 => Ok(s),
            _ => Err(format!("--seconds must be 1 to 600, not {s}")),
        }
    }
}

/// `path`, after creating the directory it lies in.
fn out_file(path: PathBuf) -> Result<PathBuf, String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    Ok(path)
}

fn command(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("run") => {
            let f = Flags::parse(&args[1..], &["--seed", "--rounds", "--out"])?;
            let seed = f.num("--seed", Some(2015))?;
            let rounds = f.num("--rounds", Some(5))?.max(1) as usize;
            let out = f
                .get("--out")
                .map_or_else(|| format!("{OUT_DIR}/run-{seed}.json"), String::from);
            suite::run(seed, rounds, &out_file(out.into())?)
        }
        Some("trace") => {
            let f = Flags::parse(&args[1..], &["--seed"])?;
            let seed = f.num("--seed", Some(2015))?;
            let out = format!("{OUT_DIR}/trace-{seed}.json");
            suite::trace(seed, &out_file(out.into())?)
        }
        Some("compare") => match &args[1..] {
            [base, change] => suite::compare(Path::new(base), Path::new(change)),
            _ => Err(format!("compare takes two result files\n\n{USAGE}")),
        },
        Some("-h" | "--help") => {
            print!("{USAGE}");
            Ok(true)
        }
        _ => measured(args),
    }
}

/// One measured run: prints each repetition's simulated counts, then the
/// result line. Scratch files live in a per-process directory that is
/// removed afterwards.
fn measured(args: &[String]) -> Result<bool, String> {
    let f = Flags::parse(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    let name = f
        .get("--workload")
        .ok_or(format!("--workload is required\n\n{USAGE}"))?;
    let w = workload::find(name).ok_or(format!("unknown workload '{name}'\n\n{USAGE}"))?;
    let seed = f.num("--seed", None)?;
    let budget = Duration::from_secs(f.seconds()?);
    let trace = match f.get("--trace") {
        Some("0") => false,
        Some("1") => true,
        _ => return Err(format!("--trace takes 0 or 1\n\n{USAGE}")),
    };

    let work = Path::new(OUT_DIR).join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| e.to_string())?;
    let result = if trace {
        let spans = Path::new(OUT_DIR).join(format!("spans-{}-{seed}.json", w.name));
        measure::traced(w, seed, budget, &work, &spans)
    } else {
        measure::e2e(w, seed, budget, &work)
    };
    std::fs::remove_dir_all(&work).map_err(|e| e.to_string())?;
    let report = result?;

    for rep in &report.reps {
        println!("rep {}", rep.to_json());
    }
    for t in &report.timings {
        println!("time {t}");
    }
    for p in &report.problems {
        println!("problem: {p}");
    }
    let names = if trace {
        measure::layer_names()
    } else {
        measure::e2e_names()
    };
    println!("{}", report.to_json(&names));
    Ok(true)
}
