//! Command-line injection campaign driver — the scriptable face of the
//! injector (the role the paper's campaign controller scripts played).
//!
//! ```text
//! campaign --injector MaFIN-x86 --bench sha --structure l1d_data \
//!          [--injections 200] [--seed 2015] [--out logs/run.jsonl] \
//!          [--model transient|intermittent|permanent] [--window 2000] \
//!          [--journal logs/run.journal | --resume logs/run.journal] \
//!          [--progress] [--checkpoints 8] [--collapse] [--no-early-stop] \
//!          [--fine] [--trace logs/traces.jsonl] \
//!          [--metrics-out logs/metrics.json] \
//!          [--profile] [--profile-out logs/profile.json] [--help]
//! ```
//!
//! Prints the six-class classification (and the fine breakdown with
//! `--fine`) and optionally persists the raw logs repository for later
//! re-parsing (`--out`, a finished journal that `--resume` accepts).
//!
//! `--journal` streams every completed run to an append-only JSONL journal;
//! a campaign killed mid-flight restarts with `--resume` on the same path
//! (same injector/bench/structure/seed/injections), re-running only the
//! missing masks and producing the identical log. `--progress` prints live
//! completion/ETA telemetry on stderr. `--checkpoints` enables the
//! warm-start engine with that many golden-run checkpoints.
//!
//! `--collapse` statically partitions the mask space into provably
//! equivalent classes against the golden run's residency trace and runs
//! one representative per class; every run's journal/log line carries its
//! class provenance (`"collapse"` key), so `--journal`/`--resume` and
//! later audits work unchanged. Composes with `--checkpoints` (warm-starts
//! the representatives). Falls back to the normal strategy with a warning
//! when the structure's residency trace is unavailable (control-plane
//! structures).
//!
//! `--trace` enables fault-lifecycle tracing: each run's event stream
//! (injected, first-consumed, overwritten-dead, divergence, classified)
//! streams to the given JSONL file and the fault-effect-latency table
//! prints after the classification. `--metrics-out` attaches a metrics
//! registry and writes its JSON snapshot (counters, phase gauges,
//! latency histograms) to the given file.
//!
//! `--profile` enables the zero-allocation pipeline profiler on every
//! dispatched run (and the golden run): each non-committing cycle is
//! attributed to a stall cause and the golden-vs-faulty stall breakdown
//! prints as a differential table after the classification. `--profile-out`
//! implies `--profile` and additionally writes the aggregate report
//! (counters + occupancy histograms) as JSON. Tracing takes precedence:
//! with `--trace` the profiler is disabled for the traced runs.
//!
//! An argument that is neither a documented flag nor the value of a value
//! flag (including a value flag with no value, or whose value starts with
//! `--`) is an error, and so is a value the flag does not accept (an
//! unknown injector, benchmark, structure, model or scenario, a number
//! flag with a non-numeric value, `--sweep` with a scenario it does not
//! support, `--journal` together with `--resume`): `campaign` names it,
//! prints the usage on stderr and exits with status 2.

use difi::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const USAGE: &str = "\
campaign — command-line fault-injection campaign driver

USAGE:
  campaign [OPTIONS]

OPTIONS:
  --injector NAME       MaFIN-x86 | GeFIN-x86 | GeFIN-ARM   [MaFIN-x86]
  --bench NAME          benchmark to run                     [sha]
  --structure NAME      target structure (l1d_data, …)       [l1d_data]
  --injections N        number of fault masks                [200]
  --seed N              campaign seed                        [2015]
  --model KIND          transient | intermittent | permanent [transient]
  --window N            intermittent window, cycles          [2000]
  --scenario KIND       bit-flips | multi-bit | instruction-skip |
                        opcode-corrupt | branch-invert | mixed [bit-flips]
                        bit-flips follows --model; multi-bit draws
                        spatially-correlated adjacent-bit bursts; the attack
                        kinds act at the fetch/decode boundary; mixed
                        interleaves all families. Non-default scenarios
                        print a trigger-cycle scenario report after the
                        classification (e.g. which aes rounds yield
                        key-extraction-shaped SDCs under branch-invert).
  --sweep               exhaustive sweep instead of random sampling:
                        bit-flips — every (entry, bit) × every cycle of the
                        window, seeded deterministic order;
                        branch-invert — one inversion per cycle.
                        (--injections is ignored; mask count = site space.)
  --sweep-start N       sweep window start cycle         [golden midpoint]
  --sweep-len N         sweep window length, cycles                  [64]
  --out PATH            save the raw logs repository: a finished journal,
                        so --resume PATH accepts it
  --journal PATH        stream runs to an append-only journal
  --resume PATH         finish an interrupted journal (same parameters)
  --progress            live completion/ETA telemetry on stderr
  --checkpoints N       warm-start engine with N golden checkpoints
  --collapse            collapse the mask space into equivalence classes;
                        runs one representative per class and stamps every
                        journal/log line with its class provenance.
                        Composes with --checkpoints, --journal, --resume.
  --no-early-stop       disable the dead-entry early stop
  --fine                also print the fine-grained classification
  --trace PATH          stream fault-lifecycle traces (JSONL)
  --metrics-out PATH    write the metrics registry snapshot (JSON)
  --profile             profile pipeline stalls/occupancy on every run and
                        print the golden-vs-faulty stall breakdown
                        (disabled for traced runs; --trace wins)
  --profile-out PATH    write the aggregate profile report (JSON);
                        implies --profile
  -h, --help            print this help and exit
";

/// The flags of `USAGE` that take a value.
const VALUE_FLAGS: [&str; 17] = [
    "--injector",
    "--bench",
    "--structure",
    "--injections",
    "--seed",
    "--model",
    "--window",
    "--scenario",
    "--sweep-start",
    "--sweep-len",
    "--out",
    "--journal",
    "--resume",
    "--checkpoints",
    "--trace",
    "--metrics-out",
    "--profile-out",
];

/// The flags of `USAGE` that take no value.
const SWITCHES: [&str; 8] = [
    "--sweep",
    "--progress",
    "--collapse",
    "--no-early-stop",
    "--fine",
    "--profile",
    "-h",
    "--help",
];

/// Prints `error: <msg>` and the usage on stderr, then exits with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprint!("{USAGE}");
    std::process::exit(2);
}

/// Splits the command line into value-flag values (the first occurrence
/// wins) and switches, or names the first argument that is neither.
fn parse_args(args: &[String]) -> Result<(BTreeMap<&str, &str>, BTreeSet<&str>), String> {
    let mut values = BTreeMap::new();
    let mut switches = BTreeSet::new();
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        if VALUE_FLAGS.contains(&arg) {
            match it.next() {
                Some(v) if !v.starts_with("--") => {
                    values.entry(arg).or_insert(v);
                }
                _ => return Err(format!("missing value for {arg}")),
            }
        } else if SWITCHES.contains(&arg) {
            switches.insert(arg);
        } else {
            return Err(format!("unknown argument {arg}"));
        }
    }
    Ok((values, switches))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (values, switches) = parse_args(&args).unwrap_or_else(|e| usage_error(&e));
    let get = |flag: &str| values.get(flag).map(|v| v.to_string());
    let has = |flag: &str| switches.contains(flag);
    let num = |flag: &str| -> Option<u64> {
        get(flag).map(|v| {
            v.parse()
                .unwrap_or_else(|_| usage_error(&format!("{flag}: '{v}' is not a number")))
        })
    };
    if has("--help") || has("-h") {
        print!("{USAGE}");
        return;
    }
    if get("--journal").is_some() && get("--resume").is_some() {
        usage_error("--resume: cannot be combined with --journal");
    }

    let injector = get("--injector").unwrap_or_else(|| "MaFIN-x86".into());
    let bench_name = get("--bench").unwrap_or_else(|| "sha".into());
    let bench = Bench::from_name(&bench_name)
        .unwrap_or_else(|| usage_error(&format!("--bench: unknown benchmark '{bench_name}'")));
    let structure_name = get("--structure").unwrap_or_else(|| "l1d_data".into());
    let structure = StructureId::from_name(&structure_name).unwrap_or_else(|| {
        usage_error(&format!(
            "--structure: unknown structure '{structure_name}'"
        ))
    });
    let injections = num("--injections").unwrap_or(200);
    let seed = num("--seed").unwrap_or(2015);
    let model = get("--model").unwrap_or_else(|| "transient".into());
    let window = num("--window").unwrap_or(2000);
    let scenario = get("--scenario").unwrap_or_else(|| "bit-flips".into());
    let sweep = has("--sweep");
    let sweep_start = num("--sweep-start");
    let sweep_len = num("--sweep-len").unwrap_or(64);
    let checkpoints = num("--checkpoints").unwrap_or(0) as usize;

    let dispatcher = setups::all()
        .into_iter()
        .find(|d| d.name() == injector)
        .unwrap_or_else(|| usage_error(&format!("--injector: unknown injector '{injector}'")));

    let program = build(bench, dispatcher.isa()).expect("benchmark assembles");
    let golden = golden_run(dispatcher.as_ref(), &program, 200_000_000);
    let desc =
        difi::core::dispatch::structure_desc(dispatcher.as_ref(), structure).unwrap_or_else(|| {
            usage_error(&format!(
                "--structure: {structure_name} is not injectable on {injector}"
            ))
        });

    println!(
        "campaign: {} / {} / {} — {} {} faults (seed {seed}, scenario {scenario}{})",
        injector,
        bench.name(),
        structure.name(),
        injections,
        model,
        if sweep { ", sweep" } else { "" }
    );
    println!(
        "golden: {} cycles; statistically required at 99%/3%: {}",
        golden.cycles_measured(),
        MaskGenerator::required_samples(&desc, golden.cycles_measured(), 0.99, 0.03)
    );

    let cycles = golden.cycles_measured();
    let sweep_start = sweep_start.unwrap_or(cycles / 2);
    let mut gen = MaskGenerator::new(seed);
    let masks = if sweep {
        let ms = match scenario.as_str() {
            "branch-invert" => gen.branch_invert_sweep(sweep_start, sweep_len),
            "bit-flips" => gen.exhaustive_sweep(&desc, sweep_start, sweep_len),
            other => usage_error(&format!(
                "--sweep: supports --scenario bit-flips or branch-invert, not '{other}'"
            )),
        };
        println!(
            "sweep: window [{}, {}) — {} masks",
            sweep_start,
            sweep_start + sweep_len.max(1),
            ms.len()
        );
        ms
    } else {
        match scenario.as_str() {
            "bit-flips" => match model.as_str() {
                "transient" => gen.transient(&desc, cycles, injections),
                "intermittent" => gen.intermittent(&desc, cycles, window, injections),
                "permanent" => gen.permanent(&desc, injections),
                other => usage_error(&format!("--model: unknown model '{other}'")),
            },
            "multi-bit" => gen.correlated_adjacent_bits(&desc, cycles, 3, injections),
            "instruction-skip" => gen.instruction_skip(cycles, 1, injections),
            "opcode-corrupt" => gen.opcode_corrupt(cycles, injections),
            "branch-invert" => gen.branch_invert(cycles, injections),
            "mixed" => gen.mixed_scenarios(&desc, cycles, injections),
            other => usage_error(&format!("--scenario: unknown scenario '{other}'")),
        }
    };

    let cfg = CampaignConfig {
        threads: 0,
        early_stop: !has("--no-early-stop"),
        golden_max_cycles: 200_000_000,
    };
    // The collapse profile must outlive the runner that borrows it.
    let collapse_profile: Option<AceProfile> = has("--collapse")
        .then(|| {
            let mut logs =
                dispatcher.golden_residency(&program, &[structure], cfg.golden_max_cycles);
            match logs.pop().and_then(AceProfile::new) {
                Some(p) => Some(p),
                None => {
                    eprintln!(
                        "warning: no residency profile for {} (control-plane or untraced \
                         structure) — running without --collapse",
                        structure.name()
                    );
                    None
                }
            }
        })
        .flatten();
    let mut runner = CampaignRunner::new(dispatcher.as_ref(), &program, structure, seed, &cfg);
    match &collapse_profile {
        Some(profile) => {
            runner = runner.with_strategy(Strategy::Collapsed {
                profile,
                checkpoints,
            });
        }
        None if checkpoints > 0 => {
            runner = runner.with_strategy(Strategy::Checkpointed { checkpoints });
        }
        None => {}
    }

    let trace_path = get("--trace").map(std::path::PathBuf::from);
    let metrics_path = get("--metrics-out").map(std::path::PathBuf::from);
    let profile_path = get("--profile-out").map(std::path::PathBuf::from);
    let profile_on = has("--profile") || profile_path.is_some();
    if profile_on && trace_path.is_some() {
        eprintln!("warning: --trace takes precedence over --profile; traced runs are not profiled");
    }
    let registry = metrics_path
        .is_some()
        .then(|| Arc::new(MetricsRegistry::new()));
    if let Some(reg) = &registry {
        runner = runner.with_metrics(Arc::clone(reg));
    }
    if trace_path.is_some() {
        runner = runner.with_tracing(true);
    }
    if profile_on {
        runner = runner.with_profiling(true);
    }
    let trace_sink = trace_path.as_ref().map(|p| {
        if let Some(dir) = p.parent() {
            std::fs::create_dir_all(dir).expect("create trace dir");
        }
        TraceSink::create(p).expect("create trace file")
    });
    let mem_traces = trace_path.is_some().then(MemoryTraceSink::new);
    let mem_profiles = profile_on.then(MemoryProfileSink::new);

    let progress = {
        let p = ProgressSink::every(if injections > 200 { 10 } else { 1 });
        match &registry {
            Some(reg) => p.with_metrics(Arc::clone(reg)),
            None => p,
        }
    };
    let mut sinks: Vec<&dyn RunSink> = Vec::new();
    if has("--progress") {
        sinks.push(&progress);
    }
    if let Some(sink) = &trace_sink {
        sinks.push(sink);
    }
    if let Some(sink) = &mem_traces {
        sinks.push(sink);
    }
    if let Some(sink) = &mem_profiles {
        sinks.push(sink);
    }

    let t0 = std::time::Instant::now();
    let log = match (get("--journal"), get("--resume")) {
        (Some(path), _) => {
            let p = std::path::PathBuf::from(path);
            if let Some(dir) = p.parent() {
                std::fs::create_dir_all(dir).expect("create journal dir");
            }
            let log = runner
                .run_journaled(&masks, &p, &sinks)
                .expect("journaled campaign");
            println!("journal written to {}", p.display());
            log
        }
        (None, Some(path)) => {
            let p = std::path::PathBuf::from(path);
            let log = runner.resume(&masks, &p, &sinks).expect("resume campaign");
            println!("journal completed at {}", p.display());
            log
        }
        (None, None) => runner.run_with_sinks(&masks, &sinks),
    };
    let wall = t0.elapsed();

    // Surface trace-file I/O failures loudly: a campaign whose traces were
    // silently dropped would masquerade as a complete observability record.
    if let (Some(sink), Some(path)) = (&trace_sink, &trace_path) {
        sink.finish().expect("trace journal write failed");
        println!("traces written to {}", path.display());
    }

    if let Some(path) = get("--out") {
        let p = std::path::PathBuf::from(path);
        if let Some(dir) = p.parent() {
            std::fs::create_dir_all(dir).expect("create log dir");
        }
        log.save(&p).expect("save log");
        println!("raw logs written to {}", p.display());
    }

    let counts = classify_log(&log);
    println!("\nclassification ({} runs, {:?}):", counts.total(), wall);
    for class in Outcome::ALL {
        println!(
            "  {:<8} {:>6}  ({:>5.1}%)",
            class.name(),
            counts.get(class),
            100.0 * counts.fraction(class)
        );
    }
    let ci = counts.vulnerability_interval(0.99);
    println!(
        "vulnerability: {:.2}%  (99% CI [{:.2}%, {:.2}%])",
        100.0 * counts.vulnerability(),
        100.0 * ci.lo,
        100.0 * ci.hi
    );

    // The attacker-relevant view: group runs by trigger-cycle bucket and
    // count the key-extraction-shaped outcomes (run completed normally but
    // produced wrong output — the SDC shape differential fault analysis
    // feeds on). On `--scenario branch-invert --bench aes` the buckets map
    // to cipher rounds, answering "which rounds leak".
    if scenario != "bit-flips" || sweep {
        const BUCKETS: usize = 8;
        let span = golden.cycles_measured().max(1);
        let mut rows = [(0u64, 0u64); BUCKETS];
        for run in &log.runs {
            let at = run
                .spec
                .scenario
                .trigger()
                .or_else(|| run.spec.faults().first().map(|f| f.at));
            let Some(InjectTime::Cycle(c)) = at else {
                continue;
            };
            let b = ((c.min(span - 1) as u128 * BUCKETS as u128 / span as u128) as usize)
                .min(BUCKETS - 1);
            rows[b].0 += 1;
            let sdc = matches!(run.result.status, RunStatus::Completed { .. })
                && run.result.output != log.golden.output;
            if sdc {
                rows[b].1 += 1;
            }
        }
        println!(
            "scenario report: {scenario} on {} — key-extraction-shaped SDCs by trigger-cycle bucket",
            bench.name()
        );
        for (b, (runs, sdcs)) in rows.iter().enumerate() {
            let lo = span * b as u64 / BUCKETS as u64;
            let hi = span * (b as u64 + 1) / BUCKETS as u64;
            println!(
                "  cycles [{lo:>8}, {hi:>8})  runs {runs:>6}  sdc {sdcs:>6}{}",
                if *runs > 0 && *sdcs * 2 >= *runs {
                    "  <- leaky"
                } else {
                    ""
                }
            );
        }
    }

    if let Some(profile) = &collapse_profile {
        // Re-derive the (deterministic) partition for the summary line.
        let part = partition_equivalence(&masks, profile);
        println!(
            "\ncollapse: {} masks -> {} classes ({:.2}x), {} simulator dispatches \
             ({} dead, {} latch, {} singleton classes)",
            part.mask_count(),
            part.class_count(),
            part.collapse_ratio(),
            part.dispatch_count(),
            part.classes_with(ProofKind::DeadInterval),
            part.classes_with(ProofKind::LatchInterval),
            part.classes_with(ProofKind::Singleton)
        );
    }

    if has("--fine") {
        let classifier = Classifier::from_golden(&log.golden);
        let mut fine: std::collections::BTreeMap<String, u64> = Default::default();
        for run in &log.runs {
            *fine
                .entry(format!("{:?}", classifier.classify_fine(&run.result)))
                .or_default() += 1;
        }
        println!("\nfine classification:");
        for (k, v) in fine {
            println!("  {k:<16} {v}");
        }
    }

    // Fault-effect latency breakdown from the collected event streams.
    let latency = mem_traces.map(|m| {
        let traces: Vec<FaultTrace> = m.into_traces().into_iter().map(|(_, t)| t).collect();
        LatencyReport::from_traces(&traces)
    });
    if let Some(rep) = &latency {
        if rep.rows.is_empty() {
            println!("\nno fault traces recorded (all masks fault-free?)");
        } else {
            println!("\n{}", rep.render());
        }
    }

    // Pipeline stall/occupancy breakdown from the per-run profile counters.
    let profile_report = mem_profiles.map(|m| {
        let profiles = m.into_profiles();
        ProfileReport::from_profiles(runner.golden_profile(), profiles.iter().map(|(_, p)| p))
    });
    if let Some(rep) = &profile_report {
        if rep.faulty_runs == 0 {
            println!("\nno runs profiled (tracing enabled, or dispatcher lacks profiling support)");
        } else {
            println!("\n{}", rep.render());
        }
    }
    if let (Some(path), Some(rep)) = (&profile_path, &profile_report) {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create profile dir");
        }
        std::fs::write(path, format!("{}\n", rep.to_json())).expect("profile file write failed");
        println!("profile written to {}", path.display());
    }

    if let (Some(path), Some(reg)) = (&metrics_path, &registry) {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create metrics dir");
        }
        let mut sections = vec![("metrics".to_string(), reg.snapshot())];
        if let Some(rep) = &latency {
            sections.push(("latency".to_string(), rep.to_json()));
        }
        if let Some(rep) = &profile_report {
            sections.push(("profile".to_string(), rep.to_json()));
        }
        let doc = difi::util::json::Json::Obj(sections);
        std::fs::write(path, format!("{doc}\n")).expect("metrics file write failed");
        println!("metrics written to {}", path.display());
    }
}
