//! Wall-clock benchmarks over the simulation stack (plain-`Instant` harness;
//! the workspace builds without external crates, so no criterion).
//!
//! * `sim_throughput/*` — detailed-simulator and emulator throughput on the
//!   `fft` benchmark (the study's wall-clock currency).
//! * `throughput/*` — simulated-cycles-per-second (Mcyc/s) of the detailed
//!   core across bench workloads; with `--json`, also written to
//!   `BENCH_throughput.json` for the `check.sh` regression gate.
//! * `early_stop/*` — EXP-OPT: campaign time with and without the paper's
//!   §III.B.2 early-stop optimizations (expected 30–70% per-run savings).
//! * `warm_start/*` — checkpointed warm-start engine vs. cold-start on a
//!   40-mask L2 campaign (acceptance target ≥1.3× speedup).
//! * `journaling/*` — in-memory campaign vs. the same campaign with the
//!   per-run-flushed JSONL journal sink attached (acceptance target <5%
//!   overhead).
//! * `observability/*` — fault-lifecycle tracing plus a metrics registry vs.
//!   the plain campaign on the 40-mask L2 benchmark (acceptance target <5%
//!   overhead on, ~0% with the layer disabled).
//! * `collapse/*` — equivalence-collapsed campaign vs. cold campaign on the
//!   40-mask L2 benchmark and on a dense per-cycle sweep, with the static
//!   partition statistics (masks → classes, dispatches) per shape.
//! * `data_arrays/*` — EXP-OVH: MarsSim with the cache data-array extension
//!   vs. original-MARSS performance mode (paper: ≈40% overhead).
//!
//! Run with `cargo bench -p difi-bench` (harness = false). Passing group
//! names as arguments runs only those groups:
//! `cargo bench -p difi-bench -- observability`.

use difi::isa::emu::Emulator;
use difi::prelude::*;
use difi::uarch::pipeline::engine::EngineLimits;
use difi::uarch::pipeline::OoOCore;
use difi::util::json::Json;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

const SAMPLES: u32 = 3;

/// Set by the `--json` flag: the `throughput` group additionally writes
/// `BENCH_throughput.json` at the repo root (machine-readable Mcyc/s) —
/// the committed baseline `scripts/check.sh` gates against.
static EMIT_JSON: AtomicBool = AtomicBool::new(false);

fn limits() -> EngineLimits {
    EngineLimits {
        max_cycles: 200_000_000,
        early_stop: false,
        deadlock_window: 200_000,
    }
}

/// Times `f` over [`SAMPLES`] iterations and prints the best (minimum) time,
/// the conventional noise-resistant statistic for micro-benchmarks.
fn bench(group: &str, name: &str, mut f: impl FnMut()) {
    f(); // warm-up
    let mut best = std::time::Duration::MAX;
    for _ in 0..SAMPLES {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed());
    }
    println!("{group}/{name:<24} {:>10.3} ms", best.as_secs_f64() * 1e3);
}

fn sim_throughput() {
    let bench_name = Bench::Fft;
    let p86 = build(bench_name, Isa::X86e).expect("fft builds for x86e");
    let parm = build(bench_name, Isa::Arme).expect("fft builds for arme");

    bench("sim_throughput", "emulator_x86e", || {
        Emulator::new(&p86).run(100_000_000);
    });
    bench("sim_throughput", "marssim_x86e", || {
        OoOCore::new(mars_config(), &p86).run(&[], &limits());
    });
    bench("sim_throughput", "gemsim_x86e", || {
        OoOCore::new(gem_config(Isa::X86e), &p86).run(&[], &limits());
    });
    bench("sim_throughput", "gemsim_arme", || {
        OoOCore::new(gem_config(Isa::Arme), &parm).run(&[], &limits());
    });
}

/// Times one simulator×workload pair and returns its JSON record. `f` runs
/// the workload to completion and reports the simulated cycle count.
fn measure_mcyc(sim: &str, workload: &str, mut f: impl FnMut() -> u64) -> Json {
    let cycles = f(); // warm-up; the cycle count is deterministic
    let mut best = std::time::Duration::MAX;
    for _ in 0..SAMPLES {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed());
    }
    let mcyc_per_s = cycles as f64 / 1e6 / best.as_secs_f64();
    println!(
        "throughput/{:<24} {:>10.3} ms  {:>8} cyc  {:>7.3} Mcyc/s",
        format!("{sim}/{workload}"),
        best.as_secs_f64() * 1e3,
        cycles,
        mcyc_per_s
    );
    Json::obj(vec![
        ("sim", Json::Str(sim.to_string())),
        ("workload", Json::Str(workload.to_string())),
        ("cycles", Json::U64(cycles)),
        ("best_ms", Json::F64(best.as_secs_f64() * 1e3)),
        ("mcyc_per_s", Json::F64(mcyc_per_s)),
    ])
}

fn throughput() {
    // The detailed-core Mcyc/s trajectory: MaFIN across a spread of workload
    // characters (fp, logic, branchy, int-mul, wide-arith), plus GeFIN on
    // fft to keep the split-LSQ engine path on the gate.
    let mut entries: Vec<Json> = Vec::new();
    for bench_name in [
        Bench::Fft,
        Bench::Sha,
        Bench::Qsort,
        Bench::Djpeg,
        Bench::Corner,
    ] {
        let program = build(bench_name, Isa::X86e).expect("bench builds for x86e");
        entries.push(measure_mcyc("marssim_x86e", bench_name.name(), || {
            OoOCore::new(mars_config(), &program)
                .run(&[], &limits())
                .stats
                .cycles
        }));
    }
    let program = build(Bench::Fft, Isa::X86e).expect("fft builds for x86e");
    entries.push(measure_mcyc("gemsim_x86e", "fft", || {
        OoOCore::new(gem_config(Isa::X86e), &program)
            .run(&[], &limits())
            .stats
            .cycles
    }));

    if EMIT_JSON.load(Ordering::Relaxed) {
        let doc = Json::obj(vec![
            ("samples", Json::U64(SAMPLES as u64)),
            ("unit", Json::Str("Mcyc/s".to_string())),
            ("entries", Json::Arr(entries)),
        ]);
        // Anchor on the manifest dir: `cargo bench` runs the binary with
        // cwd = crates/bench, but the gate baseline lives at the repo root.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
        std::fs::write(path, format!("{doc}\n")).expect("write BENCH_throughput.json");
        println!("throughput: wrote {path}");
    }
}

fn early_stop() {
    let mafin = MaFin::new();
    let program = build(Bench::Fft, Isa::X86e).expect("fft builds for x86e");
    let golden = golden_run(&mafin, &program, 100_000_000);
    let desc = difi::core::dispatch::structure_desc(&mafin, StructureId::L2Data)
        .expect("MaFIN models the L2 data array");
    let masks = MaskGenerator::new(7).transient(&desc, golden.cycles_measured(), 20);

    for (name, early) in [("disabled", false), ("enabled", true)] {
        let cfg = CampaignConfig {
            threads: 1,
            early_stop: early,
            golden_max_cycles: 100_000_000,
        };
        bench("early_stop", name, || {
            CampaignRunner::new(&mafin, &program, StructureId::L2Data, 7, &cfg).run(&masks);
        });
    }
}

fn warm_start() {
    // ISSUE 2 acceptance: a 40-mask L2 campaign served from golden-run
    // checkpoints must beat the cold-start campaign by ≥1.3×.
    let mafin = MaFin::new();
    let program = build(Bench::Fft, Isa::X86e).expect("fft builds for x86e");
    let golden = golden_run(&mafin, &program, 100_000_000);
    let desc = difi::core::dispatch::structure_desc(&mafin, StructureId::L2Data)
        .expect("MaFIN models the L2 data array");
    let masks = MaskGenerator::new(11).transient(&desc, golden.cycles_measured(), 40);
    let cfg = CampaignConfig {
        threads: 1,
        early_stop: true,
        golden_max_cycles: 100_000_000,
    };

    bench("warm_start", "cold_start", || {
        CampaignRunner::new(&mafin, &program, StructureId::L2Data, 11, &cfg).run(&masks);
    });
    bench("warm_start", "checkpointed_k8", || {
        CampaignRunner::new(&mafin, &program, StructureId::L2Data, 11, &cfg)
            .with_strategy(Strategy::Checkpointed { checkpoints: 8 })
            .run(&masks);
    });
}

fn journaling() {
    // ISSUE 4 acceptance: journaling every run (one flushed JSONL line per
    // completion) must cost <5% over the in-memory campaign on the 40-mask
    // L2 benchmark.
    let mafin = MaFin::new();
    let program = build(Bench::Fft, Isa::X86e).expect("fft builds for x86e");
    let golden = golden_run(&mafin, &program, 100_000_000);
    let desc = difi::core::dispatch::structure_desc(&mafin, StructureId::L2Data)
        .expect("MaFIN models the L2 data array");
    let masks = MaskGenerator::new(11).transient(&desc, golden.cycles_measured(), 40);
    let cfg = CampaignConfig {
        threads: 1,
        early_stop: true,
        golden_max_cycles: 100_000_000,
    };
    let runner = CampaignRunner::new(&mafin, &program, StructureId::L2Data, 11, &cfg);
    let dir = std::env::temp_dir().join("difi_bench_journal");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("l2_fft.journal");

    bench("journaling", "in_memory", || {
        runner.run(&masks);
    });
    bench("journaling", "jsonl_journal", || {
        runner
            .run_journaled(&masks, &path, &[])
            .expect("journaled campaign");
    });
    std::fs::remove_file(&path).ok();
}

fn observability() {
    // ISSUE 5 acceptance on the 40-mask L2 benchmark: the tracing +
    // metrics layer must cost <5% when enabled, and its mere existence
    // (compiled in but switched off) must be free. ISSUE 10 adds the
    // pipeline stall/occupancy profiler as a third variant under the same
    // <5%-enabled / free-disabled budget.
    let mafin = MaFin::new();
    let program = build(Bench::Fft, Isa::X86e).expect("fft builds for x86e");
    let golden = golden_run(&mafin, &program, 100_000_000);
    let desc = difi::core::dispatch::structure_desc(&mafin, StructureId::L2Data)
        .expect("MaFIN models the L2 data array");
    let masks = MaskGenerator::new(11).transient(&desc, golden.cycles_measured(), 40);
    let cfg = CampaignConfig {
        threads: 1,
        early_stop: true,
        golden_max_cycles: 100_000_000,
    };
    let plain = CampaignRunner::new(&mafin, &program, StructureId::L2Data, 11, &cfg);
    let traced = CampaignRunner::new(&mafin, &program, StructureId::L2Data, 11, &cfg)
        .with_tracing(true)
        .with_metrics(std::sync::Arc::new(MetricsRegistry::new()));
    let profiled =
        CampaignRunner::new(&mafin, &program, StructureId::L2Data, 11, &cfg).with_profiling(true);
    let run_plain = || {
        plain.run(&masks);
    };
    let run_traced = || {
        let sink = MemoryTraceSink::new();
        traced.run_with_sinks(&masks, &[&sink]);
    };
    let run_profiled = || {
        let sink = MemoryProfileSink::new();
        profiled.run_with_sinks(&masks, &[&sink]);
    };

    // The variants are *interleaved* (unlike the other groups): the
    // overhead ratio is the figure of merit, and back-to-back tuples see
    // the same machine conditions, where sequential best-of-N would fold
    // load drift between the groups into the ratio.
    run_plain();
    run_traced();
    run_profiled();
    let mut best_off = std::time::Duration::MAX;
    let mut best_on = std::time::Duration::MAX;
    let mut best_prof = std::time::Duration::MAX;
    for _ in 0..SAMPLES + 2 {
        let t0 = Instant::now();
        run_plain();
        best_off = best_off.min(t0.elapsed());
        let t0 = Instant::now();
        run_traced();
        best_on = best_on.min(t0.elapsed());
        let t0 = Instant::now();
        run_profiled();
        best_prof = best_prof.min(t0.elapsed());
    }
    for (name, best) in [
        ("disabled", best_off),
        ("trace_and_metrics", best_on),
        ("stall_profiler", best_prof),
    ] {
        println!(
            "observability/{name:<24} {:>10.3} ms",
            best.as_secs_f64() * 1e3
        );
    }
    println!(
        "observability/profiler_overhead     {:>9.2}%",
        100.0 * (best_prof.as_secs_f64() / best_off.as_secs_f64() - 1.0)
    );
}

/// One mask per cycle inside real inter-event gaps of the residency trace —
/// the densest per-cycle sampling shape, where equivalence collapsing pays
/// the most (every cycle of a gap shares one class).
fn dense_sweep(profile: &AceProfile, desc: &StructureDesc) -> Vec<InjectionSpec> {
    let mut masks = Vec::new();
    let mut id = 0u64;
    let mut sites = 0u32;
    'entries: for entry in 0..desc.entries {
        for w in profile.log().events_for(entry).windows(2) {
            let (a, b) = (&w[0], &w[1]);
            let bit = b.bit_lo;
            if b.cycle > a.cycle + 2 && b.covers(bit) {
                let lo = a.cycle + 1;
                for cycle in lo..=b.cycle.min(lo + 19) {
                    masks.push(InjectionSpec::single_transient(
                        id, desc.id, entry, bit, cycle,
                    ));
                    id += 1;
                }
                sites += 1;
                if sites >= 6 {
                    break 'entries;
                }
                break;
            }
        }
    }
    masks
}

fn collapse() {
    // ISSUE 6: equivalence-collapsed campaign vs. cold campaign on the
    // 40-mask L2 benchmark, plus a dense per-cycle sweep where collapsing
    // shows its full leverage. The printed ratio lines record the static
    // partition statistics behind each speedup.
    let mafin = MaFin::new();
    let program = build(Bench::Fft, Isa::X86e).expect("fft builds for x86e");
    let golden = golden_run(&mafin, &program, 100_000_000);
    let desc = difi::core::dispatch::structure_desc(&mafin, StructureId::L2Data)
        .expect("MaFIN models the L2 data array");
    let masks = MaskGenerator::new(11).transient(&desc, golden.cycles_measured(), 40);
    let cfg = CampaignConfig {
        threads: 1,
        early_stop: true,
        golden_max_cycles: 100_000_000,
    };
    let mut logs = mafin.golden_residency(
        &program,
        &[StructureId::L2Data, StructureId::IntRegFile],
        100_000_000,
    );
    let prf_profile =
        AceProfile::new(logs.pop().expect("int_prf traced")).expect("int_prf data plane");
    let profile = AceProfile::new(logs.pop().expect("L2 traced")).expect("L2 data plane");
    assert_eq!(prf_profile.structure(), StructureId::IntRegFile);
    assert_eq!(profile.structure(), StructureId::L2Data);

    let report = |name: &str, ms: &[InjectionSpec], p: &AceProfile| {
        let part = partition_equivalence(ms, p);
        println!(
            "collapse/{name:<24} {:>9.2}x  ({} masks -> {} classes, {} dispatched)",
            part.collapse_ratio(),
            part.mask_count(),
            part.class_count(),
            part.dispatch_count()
        );
    };
    bench("collapse", "cold_40", || {
        CampaignRunner::new(&mafin, &program, StructureId::L2Data, 11, &cfg).run(&masks);
    });
    bench("collapse", "collapsed_40", || {
        CampaignRunner::new(&mafin, &program, StructureId::L2Data, 11, &cfg)
            .with_strategy(Strategy::Collapsed {
                profile: &profile,
                checkpoints: 0,
            })
            .run(&masks);
    });
    report("ratio_40", &masks, &profile);

    // The dense per-cycle sweep targets the register file, whose golden
    // trace has real inter-event gaps to sweep (FFT barely exercises L2).
    let prf_desc = difi::core::dispatch::structure_desc(&mafin, StructureId::IntRegFile)
        .expect("MaFIN models the register file");
    let dense = dense_sweep(&prf_profile, &prf_desc);
    if dense.is_empty() {
        println!("collapse/dense_sweep: no inter-event gaps found, skipped");
        return;
    }
    bench("collapse", "cold_dense", || {
        CampaignRunner::new(&mafin, &program, StructureId::IntRegFile, 11, &cfg).run(&dense);
    });
    bench("collapse", "collapsed_dense", || {
        CampaignRunner::new(&mafin, &program, StructureId::IntRegFile, 11, &cfg)
            .with_strategy(Strategy::Collapsed {
                profile: &prf_profile,
                checkpoints: 0,
            })
            .run(&dense);
    });
    report("ratio_dense", &dense, &prf_profile);
}

fn sweep() {
    // ISSUE 9: exhaustive sweeps (every bit of every entry × every cycle of
    // a window) are the repository shape the warm-start × collapse
    // compounding was built for. Measure the stack on a seed-shuffled
    // sample of a dense 4-cycle window instead of asserting the speedup.
    let mafin = MaFin::new();
    let program = build(Bench::Fft, Isa::X86e).expect("fft builds for x86e");
    let golden = golden_run(&mafin, &program, 100_000_000);
    let desc = difi::core::dispatch::structure_desc(&mafin, StructureId::IntRegFile)
        .expect("MaFIN models the register file");
    let mid = golden.cycles_measured() / 2;
    let mut masks = MaskGenerator::new(9).exhaustive_sweep(&desc, mid, 4);
    let space = masks.len();
    // The sweep order is seed-shuffled, so truncation keeps a uniform
    // sample of the window — enough to time, honest about coverage.
    masks.truncate(96);
    println!(
        "sweep/window: [{mid}, {}) — {space} sites, {} sampled",
        mid + 4,
        masks.len()
    );
    let logs = mafin.golden_residency(&program, &[StructureId::IntRegFile], 100_000_000);
    let profile = AceProfile::new(logs.into_iter().next().expect("int_prf traced"))
        .expect("int_prf data plane");
    let cfg = CampaignConfig {
        threads: 1,
        early_stop: true,
        golden_max_cycles: 100_000_000,
    };

    let mut entries: Vec<Json> = Vec::new();
    let mut record = |name: &str, runner: &CampaignRunner| {
        runner.run(&masks); // warm-up
        let mut best = std::time::Duration::MAX;
        for _ in 0..SAMPLES {
            let t0 = Instant::now();
            runner.run(&masks);
            best = best.min(t0.elapsed());
        }
        println!("sweep/{name:<24} {:>10.3} ms", best.as_secs_f64() * 1e3);
        entries.push(Json::obj(vec![
            ("strategy", Json::Str(name.to_string())),
            ("masks", Json::U64(masks.len() as u64)),
            ("best_ms", Json::F64(best.as_secs_f64() * 1e3)),
        ]));
    };
    let cold = CampaignRunner::new(&mafin, &program, StructureId::IntRegFile, 9, &cfg);
    record("cold", &cold);
    let warm = CampaignRunner::new(&mafin, &program, StructureId::IntRegFile, 9, &cfg)
        .with_strategy(Strategy::Checkpointed { checkpoints: 8 });
    record("checkpointed_k8", &warm);
    let compound = CampaignRunner::new(&mafin, &program, StructureId::IntRegFile, 9, &cfg)
        .with_strategy(Strategy::Collapsed {
            profile: &profile,
            checkpoints: 8,
        });
    record("collapsed_warm_k8", &compound);

    let part = partition_equivalence(&masks, &profile);
    println!(
        "sweep/collapse_ratio         {:>9.2}x  ({} masks -> {} classes, {} dispatched)",
        part.collapse_ratio(),
        part.mask_count(),
        part.class_count(),
        part.dispatch_count()
    );
    if EMIT_JSON.load(Ordering::Relaxed) {
        let doc = Json::obj(vec![
            ("samples", Json::U64(SAMPLES as u64)),
            ("window_start", Json::U64(mid)),
            ("window_len", Json::U64(4)),
            ("sweep_sites", Json::U64(space as u64)),
            ("collapse_ratio", Json::F64(part.collapse_ratio())),
            ("dispatched", Json::U64(part.dispatch_count() as u64)),
            ("entries", Json::Arr(entries)),
        ]);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json");
        std::fs::write(path, format!("{doc}\n")).expect("write BENCH_sweep.json");
        println!("sweep: wrote {path}");
    }
}

fn data_arrays() {
    let program = build(Bench::Fft, Isa::X86e).expect("fft builds for x86e");
    bench("data_arrays", "with_extension", || {
        OoOCore::new(mars_config(), &program).run(&[], &limits());
    });
    bench("data_arrays", "perf_only", || {
        OoOCore::new(difi::core::substrate::perf_only_config(), &program).run(&[], &limits());
    });
}

fn main() {
    let mut filter: Vec<String> = std::env::args().skip(1).collect();
    filter.retain(|a| {
        if a == "--json" {
            EMIT_JSON.store(true, Ordering::Relaxed);
            false
        } else {
            true
        }
    });
    let want = |group: &str| filter.is_empty() || filter.iter().any(|f| f == group);
    let groups: [(&str, fn()); 9] = [
        ("sim_throughput", sim_throughput),
        ("throughput", throughput),
        ("early_stop", early_stop),
        ("warm_start", warm_start),
        ("journaling", journaling),
        ("observability", observability),
        ("collapse", collapse),
        ("sweep", sweep),
        ("data_arrays", data_arrays),
    ];
    for (name, run) in groups {
        if want(name) {
            run();
        }
    }
}
