//! Regenerates every table and figure of the paper (see `USAGE`).
//!
//! The paper's campaigns use 2000 injections per cell; `--injections`
//! defaults to a laptop-scale 100 (the printed Wilson intervals make the
//! wider error margins explicit). Each cell runs the fastest strategy stack
//! proven to classify every mask as a cold campaign does ([`run_cell`]). A
//! malformed command line prints `error: …` and the usage on stderr and
//! exits with status 2.

use difi::prelude::*;
use difi::uarch::pipeline::engine::EngineLimits;
use difi::uarch::pipeline::OoOCore;
use std::time::Instant;

const USAGE: &str = "\
figures <command> [--injections N] [--seed S] [--benches a,b,…] [--out DIR]

commands:
  fig2 fig3 fig4 fig5 fig6   one characterization figure
  figs                       all five figures (Figs. 2–6)
  table2 table3 table4       the configuration/fault-model/structure tables
  sampling                   §IV.A statistical sampling numbers
  remarks                    runtime statistics behind Remarks 1–11
  all                        everything above
";

struct Opts {
    injections: u64,
    seed: u64,
    benches: Vec<Bench>,
    out: Option<std::path::PathBuf>,
}

/// Prints `error: <msg>` and the usage on stderr, then exits with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprint!("{USAGE}");
    std::process::exit(2);
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        injections: 100,
        seed: 2015,
        benches: Bench::ALL.to_vec(),
        out: None,
    };
    let number = |flag: &str, v: &str| -> u64 {
        v.parse()
            .unwrap_or_else(|_| usage_error(&format!("{flag}: '{v}' is not a number")))
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !["--injections", "--seed", "--benches", "--out"].contains(&flag.as_str()) {
            usage_error(&format!("{flag}: unknown option"));
        }
        let value = it
            .next()
            .unwrap_or_else(|| usage_error(&format!("{flag}: missing value")));
        match flag.as_str() {
            "--injections" => o.injections = number(flag, value),
            "--seed" => o.seed = number(flag, value),
            "--benches" => {
                o.benches = value
                    .split(',')
                    .map(|s| {
                        Bench::from_name(s).unwrap_or_else(|| {
                            usage_error(&format!("--benches: unknown benchmark '{s}'"))
                        })
                    })
                    .collect();
            }
            _ => o.out = Some(value.into()),
        }
    }
    o
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    let opts = parse_opts(&args[1.min(args.len())..]);
    match cmd {
        "fig2" => figure(
            StructureId::IntRegFile,
            "Fig. 2 — integer physical register file",
            &opts,
        ),
        "fig3" => figure(
            StructureId::L1dData,
            "Fig. 3 — L1D cache (data arrays)",
            &opts,
        ),
        "fig4" => figure(
            StructureId::L1iData,
            "Fig. 4 — L1I cache (instruction arrays)",
            &opts,
        ),
        "fig5" => figure(
            StructureId::L2Data,
            "Fig. 5 — L2 cache (data arrays)",
            &opts,
        ),
        "fig6" => figure(
            StructureId::LsqData,
            "Fig. 6 — Load/Store Queue (data field)",
            &opts,
        ),
        "figs" => {
            for (s, title) in setups::figure_structures() {
                figure(s, title, &opts);
            }
        }
        "table2" => table2(),
        "table3" => table3(),
        "table4" => table4(),
        "sampling" => sampling(),
        "remarks" => remarks(&opts),
        "all" => {
            table2();
            table3();
            table4();
            sampling();
            for (s, title) in setups::figure_structures() {
                figure(s, title, &opts);
            }
            remarks(&opts);
        }
        other => usage_error(&format!("unknown command {other}")),
    }
}

/// Runs one characterization figure: `opts.injections` transient faults per
/// (benchmark, injector) cell into `structure`.
fn figure(structure: StructureId, title: &str, opts: &Opts) {
    let t0 = Instant::now();
    let mut rows = Vec::new();
    for bench in &opts.benches {
        let mut cells = Vec::new();
        for dispatcher in setups::all() {
            let program = build(*bench, dispatcher.isa()).expect("assembles");
            let golden = golden_run(dispatcher.as_ref(), &program, 200_000_000);
            let desc = difi::core::dispatch::structure_desc(dispatcher.as_ref(), structure)
                .expect("figure structures are injectable");
            let masks = MaskGenerator::new(opts.seed ^ (*bench as u64) << 8 ^ structure as u64)
                .transient(&desc, golden.cycles_measured(), opts.injections);
            let log = run_cell(dispatcher.as_ref(), &program, structure, opts.seed, &masks);
            if let Some(dir) = &opts.out {
                std::fs::create_dir_all(dir).expect("create out dir");
                let path = dir.join(format!(
                    "{}_{}_{}.jsonl",
                    structure.name(),
                    bench.name(),
                    dispatcher.name()
                ));
                log.save(&path).expect("save log");
            }
            cells.push((dispatcher.name().to_string(), classify_log(&log)));
        }
        rows.push(FigureRow {
            benchmark: bench.name().to_string(),
            cells,
        });
    }
    let fig = Figure {
        title: title.to_string(),
        rows,
    };
    println!("\n{}", fig.render());
    // The paper's average-case deltas.
    let avg = fig.averages();
    let vuln = |name: &str| {
        avg.iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| 100.0 * c.vulnerability())
            .unwrap_or(0.0)
    };
    let (m, gx, ga) = (vuln("MaFIN-x86"), vuln("GeFIN-x86"), vuln("GeFIN-ARM"));
    println!(
        "avg vulnerability: MaFIN-x86 {:.2}%  GeFIN-x86 {:.2}%  GeFIN-ARM {:.2}%",
        m, gx, ga
    );
    println!(
        "deltas: |MaFIN-x86 − GeFIN-x86| = {:.2} pp   |GeFIN-x86 − GeFIN-ARM| = {:.2} pp",
        (m - gx).abs(),
        (gx - ga).abs()
    );
    println!(
        "[{} injections/cell, elapsed {:?}]",
        opts.injections,
        t0.elapsed()
    );
}

/// Upper bound on the pooled golden cores of every characterization cell:
/// the pool holds one per worker, at most this many.
const CHECKPOINTS: usize = 8;

/// One characterization cell: `masks` into `structure` on `dispatcher`.
/// Equivalence collapsing with representatives forked from the golden-core
/// pool where the structure has a golden residency profile (all five figure
/// structures do), forked runs where it has none. Either way every mask classifies as it would in a
/// [`Strategy::Cold`] campaign (`tests/collapse_equivalence.rs`,
/// `tests/warm_start_equivalence.rs`); the log also carries each run's
/// collapse provenance.
fn run_cell(
    dispatcher: &dyn InjectorDispatcher,
    program: &Program,
    structure: StructureId,
    seed: u64,
    masks: &[InjectionSpec],
) -> CampaignLog {
    let cfg = CampaignConfig::default();
    let profile = dispatcher
        .golden_residency(program, &[structure], cfg.golden_max_cycles)
        .pop()
        .and_then(AceProfile::new);
    let strategy = match &profile {
        Some(profile) => Strategy::Collapsed {
            profile,
            checkpoints: CHECKPOINTS,
        },
        None => Strategy::Checkpointed {
            checkpoints: CHECKPOINTS,
        },
    };
    CampaignRunner::new(dispatcher, program, structure, seed, &cfg)
        .with_strategy(strategy)
        .run(masks)
}

fn table2() {
    println!("\nTABLE II — simulator configurations");
    type ConfigCell = Box<dyn Fn(&difi::uarch::CoreConfig) -> String>;
    let rows: Vec<(&str, ConfigCell)> = vec![
        ("int PRF", Box::new(|c| c.int_prf.to_string())),
        ("fp PRF", Box::new(|c| c.fp_prf.to_string())),
        ("issue queue", Box::new(|c| c.iq_entries.to_string())),
        ("ROB", Box::new(|c| c.rob_entries.to_string())),
        ("LSQ", Box::new(|c| format!("{:?}", c.lsq))),
        ("int ALUs", Box::new(|c| c.int_alus.to_string())),
        ("mul/div", Box::new(|c| c.mul_div_units.to_string())),
        ("FP units", Box::new(|c| c.fp_units.to_string())),
        ("mem ports", Box::new(|c| c.mem_ports.to_string())),
        (
            "L1 (each)",
            Box::new(|c| {
                format!(
                    "{} KB {}x{}",
                    c.l1d.capacity() / 1024,
                    c.l1d.sets,
                    c.l1d.ways
                )
            }),
        ),
        (
            "L2",
            Box::new(|c| format!("{} KB {}x{}", c.l2.capacity() / 1024, c.l2.sets, c.l2.ways)),
        ),
        ("BTB", Box::new(|c| format!("{:?}", c.btb))),
        ("RAS", Box::new(|c| c.ras_depth.to_string())),
        (
            "predictor chooser",
            Box::new(|c| format!("{:?}", c.predictor.chooser_index)),
        ),
    ];
    let configs = [
        ("MARSS/x86", mars_config()),
        ("Gem5/x86", gem_config(Isa::X86e)),
        ("Gem5/ARM", gem_config(Isa::Arme)),
    ];
    print!("{:<20}", "parameter");
    for (n, _) in &configs {
        print!("{n:<34}");
    }
    println!();
    for (name, get) in &rows {
        print!("{name:<20}");
        for (_, c) in &configs {
            print!("{:<34}", get(c));
        }
        println!();
    }
}

fn table3() {
    println!("\nTABLE III — fault models (all supported; see examples/fault_model_zoo.rs)");
    println!("  transient    bit flipped at an arbitrary (random or directed) cycle/instruction");
    println!("  intermittent bit stuck at 0/1 from a start cycle for an arbitrary window");
    println!("  permanent    bit stuck at 0/1 for the whole run");
    println!("  multiplicity multiple bits per entry, multiple entries, multiple structures");
}

fn table4() {
    println!("\nTABLE IV — injectable structures per injector");
    for dispatcher in setups::all() {
        println!("\n{}:", dispatcher.name());
        println!(
            "  {:<12} {:>9} {:>7} {:>12}",
            "structure", "entries", "bits", "total bits"
        );
        for d in dispatcher.structures() {
            println!(
                "  {:<12} {:>9} {:>7} {:>12}",
                d.id.name(),
                d.entries,
                d.bits,
                d.total_bits()
            );
        }
    }
}

fn sampling() {
    use difi::util::stats::{achieved_error_margin, sample_size};
    println!("\n§IV.A — statistical fault sampling (Leveugle et al. [20])");
    let pop = 32u64 * 1024 * 8 * 10_000_000; // representative population
    println!(
        "  99% confidence, 3% error margin → {} injections (paper: 1843)",
        sample_size(pop, 0.99, 0.03)
    );
    println!(
        "  99% confidence, 5% error margin → {} injections (paper: 663)",
        sample_size(pop, 0.99, 0.05)
    );
    println!(
        "  2000 injections → {:.2}% error margin (paper: 2.88%)",
        100.0 * achieved_error_margin(pop, 0.99, 2000)
    );
}

fn remarks(opts: &Opts) {
    println!("\nRuntime statistics behind Remarks 1–11 (fault-free runs)");
    println!(
        "{:<10} {:<10} {:>7} {:>11} {:>7} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "injector",
        "bench",
        "ipc",
        "ld iss/com",
        "replay",
        "mispred%",
        "l1d rh%",
        "l1d wh%",
        "l1i repl",
        "hyp"
    );
    for dispatcher in setups::all() {
        for bench in &opts.benches {
            let program = build(*bench, dispatcher.isa()).expect("assembles");
            let mut core = boot(dispatcher.name(), &program);
            let run = core.run(
                &[],
                &EngineLimits {
                    max_cycles: 200_000_000,
                    early_stop: false,
                    deadlock_window: 200_000,
                },
            );
            let s = run.stats;
            println!(
                "{:<10} {:<10} {:>7.2} {:>11} {:>7} {:>8.2} {:>8.1} {:>8.1} {:>8} {:>8}",
                dispatcher.name(),
                bench.name(),
                s.ipc(),
                format!("{:.2}", s.load_issue_ratio()),
                s.load_replays,
                100.0 * s.mispredict_rate(),
                100.0 * s.l1d_read_hit_rate(),
                100.0 * s.l1d_write_hit_rate(),
                s.l1i.replacements,
                s.hypervisor_calls,
            );
        }
    }
}

fn boot(name: &str, program: &Program) -> OoOCore {
    match name {
        "MaFIN-x86" => MaFin::new().boot(program),
        "GeFIN-x86" => GeFin::x86().boot(program),
        _ => GeFin::arm().boot(program),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use difi::core::dispatch::structure_desc;

    #[test]
    fn figure_cells_classify_every_mask_as_a_cold_campaign() {
        for dispatcher in [MaFin::new(), GeFin::arm()] {
            let program = build(Bench::Fft, dispatcher.isa()).expect("assembles");
            let golden = golden_run(&dispatcher, &program, 200_000_000);
            for (structure, title) in setups::figure_structures() {
                let desc = structure_desc(&dispatcher, structure).expect("injectable");
                let masks = MaskGenerator::new(2015).transient(&desc, golden.cycles_measured(), 20);
                let cell = run_cell(&dispatcher, &program, structure, 2015, &masks);
                assert!(
                    cell.runs.iter().all(|r| r.provenance.is_some()),
                    "{title} on {} ran without collapsing",
                    dispatcher.name()
                );
                let cold = CampaignRunner::new(
                    &dispatcher,
                    &program,
                    structure,
                    2015,
                    &CampaignConfig::default(),
                )
                .run(&masks);
                let verdicts = |log: &CampaignLog| -> Vec<Outcome> {
                    let c = Classifier::from_golden(&log.golden);
                    log.runs.iter().map(|r| c.classify(&r.result)).collect()
                };
                assert_eq!(
                    verdicts(&cell),
                    verdicts(&cold),
                    "{title} on {}",
                    dispatcher.name()
                );
            }
        }
    }
}
