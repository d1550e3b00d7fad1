//! Differential study: the paper's core experiment in miniature.
//!
//! Injects the same number of transient faults into the L1D data arrays
//! while one benchmark runs on all three setups — MaFIN-x86, GeFIN-x86 and
//! GeFIN-ARM — and prints the per-injector classification side by side,
//! plus the runtime statistics the paper uses to explain divergences
//! (issued vs. committed loads, hypervisor escapes, hit rates).
//!
//! A third axis compares the *static* ACE-derived AVF (from the golden
//! run's residency trace, no injections) against each campaign's measured
//! non-Masked rate, for both the register file and the L1D data array.
//!
//! ```text
//! cargo run --release --example differential_study [benchmark] [injections]
//! ```

use difi::prelude::*;
use difi::uarch::pipeline::engine::EngineLimits;

fn main() -> Result<(), difi::util::Error> {
    let args: Vec<String> = std::env::args().collect();
    let bench = args
        .get(1)
        .and_then(|s| Bench::from_name(s))
        .unwrap_or(Bench::Qsort);
    let n: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(150);

    println!("differential L1D study — benchmark: {bench}, {n} injections per injector\n");
    let mut rows: Vec<(String, ClassCounts)> = Vec::new();
    let mut avf = AvfComparison::new();

    for dispatcher in setups::all() {
        let program = build(bench, dispatcher.isa())?;
        let golden = golden_run(dispatcher.as_ref(), &program, 200_000_000);
        let desc = difi::core::dispatch::structure_desc(dispatcher.as_ref(), StructureId::L1dData)
            .expect("L1D data array is injectable");
        let masks = MaskGenerator::new(1843).transient(&desc, golden.cycles_measured(), n);
        let log = CampaignRunner::new(
            dispatcher.as_ref(),
            &program,
            StructureId::L1dData,
            1843,
            &CampaignConfig::default(),
        )
        .run(&masks);
        let counts = classify_log(&log);
        rows.push((dispatcher.name().to_string(), counts));

        // Third axis: static AVF from one instrumented golden run, against
        // the measured non-Masked rate — register file and L1D data array.
        let traces = dispatcher.golden_residency(
            &program,
            &[StructureId::IntRegFile, StructureId::L1dData],
            200_000_000,
        );
        for trace in traces {
            let structure = trace.structure;
            if let Some(profile) = AceProfile::new(trace) {
                let s = profile.static_avf();
                let measured = match structure {
                    StructureId::L1dData => counts,
                    _ => {
                        // Measure the register file with a small campaign of
                        // its own so the comparison has both columns.
                        let rf_desc = difi::core::dispatch::structure_desc(
                            dispatcher.as_ref(),
                            StructureId::IntRegFile,
                        )
                        .expect("int PRF is injectable");
                        let rf_masks = MaskGenerator::new(1843).transient(
                            &rf_desc,
                            golden.cycles_measured(),
                            n,
                        );
                        let rf_log = CampaignRunner::new(
                            dispatcher.as_ref(),
                            &program,
                            StructureId::IntRegFile,
                            1843,
                            &CampaignConfig::default(),
                        )
                        .run(&rf_masks);
                        classify_log(&rf_log)
                    }
                };
                avf.push(
                    bench.name(),
                    dispatcher.name(),
                    structure.name(),
                    s.avf,
                    s.exact,
                    &measured,
                );
            }
        }

        // Runtime statistics (the paper's Remark 3 evidence).
        let mut core = match dispatcher.name() {
            "MaFIN-x86" => MaFin::new().boot(&program),
            "GeFIN-x86" => GeFin::x86().boot(&program),
            _ => GeFin::arm().boot(&program),
        };
        let run = core.run(
            &[],
            &EngineLimits {
                max_cycles: 200_000_000,
                early_stop: false,
                deadlock_window: 200_000,
            },
        );
        println!(
            "{:<10} issued/committed loads: {:>8}/{:<8} (ratio {:.2})  hypervisor calls: {:<6} l1d hit rates r/w: {:.3}/{:.3}",
            dispatcher.name(),
            run.stats.issued_loads,
            run.stats.committed_loads,
            run.stats.load_issue_ratio(),
            run.stats.hypervisor_calls,
            run.stats.l1d_read_hit_rate(),
            run.stats.l1d_write_hit_rate(),
        );
    }

    let fig = Figure {
        title: format!("\nL1D data-array faulty behaviour — {bench}"),
        rows: vec![FigureRow {
            benchmark: bench.name().to_string(),
            cells: rows,
        }],
    };
    println!("{}", fig.render());
    println!("{}", avf.render());
    println!("Static AVF counts every consumed bit as vulnerable, so it upper-bounds");
    println!("the measured rate; the gap is the machine's downstream masking.");
    println!();
    println!("The paper's Remark 3: MaFIN's L1D reads less vulnerable than GeFIN's,");
    println!("driven by store-through coherence, the hypervisor escape, and");
    println!("aggressive load issue with replay.");
    Ok(())
}
