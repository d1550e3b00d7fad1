//! Quickstart: inject transient faults into the integer register file while
//! the `sha` benchmark runs on MaFIN (the MARSS-based injector), then
//! classify the outcomes with the paper's six-class taxonomy.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use difi::prelude::*;

fn main() -> Result<(), difi::util::Error> {
    // 1. Pick an injector (MaFIN-x86) and build a benchmark for its ISA.
    let mafin = MaFin::new();
    let program = build(Bench::Sha, mafin.isa())?;
    println!(
        "benchmark: {} ({} bytes code, {} bytes data)",
        program.name,
        program.code.len(),
        program.data.len()
    );

    // 2. Fault-free golden run: reference output + the cycle count that
    //    sizes the 3× timeout and the sampling population.
    let golden = golden_run(&mafin, &program, 100_000_000);
    println!(
        "golden run: {} cycles, {} instructions",
        golden.cycles_measured(),
        golden.instructions.unwrap_or(0)
    );

    // 3. Generate a masks repository: 200 single-bit transients in the
    //    integer physical register file. (The paper's statistically sized
    //    campaigns use 2000 — see the `figures` binary.)
    let desc = difi::core::dispatch::structure_desc(&mafin, StructureId::IntRegFile)
        .expect("register file is injectable");
    let n_stat = MaskGenerator::required_samples(&desc, golden.cycles_measured(), 0.99, 0.03);
    println!("statistically required samples at 99%/3%: {n_stat} (running 200 for speed)");
    let masks = MaskGenerator::new(2015).transient(&desc, golden.cycles_measured(), 200);

    // 4. Run the injection campaign (parallel, with the paper's early-stop
    //    optimizations) and classify.
    let log = CampaignRunner::new(
        &mafin,
        &program,
        StructureId::IntRegFile,
        2015,
        &CampaignConfig::default(),
    )
    .run(&masks);
    let counts = classify_log(&log);

    println!("\nfault-effect classification ({} runs):", counts.total());
    for class in Outcome::ALL {
        println!(
            "  {:<8} {:>4}  ({:>5.1}%)",
            class.name(),
            counts.get(class),
            100.0 * counts.fraction(class)
        );
    }
    println!(
        "\nvulnerability (non-masked fraction): {:.2}%",
        100.0 * counts.vulnerability()
    );
    let ci = counts.vulnerability_interval(0.99);
    println!(
        "99% confidence interval: [{:.2}%, {:.2}%]",
        100.0 * ci.lo,
        100.0 * ci.hi
    );
    Ok(())
}
