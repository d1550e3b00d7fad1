//! Protection trade-off: the decision the paper's introduction motivates.
//!
//! "Typical memory error detection and correction techniques can have a cost
//! … from 1% to 125% … the selection of the most appropriate protection
//! techniques depends on the required reliability levels and studies of its
//! inherent resiliency." This example measures per-structure vulnerability
//! on one injector and ranks the structures by how much a protection
//! mechanism (parity/ECC) would actually buy, normalizing by storage cost.
//!
//! ```text
//! cargo run --release --example protection_tradeoff [injections]
//! ```

use difi::prelude::*;

fn main() -> Result<(), difi::util::Error> {
    let n: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(120);
    let mafin = MaFin::new();
    let bench = Bench::Cjpeg;
    let program = build(bench, mafin.isa())?;
    let golden = golden_run(&mafin, &program, 200_000_000);
    println!(
        "protection study — injector {}, benchmark {bench}, {n} injections/structure\n",
        mafin.name()
    );

    let targets = [
        StructureId::IntRegFile,
        StructureId::FpRegFile,
        StructureId::IssueQueue,
        StructureId::LsqData,
        StructureId::L1dData,
        StructureId::L1iData,
        StructureId::L2Data,
        StructureId::Btb,
    ];
    let mut results: Vec<(StructureId, f64, u64)> = Vec::new();
    for s in targets {
        let desc = difi::core::dispatch::structure_desc(&mafin, s).expect("injectable");
        let masks = MaskGenerator::new(7 + s as u64).transient(&desc, golden.cycles_measured(), n);
        let log =
            CampaignRunner::new(&mafin, &program, s, 7, &CampaignConfig::default()).run(&masks);
        let counts = classify_log(&log);
        results.push((s, counts.vulnerability(), desc.total_bits()));
    }

    // Risk proxy: vulnerability × storage bits (how many "dangerous" bits a
    // parity/ECC scheme would have to cover to catch the same failures).
    results.sort_by(|a, b| {
        (b.1 * b.2 as f64)
            .partial_cmp(&(a.1 * a.2 as f64))
            .expect("no NaN")
    });
    println!(
        "{:<12} {:>8} {:>12} {:>14}",
        "structure", "vuln%", "bits", "risk (v×bits)"
    );
    for (s, v, bits) in &results {
        println!(
            "{:<12} {:>7.1} {:>12} {:>14.0}",
            s.name(),
            100.0 * v,
            bits,
            v * *bits as f64
        );
    }
    println!("\nReading: protect the top rows first — the paper's point that");
    println!("accurate per-structure vulnerability (not ACE over-estimates)");
    println!("prevents over-provisioned protection.");
    Ok(())
}
