//! The fault-model zoo: Table III beyond the headline transient study.
//!
//! The paper's tools "support fault injection experiments for multiple
//! faults in many different combinations … transient, intermittent and
//! permanent". This example exercises each model — plus the multi-bit and
//! multi-structure multiplicity options — on one benchmark/injector pair
//! and compares the resulting vulnerability.
//!
//! ```text
//! cargo run --release --example fault_model_zoo [injections]
//! ```

use difi::prelude::*;

fn main() -> Result<(), difi::util::Error> {
    let n: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(80);
    let gefin = GeFin::x86();
    let bench = Bench::Edge;
    let program = build(bench, gefin.isa())?;
    let golden = golden_run(&gefin, &program, 200_000_000);
    let l1d =
        difi::core::dispatch::structure_desc(&gefin, StructureId::L1dData).expect("injectable");
    let rf =
        difi::core::dispatch::structure_desc(&gefin, StructureId::IntRegFile).expect("injectable");
    println!(
        "fault-model zoo — {}, benchmark {bench}, {n} runs per model\n",
        gefin.name()
    );

    let mut gen = MaskGenerator::new(404);
    let campaigns: Vec<(&str, Vec<InjectionSpec>)> = vec![
        (
            "transient 1-bit (L1D)",
            gen.transient(&l1d, golden.cycles_measured(), n),
        ),
        (
            "intermittent 2k-cycle (L1D)",
            gen.intermittent(&l1d, golden.cycles_measured(), 2000, n),
        ),
        ("permanent stuck (L1D)", gen.permanent(&l1d, n)),
        (
            "transient 2-bit same entry (L1D)",
            gen.multi_bit_same_entry(&l1d, golden.cycles_measured(), 2, n),
        ),
        (
            "transient in L1D + RF together",
            gen.multi_structure(&[l1d, rf], golden.cycles_measured(), n),
        ),
    ];

    println!(
        "{:<34} {:>7} {:>6} {:>6} {:>6} {:>6} {:>6} {:>7}",
        "model", "masked", "sdc", "due", "tmout", "crash", "assrt", "vuln%"
    );
    for (name, masks) in campaigns {
        let log = CampaignRunner::new(
            &gefin,
            &program,
            StructureId::L1dData,
            404,
            &CampaignConfig::default(),
        )
        .run(&masks);
        let c = classify_log(&log);
        println!(
            "{:<34} {:>7} {:>6} {:>6} {:>6} {:>6} {:>6} {:>7.1}",
            name,
            c.masked,
            c.sdc,
            c.due,
            c.timeout,
            c.crash,
            c.assert_,
            100.0 * c.vulnerability()
        );
    }
    println!("\nExpected ordering: permanent ≥ intermittent ≥ multi-bit ≥ single transient.");
    Ok(())
}
