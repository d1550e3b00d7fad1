//! Executable checks of the *mechanisms* behind the paper's Remarks — the
//! qualitative divergences between MaFIN and GeFIN that the differential
//! study attributes to simulator internals.

use difi::prelude::*;
use difi::uarch::pipeline::engine::EngineLimits;

fn limits() -> EngineLimits {
    EngineLimits {
        max_cycles: 200_000_000,
        early_stop: false,
        deadlock_window: 200_000,
    }
}

/// Remark 3 (mechanism 1): "Load instructions are issued as soon as
/// possible and before aliasing with earlier stores is determined" — under
/// a store whose *address* resolves late, MaFIN speculatively issues the
/// younger load, detects the ordering violation when the store resolves,
/// and replays; GeFIN waits and never replays. The replayed issues are why
/// MaFIN's issued/committed load ratio exceeds GeFIN's.
#[test]
fn remark3_load_issue_ratio_diverges() {
    use difi::isa::asm::Asm;
    use difi::isa::uop::{Cond, IntOp, Width};
    // Each iteration: a division produces the store's *address offset*
    // (always zero, but the pipeline cannot know that), then a store to
    // [r4 + off] followed immediately by a load of [r4].
    let mut a = Asm::new(Isa::X86e);
    let buf = a.bss(64, 8);
    a.li(4, buf as i64);
    a.li(6, 7);
    a.li(7, 9);
    a.li(5, 0); // i
    a.li(9, 0); // acc
    let top = a.here_label();
    a.op(IntOp::DivU, 8, 6, 7); // slow: 7/9 = 0 → store offset
    a.op(IntOp::Add, 8, 4, 8); // store address, late-resolving
    a.store(Width::B8, 5, 8, 0);
    a.load(Width::B8, false, 10, 4, 0); // aliases the store above
    a.op(IntOp::Add, 9, 9, 10);
    a.opi(IntOp::Add, 5, 5, 1);
    a.bri(Cond::LtS, 5, 200, top);
    a.write_int(9);
    a.exit(0);
    let px = a.finish("alias").expect("assembles");

    let mars = MaFin::new().boot(&px).run(&[], &limits());
    let gem = GeFin::x86().boot(&px).run(&[], &limits());
    assert_eq!(mars.output, gem.output, "replay preserves correctness");
    assert!(
        mars.stats.load_replays > 0,
        "aggressive issue must hit ordering violations here"
    );
    assert_eq!(gem.stats.load_replays, 0, "conservative loads never replay");
    assert!(
        mars.stats.load_issue_ratio() > gem.stats.load_issue_ratio(),
        "replays inflate MaFIN's issued/committed ratio ({:.3} vs {:.3})",
        mars.stats.load_issue_ratio(),
        gem.stats.load_issue_ratio()
    );
}

/// Remark 3 (mechanism 2): kernel services escape to the hypervisor on
/// MaFIN (cache-bypassing accesses) and stay in-cache on GeFIN.
#[test]
fn remark3_hypervisor_escape_only_on_mafin() {
    let bench = Bench::Smooth;
    let p = build(bench, Isa::X86e).expect("assembles");
    let mars = MaFin::new().boot(&p).run(&[], &limits());
    let gem = GeFin::x86().boot(&p).run(&[], &limits());
    assert!(mars.stats.hypervisor_calls > 0);
    assert_eq!(gem.stats.hypervisor_calls, 0);
    assert_eq!(mars.output, gem.output, "same architectural results");
}

/// Remark 3 (consequence): a fault in a *clean* L1D line is masked under
/// MaFIN's store-through coherence once the line is evicted, but the same
/// dirty-line fault propagates under GeFIN's strict write-back hierarchy.
#[test]
fn remark3_clean_line_masking_differs() {
    use difi::uarch::cache::CacheConfig;
    use difi::uarch::mem::{MainMemory, MemPolicy, MemSystem};
    let image: Vec<u8> = (0..1 << 20).map(|i| (i % 251) as u8).collect();
    let memory = || {
        let mut mem = MainMemory::new(image.len() as u64);
        mem.write(0, &image);
        mem
    };
    // MARSS-like: store-through.
    let mut marss = MemSystem::with_configs(
        memory(),
        MemPolicy {
            store_through_to_memory: true,
            ..Default::default()
        },
        CacheConfig::L1,
        CacheConfig::L1,
        CacheConfig::L2,
    );
    let mut gem5 = MemSystem::with_configs(
        memory(),
        MemPolicy::default(),
        CacheConfig::L1,
        CacheConfig::L1,
        CacheConfig::L2,
    );
    for sys in [&mut marss, &mut gem5] {
        // Dirty a line, inject, evict, reload.
        sys.write_data(0x0, &[0xAA; 8]);
        let line = sys.l1d.lookup(0x0).expect("resident");
        sys.l1d.inject_data_flip(line as u64, 0);
        let mut b = [0u8; 1];
        for i in 1..=4u64 {
            sys.read_data(i * 8192, &mut b); // evict set 0
        }
        sys.read_data(0x0, &mut b);
        // Both propagate for dirty lines (the writeback carries the fault).
        assert_eq!(b[0], 0xAB, "dirty-line fault propagates in both");
    }
    // Clean lines: only the write-back hierarchy keeps the fault alive
    // (in store-through mode memory still has the good copy, and clean
    // evictions drop the faulty array contents).
    let mut marss = MemSystem::new(
        memory(),
        MemPolicy {
            store_through_to_memory: true,
            ..Default::default()
        },
    );
    let mut b = [0u8; 1];
    marss.read_data(0x0, &mut b);
    let clean = b[0];
    let line = marss.l1d.lookup(0x0).expect("resident");
    marss.l1d.inject_data_flip(line as u64, 0);
    for i in 1..=4u64 {
        marss.read_data(i * 8192, &mut b);
    }
    marss.read_data(0x0, &mut b);
    assert_eq!(
        b[0], clean,
        "clean-line fault dies on eviction (MaFIN masking)"
    );
}

/// Remark 1: the LSQ data plane holds 32 entries (loads + stores) on MaFIN
/// but only the 16 store-queue entries on GeFIN, so load data is only
/// corruptible on MaFIN.
#[test]
fn remark1_lsq_geometry() {
    let m = difi::core::dispatch::structure_desc(&MaFin::new(), StructureId::LsqData).unwrap();
    let g = difi::core::dispatch::structure_desc(&GeFin::x86(), StructureId::LsqData).unwrap();
    assert_eq!(m.entries, 32);
    assert_eq!(g.entries, 16);
}

/// Remark 8: for the same L1I instruction-array faults, MaFIN's non-masked
/// outcomes are dominated by Asserts while GeFIN's are dominated by
/// Crashes.
#[test]
fn remark8_assert_vs_crash_composition() {
    let bench = Bench::Fft;
    let mut mars_counts = ClassCounts::default();
    let mut gem_counts = ClassCounts::default();
    for (dispatcher, counts) in [
        (
            Box::new(MaFin::new()) as Box<dyn InjectorDispatcher>,
            &mut mars_counts,
        ),
        (Box::new(GeFin::x86()), &mut gem_counts),
    ] {
        let program = build(bench, dispatcher.isa()).expect("assembles");
        let golden = golden_run(dispatcher.as_ref(), &program, 200_000_000);
        let desc = difi::core::dispatch::structure_desc(dispatcher.as_ref(), StructureId::L1iData)
            .unwrap();
        // Directed at the code-resident lines early in the run so the
        // corrupted instructions are refetched.
        let mut masks = Vec::new();
        let mut id = 0;
        for line in 0..16u64 {
            for bit in [40u32, 200, 360] {
                masks.push(InjectionSpec::single_transient(
                    id,
                    StructureId::L1iData,
                    line,
                    bit,
                    golden.cycles_measured() / 10,
                ));
                id += 1;
            }
        }
        let _ = desc;
        let log = CampaignRunner::new(
            dispatcher.as_ref(),
            &program,
            StructureId::L1iData,
            0,
            &CampaignConfig::default(),
        )
        .run(&masks);
        *counts = classify_log(&log);
    }
    assert!(
        mars_counts.assert_ > mars_counts.crash,
        "MaFIN: asserts dominate crashes for L1I faults ({} vs {})",
        mars_counts.assert_,
        mars_counts.crash
    );
    assert!(
        gem_counts.crash > gem_counts.assert_,
        "GeFIN: crashes dominate asserts for L1I faults ({} vs {})",
        gem_counts.crash,
        gem_counts.assert_
    );
}

/// Remark 6: the two front-ends really differ — same workload, different
/// misprediction counts (chooser indexing + BTB organization).
#[test]
fn remark6_front_ends_differ() {
    let p = build(Bench::Qsort, Isa::X86e).expect("assembles");
    let mars = MaFin::new().boot(&p).run(&[], &limits());
    let gem = GeFin::x86().boot(&p).run(&[], &limits());
    assert_ne!(
        mars.stats.predictor.mispredicts, gem.stats.predictor.mispredicts,
        "distinct predictor organizations must behave differently"
    );
}
