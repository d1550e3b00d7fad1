//! End-to-end pipeline validation: the detailed out-of-order core must be
//! architecturally equivalent to the functional emulator on fault-free runs,
//! across both personalities (MARSS-flavoured and gem5-flavoured) and both
//! ISAs, and must produce the expected divergent behaviours under faults.

use difi_isa::asm::{Asm, FCond};
use difi_isa::emu::Emulator;
use difi_isa::program::{Isa, Program};
use difi_isa::uop::{Cond, IntOp, Width};
use difi_uarch::cache::CacheConfig;
use difi_uarch::fault::{FaultKind, StructureId};
use difi_uarch::pipeline::engine::{EarlyWhy, EngineFault, EngineLimits};
use difi_uarch::pipeline::{BtbOrg, CoreConfig, CorePolicy, LsqOrg, OoOCore, SimExit};
use difi_uarch::predictor::TournamentConfig;
use difi_workloads::{build, Bench};

fn mars_cfg() -> CoreConfig {
    CoreConfig {
        int_prf: 256,
        fp_prf: 256,
        iq_entries: 32,
        rob_entries: 64,
        lsq: LsqOrg::Unified { entries: 32 },
        width: 4,
        fetch_bytes: 16,
        int_alus: 2,
        mul_div_units: 1,
        fp_units: 2,
        mem_ports: 4,
        ras_depth: 16,
        predictor: TournamentConfig::MARSS,
        btb: BtbOrg::MarssSplit,
        l1i: CacheConfig::L1,
        l1d: CacheConfig::L1,
        l2: CacheConfig::L2,
        policy: CorePolicy {
            aggressive_loads: true,
            hypervisor_kernel: true,
            store_through: true,
            decode_fault_asserts: true,
            payload_error_asserts: true,
            rich_asserts: true,
            prefetchers: true,
            model_cache_data: true,
        },
    }
}

fn gem_cfg() -> CoreConfig {
    CoreConfig {
        int_prf: 256,
        fp_prf: 128,
        iq_entries: 32,
        rob_entries: 40,
        lsq: LsqOrg::Split {
            loads: 16,
            stores: 16,
        },
        width: 4,
        fetch_bytes: 16,
        int_alus: 6,
        mul_div_units: 2,
        fp_units: 4,
        mem_ports: 2,
        ras_depth: 16,
        predictor: TournamentConfig::GEM5,
        btb: BtbOrg::Gem5Unified,
        l1i: CacheConfig::L1,
        l1d: CacheConfig::L1,
        l2: CacheConfig::L2,
        policy: CorePolicy {
            aggressive_loads: false,
            hypervisor_kernel: false,
            store_through: false,
            decode_fault_asserts: false,
            payload_error_asserts: false,
            rich_asserts: false,
            prefetchers: false,
            model_cache_data: true,
        },
    }
}

fn limits() -> EngineLimits {
    EngineLimits {
        max_cycles: 5_000_000,
        early_stop: false,
        deadlock_window: 100_000,
    }
}

fn cfg_for(isa: Isa, marslike: bool) -> CoreConfig {
    if marslike {
        assert_eq!(isa, Isa::X86e);
        mars_cfg()
    } else {
        gem_cfg()
    }
}

/// Runs `build` through the emulator and through the pipeline(s) and checks
/// full architectural equivalence (output, exit, exception counts).
fn check_equivalence(build: impl Fn(&mut Asm)) {
    for (isa, marslike) in [(Isa::X86e, true), (Isa::X86e, false), (Isa::Arme, false)] {
        let mut a = Asm::new(isa);
        build(&mut a);
        let prog = a.finish("equiv").expect("assembles");
        let golden = Emulator::new(&prog).run(10_000_000);
        let mut core = OoOCore::new(cfg_for(isa, marslike), &prog);
        let run = core.run(&[], &limits());
        let label = format!("isa={isa} marslike={marslike}");
        match (&run.exit, &golden.exit) {
            (SimExit::Exited(a), difi_isa::emu::EmuExit::Exited(b)) => {
                assert_eq!(a, b, "exit codes differ ({label})")
            }
            other => panic!("exit mismatch ({label}): {other:?}"),
        }
        assert_eq!(run.output, golden.output, "output mismatch ({label})");
        assert_eq!(
            run.exceptions, golden.exceptions,
            "exception count mismatch ({label})"
        );
        assert_eq!(
            run.stats.committed_instructions, golden.instructions,
            "instruction count mismatch ({label})"
        );
    }
}

#[test]
fn equiv_arithmetic_loop() {
    check_equivalence(|a| {
        a.li(4, 0);
        a.li(5, 1);
        let top = a.here_label();
        a.op(IntOp::Add, 4, 4, 5);
        a.op(IntOp::Mul, 6, 5, 5);
        a.op(IntOp::Add, 4, 4, 6);
        a.opi(IntOp::Add, 5, 5, 1);
        a.bri(Cond::LeS, 5, 60, top);
        a.write_int(4);
        a.exit(0);
    });
}

#[test]
fn equiv_memory_streaming() {
    check_equivalence(|a| {
        let buf = a.bss(512, 8);
        a.li(4, buf as i64); // base
        a.li(5, 0); // i
        let fill = a.here_label();
        a.op(IntOp::Mul, 6, 5, 5);
        a.op(IntOp::Shl, 7, 5, 5); // some junk values
        a.op(IntOp::Add, 6, 6, 7);
        a.op(IntOp::Add, 7, 4, 5);
        a.store(Width::B1, 6, 7, 0);
        a.opi(IntOp::Add, 5, 5, 1);
        a.bri(Cond::LtS, 5, 512, fill);
        // Sum the buffer.
        a.li(5, 0);
        a.li(6, 0);
        let sum = a.here_label();
        a.op(IntOp::Add, 7, 4, 5);
        a.load(Width::B1, false, 8, 7, 0);
        a.op(IntOp::Add, 6, 6, 8);
        a.opi(IntOp::Add, 5, 5, 1);
        a.bri(Cond::LtS, 5, 512, sum);
        a.write_int(6);
        a.exit(0);
    });
}

#[test]
fn equiv_store_load_aliasing_pressure() {
    // Rapid same-address store→load chains: stresses aggressive load issue,
    // forwarding, and replay (the Remark 3 machinery).
    check_equivalence(|a| {
        let slot = a.bss(64, 8);
        a.li(4, slot as i64);
        a.li(5, 0); // i
        a.li(6, 0); // acc
        let top = a.here_label();
        a.store(Width::B8, 5, 4, 0);
        a.load(Width::B8, false, 7, 4, 0); // immediately reload
        a.op(IntOp::Add, 6, 6, 7);
        a.store(Width::B8, 6, 4, 8);
        a.load(Width::B8, false, 8, 4, 8);
        a.op(IntOp::Xor, 6, 6, 8); // acc ^= acc → 0, then rebuilt
        a.op(IntOp::Add, 6, 6, 7);
        a.opi(IntOp::Add, 5, 5, 1);
        a.bri(Cond::LtS, 5, 100, top);
        a.write_int(6);
        a.exit(0);
    });
}

#[test]
fn equiv_partial_overlap_store_load() {
    // Byte store into a word then word load (partial overlap → retry path).
    check_equivalence(|a| {
        let slot = a.bss(16, 8);
        a.li(4, slot as i64);
        a.li(5, 0x1111_2222);
        a.store(Width::B4, 5, 4, 0);
        a.li(6, 0xAB);
        a.store(Width::B1, 6, 4, 1);
        a.load(Width::B4, false, 7, 4, 0);
        a.write_int(7);
        a.exit(0);
    });
}

#[test]
fn equiv_calls_and_recursion() {
    check_equivalence(|a| {
        // Recursive triangular sum: f(n) = n + f(n-1), f(0) = 0.
        let f = a.label();
        a.li(0, 12);
        a.call(f);
        a.write_int(0);
        a.exit(0);
        a.bind(f);
        let base = a.label();
        a.bri(Cond::Eq, 0, 0, base);
        a.save_lr();
        a.push(8);
        a.mov(8, 0);
        a.opi(IntOp::Sub, 0, 0, 1);
        a.call(f);
        a.op(IntOp::Add, 0, 0, 8);
        a.pop(8);
        a.restore_lr();
        a.ret();
        a.bind(base);
        a.li(0, 0);
        a.ret();
    });
}

#[test]
fn equiv_floating_point_kernel() {
    check_equivalence(|a| {
        let data = a.data_f64s(&[1.25, -2.5, 3.75, 10.0, 0.5, 7.25, -1.0, 4.0]);
        a.li(4, data as i64);
        a.li(5, 0);
        a.fli(0, 0.0); // acc
        let top = a.here_label();
        a.op(IntOp::Shl, 6, 5, 5); // careful: shl by r5 — replaced below
        a.opi(IntOp::Mul, 6, 5, 8);
        a.op(IntOp::Add, 6, 4, 6);
        a.fload(1, 6, 0);
        a.falu(difi_isa::uop::FpOp::Mul, 2, 1, 1);
        a.falu(difi_isa::uop::FpOp::Add, 0, 0, 2);
        a.opi(IntOp::Add, 5, 5, 1);
        a.bri(Cond::LtS, 5, 8, top);
        a.funary(difi_isa::uop::FpOp::Sqrt, 0, 0);
        a.fli(3, 100.0);
        a.falu(difi_isa::uop::FpOp::Mul, 0, 0, 3);
        a.cvt_fi(7, 0);
        a.write_int(7);
        let skip = a.label();
        a.fbr(FCond::Gt, 0, 3, skip);
        a.li(8, 77);
        a.write_int(8);
        a.bind(skip);
        a.exit(0);
    });
}

#[test]
fn equiv_branchy_collatz() {
    check_equivalence(|a| {
        a.li(4, 27); // n
        a.li(5, 0); // steps
        let top = a.here_label();
        let done = a.label();
        let odd = a.label();
        let next = a.label();
        a.bri(Cond::Eq, 4, 1, done);
        a.opi(IntOp::And, 6, 4, 1);
        a.bri(Cond::Ne, 6, 0, odd);
        a.opi(IntOp::Shr, 4, 4, 1);
        a.jmp(next);
        a.bind(odd);
        a.opi(IntOp::Mul, 4, 4, 3);
        a.opi(IntOp::Add, 4, 4, 1);
        a.bind(next);
        a.opi(IntOp::Add, 5, 5, 1);
        a.jmp(top);
        a.bind(done);
        a.write_int(5);
        a.exit(0);
    });
}

#[test]
fn equiv_hint_and_unknown_syscall_due_paths() {
    check_equivalence(|a| {
        a.hint(3);
        a.li(0, 99); // unknown syscall → logged, resumes
        a.syscall();
        a.li(4, 5);
        a.write_int(4);
        a.exit(0);
    });
}

#[test]
fn equiv_misaligned_arme_fixups() {
    // Only meaningful on arme but must stay equivalent everywhere.
    check_equivalence(|a| {
        let buf = a.data_u64s(&[0x1122_3344_5566_7788]);
        a.li(4, buf as i64);
        a.load(Width::B4, false, 5, 4, 2); // misaligned on arme
        a.write_int(5);
        a.exit(0);
    });
}

#[test]
fn crash_divide_by_zero_both_personalities() {
    for (isa, marslike) in [(Isa::X86e, true), (Isa::X86e, false), (Isa::Arme, false)] {
        let mut a = Asm::new(isa);
        a.li(4, 100);
        a.li(5, 0);
        a.op(IntOp::DivS, 6, 4, 5);
        a.write_int(6);
        a.exit(0);
        let prog = a.finish("div0").unwrap();
        let mut core = OoOCore::new(cfg_for(isa, marslike), &prog);
        let run = core.run(&[], &limits());
        assert!(
            matches!(
                run.exit,
                SimExit::ProcessCrash(difi_isa::uop::Fault::DivideByZero)
            ),
            "got {:?}",
            run.exit
        );
    }
}

#[test]
fn crash_wild_store_both_personalities() {
    for (isa, marslike) in [(Isa::X86e, true), (Isa::X86e, false), (Isa::Arme, false)] {
        let mut a = Asm::new(isa);
        a.li(4, 0x4000_0000); // beyond the 16 MiB map
        a.store(Width::B8, 4, 4, 0);
        a.exit(0);
        let prog = a.finish("wild").unwrap();
        let mut core = OoOCore::new(cfg_for(isa, marslike), &prog);
        let run = core.run(&[], &limits());
        assert!(
            matches!(
                run.exit,
                SimExit::ProcessCrash(difi_isa::uop::Fault::OutOfBounds(_))
            ),
            "got {:?}",
            run.exit
        );
    }
}

#[test]
fn infinite_loop_times_out() {
    let mut a = Asm::new(Isa::X86e);
    let top = a.here_label();
    a.jmp(top);
    let prog = a.finish("spin").unwrap();
    let mut core = OoOCore::new(mars_cfg(), &prog);
    let run = core.run(
        &[],
        &EngineLimits {
            max_cycles: 20_000,
            early_stop: false,
            deadlock_window: 100_000,
        },
    );
    assert_eq!(run.exit, SimExit::Timeout);
}

fn simple_sum_program(isa: Isa) -> Program {
    let mut a = Asm::new(isa);
    a.li(4, 0);
    a.li(5, 1);
    let top = a.here_label();
    a.op(IntOp::Add, 4, 4, 5);
    a.opi(IntOp::Add, 5, 5, 1);
    a.bri(Cond::LeS, 5, 200, top);
    a.write_int(4);
    a.exit(0);
    a.finish("sum").expect("assembles")
}

#[test]
fn mars_hypervisor_statistics_differ_from_gem() {
    let prog = simple_sum_program(Isa::X86e);
    let mut mars = OoOCore::new(mars_cfg(), &prog);
    let mruns = mars.run(&[], &limits());
    let mut gem = OoOCore::new(gem_cfg(), &prog);
    let gruns = gem.run(&[], &limits());
    assert!(mruns.stats.hypervisor_calls > 0, "MaFIN escapes to QEMU");
    assert_eq!(gruns.stats.hypervisor_calls, 0, "GeFIN handles internally");
    assert_eq!(mruns.output, gruns.output);
}

#[test]
fn regfile_fault_in_free_register_is_early_masked() {
    let prog = simple_sum_program(Isa::X86e);
    let mut core = OoOCore::new(mars_cfg(), &prog);
    // Physical register 200 is deep in the free list at cycle 5.
    let f = EngineFault {
        structure: StructureId::IntRegFile,
        entry: 200,
        bit: 5,
        kind: FaultKind::Flip,
        at_cycle: Some(5),
        at_instruction: None,
        duration_cycles: None,
    };
    let mut l = limits();
    l.early_stop = true;
    let run = core.run(&[f], &l);
    assert_eq!(run.exit, SimExit::EarlyMasked(EarlyWhy::DeadEntry));
    assert!(!run.fault_consumed);
}

#[test]
fn regfile_fault_without_early_stop_still_masks_architecturally() {
    let prog = simple_sum_program(Isa::X86e);
    let mut core = OoOCore::new(mars_cfg(), &prog);
    let f = EngineFault {
        structure: StructureId::IntRegFile,
        entry: 200,
        bit: 5,
        kind: FaultKind::Flip,
        at_cycle: Some(5),
        at_instruction: None,
        duration_cycles: None,
    };
    let run = core.run(&[f], &limits());
    assert_eq!(run.exit, SimExit::Exited(0));
    assert_eq!(run.output, b"20100\n");
}

#[test]
fn live_regfile_fault_corrupts_output() {
    // Flip a low bit of the accumulator's physical register mid-loop: the
    // boot mapping pins architectural r4 to physical 4 until first rename;
    // instead hit every mapped register via a directed sweep and require at
    // least one SDC.
    // Sweep every physical register: whichever holds the live accumulator
    // (or index) at cycle 300 yields a corrupted sum.
    let prog = simple_sum_program(Isa::X86e);
    let mut sdc = 0;
    for p in 0..256u64 {
        let mut core = OoOCore::new(mars_cfg(), &prog);
        let f = EngineFault {
            structure: StructureId::IntRegFile,
            entry: p,
            bit: 7,
            kind: FaultKind::Flip,
            at_cycle: Some(300),
            at_instruction: None,
            duration_cycles: None,
        };
        let run = core.run(&[f], &limits());
        if matches!(run.exit, SimExit::Exited(_)) && run.output != b"20100\n" {
            sdc += 1;
        }
    }
    assert!(sdc > 0, "some physical-register fault must corrupt the sum");
}

#[test]
fn l1i_fault_asserts_on_mars_crashes_on_gem() {
    // Corrupt the hot loop's instruction bytes in the L1I data array after
    // they are resident; MarsSim must assert at decode, GemSim must raise an
    // illegal-instruction process crash at commit (Remark 8).
    let prog = simple_sum_program(Isa::X86e);
    // A ceiling of its own: some corrupted programs loop until the ceiling,
    // and under the shared 5M-cycle `limits()` those runs took most of this
    // file's run time. Every assert and crash counted here fires by cycle
    // 209, and the golden runs end at cycle 507 (MarsSim) and 310 (GemSim),
    // so 20k cycles leaves every count unchanged.
    let ceiling = EngineLimits {
        max_cycles: 20_000,
        ..limits()
    };

    // The hot loop's bytes live in L1I line 0 (code base 0x10000 maps to
    // set 0, first way); target bits inside the loop body so the corrupted
    // bytes are actually refetched.
    let mut mars_asserts = 0;
    let mut gem_crashes = 0;
    let mut gem_asserts = 0;
    for cycle in [60u64, 120, 180] {
        for bit in (48u32..160).step_by(4) {
            let f = EngineFault {
                structure: StructureId::L1iData,
                entry: 0,
                bit,
                kind: FaultKind::Flip,
                at_cycle: Some(cycle),
                at_instruction: None,
                duration_cycles: None,
            };
            let mut mars = OoOCore::new(mars_cfg(), &prog);
            if let SimExit::SimAssert(_) = mars.run(&[f], &ceiling).exit {
                mars_asserts += 1
            }
            let mut gem = OoOCore::new(gem_cfg(), &prog);
            match gem.run(&[f], &ceiling).exit {
                SimExit::ProcessCrash(_) => gem_crashes += 1,
                SimExit::SimAssert(_) => gem_asserts += 1,
                _ => {}
            }
        }
    }
    assert!(mars_asserts > 0, "MarsSim decode asserts must fire");
    assert!(gem_crashes > 0, "GemSim must crash the process instead");
    assert_eq!(gem_asserts, 0, "GemSim never asserts on decode faults");
}

#[test]
fn l1d_fault_masking_differs_between_policies() {
    // A fault in a clean L1D line dies on eviction under MARSS store-through
    // (memory holds the good copy) but the same experiment under gem5's
    // write-back hierarchy can propagate if the line was dirty. Here we just
    // check the engine plumbing: injected L1D faults are consumable and
    // classified, whichever personality runs.
    let prog = simple_sum_program(Isa::X86e);
    for cfg in [mars_cfg(), gem_cfg()] {
        let mut hits = 0;
        for line in 0..16u64 {
            let mut core = OoOCore::new(cfg, &prog);
            let f = EngineFault {
                structure: StructureId::L1dData,
                entry: line,
                bit: 17,
                kind: FaultKind::Flip,
                at_cycle: Some(400),
                at_instruction: None,
                duration_cycles: None,
            };
            let run = core.run(&[f], &limits());
            if run.fault_consumed {
                hits += 1;
            }
            // Whatever happened, the run must terminate in a recognized way.
            match run.exit {
                SimExit::Exited(_)
                | SimExit::ProcessCrash(_)
                | SimExit::SystemCrash(_)
                | SimExit::SimAssert(_)
                | SimExit::SimCrash(_)
                | SimExit::Timeout
                | SimExit::EarlyMasked(_) => {}
            }
        }
        let _ = hits;
    }
}

#[test]
fn permanent_stuck_fault_persists() {
    // Stuck-at-1 on the accumulator path: output must differ or crash, and
    // the fault must never be reported dead.
    let prog = simple_sum_program(Isa::X86e);
    let mut affected = 0;
    for p in 4..8u64 {
        let mut core = OoOCore::new(mars_cfg(), &prog);
        let f = EngineFault {
            structure: StructureId::IntRegFile,
            entry: p,
            bit: 12,
            kind: FaultKind::Stuck1,
            at_cycle: Some(0),
            at_instruction: None,
            duration_cycles: None,
        };
        let run = core.run(&[f], &limits());
        if !(run.exit == SimExit::Exited(0) && run.output == b"20100\n") {
            affected += 1;
        }
    }
    assert!(affected > 0, "a permanent fault must disturb something");
}

#[test]
fn instruction_timed_injection_applies() {
    let prog = simple_sum_program(Isa::X86e);
    let mut core = OoOCore::new(mars_cfg(), &prog);
    let f = EngineFault {
        structure: StructureId::IntRegFile,
        entry: 100,
        bit: 0,
        kind: FaultKind::Flip,
        at_cycle: None,
        at_instruction: Some(50),
        duration_cycles: None,
    };
    let mut l = limits();
    l.early_stop = true;
    let run = core.run(&[f], &l);
    // Register 100 is free at boot; either early-masked or completed clean.
    assert!(
        matches!(run.exit, SimExit::EarlyMasked(_) | SimExit::Exited(0)),
        "got {:?}",
        run.exit
    );
}

#[test]
fn ipc_is_sane() {
    let prog = simple_sum_program(Isa::X86e);
    let mut core = OoOCore::new(mars_cfg(), &prog);
    let run = core.run(&[], &limits());
    let ipc = run.stats.ipc();
    assert!(ipc > 0.1 && ipc < 4.0, "ipc {ipc} out of plausible range");
    assert!(run.stats.predictor.lookups > 100);
    assert!(run.stats.l1i.read_hits > run.stats.l1i.read_misses);
}

/// A clone of a paused core is a snapshot: running the original on must not
/// change it. Under MaFIN's store-through policy every committed store also
/// writes main memory, so after the pause the original writes pages that
/// it still shares with the clone (for fft: the kernel page and two data
/// pages; fft never touches its stack page, which the whole-memory
/// comparison covers as well).
#[test]
fn paused_clone_is_isolated_from_its_original() {
    let prog = build(Bench::Fft, Isa::X86e).expect("fft assembles");
    let cold = OoOCore::new(mars_cfg(), &prog).run(&[], &limits());

    let mut original = OoOCore::new(mars_cfg(), &prog);
    let paused = original.run_until(&[], &limits(), Some(20_000));
    assert!(paused.is_none(), "fft ended before the pause");
    let mut clone = original.clone();
    let memory = |core: &OoOCore| {
        let mut bytes = vec![0u8; core.sys.mem.size() as usize];
        core.sys.mem.read(0, &mut bytes);
        bytes
    };
    let before = memory(&clone);

    assert_eq!(original.run(&[], &limits()), cold);
    assert!(
        memory(&original) != before,
        "the original wrote no memory after the pause"
    );
    assert!(
        memory(&clone) == before,
        "the original wrote into the clone"
    );
    assert_eq!(
        clone.run(&[], &limits()),
        cold,
        "the clone diverged from a cold run"
    );
}
