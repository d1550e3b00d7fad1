//! A warm run whose transient lands in an unused entry at its injection
//! cycle is answered at the fork (early-stop rule i, DESIGN.md §8): the
//! advanced golden core goes back to the pool, so the run copies no core.
//! A core clone carries the whole L2 data array, so a run that copied one
//! allocated at least that many bytes.
//!
//! The counting allocator's counters are process-global, so this binary
//! holds exactly one `#[test]` function.

use difi::prelude::*;
use difi::uarch::pipeline::engine::EngineLimits;
use difi::util::alloc::{allocated_bytes, CountingAlloc};

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc::new();

/// Transients drawn per setup; nearly every L2 line of fft is unused at any
/// instant, so nearly all of them land dead.
const MASKS: u64 = 12;

#[test]
fn a_fork_that_lands_dead_copies_no_core() {
    for d in [MaFin::new(), GeFin::x86(), GeFin::arm()] {
        let name = d.name();
        let program = build(Bench::Fft, d.isa()).expect("assembles");
        let g = golden_run(&d, &program, 200_000_000).cycles_measured();
        let limits = RunLimits::campaign(g);
        let l2 = difi::core::dispatch::structure_desc(&d, StructureId::L2Data).expect("injectable");
        let l2_bytes = l2.total_bits() / 8;

        // The masks whose cold run stops dead at its injection cycle, in
        // ascending cycle order, so the one pooled core only moves on.
        let mut dead: Vec<(InjectionSpec, RawRunResult)> = MaskGenerator::new(1843)
            .transient(&l2, g * 3 / 4, MASKS)
            .into_iter()
            .map(|m| {
                let cold = d.run(&program, &m, &limits);
                (m, cold)
            })
            .filter(|(m, cold)| {
                cold.status == RunStatus::EarlyStopMasked(EarlyStop::DeadEntry)
                    && cold.cycles == m.warm_start_cycle()
            })
            .collect();
        dead.sort_by_key(|(m, _)| m.warm_start_cycle());
        assert!(
            dead.len() >= 2,
            "{name}: {} dead-on-arrival masks",
            dead.len()
        );

        // A flip into a line that is valid at a cycle past all of them.
        let live_at = g * 7 / 8;
        let mut probe = d.boot(&program);
        let elim = EngineLimits {
            max_cycles: limits.max_cycles,
            early_stop: true,
            deadlock_window: limits.deadlock_window,
        };
        assert!(probe.run_until(&[], &elim, Some(live_at)).is_none());
        let line = (0..l2.entries as usize)
            .find(|&l| probe.sys.l2.peek_valid(l))
            .expect("fft has a valid L2 line");
        let live =
            InjectionSpec::single_transient(MASKS, StructureId::L2Data, line as u64, 3, live_at);
        let live_cold = d.run(&program, &live, &limits);

        let snaps = d
            .golden_snapshots(&program, &[0], &limits)
            .expect("warm starts are supported");
        let before = allocated_bytes();
        let warm: Vec<RawRunResult> = dead
            .iter()
            .map(|(m, _)| d.run_from(&snaps[0], &program, m, &limits))
            .collect();
        let spent = allocated_bytes() - before;
        for ((m, cold), warm) in dead.iter().zip(&warm) {
            assert_eq!(warm, cold, "{name}: mask {}", m.id);
        }
        assert!(
            spent < l2_bytes,
            "{name}: {} dead-on-arrival forks allocated {spent} bytes, one L2 data array is {l2_bytes}",
            dead.len()
        );

        let before = allocated_bytes();
        let warm = d.run_from(&snaps[0], &program, &live, &limits);
        let spent = allocated_bytes() - before;
        assert_eq!(warm, live_cold, "{name}: the live mask");
        assert!(
            spent >= l2_bytes,
            "{name}: a fork into a valid line allocated {spent} bytes, less than one L2 data array"
        );
    }
}
