//! Differential oracle for the observability layer: fault-lifecycle event
//! streams are a *deterministic function of the mask*, independent of the
//! execution strategy. On real workloads and all three experimental setups,
//! identical masks must produce identical [`FaultTrace`]s under cold
//! starts, the checkpointed warm-start engine, and crash-resume — and
//! enabling tracing must leave the campaign log itself byte-identical
//! (tracing observes, never perturbs).

use difi::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Campaign size: full-scale in release (scripts/check.sh runs this test in
/// release explicitly); trimmed in debug where the simulator is ~10× slower,
/// while keeping the required 3-strategies × 2-workloads × 3-setups matrix
/// intact.
const N_MASKS: u64 = if cfg!(debug_assertions) { 3 } else { 8 };

fn backends() -> Vec<Box<dyn InjectorDispatcher + Send>> {
    vec![
        Box::new(MaFin::new()),
        Box::new(GeFin::x86()),
        Box::new(GeFin::arm()),
    ]
}

struct Cell {
    program: Program,
    masks: Vec<InjectionSpec>,
    cfg: CampaignConfig,
}

fn cell(dispatcher: &dyn InjectorDispatcher, bench: Bench) -> Cell {
    let program = build(bench, dispatcher.isa()).expect("assembles");
    let golden = golden_run(dispatcher, &program, 200_000_000);
    let desc =
        difi::core::dispatch::structure_desc(dispatcher, StructureId::L2Data).expect("injectable");
    let masks = MaskGenerator::new(1979).transient(&desc, golden.cycles_measured(), N_MASKS);
    let cfg = CampaignConfig {
        threads: 2,
        early_stop: true,
        golden_max_cycles: 200_000_000,
    };
    Cell {
        program,
        masks,
        cfg,
    }
}

fn temp_journal(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("difi_trace_determinism");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{tag}.journal"))
}

/// Truncates a complete journal to its header plus half the run lines —
/// the crash point the resumed strategy re-dispatches from.
fn cut_to_half(path: &Path) {
    let text = std::fs::read_to_string(path).expect("read journal");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 3, "journal too small to cut meaningfully");
    let keep = 1 + (lines.len() - 1) / 2;
    let kept: String = lines[..keep].iter().map(|l| format!("{l}\n")).collect();
    std::fs::write(path, kept).expect("truncate journal");
}

/// The runs of `log` that stopped at their injection cycle because their
/// fault landed in an unused entry: a warm campaign answers these at the
/// fork, without running the core.
fn dead_on_arrival(log: &CampaignLog) -> usize {
    log.runs
        .iter()
        .filter(|r| {
            r.result.status == RunStatus::EarlyStopMasked(EarlyStop::DeadEntry)
                && r.result.cycles == r.spec.warm_start_cycle()
        })
        .count()
}

#[test]
fn traces_are_identical_across_all_strategies() {
    for bench in [Bench::Sha, Bench::Fft] {
        for dispatcher in backends() {
            let d = dispatcher.as_ref();
            let c = cell(d, bench);
            let tag = format!("{}_{bench:?}", d.name());

            // Strategy 1 — cold, traced. The reference streams.
            let cold_mem = MemoryTraceSink::new();
            let cold_log = CampaignRunner::new(d, &c.program, StructureId::L2Data, 1979, &c.cfg)
                .with_tracing(true)
                .run_with_sinks(&c.masks, &[&cold_mem]);
            let cold_traces = cold_mem.into_traces();
            assert_eq!(
                cold_traces.len(),
                c.masks.len(),
                "{tag}: every dispatched mask must produce a trace"
            );
            for (i, t) in &cold_traces {
                assert_eq!(t.id, c.masks[*i].id, "{tag}: trace/mask id mismatch");
                assert!(
                    t.first(TraceEventKind::Injected).is_some(),
                    "{tag}: mask {i} trace has no injection event"
                );
                assert!(
                    t.first(TraceEventKind::Classified).is_some(),
                    "{tag}: mask {i} trace was never classified"
                );
            }

            // Tracing observes, never perturbs: the traced log is
            // byte-identical to a plain untraced campaign.
            let plain =
                CampaignRunner::new(d, &c.program, StructureId::L2Data, 1979, &c.cfg).run(&c.masks);
            assert_eq!(
                plain, cold_log,
                "{tag}: enabling tracing changed the campaign log"
            );

            // Strategy 2 — checkpointed warm-start, traced.
            let warm_mem = MemoryTraceSink::new();
            let warm_log = CampaignRunner::new(d, &c.program, StructureId::L2Data, 1979, &c.cfg)
                .with_strategy(Strategy::Checkpointed { checkpoints: 3 })
                .with_tracing(true)
                .run_with_sinks(&c.masks, &[&warm_mem]);
            assert_eq!(cold_log, warm_log, "{tag}: warm-start log diverged");
            assert_eq!(
                cold_traces,
                warm_mem.into_traces(),
                "{tag}: warm-start event streams diverged from cold"
            );
            assert!(
                dead_on_arrival(&warm_log) > 0,
                "{tag}: no warm run was answered at its fork"
            );

            // Strategy 3 — crash-resume, traced. Journal a full traced
            // campaign, cut it to half, resume: the re-dispatched masks
            // must reproduce their cold event streams exactly.
            let path = temp_journal(&tag);
            let runner = CampaignRunner::new(d, &c.program, StructureId::L2Data, 1979, &c.cfg)
                .with_tracing(true);
            let full = runner
                .run_journaled(&c.masks, &path, &[])
                .expect("journaled traced campaign");
            assert_eq!(cold_log, full, "{tag}: journaled traced log diverged");
            cut_to_half(&path);
            let resumed_mem = MemoryTraceSink::new();
            let resumed = runner
                .resume(&c.masks, &path, &[&resumed_mem])
                .expect("resume traced campaign");
            assert_eq!(cold_log, resumed, "{tag}: resumed log diverged");
            let resumed_traces = resumed_mem.into_traces();
            assert!(
                !resumed_traces.is_empty(),
                "{tag}: resume re-dispatched nothing — the cut was a no-op"
            );
            let by_index: BTreeMap<usize, &FaultTrace> =
                cold_traces.iter().map(|(i, t)| (*i, t)).collect();
            for (i, t) in &resumed_traces {
                assert_eq!(
                    Some(&t),
                    by_index.get(i),
                    "{tag}: mask {i} produced a different event stream on resume"
                );
            }
            std::fs::remove_file(&path).ok();
        }
    }
}
