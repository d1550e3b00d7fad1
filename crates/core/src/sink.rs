//! Pluggable run sinks: where completed injection runs stream to.
//!
//! The paper's campaign layer buffered every result in memory and only
//! surfaced them when the whole campaign finished. The streaming engine
//! inverts that: the [`CampaignRunner`](crate::campaign::CampaignRunner)
//! pushes each [`RunLog`] to every attached [`RunSink`] the moment its
//! worker finishes it, so results persist incrementally ([`JournalSink`],
//! [`TraceSink`]) and report progress live ([`ProgressSink`]), while the
//! runner itself collects them in mask order for the final
//! [`CampaignLog`](crate::logs::CampaignLog).
//!
//! Sinks are called directly from worker threads; each synchronizes
//! internally (a single lock per sink — the per-run simulation dwarfs any
//! contention on it).

use crate::journal::{run_line, CampaignHeader};
use crate::logs::RunLog;
use difi_obs::metrics::MetricsRegistry;
use difi_obs::trace::FaultTrace;
use difi_uarch::ProfileCounters;
use difi_util::json::Json;
use difi_util::{jsonl, Error, Result};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A consumer of completed injection runs.
///
/// Implementations must be `Sync`: [`RunSink::on_run`] is invoked from
/// several worker threads at once. Callbacks must not panic on ordinary
/// operational failure (e.g. a full disk) — they record the error and
/// surface it at the end (see [`JournalSink::finish`]) so one sink hiccup
/// cannot abort a 300,000-run campaign.
pub trait RunSink: Sync {
    /// Called once, after the golden run, before any injection runs.
    fn on_start(&self, header: &CampaignHeader) {
        let _ = header;
    }

    /// Called once per completed run, in completion (not mask) order.
    /// `index` is the run's position in the masks repository.
    fn on_run(&self, index: usize, log: &RunLog);

    /// Called once per completed run *when fault tracing is enabled* and
    /// the dispatcher produced an event stream, immediately after
    /// [`RunSink::on_run`] for the same index. The default ignores traces —
    /// existing sinks keep working untouched.
    fn on_trace(&self, index: usize, trace: &FaultTrace) {
        let _ = (index, trace);
    }

    /// Called once per completed run *when profiling is enabled* and the
    /// dispatcher produced stall/occupancy counters, immediately after
    /// [`RunSink::on_run`] for the same index. Statically pruned masks,
    /// collapsed-class members, and preloaded (resumed) runs never execute,
    /// so they never profile. The default ignores profiles — existing sinks
    /// keep working untouched.
    fn on_profile(&self, index: usize, prof: &ProfileCounters) {
        let _ = (index, prof);
    }

    /// Called once after the last run of the campaign.
    fn on_end(&self) {}
}

/// The in-memory collector: stores every run in its mask slot, yielding the
/// ordered run vector of the final campaign log.
#[derive(Debug, Default)]
pub(crate) struct MemorySink {
    slots: Mutex<Vec<Option<RunLog>>>,
}

impl MemorySink {
    /// Consumes the collector, returning runs in mask order.
    ///
    /// # Panics
    ///
    /// Panics if any mask slot never received a run — the campaign runner
    /// guarantees every index is delivered exactly once.
    pub(crate) fn into_runs(self) -> Vec<RunLog> {
        self.slots
            .into_inner()
            .expect("slots lock")
            .into_iter()
            .enumerate()
            .map(|(i, slot)| slot.unwrap_or_else(|| panic!("mask {i} never completed")))
            .collect()
    }
}

impl RunSink for MemorySink {
    fn on_start(&self, header: &CampaignHeader) {
        let mut slots = self.slots.lock().expect("slots lock");
        slots.resize(header.masks as usize, None);
    }

    fn on_run(&self, index: usize, log: &RunLog) {
        let mut slots = self.slots.lock().expect("slots lock");
        assert!(index < slots.len(), "run index {index} out of range");
        slots[index] = Some(log.clone());
    }
}

/// A JSONL file written one flushed line at a time: the writer behind
/// [`JournalSink`] and [`TraceSink`]. Sink callbacks cannot return errors,
/// so the first I/O error is latched and surfaced by `finish`.
struct LineWriter(Mutex<LineOut>);

struct LineOut {
    w: BufWriter<std::fs::File>,
    /// True while the file holds no line.
    empty: bool,
    error: Option<Error>,
}

impl LineWriter {
    /// Creates (truncating) `path`, or with `append` opens it for appending;
    /// a file that does not end on a line boundary gets a newline first so
    /// the next line starts cleanly.
    fn open(path: &Path, append: bool) -> Result<LineWriter> {
        let mut file = if append {
            std::fs::OpenOptions::new()
                .read(true)
                .append(true)
                .open(path)?
        } else {
            std::fs::File::create(path)?
        };
        let empty = file.metadata()?.len() == 0;
        let mut last = [b'\n'];
        if !empty {
            file.seek(SeekFrom::End(-1))?;
            file.read_exact(&mut last)?;
        }
        let mut w = BufWriter::new(file);
        if last[0] != b'\n' {
            w.write_all(b"\n").map_err(Error::from)?;
        }
        Ok(LineWriter(Mutex::new(LineOut {
            w,
            empty,
            error: None,
        })))
    }

    /// Writes and flushes one line — with `only_if_empty`, only into a file
    /// that holds no line yet. Flushing per line means a crash tears at most
    /// the line in flight, which the tolerant loader drops.
    fn write(&self, line: &Json, only_if_empty: bool) {
        let mut out = self.0.lock().expect("line writer lock");
        if only_if_empty && !out.empty {
            return;
        }
        out.empty = false;
        let r =
            jsonl::write_line(&mut out.w, line).and_then(|()| out.w.flush().map_err(Error::from));
        if let Err(e) = r {
            out.error.get_or_insert(e);
        }
    }

    fn flush(&self) {
        let mut out = self.0.lock().expect("line writer lock");
        if let Err(e) = out.w.flush() {
            out.error.get_or_insert(Error::from(e));
        }
    }

    fn finish(&self) -> Result<()> {
        let mut out = self.0.lock().expect("line writer lock");
        out.w.flush().map_err(Error::from)?;
        out.error.take().map_or(Ok(()), Err)
    }
}

/// The append-only JSONL journal sink: one flushed line per completed run,
/// enabling crash-resume
/// ([`CampaignRunner::resume`](crate::campaign::CampaignRunner::resume)).
pub struct JournalSink(LineWriter);

impl JournalSink {
    /// Creates (truncating) a fresh journal at `path`. The header line is
    /// written on [`RunSink::on_start`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the file cannot be created.
    pub fn create(path: &Path) -> Result<JournalSink> {
        LineWriter::open(path, false).map(JournalSink)
    }

    /// Opens an existing journal for appending (resume). If the file does
    /// not end on a line boundary, a newline is inserted first so the next
    /// record starts cleanly; an empty file behaves like [`Self::create`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the file cannot be opened.
    pub fn append_to(path: &Path) -> Result<JournalSink> {
        LineWriter::open(path, true).map(JournalSink)
    }

    /// Flushes and surfaces the first I/O error encountered by any
    /// callback. Call after the campaign completes; dropping the sink
    /// without calling this loses error reports, not data.
    ///
    /// # Errors
    ///
    /// Returns the first [`Error::Io`] hit while journaling.
    pub fn finish(&self) -> Result<()> {
        self.0.finish()
    }
}

impl RunSink for JournalSink {
    fn on_start(&self, header: &CampaignHeader) {
        // On resume the header is already on disk.
        self.0.write(&header.to_json(), true);
    }

    fn on_run(&self, index: usize, log: &RunLog) {
        self.0.write(&run_line(index, log), false);
    }

    fn on_end(&self) {
        self.0.flush();
    }
}

/// The fault-trace journal: one flushed JSONL line per traced run,
/// `{"index":…,"trace":{…}}`. Same error discipline as [`JournalSink`] —
/// callbacks latch the first I/O error and [`TraceSink::finish`] surfaces
/// it; nothing is silently dropped.
pub struct TraceSink(LineWriter);

impl TraceSink {
    /// Creates (truncating) a fresh trace file at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the file cannot be created.
    pub fn create(path: &Path) -> Result<TraceSink> {
        LineWriter::open(path, false).map(TraceSink)
    }

    /// Flushes and surfaces the first I/O error encountered by any
    /// callback.
    ///
    /// # Errors
    ///
    /// Returns the first [`Error::Io`] hit while writing traces.
    pub fn finish(&self) -> Result<()> {
        self.0.finish()
    }
}

impl RunSink for TraceSink {
    fn on_run(&self, _index: usize, _log: &RunLog) {}

    fn on_trace(&self, index: usize, trace: &FaultTrace) {
        let line = Json::obj(vec![
            ("index", Json::U64(index as u64)),
            ("trace", trace.to_json()),
        ]);
        self.0.write(&line, false);
    }

    fn on_end(&self) {
        self.0.flush();
    }
}

/// The in-memory trace collector: gathers every [`FaultTrace`] for
/// post-campaign analysis (latency reports, determinism oracles).
#[derive(Debug, Default)]
pub struct MemoryTraceSink {
    traces: Mutex<Vec<(usize, FaultTrace)>>,
}

impl MemoryTraceSink {
    /// An empty collector.
    pub fn new() -> MemoryTraceSink {
        MemoryTraceSink::default()
    }

    /// Consumes the collector, returning `(index, trace)` pairs sorted by
    /// mask index. Unlike the campaign's run log there is no completeness
    /// guarantee: fault-free masks and preloaded (resumed) runs carry no
    /// trace.
    pub fn into_traces(self) -> Vec<(usize, FaultTrace)> {
        let mut traces = self.traces.into_inner().expect("traces lock");
        traces.sort_by_key(|(i, _)| *i);
        traces
    }
}

impl RunSink for MemoryTraceSink {
    fn on_run(&self, _index: usize, _log: &RunLog) {}

    fn on_trace(&self, index: usize, trace: &FaultTrace) {
        let mut traces = self.traces.lock().expect("traces lock");
        traces.push((index, trace.clone()));
    }
}

/// The in-memory profile collector: gathers every [`ProfileCounters`]
/// block for post-campaign aggregation (stall-breakdown reports, the
/// profiler determinism oracle).
#[derive(Debug, Default)]
pub struct MemoryProfileSink {
    profiles: Mutex<Vec<(usize, ProfileCounters)>>,
}

impl MemoryProfileSink {
    /// An empty collector.
    pub fn new() -> MemoryProfileSink {
        MemoryProfileSink::default()
    }

    /// Consumes the collector, returning `(index, counters)` pairs sorted
    /// by mask index. Like [`MemoryTraceSink`] there is no completeness
    /// guarantee: pruned masks, collapsed-class members, and preloaded
    /// (resumed) runs carry no counters.
    pub fn into_profiles(self) -> Vec<(usize, ProfileCounters)> {
        let mut profiles = self.profiles.into_inner().expect("profiles lock");
        profiles.sort_by_key(|(i, _)| *i);
        profiles
    }
}

impl RunSink for MemoryProfileSink {
    fn on_run(&self, _index: usize, _log: &RunLog) {}

    fn on_profile(&self, index: usize, prof: &ProfileCounters) {
        let mut profiles = self.profiles.lock().expect("profiles lock");
        profiles.push((index, *prof));
    }
}

/// The metrics bridge: folds every completed run and trace into a
/// [`MetricsRegistry`] — run/status/cycle counters plus the per-structure ×
/// outcome fault-effect-latency histograms. The campaign runner attaches
/// one internally (before user sinks) whenever a registry is configured, so
/// sinks later in the chain (e.g. [`ProgressSink`]) read fresh values.
pub(crate) struct MetricsSink {
    registry: Arc<MetricsRegistry>,
}

impl MetricsSink {
    /// A sink feeding `registry`.
    pub(crate) fn new(registry: Arc<MetricsRegistry>) -> MetricsSink {
        MetricsSink { registry }
    }
}

impl RunSink for MetricsSink {
    fn on_run(&self, _index: usize, log: &RunLog) {
        let r = &self.registry;
        r.counter("campaign.runs").inc();
        r.counter(&format!(
            "campaign.status.{}",
            STATUS_TAGS[status_tag_index(log)]
        ))
        .inc();
        r.counter("campaign.sim_cycles")
            .add(log.result.cycles.unwrap_or(0));
        r.counter("campaign.sim_instructions")
            .add(log.result.instructions.unwrap_or(0));
    }

    fn on_trace(&self, _index: usize, trace: &FaultTrace) {
        let r = &self.registry;
        r.counter("campaign.traces").inc();
        let outcome = trace.outcome().unwrap_or("unclassified");
        if let Some(lat) = trace.consume_latency() {
            r.histogram(&format!("latency.consume.{}.{outcome}", trace.structure))
                .record(lat);
        }
        if let Some(lat) = trace.divergence_latency() {
            r.histogram(&format!("latency.diverge.{}.{outcome}", trace.structure))
                .record(lat);
        }
    }

    fn on_profile(&self, _index: usize, prof: &ProfileCounters) {
        let r = &self.registry;
        r.counter("campaign.profiled_runs").inc();
        r.counter("profile.cycles.total").add(prof.profiled_cycles);
        r.counter("profile.cycles.committed")
            .add(prof.committed_cycles);
        for (name, n) in ProfileCounters::STALL_NAMES.iter().zip(prof.stalls()) {
            r.counter(&format!("profile.stall.{name}")).add(n);
        }
        r.counter("profile.squashes").add(prof.squashes);
        r.counter("profile.wakeups").add(prof.wakeups);
        r.counter("profile.memo_hits").add(prof.memo_hits);
        // Occupancy lands as per-run *means* (entries), one histogram
        // sample per profiled run, so the distribution reads as "how full
        // was the window on a typical run" rather than a cycle-weighted sum.
        if let Some((rob, iq, lsq)) = prof.mean_occupancy() {
            r.histogram("profile.occ.rob").record(rob as u64);
            r.histogram("profile.occ.iq").record(iq as u64);
            r.histogram("profile.occ.lsq").record(lsq as u64);
        }
    }
}

struct ProgressState {
    total: usize,
    done: usize,
    /// Simulated cycles across completed runs (self-tallied from each
    /// [`RunLog`], so the rate stays live even when workers batch their
    /// metrics into private registries merged only at the end).
    sim_cycles: u64,
    started: Instant,
    /// Coarse status tallies, indexed by [`status_tag`] order.
    tallies: [u64; 7],
}

/// Live campaign telemetry on stderr: runs completed, mean per-run wall
/// time, throughput (runs/s and simulated Mcyc/s), coarse outcome tallies
/// so far, and the ETA for the remainder.
///
/// With [`ProgressSink::with_metrics`] the sink also reads the runner's
/// phase wall-time gauges for its preamble and final summary line.
pub struct ProgressSink {
    every: usize,
    metrics: Option<Arc<MetricsRegistry>>,
    state: Mutex<ProgressState>,
}

const STATUS_TAGS: [&str; 7] = [
    "completed",
    "timeout",
    "process_crash",
    "system_crash",
    "sim_assert",
    "sim_crash",
    "early_masked",
];

fn status_tag_index(log: &RunLog) -> usize {
    use crate::model::RunStatus as S;
    match log.result.status {
        S::Completed { .. } => 0,
        S::Timeout => 1,
        S::ProcessCrash(_) => 2,
        S::SystemCrash(_) => 3,
        S::SimulatorAssert(_) => 4,
        S::SimulatorCrash(_) => 5,
        S::EarlyStopMasked(_) => 6,
    }
}

impl ProgressSink {
    /// A progress sink reporting after every completed run.
    pub fn new() -> ProgressSink {
        ProgressSink::every(1)
    }

    /// A progress sink reporting after every `n` completed runs (and always
    /// on the final one).
    pub fn every(n: usize) -> ProgressSink {
        ProgressSink {
            every: n.max(1),
            metrics: None,
            state: Mutex::new(ProgressState {
                total: 0,
                done: 0,
                sim_cycles: 0,
                started: Instant::now(),
                tallies: [0; 7],
            }),
        }
    }

    /// Attaches `registry`: the sink reads the runner's phase-timing gauges
    /// from it for the preamble and the final summary line.
    #[must_use]
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> ProgressSink {
        self.metrics = Some(registry);
        self
    }
}

impl Default for ProgressSink {
    fn default() -> Self {
        ProgressSink::new()
    }
}

impl RunSink for ProgressSink {
    fn on_start(&self, header: &CampaignHeader) {
        let mut s = self.state.lock().expect("progress lock");
        s.total = header.masks as usize;
        s.started = Instant::now();
        // The runner stamps the golden phase gauge before on_start, so the
        // preamble can report how long the reference run took.
        let golden_phase = self
            .metrics
            .as_ref()
            .and_then(|m| m.value("phase.golden_ns"))
            .map(|ns| format!(", golden phase {:.2}s", ns as f64 / 1e9))
            .unwrap_or_default();
        eprintln!(
            "[campaign] {} / {} / {}: {} masks, golden {} cycles{}",
            header.injector,
            header.benchmark,
            header.structure,
            header.masks,
            header.golden.cycles_measured(),
            golden_phase
        );
    }

    fn on_run(&self, _index: usize, log: &RunLog) {
        let mut s = self.state.lock().expect("progress lock");
        s.done += 1;
        s.sim_cycles += log.result.cycles.unwrap_or(0);
        s.tallies[status_tag_index(log)] += 1;
        if !s.done.is_multiple_of(self.every) && s.done != s.total {
            return;
        }
        let elapsed = s.started.elapsed().as_secs_f64();
        let per_run = elapsed / s.done as f64;
        let remaining = s.total.saturating_sub(s.done);
        let runs_per_s = s.done as f64 / elapsed.max(1e-9);
        let mcyc_per_s = s.sim_cycles as f64 / 1e6 / elapsed.max(1e-9);
        let tallies: Vec<String> = STATUS_TAGS
            .iter()
            .zip(s.tallies.iter())
            .filter(|(_, &n)| n > 0)
            .map(|(tag, n)| format!("{tag}:{n}"))
            .collect();
        eprintln!(
            "[campaign] {}/{} ({:.1}%) | {:.1} ms/run | eta {:.1}s | {runs_per_s:.1} runs/s, \
             {mcyc_per_s:.1} Mcyc/s | {}",
            s.done,
            s.total,
            100.0 * s.done as f64 / s.total.max(1) as f64,
            1e3 * per_run,
            per_run * remaining as f64,
            tallies.join(" ")
        );
    }

    fn on_end(&self) {
        let s = self.state.lock().expect("progress lock");
        // Phase timings are the runner's gauges, not local arithmetic; the
        // classify gauge is stamped after on_end, so it reads as pending.
        let phases = self
            .metrics
            .as_ref()
            .map(|m| {
                let read = |name: &str| m.value(name).unwrap_or(0) as f64 / 1e9;
                format!(
                    " (golden {:.2}s, snapshots {:.2}s, injection {:.2}s)",
                    read("phase.golden_ns"),
                    read("phase.snapshots_ns"),
                    read("phase.injection_ns")
                )
            })
            .unwrap_or_default();
        eprintln!(
            "[campaign] done: {} runs in {:.2}s{}",
            s.done,
            s.started.elapsed().as_secs_f64(),
            phases
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{InjectionSpec, RawRunResult, RunStatus};
    use difi_uarch::fault::StructureId;

    fn header(n: u64) -> CampaignHeader {
        CampaignHeader {
            injector: "Fake-x86".into(),
            benchmark: "fake".into(),
            structure: "int_prf".into(),
            seed: 1,
            golden: RawRunResult {
                status: RunStatus::Completed { exit_code: 0 },
                output: Vec::new(),
                exceptions: Some(0),
                cycles: Some(100),
                instructions: Some(50),
                fault_consumed: false,
            },
            masks: n,
        }
    }

    fn run(i: u64) -> RunLog {
        RunLog {
            spec: InjectionSpec::single_transient(i, StructureId::IntRegFile, 0, 0, i),
            result: RawRunResult {
                status: RunStatus::Completed { exit_code: i },
                output: vec![i as u8],
                exceptions: Some(0),
                cycles: Some(10 + i),
                instructions: Some(5),
                fault_consumed: true,
            },
            provenance: None,
        }
    }

    #[test]
    fn memory_sink_collects_in_mask_order() {
        let sink = MemorySink::default();
        sink.on_start(&header(4));
        // Deliver out of order, as a parallel campaign would.
        for i in [2usize, 0, 3, 1] {
            sink.on_run(i, &run(i as u64));
        }
        sink.on_end();
        let runs = sink.into_runs();
        assert_eq!(runs.len(), 4);
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(r.spec.id, i as u64);
        }
    }

    #[test]
    #[should_panic(expected = "never completed")]
    fn memory_sink_panics_on_missing_slot() {
        let sink = MemorySink::default();
        sink.on_start(&header(2));
        sink.on_run(0, &run(0));
        let _ = sink.into_runs();
    }

    #[test]
    fn progress_sink_counts_without_panicking() {
        let sink = ProgressSink::every(2);
        sink.on_start(&header(3));
        for i in 0..3 {
            sink.on_run(i, &run(i as u64));
        }
        sink.on_end();
        let s = sink.state.lock().unwrap();
        assert_eq!(s.done, 3);
        assert_eq!(s.tallies[0], 3, "all runs completed");
    }

    fn trace(id: u64, outcome: &str) -> FaultTrace {
        use difi_obs::trace::{TraceEvent, TraceEventKind};
        FaultTrace {
            id,
            structure: "int_prf".into(),
            scenario: "bit_flips".into(),
            events: vec![
                TraceEvent {
                    cycle: 10,
                    kind: TraceEventKind::Injected,
                    detail: "int_prf entry 0 bit 0".into(),
                },
                TraceEvent {
                    cycle: 10 + id,
                    kind: TraceEventKind::FirstConsumed,
                    detail: "int_prf entry 0 bit 0".into(),
                },
                TraceEvent {
                    cycle: 100,
                    kind: TraceEventKind::Classified,
                    detail: outcome.into(),
                },
            ],
        }
    }

    #[test]
    fn trace_sink_writes_parseable_jsonl() {
        let dir = std::env::temp_dir().join("difi_sink_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("traces.jsonl");

        let sink = TraceSink::create(&path).unwrap();
        sink.on_start(&header(2));
        sink.on_run(0, &run(0));
        sink.on_trace(0, &trace(0, "sdc"));
        sink.on_trace(1, &trace(1, "masked"));
        sink.on_end();
        sink.finish().unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "one line per trace, none for plain runs");
        let j = difi_util::json::parse(lines[1]).expect("line parses");
        assert_eq!(j.get("index").and_then(Json::as_u64), Some(1));
        let back = FaultTrace::from_json(j.req("trace").unwrap()).unwrap();
        assert_eq!(back, trace(1, "masked"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_sink_surfaces_write_errors() {
        // A directory path cannot be created as a file: creation fails
        // loudly rather than silently producing a sink that drops traces.
        let dir = std::env::temp_dir().join("difi_sink_test");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(TraceSink::create(&dir).is_err());
    }

    #[test]
    fn memory_trace_sink_sorts_by_index() {
        let sink = MemoryTraceSink::new();
        sink.on_trace(2, &trace(2, "sdc"));
        sink.on_trace(0, &trace(0, "masked"));
        let traces = sink.into_traces();
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].0, 0);
        assert_eq!(traces[1].0, 2);
    }

    #[test]
    fn metrics_sink_feeds_registry() {
        let reg = Arc::new(MetricsRegistry::new());
        let sink = MetricsSink::new(Arc::clone(&reg));
        sink.on_start(&header(3));
        for i in 0..3 {
            sink.on_run(i, &run(i as u64));
        }
        sink.on_trace(0, &trace(0, "sdc"));
        sink.on_trace(1, &trace(4, "sdc"));
        sink.on_end();

        assert_eq!(reg.value("campaign.runs"), Some(3));
        assert_eq!(reg.value("campaign.status.completed"), Some(3));
        assert_eq!(reg.value("campaign.sim_cycles"), Some(10 + 11 + 12));
        assert_eq!(reg.value("campaign.sim_instructions"), Some(15));
        assert_eq!(reg.value("campaign.traces"), Some(2));
        let h = reg.histogram("latency.consume.int_prf.sdc");
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 4, "latencies 0 and 4");
    }

    fn prof(cycles: u64) -> ProfileCounters {
        ProfileCounters {
            profiled_cycles: cycles,
            committed_cycles: cycles / 2,
            stall_fetch: cycles - cycles / 2,
            rob_occ_sum: 10 * cycles,
            iq_occ_sum: 4 * cycles,
            lsq_occ_sum: 2 * cycles,
            squashes: 3,
            wakeups: 7,
            memo_hits: 5,
            ..ProfileCounters::default()
        }
    }

    #[test]
    fn memory_profile_sink_sorts_by_index() {
        let sink = MemoryProfileSink::new();
        sink.on_profile(2, &prof(100));
        sink.on_profile(0, &prof(50));
        let profiles = sink.into_profiles();
        assert_eq!(profiles.len(), 2);
        assert_eq!(profiles[0], (0, prof(50)));
        assert_eq!(profiles[1], (2, prof(100)));
    }

    #[test]
    fn metrics_sink_folds_profiles() {
        let reg = Arc::new(MetricsRegistry::new());
        let sink = MetricsSink::new(Arc::clone(&reg));
        sink.on_profile(0, &prof(100));
        sink.on_profile(1, &prof(60));
        assert_eq!(reg.value("campaign.profiled_runs"), Some(2));
        assert_eq!(reg.value("profile.cycles.total"), Some(160));
        assert_eq!(reg.value("profile.cycles.committed"), Some(80));
        assert_eq!(reg.value("profile.stall.fetch"), Some(80));
        assert_eq!(reg.value("profile.stall.rob_full"), Some(0));
        assert_eq!(reg.value("profile.squashes"), Some(6));
        assert_eq!(reg.value("profile.wakeups"), Some(14));
        assert_eq!(reg.value("profile.memo_hits"), Some(10));
        let rob = reg.histogram("profile.occ.rob");
        assert_eq!(rob.count(), 2, "one occupancy sample per profiled run");
        assert_eq!(rob.sum(), 20, "mean ROB occupancy 10 on both runs");
    }

    #[test]
    fn progress_sink_reads_registry_when_attached() {
        let reg = Arc::new(MetricsRegistry::new());
        reg.gauge("phase.golden_ns").set(1_500_000_000);
        let metrics = MetricsSink::new(Arc::clone(&reg));
        let sink = ProgressSink::every(2).with_metrics(Arc::clone(&reg));
        sink.on_start(&header(3));
        for i in 0..3 {
            metrics.on_run(i, &run(i as u64));
            sink.on_run(i, &run(i as u64));
        }
        sink.on_end();
        let s = sink.state.lock().unwrap();
        assert_eq!(s.done, 3);
    }

    #[test]
    fn journal_sink_append_to_inserts_missing_newline() {
        let dir = std::env::temp_dir().join("difi_sink_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("nonl.jsonl");

        let sink = JournalSink::create(&path).unwrap();
        sink.on_start(&header(2));
        sink.on_run(0, &run(0));
        sink.finish().unwrap();

        // Simulate a tear that ate the trailing newline but left the record
        // whole, then truncate nothing and append the next run.
        let mut bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.pop(), Some(b'\n'));
        std::fs::write(&path, &bytes).unwrap();

        let resumed = JournalSink::append_to(&path).unwrap();
        resumed.on_start(&header(2)); // must not write a second header
        resumed.on_run(1, &run(1));
        resumed.finish().unwrap();

        let back = crate::journal::load_journal(&path).unwrap();
        assert_eq!(back.header, Some(header(2)));
        assert_eq!(back.runs.len(), 2);
        assert_eq!(back.runs[0], (0, run(0)));
        assert_eq!(back.runs[1], (1, run(1)));
        std::fs::remove_file(&path).ok();
    }
}
