//! Report aggregation: from classified runs to the per-benchmark /
//! per-structure breakdowns behind the paper's Figs. 2–6, plus the
//! observability layer's fault-effect-latency breakdown
//! ([`LatencyReport`]).

use crate::classify::{Classifier, Outcome};
use crate::logs::CampaignLog;
use difi_obs::metrics::CycleHistogram;
use difi_obs::trace::FaultTrace;
use difi_uarch::ProfileCounters;
use difi_util::json::Json;
use difi_util::stats::Proportion;
use std::collections::BTreeMap;

/// Counts per fault-effect class for one campaign cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts {
    /// Masked runs.
    pub masked: u64,
    /// Silent data corruptions.
    pub sdc: u64,
    /// Detected unrecoverable errors.
    pub due: u64,
    /// Timeouts (deadlock/livelock).
    pub timeout: u64,
    /// Crashes (process/system/simulator).
    pub crash: u64,
    /// Simulator assertions.
    pub assert_: u64,
}

impl ClassCounts {
    /// Total runs.
    pub fn total(&self) -> u64 {
        self.masked + self.sdc + self.due + self.timeout + self.crash + self.assert_
    }

    /// Count for one class.
    pub fn get(&self, o: Outcome) -> u64 {
        match o {
            Outcome::Masked => self.masked,
            Outcome::Sdc => self.sdc,
            Outcome::Due => self.due,
            Outcome::Timeout => self.timeout,
            Outcome::Crash => self.crash,
            Outcome::Assert => self.assert_,
        }
    }

    /// Adds one classified run.
    pub fn add(&mut self, o: Outcome) {
        match o {
            Outcome::Masked => self.masked += 1,
            Outcome::Sdc => self.sdc += 1,
            Outcome::Due => self.due += 1,
            Outcome::Timeout => self.timeout += 1,
            Outcome::Crash => self.crash += 1,
            Outcome::Assert => self.assert_ += 1,
        }
    }

    /// Merges another cell into this one.
    pub fn merge(&mut self, other: &ClassCounts) {
        self.masked += other.masked;
        self.sdc += other.sdc;
        self.due += other.due;
        self.timeout += other.timeout;
        self.crash += other.crash;
        self.assert_ += other.assert_;
    }

    /// The paper's *vulnerability*: "the sum of all non-masked behaviors",
    /// as a fraction of total runs.
    pub fn vulnerability(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            (t - self.masked) as f64 / t as f64
        }
    }

    /// Fraction of runs in one class.
    pub fn fraction(&self, o: Outcome) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.get(o) as f64 / t as f64
        }
    }

    /// Wilson confidence interval for the vulnerability at `confidence`.
    ///
    /// # Panics
    ///
    /// Panics when the cell is empty.
    pub fn vulnerability_interval(&self, confidence: f64) -> Proportion {
        Proportion::wilson(self.total() - self.masked, self.total(), confidence)
    }
}

/// Classifies every run of a campaign log against its own golden run.
pub fn classify_log(log: &CampaignLog) -> ClassCounts {
    classify_log_with(log, &Classifier::from_golden(&log.golden))
}

/// Classifies a campaign log with an explicit (possibly reconfigured)
/// classifier.
pub fn classify_log_with(log: &CampaignLog, classifier: &Classifier) -> ClassCounts {
    let mut counts = ClassCounts::default();
    for run in &log.runs {
        counts.add(classifier.classify(&run.result));
    }
    counts
}

/// One row of a figure: a benchmark with its three per-injector cells
/// (MaFIN-x86, GeFIN-x86, GeFIN-ARM — the paper's three stacked bars).
#[derive(Debug, Clone)]
pub struct FigureRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Per-injector class counts, in the paper's bar order.
    pub cells: Vec<(String, ClassCounts)>,
}

/// A full figure: one hardware structure across benchmarks and injectors.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Figure title (e.g. "Fig. 3 — L1D cache (data arrays)").
    pub title: String,
    /// Per-benchmark rows.
    pub rows: Vec<FigureRow>,
}

impl Figure {
    /// The average row (the paper's rightmost "average" bars): per injector,
    /// the merge of all benchmark cells.
    pub fn averages(&self) -> Vec<(String, ClassCounts)> {
        let mut avg: Vec<(String, ClassCounts)> = Vec::new();
        for row in &self.rows {
            for (inj, counts) in &row.cells {
                match avg.iter_mut().find(|(n, _)| n == inj) {
                    Some((_, c)) => c.merge(counts),
                    None => avg.push((inj.clone(), *counts)),
                }
            }
        }
        avg
    }

    /// Renders the figure as an aligned text table (percent per class),
    /// ending with the average row — the textual equivalent of the paper's
    /// stacked-bar charts.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("{}\n", self.title));
        s.push_str(&format!(
            "{:<10} {:<11} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>7}\n",
            "benchmark", "injector", "masked", "sdc", "due", "tmout", "crash", "assrt", "vuln%"
        ));
        let render_cells = |name: &str, cells: &[(String, ClassCounts)], s: &mut String| {
            for (inj, c) in cells {
                s.push_str(&format!(
                    "{:<10} {:<11} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>7.2}\n",
                    name,
                    inj,
                    100.0 * c.fraction(Outcome::Masked),
                    100.0 * c.fraction(Outcome::Sdc),
                    100.0 * c.fraction(Outcome::Due),
                    100.0 * c.fraction(Outcome::Timeout),
                    100.0 * c.fraction(Outcome::Crash),
                    100.0 * c.fraction(Outcome::Assert),
                    100.0 * c.vulnerability(),
                ));
            }
        };
        for row in &self.rows {
            render_cells(&row.benchmark, &row.cells, &mut s);
        }
        render_cells("AVERAGE", &self.averages(), &mut s);
        s
    }
}

/// One latency cell: a structure × outcome class with the latency
/// distributions of every trace that landed in it.
#[derive(Debug, Clone)]
pub struct LatencyRow {
    /// Target structure name (e.g. `"l2_data"`).
    pub structure: String,
    /// Outcome class name (`"masked"`, `"sdc"`, …, or `"unclassified"`).
    pub outcome: String,
    /// Traces aggregated into this cell.
    pub traces: u64,
    /// Injection → first-consumption latency distribution (cycles); only
    /// traces whose fault was actually read contribute.
    pub consume: CycleHistogram,
    /// Injection → first-architectural-divergence latency distribution
    /// (cycles); only traces that diverged from golden contribute.
    pub diverge: CycleHistogram,
}

/// Fault-effect latencies per structure × outcome class: how long an
/// injected fault lives before the machine consumes it, and how much longer
/// before the architectural state visibly diverges. The temporal companion
/// to the class-fraction figures — two campaigns with identical class
/// fractions can have very different latency profiles.
#[derive(Debug, Clone, Default)]
pub struct LatencyReport {
    /// Cells in (structure, outcome) order.
    pub rows: Vec<LatencyRow>,
}

impl LatencyReport {
    /// Aggregates an iterator of traces into per-cell distributions.
    /// Traces without a `Classified` event land in an `"unclassified"`
    /// cell rather than being dropped.
    pub fn from_traces<'a, I>(traces: I) -> LatencyReport
    where
        I: IntoIterator<Item = &'a FaultTrace>,
    {
        let mut cells: BTreeMap<(String, String), LatencyRow> = BTreeMap::new();
        for t in traces {
            let outcome = t.outcome().unwrap_or("unclassified").to_string();
            let row = cells
                .entry((t.structure.clone(), outcome.clone()))
                .or_insert_with(|| LatencyRow {
                    structure: t.structure.clone(),
                    outcome,
                    traces: 0,
                    consume: CycleHistogram::new(),
                    diverge: CycleHistogram::new(),
                });
            row.traces += 1;
            if let Some(lat) = t.consume_latency() {
                row.consume.record(lat);
            }
            if let Some(lat) = t.divergence_latency() {
                row.diverge.record(lat);
            }
        }
        LatencyReport {
            rows: cells.into_values().collect(),
        }
    }

    /// Renders the report as an aligned text table (mean and p50/p99
    /// latencies in cycles; `-` for cells where no trace reached that
    /// lifecycle stage). Percentiles are bucket upper bounds of the
    /// power-of-two histogram, so they read as "at most this many cycles".
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("Fault-effect latency (cycles from injection)\n");
        s.push_str(&format!(
            "{:<10} {:<12} {:>7} {:>9} {:>10} {:>8} {:>8} {:>9} {:>10} {:>8} {:>8}\n",
            "structure",
            "outcome",
            "traces",
            "consumed",
            "mean_cons",
            "p50",
            "p99",
            "diverged",
            "mean_div",
            "p50",
            "p99"
        ));
        let mean = |h: &CycleHistogram| match h.mean() {
            Some(m) => format!("{m:.1}"),
            None => "-".to_string(),
        };
        let quant = |h: &CycleHistogram, q: f64| match h.quantile(q) {
            Some(v) => v.to_string(),
            None => "-".to_string(),
        };
        for r in &self.rows {
            s.push_str(&format!(
                "{:<10} {:<12} {:>7} {:>9} {:>10} {:>8} {:>8} {:>9} {:>10} {:>8} {:>8}\n",
                r.structure,
                r.outcome,
                r.traces,
                r.consume.count(),
                mean(&r.consume),
                quant(&r.consume, 0.5),
                quant(&r.consume, 0.99),
                r.diverge.count(),
                mean(&r.diverge),
                quant(&r.diverge, 0.5),
                quant(&r.diverge, 0.99),
            ));
        }
        s
    }

    /// JSON form: `{"rows":[{"structure":…,"outcome":…,"traces":…,
    /// "consume":{hist},"diverge":{hist}},…]}` — the campaign bin's
    /// `--metrics-out` companion section.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![(
            "rows",
            Json::Arr(
                self.rows
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("structure", Json::Str(r.structure.clone())),
                            ("outcome", Json::Str(r.outcome.clone())),
                            ("traces", Json::U64(r.traces)),
                            ("consume", r.consume.to_json()),
                            ("diverge", r.diverge.to_json()),
                        ])
                    })
                    .collect(),
            ),
        )])
    }
}

/// Serializes one [`ProfileCounters`] block, stall buckets keyed by the
/// taxonomy names.
fn profile_counters_json(p: &ProfileCounters) -> Json {
    let stalls: Vec<(&str, Json)> = ProfileCounters::STALL_NAMES
        .iter()
        .zip(p.stalls())
        .map(|(name, n)| (*name, Json::U64(n)))
        .collect();
    Json::obj(vec![
        ("profiled_cycles", Json::U64(p.profiled_cycles)),
        ("committed_cycles", Json::U64(p.committed_cycles)),
        ("stalls", Json::obj(stalls)),
        ("rob_occ_sum", Json::U64(p.rob_occ_sum)),
        ("iq_occ_sum", Json::U64(p.iq_occ_sum)),
        ("lsq_occ_sum", Json::U64(p.lsq_occ_sum)),
        ("squashes", Json::U64(p.squashes)),
        ("wakeups", Json::U64(p.wakeups)),
        ("memo_hits", Json::U64(p.memo_hits)),
    ])
}

/// The pipeline stall/occupancy profile of one campaign cell: where the
/// golden run's cycles went, where the faulty runs' cycles went, and the
/// differential between the two — a fault that jams the ROB or floods the
/// squash path shows up here as a stall-share delta even when its verdict
/// is Masked. The occupancy histograms sample each profiled run's *mean*
/// queue occupancy, so their quantiles describe run-to-run variation.
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    /// The golden (fault-free) run's counters, when profiled.
    pub golden: Option<ProfileCounters>,
    /// Accumulated counters over every profiled faulty run.
    pub faulty: ProfileCounters,
    /// Profiled faulty runs behind `faulty`.
    pub faulty_runs: u64,
    /// Per-run mean ROB occupancy distribution (entries).
    pub rob_occ: CycleHistogram,
    /// Per-run mean issue-queue occupancy distribution (entries).
    pub iq_occ: CycleHistogram,
    /// Per-run mean LSQ occupancy distribution (entries).
    pub lsq_occ: CycleHistogram,
}

impl ProfileReport {
    /// An empty report.
    pub fn new() -> ProfileReport {
        ProfileReport::default()
    }

    /// Builds a report from the golden profile and the per-run counters a
    /// [`crate::sink::MemoryProfileSink`] collected.
    pub fn from_profiles<'a, I>(golden: Option<ProfileCounters>, profiles: I) -> ProfileReport
    where
        I: IntoIterator<Item = &'a ProfileCounters>,
    {
        let mut rep = ProfileReport {
            golden,
            ..ProfileReport::default()
        };
        for p in profiles {
            rep.push(p);
        }
        rep
    }

    /// Folds one faulty run's counters into the aggregate.
    pub fn push(&mut self, prof: &ProfileCounters) {
        self.faulty.accumulate(prof);
        self.faulty_runs += 1;
        if let Some((rob, iq, lsq)) = prof.mean_occupancy() {
            self.rob_occ.record(rob as u64);
            self.iq_occ.record(iq as u64);
            self.lsq_occ.record(lsq as u64);
        }
    }

    /// Share of `p`'s profiled cycles spent in each attribution bucket
    /// (committed first, then the stall taxonomy), as percentages.
    fn shares(p: &ProfileCounters) -> Vec<f64> {
        let total = p.profiled_cycles.max(1) as f64;
        let mut shares = vec![100.0 * p.committed_cycles as f64 / total];
        shares.extend(p.stalls().iter().map(|&n| 100.0 * n as f64 / total));
        shares
    }

    /// Renders the stall-breakdown table (golden share, faulty share, and
    /// the differential column) followed by the occupancy summary.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("Pipeline stall/occupancy profile\n");
        s.push_str(&format!(
            "{:<14} {:>9} {:>9} {:>8}\n",
            "cycles went to", "golden%", "faulty%", "delta"
        ));
        let golden = self.golden.as_ref().map(ProfileReport::shares);
        let faulty = ProfileReport::shares(&self.faulty);
        let mut names = vec!["committed"];
        names.extend(ProfileCounters::STALL_NAMES);
        for (k, name) in names.iter().enumerate() {
            let f = faulty[k];
            match &golden {
                Some(g) => s.push_str(&format!(
                    "{:<14} {:>9.2} {:>9.2} {:>+8.2}\n",
                    name,
                    g[k],
                    f,
                    f - g[k]
                )),
                None => s.push_str(&format!("{:<14} {:>9} {:>9.2} {:>8}\n", name, "-", f, "-")),
            }
        }
        s.push_str(&format!(
            "profiled: golden {} cycles, {} faulty runs / {} cycles\n",
            self.golden.map_or(0, |g| g.profiled_cycles),
            self.faulty_runs,
            self.faulty.profiled_cycles,
        ));
        let line = |name: &str, h: &CycleHistogram| {
            let q = |q: f64| match h.quantile(q) {
                Some(v) => v.to_string(),
                None => "-".to_string(),
            };
            match h.mean() {
                Some(m) => format!(
                    "occupancy {name}: mean {m:.1}, p50 {} p99 {} (per-run means, entries)\n",
                    q(0.5),
                    q(0.99)
                ),
                None => format!("occupancy {name}: no profiled runs\n"),
            }
        };
        s.push_str(&line("rob", &self.rob_occ));
        s.push_str(&line("iq", &self.iq_occ));
        s.push_str(&line("lsq", &self.lsq_occ));
        s
    }

    /// JSON form: `{"golden":{counters}|null,"faulty":{counters},
    /// "faulty_runs":…,"occupancy":{"rob":{hist},"iq":{hist},
    /// "lsq":{hist}}}` — the campaign bin's `--profile-out` payload.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "golden",
                match &self.golden {
                    Some(g) => profile_counters_json(g),
                    None => Json::Null,
                },
            ),
            ("faulty", profile_counters_json(&self.faulty)),
            ("faulty_runs", Json::U64(self.faulty_runs)),
            (
                "occupancy",
                Json::obj(vec![
                    ("rob", self.rob_occ.to_json()),
                    ("iq", self.iq_occ.to_json()),
                    ("lsq", self.lsq_occ.to_json()),
                ]),
            ),
        ])
    }
}

/// One cell of the static-vs-measured AVF comparison: a structure on a
/// benchmark under one injector backend.
#[derive(Debug, Clone)]
pub struct AvfRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Injector backend (`"MaFIN-x86"`, `"GeFIN-ARM"`, …).
    pub injector: String,
    /// Structure name (`"int_prf"`, `"l1d_data"`, …).
    pub structure: String,
    /// Static AVF from the golden-run residency trace (`difi-ace`).
    pub static_avf: f64,
    /// Measured non-Masked rate of the matching injection campaign.
    pub measured: f64,
    /// Injection runs behind the measured estimate.
    pub runs: u64,
    /// False when the residency trace was truncated, making `static_avf` a
    /// lower bound.
    pub exact: bool,
}

/// The differential study's third axis: static ACE-derived AVF against the
/// measured non-Masked rate, per structure × benchmark × backend.
///
/// Static AVF over-approximates measured vulnerability (ACE counts every
/// consumed bit; the machine masks many consumed corruptions downstream),
/// so `static ≥ measured` is the expected relation — rows violating it
/// localize modeling disagreements exactly like the paper's cross-simulator
/// comparison does.
#[derive(Debug, Clone, Default)]
pub struct AvfComparison {
    /// Comparison rows, in insertion order.
    pub rows: Vec<AvfRow>,
}

impl AvfComparison {
    /// An empty comparison.
    pub fn new() -> AvfComparison {
        AvfComparison::default()
    }

    /// Adds one cell, deriving the measured rate from campaign counts.
    pub fn push(
        &mut self,
        benchmark: &str,
        injector: &str,
        structure: &str,
        static_avf: f64,
        exact: bool,
        counts: &ClassCounts,
    ) {
        self.rows.push(AvfRow {
            benchmark: benchmark.to_string(),
            injector: injector.to_string(),
            structure: structure.to_string(),
            static_avf,
            measured: counts.vulnerability(),
            runs: counts.total(),
            exact,
        });
    }

    /// Renders the comparison as an aligned text table (percentages).
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(
            "Static ACE/AVF vs. measured non-Masked rate
",
        );
        s.push_str(&format!(
            "{:<10} {:<11} {:<10} {:>9} {:>9} {:>6}
",
            "benchmark", "injector", "structure", "static%", "meas%", "runs"
        ));
        for r in &self.rows {
            s.push_str(&format!(
                "{:<10} {:<11} {:<10} {:>8.2}{} {:>9.2} {:>6}
",
                r.benchmark,
                r.injector,
                r.structure,
                100.0 * r.static_avf,
                if r.exact { " " } else { "+" },
                100.0 * r.measured,
                r.runs,
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logs::RunLog;
    use crate::model::{InjectionSpec, RawRunResult, RunStatus};
    use difi_uarch::fault::StructureId;

    fn result(status: RunStatus, out: &[u8]) -> RawRunResult {
        RawRunResult {
            status,
            output: out.to_vec(),
            exceptions: Some(0),
            cycles: Some(10),
            instructions: Some(5),
            fault_consumed: true,
        }
    }

    fn log() -> CampaignLog {
        let golden = RawRunResult {
            status: RunStatus::Completed { exit_code: 0 },
            output: b"g".to_vec(),
            exceptions: Some(0),
            cycles: Some(10),
            instructions: Some(5),
            fault_consumed: false,
        };
        let statuses = vec![
            result(RunStatus::Completed { exit_code: 0 }, b"g"), // masked
            result(RunStatus::Completed { exit_code: 0 }, b"x"), // sdc
            result(RunStatus::Timeout, b""),
            result(RunStatus::SimulatorAssert("a".into()), b""),
            result(RunStatus::ProcessCrash("c".into()), b""),
            result(RunStatus::Completed { exit_code: 0 }, b"g"), // masked
        ];
        CampaignLog {
            injector: "MaFIN-x86".into(),
            benchmark: "qsort".into(),
            structure: "l1d_data".into(),
            seed: 0,
            golden,
            runs: statuses
                .into_iter()
                .enumerate()
                .map(|(i, result)| RunLog {
                    spec: InjectionSpec::single_transient(i as u64, StructureId::L1dData, 0, 0, 0),
                    result,
                    provenance: None,
                })
                .collect(),
        }
    }

    #[test]
    fn classify_log_counts_classes() {
        let c = classify_log(&log());
        assert_eq!(c.masked, 2);
        assert_eq!(c.sdc, 1);
        assert_eq!(c.timeout, 1);
        assert_eq!(c.assert_, 1);
        assert_eq!(c.crash, 1);
        assert_eq!(c.total(), 6);
        assert!((c.vulnerability() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn counts_merge_and_fraction() {
        let mut a = ClassCounts {
            masked: 8,
            sdc: 2,
            ..Default::default()
        };
        let b = ClassCounts {
            masked: 2,
            crash: 8,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.total(), 20);
        assert!((a.fraction(Outcome::Masked) - 0.5).abs() < 1e-12);
        assert!((a.vulnerability() - 0.5).abs() < 1e-12);
        let ci = a.vulnerability_interval(0.99);
        assert!(ci.lo < 0.5 && ci.hi > 0.5);
    }

    #[test]
    fn latency_report_groups_by_structure_and_outcome() {
        use difi_obs::trace::{TraceEvent, TraceEventKind};
        let mk = |structure: &str, outcome: Option<&str>, consumed: Option<u64>| {
            let mut events = vec![TraceEvent {
                cycle: 100,
                kind: TraceEventKind::Injected,
                detail: String::new(),
            }];
            if let Some(c) = consumed {
                events.push(TraceEvent {
                    cycle: 100 + c,
                    kind: TraceEventKind::FirstConsumed,
                    detail: String::new(),
                });
            }
            if let Some(o) = outcome {
                events.push(TraceEvent {
                    cycle: 500,
                    kind: TraceEventKind::Classified,
                    detail: o.into(),
                });
            }
            FaultTrace {
                id: 0,
                structure: structure.into(),
                scenario: "bit_flips".into(),
                events,
            }
        };
        let traces = vec![
            mk("iq", Some("sdc"), Some(8)),
            mk("iq", Some("sdc"), Some(16)),
            mk("iq", Some("masked"), None),
            mk("l2_data", None, Some(4)),
        ];
        let rep = LatencyReport::from_traces(&traces);
        assert_eq!(rep.rows.len(), 3);
        let sdc = rep
            .rows
            .iter()
            .find(|r| r.structure == "iq" && r.outcome == "sdc")
            .unwrap();
        assert_eq!(sdc.traces, 2);
        assert_eq!(sdc.consume.count(), 2);
        assert_eq!(sdc.consume.sum(), 24);
        let uncls = rep
            .rows
            .iter()
            .find(|r| r.outcome == "unclassified")
            .unwrap();
        assert_eq!(uncls.structure, "l2_data");
        assert_eq!(uncls.consume.count(), 1);
        let text = rep.render();
        assert!(text.contains("structure") && text.contains("sdc"));
        let j = rep.to_json();
        let back = difi_util::json::parse(&j.to_string()).expect("reparses");
        assert_eq!(back, j);
    }

    #[test]
    fn profile_report_aggregates_and_serializes() {
        let mk = |committed: u64, fetch: u64, rob_full: u64| ProfileCounters {
            profiled_cycles: committed + fetch + rob_full,
            committed_cycles: committed,
            stall_fetch: fetch,
            stall_rob_full: rob_full,
            rob_occ_sum: 20 * (committed + fetch + rob_full),
            iq_occ_sum: 8 * (committed + fetch + rob_full),
            lsq_occ_sum: 4 * (committed + fetch + rob_full),
            ..ProfileCounters::default()
        };
        let golden = mk(80, 20, 0);
        let faulty = [mk(60, 20, 20), mk(40, 20, 40)];
        let rep = ProfileReport::from_profiles(Some(golden), faulty.iter());
        assert_eq!(rep.faulty_runs, 2);
        assert_eq!(rep.faulty.profiled_cycles, 200);
        assert_eq!(rep.faulty.committed_cycles, 100);
        assert_eq!(rep.faulty.stall_rob_full, 60);
        assert_eq!(rep.rob_occ.count(), 2, "one occupancy sample per run");

        let text = rep.render();
        assert!(text.contains("rob_full"), "taxonomy row present");
        assert!(text.contains("+30.00"), "rob_full delta 0% -> 30%");
        assert!(text.contains("occupancy rob"));

        let j = rep.to_json();
        let back = difi_util::json::parse(&j.to_string()).expect("reparses");
        assert_eq!(back, j);
        let g = j.get("golden").expect("golden block");
        assert_eq!(g.get("profiled_cycles").and_then(Json::as_u64), Some(100));
        let stalls = j.get("faulty").and_then(|f| f.get("stalls")).unwrap();
        assert_eq!(stalls.get("rob_full").and_then(Json::as_u64), Some(60));
        assert_eq!(j.get("faulty_runs").and_then(Json::as_u64), Some(2));
        assert!(j.get("occupancy").and_then(|o| o.get("lsq")).is_some());

        // Without a golden profile the differential column degenerates to
        // "-" and the JSON carries an explicit null.
        let no_golden = ProfileReport::from_profiles(None, faulty.iter());
        assert!(no_golden.render().contains('-'));
        assert_eq!(no_golden.to_json().get("golden"), Some(&Json::Null));
    }

    #[test]
    fn figure_average_merges_all_rows() {
        let cell = |m, s| ClassCounts {
            masked: m,
            sdc: s,
            ..Default::default()
        };
        let fig = Figure {
            title: "T".into(),
            rows: vec![
                FigureRow {
                    benchmark: "a".into(),
                    cells: vec![("M".into(), cell(9, 1)), ("G".into(), cell(8, 2))],
                },
                FigureRow {
                    benchmark: "b".into(),
                    cells: vec![("M".into(), cell(7, 3)), ("G".into(), cell(6, 4))],
                },
            ],
        };
        let avg = fig.averages();
        assert_eq!(avg.len(), 2);
        let m = &avg.iter().find(|(n, _)| n == "M").unwrap().1;
        assert_eq!(m.masked, 16);
        assert_eq!(m.sdc, 4);
        let rendered = fig.render();
        assert!(rendered.contains("AVERAGE"));
        assert!(rendered.contains("benchmark"));
    }
}
