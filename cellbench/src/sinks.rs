//! Run sinks the benchmark attaches: a timing wrapper around the library's
//! file sinks, and a tally that catches missing or repeated deliveries.

use crate::spans::{timed, Spans};
use difi::prelude::*;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Forwards every callback to `inner`, each inside a span named `name`.
pub struct Timed<'a, S> {
    /// The wrapped sink.
    pub inner: S,
    name: &'static str,
    spans: Option<&'a Spans>,
}

impl<'a, S: RunSink> Timed<'a, S> {
    /// Wraps `inner`; without a recorder the wrapper only forwards.
    pub fn new(inner: S, name: &'static str, spans: Option<&'a Spans>) -> Timed<'a, S> {
        Timed { inner, name, spans }
    }

    /// Runs `f` on the wrapped sink inside a span, for calls outside the
    /// trait such as `finish`.
    pub fn time<T>(&self, f: impl FnOnce(&S) -> T) -> T {
        timed(self.spans, self.name, None, || f(&self.inner))
    }
}

impl<S: RunSink> RunSink for Timed<'_, S> {
    fn on_start(&self, header: &CampaignHeader) {
        self.time(|s| s.on_start(header));
    }

    fn on_run(&self, index: usize, log: &RunLog) {
        timed(self.spans, self.name, Some(log.spec.id), || {
            self.inner.on_run(index, log);
        });
    }

    fn on_trace(&self, index: usize, trace: &FaultTrace) {
        timed(self.spans, self.name, Some(trace.id), || {
            self.inner.on_trace(index, trace);
        });
    }

    fn on_profile(&self, index: usize, prof: &ProfileCounters) {
        self.time(|s| s.on_profile(index, prof));
    }

    fn on_end(&self) {
        self.time(|s| s.on_end());
    }
}

/// Counts deliveries per mask slot.
pub struct Tally {
    seen: Vec<AtomicU32>,
    stray: AtomicU64,
}

impl Tally {
    /// A tally for a campaign of `masks` masks.
    pub fn new(masks: usize) -> Tally {
        Tally {
            seen: (0..masks).map(|_| AtomicU32::new(0)).collect(),
            stray: AtomicU64::new(0),
        }
    }

    /// Masks delivered other than exactly once, plus deliveries to slots
    /// outside the campaign.
    pub fn faults(&self) -> u64 {
        let wrong = self
            .seen
            .iter()
            .filter(|n| n.load(Ordering::Relaxed) != 1)
            .count() as u64;
        wrong + self.stray.load(Ordering::Relaxed)
    }
}

impl RunSink for Tally {
    fn on_run(&self, index: usize, _log: &RunLog) {
        match self.seen.get(index) {
            Some(n) => {
                n.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                self.stray.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_flags_missing_repeated_and_stray_deliveries() {
        let log = RunLog {
            spec: InjectionSpec::fault_free(0),
            result: RawRunResult::unexecuted(RunStatus::Timeout),
            provenance: None,
        };
        let t = Tally::new(3);
        t.on_run(0, &log);
        t.on_run(1, &log);
        t.on_run(1, &log);
        t.on_run(5, &log);
        // slot 1 twice, slot 2 never, one stray
        assert_eq!(t.faults(), 3);
    }
}
