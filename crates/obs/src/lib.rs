//! # permea-obs — campaign telemetry
//!
//! The fault-injection executor is itself an experiment harness: snapshot
//! fast-forward, early reconvergence exit and the write-ahead journal all
//! claim to save or absorb work, and those claims should be *measured*,
//! not trusted. This crate provides the instrumentation layer every other
//! crate threads through:
//!
//! * **instruments** — [`Counter`], [`Gauge`] and log-bucketed
//!   [`Histogram`] handles backed by atomics in a [`Registry`];
//! * **phase spans** — nestable RAII timers ([`Obs::span`]) for the big
//!   campaign phases (golden runs, snapshot capture, result merge, ...);
//! * **events** — [`Event`]s (span begin/end, messages, run progress)
//!   dispatched to any number of [`Sink`]s: the in-memory [`Registry`],
//!   an append-only [`JsonlSink`] event log, a throttled human
//!   [`ProgressSink`] line, and a plain [`StderrSink`] for messages.
//!
//! # Cost model
//!
//! Instrumentation must be effectively free when nobody is looking. A
//! disabled handle ([`Obs::disabled`], the default) hands out no-op
//! instruments whose operations are a single branch on a null `Option` —
//! no allocation, no clock reads, no atomics. With telemetry enabled the
//! hot path is an atomic `fetch_add` per counter bump; only low-rate
//! operations (phase transitions, per-run completions) construct events
//! and touch sinks. perfbench times its end-to-end iterations on the
//! disabled path, and its `obs.overhead_frac` measures what an enabled
//! handle adds to a campaign.
//!
//! # Metric namespaces
//!
//! Metric names are namespaced by determinism, which is what lets a
//! resumed campaign prove its books balance:
//!
//! * `campaign.*` — deterministic facts about the campaign (run totals,
//!   outcome classes, fast-forward forks, reconvergence exits, simulated
//!   ticks per run window). Merged from the journal on resume, so an
//!   interrupted-and-resumed campaign reports *exactly* the same
//!   `campaign.*` values as an uninterrupted one.
//! * `process.*` — facts about this process's execution (wall-clock
//!   timings, fsync latency, runs actually executed vs recovered from the
//!   journal). Legitimately differs between resumed and uninterrupted
//!   executions.
//!
//! [`MetricsSnapshot::to_json_pretty`] renders the two namespaces as the
//! `"campaign"` and `"process"` sections of the `metrics.json` artifact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod metrics;
pub mod sink;
pub mod span;

pub use event::{Event, Level, Progress, StratumCi, EVENTS_SCHEMA_VERSION};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry, SpanStat,
    METRICS_SCHEMA_VERSION,
};
pub use sink::{JsonlSink, ProgressSink, Sink, StderrSink};
pub use span::Span;

use std::sync::Arc;
use std::time::Instant;

/// The shared state behind an enabled [`Obs`] handle.
#[derive(Debug)]
struct Shared {
    epoch: Instant,
    registry: Arc<Registry>,
    sinks: Vec<Arc<dyn Sink>>,
}

/// The telemetry handle threaded through the stack.
///
/// Cheap to clone (an `Option<Arc>`); a disabled handle makes every
/// operation a no-op behind a single branch.
///
/// # Examples
///
/// ```
/// use permea_obs::Obs;
///
/// let obs = Obs::with_sinks(vec![]);
/// let runs = obs.counter("campaign.runs_total");
/// runs.add(3);
/// let snap = obs.snapshot().unwrap();
/// assert_eq!(snap.counter("campaign.runs_total"), Some(3));
///
/// let off = Obs::disabled();
/// off.counter("campaign.runs_total").inc(); // no-op
/// assert!(off.snapshot().is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Obs {
    shared: Option<Arc<Shared>>,
}

impl Obs {
    /// A disabled handle: every instrument is a no-op, nothing is recorded.
    pub fn disabled() -> Obs {
        Obs { shared: None }
    }

    /// An enabled handle dispatching events to `sinks` (possibly empty —
    /// the in-memory [`Registry`] always aggregates and is snapshotable
    /// via [`Obs::snapshot`]).
    pub fn with_sinks(sinks: Vec<Arc<dyn Sink>>) -> Obs {
        Obs {
            shared: Some(Arc::new(Shared {
                epoch: Instant::now(),
                registry: Arc::new(Registry::default()),
                sinks,
            })),
        }
    }

    /// `true` when telemetry is being recorded.
    pub fn enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Microseconds since this handle was created (0 when disabled).
    pub fn now_micros(&self) -> u64 {
        self.shared
            .as_ref()
            .map_or(0, |s| s.epoch.elapsed().as_micros() as u64)
    }

    /// The in-memory registry, when enabled.
    pub fn registry(&self) -> Option<&Registry> {
        self.shared.as_ref().map(|s| &*s.registry)
    }

    /// Snapshots every instrument, when enabled.
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.registry().map(Registry::snapshot)
    }

    /// A counter handle for `name` (no-op when disabled). Handles are
    /// resolved once and bump a shared atomic thereafter — hold on to
    /// them in hot paths instead of re-resolving per operation.
    pub fn counter(&self, name: &'static str) -> Counter {
        match &self.shared {
            Some(s) => s.registry.counter(name),
            None => Counter::noop(),
        }
    }

    /// A gauge handle for `name` (no-op when disabled).
    pub fn gauge(&self, name: &'static str) -> Gauge {
        match &self.shared {
            Some(s) => s.registry.gauge(name),
            None => Gauge::noop(),
        }
    }

    /// A histogram handle for `name` (no-op when disabled).
    pub fn histogram(&self, name: &'static str) -> Histogram {
        match &self.shared {
            Some(s) => s.registry.histogram(name),
            None => Histogram::noop(),
        }
    }

    /// Opens a nestable phase span: emits [`Event::SpanBegin`] now and
    /// [`Event::SpanEnd`] (with the measured duration) when the returned
    /// guard drops. Disabled handles return an inert guard without
    /// reading the clock.
    pub fn span(&self, name: &'static str) -> Span {
        if self.enabled() {
            self.emit(&Event::SpanBegin { name });
            Span::running(self.clone(), name)
        } else {
            Span::inert()
        }
    }

    /// Emits an informational message event.
    pub fn info(&self, text: impl AsRef<str>) {
        self.message(Level::Info, text.as_ref());
    }

    /// Emits a warning message event.
    pub fn warn(&self, text: impl AsRef<str>) {
        self.message(Level::Warn, text.as_ref());
    }

    /// Emits an error message event.
    pub fn error(&self, text: impl AsRef<str>) {
        self.message(Level::Error, text.as_ref());
    }

    fn message(&self, level: Level, text: &str) {
        if self.enabled() {
            self.emit(&Event::Message { level, text });
        }
    }

    /// Emits a campaign progress event (sinks throttle display/logging
    /// themselves).
    pub fn progress(&self, progress: &Progress) {
        if self.enabled() {
            self.emit(&Event::Progress(progress));
        }
    }

    /// Flushes every attached sink's buffered output. Call before reading
    /// back a sink-written file (an `--events` log) in the same process.
    pub fn flush(&self) {
        if let Some(s) = &self.shared {
            for sink in &s.sinks {
                sink.flush();
            }
        }
    }

    /// Dispatches an event to the registry and every attached sink.
    pub fn emit(&self, event: &Event<'_>) {
        if let Some(s) = &self.shared {
            let now = s.epoch.elapsed().as_micros() as u64;
            s.registry.event(now, event);
            for sink in &s.sinks {
                sink.event(now, event);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[derive(Debug, Default)]
    struct CaptureSink {
        lines: Mutex<Vec<String>>,
    }
    impl Sink for CaptureSink {
        fn event(&self, _now: u64, event: &Event<'_>) {
            self.lines.lock().unwrap().push(format!("{event:?}"));
        }
    }

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.enabled());
        obs.counter("campaign.x").add(5);
        obs.gauge("process.g").set(1);
        obs.histogram("process.h").observe(10);
        obs.info("nobody hears this");
        drop(obs.span("phase"));
        assert!(obs.snapshot().is_none());
        assert_eq!(obs.now_micros(), 0);
    }

    #[test]
    fn instruments_aggregate_into_the_registry() {
        let obs = Obs::with_sinks(vec![]);
        let c = obs.counter("campaign.runs_total");
        c.inc();
        c.add(2);
        obs.counter("campaign.runs_total").inc(); // same underlying cell
        obs.gauge("process.wall_ms").set(123);
        obs.histogram("process.run_micros").observe(900);
        let snap = obs.snapshot().unwrap();
        assert_eq!(snap.counter("campaign.runs_total"), Some(4));
        assert_eq!(snap.gauges.get("process.wall_ms"), Some(&123));
        assert_eq!(snap.histograms["process.run_micros"].count, 1);
    }

    #[test]
    fn events_reach_every_sink() {
        let sink = Arc::new(CaptureSink::default());
        let obs = Obs::with_sinks(vec![sink.clone()]);
        obs.info("hello");
        {
            let _outer = obs.span("outer");
            let _inner = obs.span("inner");
        }
        let lines = sink.lines.lock().unwrap();
        assert_eq!(lines.len(), 5); // message + 2 begins + 2 ends
        assert!(lines[0].contains("hello"));
        // Nested spans close inner-first.
        assert!(lines[3].contains("inner"));
        assert!(lines[4].contains("outer"));
    }

    #[test]
    fn spans_accumulate_in_the_registry() {
        let obs = Obs::with_sinks(vec![]);
        {
            let _g = obs.span("golden");
        }
        {
            let _g = obs.span("golden");
        }
        let snap = obs.snapshot().unwrap();
        let stat = &snap.spans["golden"];
        assert_eq!(stat.count, 2);
    }
}
