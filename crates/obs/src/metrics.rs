//! Instruments and the in-memory registry.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Option<Arc<...>>`
//! wrappers: a disabled handle costs one branch per operation, an enabled
//! one an atomic read-modify-write. The [`Registry`] owns the backing
//! cells, keyed by `&'static str` name, and renders deterministic
//! snapshots — the source of the `metrics.json` artifact.

use crate::event::Event;
use crate::sink::Sink;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Number of log₂ buckets a [`Histogram`] keeps: bucket 0 holds exact
/// zeros, bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing counter (no-op when obtained from a
/// disabled [`crate::Obs`]).
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A counter that records nothing.
    pub fn noop() -> Counter {
        Counter(None)
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op counter).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A last-value-wins gauge (no-op when disabled).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// A gauge that records nothing.
    pub fn noop() -> Gauge {
        Gauge(None)
    }

    /// Sets the value.
    pub fn set(&self, v: u64) {
        if let Some(cell) = &self.0 {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op gauge).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Lock-free backing state of one histogram.
#[derive(Debug)]
pub(crate) struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Index of the log₂ bucket holding `v`.
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (the value reported for quantiles
/// resolved to that bucket).
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A log-bucketed histogram: 64 power-of-two buckets plus an exact-zero
/// bucket, a running sum, count and max. Observation is three relaxed
/// atomic adds and one atomic max — safe for concurrent workers.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// A histogram that records nothing.
    pub fn noop() -> Histogram {
        Histogram(None)
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        if let Some(core) = &self.0 {
            core.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
            core.count.fetch_add(1, Ordering::Relaxed);
            core.sum.fetch_add(v, Ordering::Relaxed);
            core.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Number of observations so far (0 for a no-op histogram).
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |c| c.count.load(Ordering::Relaxed))
    }
}

/// Frozen view of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observation count.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Non-empty buckets as `(inclusive upper bound, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile (`0 ≤ q ≤ 1`;
    /// `None` when empty). Log-bucketed, so the answer is exact to within
    /// a factor of two — plenty for latency triage.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(upper, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Some(upper);
            }
        }
        self.buckets.last().map(|&(upper, _)| upper)
    }
}

/// Accumulated timings of one named phase span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Completed span instances.
    pub count: u64,
    /// Total duration across instances, µs.
    pub total_micros: u64,
}

/// The in-memory aggregation sink: owns every instrument cell and
/// aggregates span events. Snapshots are deterministic (`BTreeMap`
/// ordering) so rendered artifacts diff cleanly.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<&'static str, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<&'static str, Arc<AtomicU64>>>,
    histograms: RwLock<BTreeMap<&'static str, Arc<HistogramCore>>>,
    spans: RwLock<BTreeMap<String, SpanStat>>,
}

impl Registry {
    /// The counter cell named `name` (created on first use).
    pub fn counter(&self, name: &'static str) -> Counter {
        if let Some(cell) = self.counters.read().expect("registry lock").get(name) {
            return Counter(Some(cell.clone()));
        }
        let mut map = self.counters.write().expect("registry lock");
        Counter(Some(map.entry(name).or_default().clone()))
    }

    /// The gauge cell named `name` (created on first use).
    pub fn gauge(&self, name: &'static str) -> Gauge {
        if let Some(cell) = self.gauges.read().expect("registry lock").get(name) {
            return Gauge(Some(cell.clone()));
        }
        let mut map = self.gauges.write().expect("registry lock");
        Gauge(Some(map.entry(name).or_default().clone()))
    }

    /// The histogram cell named `name` (created on first use).
    pub fn histogram(&self, name: &'static str) -> Histogram {
        if let Some(cell) = self.histograms.read().expect("registry lock").get(name) {
            return Histogram(Some(cell.clone()));
        }
        let mut map = self.histograms.write().expect("registry lock");
        Histogram(Some(map.entry(name).or_default().clone()))
    }

    /// Freezes every instrument into a deterministic snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .read()
            .expect("registry lock")
            .iter()
            .map(|(&k, v)| (k.to_owned(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .gauges
            .read()
            .expect("registry lock")
            .iter()
            .map(|(&k, v)| (k.to_owned(), v.load(Ordering::Relaxed)))
            .collect();
        let histograms = self
            .histograms
            .read()
            .expect("registry lock")
            .iter()
            .map(|(&k, core)| {
                let buckets = core
                    .buckets
                    .iter()
                    .enumerate()
                    .filter_map(|(i, b)| {
                        let n = b.load(Ordering::Relaxed);
                        (n > 0).then_some((bucket_upper(i), n))
                    })
                    .collect();
                (
                    k.to_owned(),
                    HistogramSnapshot {
                        count: core.count.load(Ordering::Relaxed),
                        sum: core.sum.load(Ordering::Relaxed),
                        max: core.max.load(Ordering::Relaxed),
                        buckets,
                    },
                )
            })
            .collect();
        let spans = self.spans.read().expect("registry lock").clone();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
            spans,
        }
    }
}

impl Sink for Registry {
    /// Aggregates span-end events; instrument traffic reaches the
    /// registry through its cells, not through events.
    fn event(&self, _now_micros: u64, event: &Event<'_>) {
        if let Event::SpanEnd { name, micros } = event {
            let mut spans = self.spans.write().expect("registry lock");
            let stat = spans.entry((*name).to_owned()).or_default();
            stat.count += 1;
            stat.total_micros += micros;
        }
    }
}

/// A frozen, deterministic view of every instrument in a [`Registry`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Span statistics by name.
    pub spans: BTreeMap<String, SpanStat>,
}

/// Prefix separating deterministic campaign facts from process-local
/// execution facts (see the crate docs).
pub const CAMPAIGN_PREFIX: &str = "campaign.";

/// Version of the `metrics.json` layout rendered by
/// [`MetricsSnapshot::to_json_pretty`], emitted as the artifact's
/// top-level `"schema"` key. Bump when a top-level section is renamed,
/// removed or restructured; adding metric names inside a section is
/// backwards-compatible and does not require a bump.
pub const METRICS_SCHEMA_VERSION: u32 = 1;

impl MetricsSnapshot {
    /// Convenience counter lookup.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The deterministic `campaign.*` counters, prefix stripped — the
    /// section of `metrics.json` that must be identical between a
    /// resumed and an uninterrupted campaign.
    pub fn campaign_section(&self) -> BTreeMap<&str, u64> {
        self.counters
            .iter()
            .filter_map(|(k, &v)| k.strip_prefix(CAMPAIGN_PREFIX).map(|s| (s, v)))
            .collect()
    }

    /// Renders the snapshot as pretty-printed JSON with a stable layout:
    ///
    /// ```json
    /// {
    ///   "schema": 1,
    ///   "campaign": { "<counter>": N, ... },
    ///   "process": {
    ///     "counters": { ... }, "gauges": { ... },
    ///     "histograms": { "<name>": {"count":..,"sum":..,"mean":..,"p50":..,"p90":..,"p99":..,"max":..} },
    ///     "spans": { "<name>": {"count":..,"total_micros":..} }
    ///   }
    /// }
    /// ```
    ///
    /// `"schema"` is [`METRICS_SCHEMA_VERSION`]; keys are sorted; the
    /// `"campaign"` object is byte-stable across resume boundaries.
    /// Hand-rolled (this crate is dependency-free) but valid JSON,
    /// including string escaping.
    pub fn to_json_pretty(&self) -> String {
        let mut out = format!("{{\n  \"schema\": {METRICS_SCHEMA_VERSION},\n  \"campaign\": {{");
        write_u64_object(&mut out, 4, self.campaign_section().into_iter());
        out.push_str("  \"process\": {\n    \"counters\": {");
        write_u64_object(
            &mut out,
            6,
            self.counters
                .iter()
                .filter(|(k, _)| !k.starts_with(CAMPAIGN_PREFIX))
                .map(|(k, &v)| (k.as_str(), v)),
        );
        out.push_str("    \"gauges\": {");
        write_u64_object(
            &mut out,
            6,
            self.gauges.iter().map(|(k, &v)| (k.as_str(), v)),
        );
        out.push_str("    \"histograms\": {");
        let mut first = true;
        for (name, h) in &self.histograms {
            push_key(&mut out, 6, &mut first, name);
            let _ = write!(
                out,
                "{{\"count\": {}, \"sum\": {}, \"mean\": {:.1}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}",
                h.count,
                h.sum,
                h.mean(),
                h.quantile(0.50).unwrap_or(0),
                h.quantile(0.90).unwrap_or(0),
                h.quantile(0.99).unwrap_or(0),
                h.max,
            );
        }
        close_object(&mut out, 4, first);
        out.push_str("    \"spans\": {");
        let mut first = true;
        for (name, s) in &self.spans {
            push_key(&mut out, 6, &mut first, name);
            let _ = write!(
                out,
                "{{\"count\": {}, \"total_micros\": {}}}",
                s.count, s.total_micros
            );
        }
        close_object(&mut out, 4, first);
        // `spans` is the last process entry: strip its trailing comma.
        if out.ends_with(",\n") {
            out.truncate(out.len() - 2);
            out.push('\n');
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Renders a human summary of the campaign telemetry — the
    /// `metrics.txt` artifact and the block appended to study reports.
    pub fn render_summary(&self) -> String {
        let c = |name: &str| self.counter(name).unwrap_or(0);
        let mut out = String::from("Campaign telemetry\n==================\n");
        let total = c("campaign.runs_total");
        let _ = writeln!(
            out,
            "runs      : {total} total = {} completed + {} panicked + {} hung",
            c("campaign.runs_completed"),
            c("campaign.runs_panicked"),
            c("campaign.runs_hung"),
        );
        let _ = writeln!(
            out,
            "golden    : {} runs, {} ticks, {} snapshots captured",
            c("campaign.golden_runs"),
            c("campaign.golden_ticks"),
            c("campaign.snapshots"),
        );
        let forked = c("campaign.ff_forked");
        let _ = writeln!(
            out,
            "fast-fwd  : {forked}/{total} runs forked from a snapshot ({}), {} reconverged early, {} golden ticks saved",
            percent(forked, total),
            c("campaign.ff_reconverged"),
            c("campaign.ticks_saved"),
        );
        let _ = writeln!(
            out,
            "run ticks : {} simulated by injection runs, {} cut after the decision",
            c("campaign.run_ticks"),
            c("campaign.ticks_cut"),
        );
        let executed = c("process.runs_executed");
        let wall_ms = self
            .gauges
            .get("process.campaign_wall_ms")
            .copied()
            .unwrap_or(0);
        let rate = if wall_ms == 0 {
            0.0
        } else {
            executed as f64 / (wall_ms as f64 / 1e3)
        };
        let _ = writeln!(
            out,
            "process   : {executed} runs executed, {} recovered from journal, {:.1} runs/s over {:.1}s",
            c("process.runs_recovered"),
            rate,
            wall_ms as f64 / 1e3,
        );
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "hist      : {name}: n={} mean={:.0} p50≈{} p99≈{} max={}",
                h.count,
                h.mean(),
                h.quantile(0.5).unwrap_or(0),
                h.quantile(0.99).unwrap_or(0),
                h.max,
            );
        }
        for (name, s) in &self.spans {
            let _ = writeln!(
                out,
                "span      : {name}: {}x, {:.1} ms total",
                s.count,
                s.total_micros as f64 / 1e3,
            );
        }
        out
    }
}

fn percent(part: u64, whole: u64) -> String {
    if whole == 0 {
        "n/a".to_owned()
    } else {
        format!("{:.1}%", 100.0 * part as f64 / whole as f64)
    }
}

/// Escapes `s` as JSON string contents.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn push_key(out: &mut String, indent: usize, first: &mut bool, key: &str) {
    if *first {
        out.push('\n');
        *first = false;
    } else {
        out.push_str(",\n");
    }
    let _ = write!(out, "{:indent$}\"{}\": ", "", json_escape(key));
}

fn close_object(out: &mut String, indent: usize, still_empty: bool) {
    if !still_empty {
        out.push('\n');
        let _ = write!(out, "{:indent$}", "");
    }
    out.push_str("},\n");
}

fn write_u64_object<'a>(
    out: &mut String,
    indent: usize,
    entries: impl Iterator<Item = (&'a str, u64)>,
) {
    let mut first = true;
    for (k, v) in entries {
        push_key(out, indent, &mut first, k);
        let _ = write!(out, "{v}");
    }
    close_object(out, indent.saturating_sub(2), first);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn histogram_quantiles_and_stats() {
        let r = Registry::default();
        let h = r.histogram("process.lat");
        for v in [0u64, 1, 1, 3, 7, 7, 7, 100, 1000, 100_000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 10);
        let snap = &r.snapshot().histograms["process.lat"];
        assert_eq!(snap.count, 10);
        assert_eq!(snap.sum, 101_126);
        assert_eq!(snap.max, 100_000);
        assert_eq!(snap.quantile(0.0), Some(0));
        // p50: rank 5 lands in the [4,8) bucket.
        assert_eq!(snap.quantile(0.5), Some(7));
        assert_eq!(snap.quantile(1.0), Some((1 << 17) - 1));
        assert!(snap.mean() > 10_000.0);
        let empty = HistogramSnapshot {
            count: 0,
            sum: 0,
            max: 0,
            buckets: vec![],
        };
        assert_eq!(empty.quantile(0.5), None);
        assert_eq!(empty.mean(), 0.0);
    }

    #[test]
    fn campaign_section_strips_prefix() {
        let r = Registry::default();
        r.counter("campaign.runs_total").add(10);
        r.counter("process.runs_executed").add(4);
        let snap = r.snapshot();
        let section = snap.campaign_section();
        assert_eq!(section.get("runs_total"), Some(&10));
        assert!(!section.contains_key("runs_executed"));
    }

    #[test]
    fn json_is_deterministic_and_split() {
        let r = Registry::default();
        r.counter("campaign.runs_total").add(7);
        r.counter("campaign.ff_forked").add(6);
        r.counter("process.runs_executed").add(7);
        r.gauge("process.campaign_wall_ms").set(1234);
        r.histogram("process.run_micros").observe(900);
        r.event(
            0,
            &Event::SpanEnd {
                name: "golden",
                micros: 5_000,
            },
        );
        let a = r.snapshot().to_json_pretty();
        let b = r.snapshot().to_json_pretty();
        assert_eq!(a, b, "snapshot rendering must be deterministic");
        assert!(a.contains("\"campaign\": {"));
        assert!(a.contains("\"ff_forked\": 6"));
        assert!(a.contains("\"runs_total\": 7"));
        assert!(a.contains("\"process\": {"));
        assert!(a.contains("\"process.runs_executed\": 7"));
        assert!(a.contains("\"process.campaign_wall_ms\": 1234"));
        assert!(a.contains("\"p99\""));
        assert!(a.contains("\"golden\""));
        // The campaign object must not leak process metrics.
        let campaign_part = a.split("\"process\"").next().unwrap();
        assert!(!campaign_part.contains("runs_executed"));
    }

    #[test]
    fn empty_snapshot_renders_valid_shape() {
        let r = Registry::default();
        let json = r.snapshot().to_json_pretty();
        assert!(json.starts_with("{\n  \"schema\": 1,\n"));
        assert!(json.contains("\"campaign\": {}"));
        assert!(json.ends_with("}\n"));
    }

    /// Downstream consumers (the explorer, a future server) key off the
    /// exact top-level layout of `metrics.json`: the schema version, the
    /// `"campaign"` / `"process"` split, and the four fixed process
    /// sections. This snapshot pins that key set.
    #[test]
    fn metrics_json_schema_key_set() {
        let r = Registry::default();
        r.counter("campaign.runs_total").add(3);
        r.counter("process.runs_executed").add(3);
        r.gauge("process.campaign_wall_ms").set(10);
        r.histogram("process.run_micros").observe(5);
        r.event(
            0,
            &Event::SpanEnd {
                name: "golden",
                micros: 7,
            },
        );
        let json = r.snapshot().to_json_pretty();
        // Top-level keys, in order: schema, campaign, process.
        let top: Vec<&str> = json
            .lines()
            .filter(|l| l.starts_with("  \"") || l == &"  },")
            .filter_map(|l| l.trim().strip_prefix('"')?.split('"').next())
            .collect();
        assert_eq!(top, ["schema", "campaign", "process"]);
        assert!(json.contains(&format!("\"schema\": {METRICS_SCHEMA_VERSION},")));
        // Process sections, in order.
        for section in ["counters", "gauges", "histograms", "spans"] {
            assert!(
                json.contains(&format!("    \"{section}\": {{")),
                "missing process section {section}"
            );
        }
        let idx = |s: &str| json.find(&format!("    \"{s}\": {{")).unwrap();
        assert!(idx("counters") < idx("gauges"));
        assert!(idx("gauges") < idx("histograms"));
        assert!(idx("histograms") < idx("spans"));
        // Histogram entry key set is fixed.
        assert!(json.contains(
            "{\"count\": 1, \"sum\": 5, \"mean\": 5.0, \"p50\": 7, \"p90\": 7, \"p99\": 7, \"max\": 5}"
        ));
        // Span entry key set is fixed.
        assert!(json.contains("{\"count\": 1, \"total_micros\": 7}"));
    }

    #[test]
    fn escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn summary_mentions_key_lines() {
        let r = Registry::default();
        r.counter("campaign.runs_total").add(64);
        r.counter("campaign.runs_completed").add(60);
        r.counter("campaign.runs_hung").add(4);
        r.counter("campaign.ff_forked").add(64);
        r.counter("process.runs_executed").add(64);
        r.gauge("process.campaign_wall_ms").set(2_000);
        let text = r.snapshot().render_summary();
        assert!(text.contains("64 total"));
        assert!(text.contains("100.0%"));
        assert!(text.contains("32.0 runs/s"));
    }

    #[test]
    fn concurrent_counting_is_exact() {
        let r = Arc::new(Registry::default());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = r.counter("campaign.runs_total");
            let h = r.histogram("process.run_micros");
            handles.push(std::thread::spawn(move || {
                for i in 0..10_000 {
                    c.inc();
                    h.observe(i);
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        let snap = r.snapshot();
        assert_eq!(snap.counter("campaign.runs_total"), Some(40_000));
        assert_eq!(snap.histograms["process.run_micros"].count, 40_000);
    }
}
