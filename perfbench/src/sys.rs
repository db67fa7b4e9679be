//! Host plumbing: resident-set sampling, provenance, statistics and the
//! JSON the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// `VmHWM` of this process, in KiB.
fn self_peak_kib() -> u64 {
    status_field(
        &std::fs::read_to_string("/proc/self/status").unwrap_or_default(),
        "VmHWM:",
    )
}

fn status_field(status: &str, field: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Pids of this process's live children (worker processes), across every
/// thread that may have spawned one.
fn child_pids() -> Vec<u32> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut pids = Vec::new();
    for task in tasks.flatten() {
        if let Ok(text) = std::fs::read_to_string(task.path().join("children")) {
            pids.extend(
                text.split_whitespace()
                    .filter_map(|p| p.parse::<u32>().ok()),
            );
        }
    }
    pids
}

/// Tracks the peak resident set of the benchmark process and its worker
/// children: this process's `VmHWM` plus the largest sum of the live
/// children's peaks seen at one 20 ms sample.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    children_peak_kib: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl RssSampler {
    pub fn start() -> RssSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let children_peak_kib = Arc::new(AtomicU64::new(0));
        let handle = {
            let (stop, peak) = (Arc::clone(&stop), Arc::clone(&children_peak_kib));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let live: u64 = child_pids()
                        .into_iter()
                        .map(|pid| {
                            let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
                                .unwrap_or_default();
                            status_field(&status, "VmHWM:")
                        })
                        .sum();
                    peak.fetch_max(live, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(20));
                }
            })
        };
        RssSampler {
            stop,
            children_peak_kib,
            handle: Some(handle),
        }
    }

    /// Peak resident set so far, in MiB.
    pub fn peak_mb(&self) -> f64 {
        (self_peak_kib() + self.children_peak_kib.load(Ordering::Relaxed)) as f64 / 1024.0
    }

    /// Stops sampling.
    pub fn finish(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation; 0 when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest percentile of `n` samples that still has at least ten
/// samples above it (`None` below 20 samples, where only the median
/// qualifies).
pub fn tail_percentile(n: usize) -> Option<f64> {
    (n >= 20).then(|| ((n - 10) as f64 / n as f64 * 100.0).floor())
}

/// Cumulative `(steal, total)` CPU jiffies from `/proc/stat`: the time a
/// hypervisor ran other guests on this machine's virtual CPUs.
pub fn cpu_steal() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Host facts printed with every result.
pub fn provenance() -> BTreeMap<&'static str, String> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    let l2 = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index2/size")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_owned());
    BTreeMap::from([
        ("nproc", nproc.to_string()),
        ("cpu_model", cpu),
        ("l2_cache_per_core", l2),
        ("rustc", env("PERFBENCH_RUSTC")),
        ("git_sha", env("PERFBENCH_GIT_SHA")),
    ])
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", permea_obs::metrics::json_escape(s))
}

/// A JSON number: finite floats as measured (shortest round-trip form);
/// non-finite values, which no metric should produce, as 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// A JSON object from already-rendered values.
pub fn json_object<'a>(entries: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in entries.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}: {v}", json_str(k));
    }
    out.push('}');
    out
}
