//! The campaign benchmark. Drives the permea platform through its public
//! library API — `Study`, `ScenarioStudy`, `Campaign`, `RunJournal`,
//! `Daemon`/`Client` — on one of four seeded workloads, checks every
//! output, and prints one JSON result line.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--work DIR]
//! ```
//!
//! `--trace 0` repeats the workload's iteration for about `S` seconds with
//! telemetry off and reports the end-to-end metrics (medians over
//! iterations). `--trace 1` runs one untraced and one traced iteration and
//! reports the per-layer metrics. `python3 perfbench/run.py` builds this
//! binary and forwards the same arguments; see `perfbench/README.md`.

mod check;
mod gen;
mod layers;
mod sys;
mod workloads;

use permea_obs::Obs;
use std::process::ExitCode;
use std::time::Instant;
use sys::{json_num, json_object, json_str, median, quantile, tail_percentile};
use workloads::{Ctx, Iter, WORKLOADS};

/// End-to-end metrics (`--trace 0`), in output order.
const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("runs_per_s", "runs/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("resume_s", "s"),
    ("campaign_latency_s", "s"),
];

/// Per-layer metrics (`--trace 1`); 0 where a workload does not exercise
/// the layer.
const PER_LAYER: [(&str, &str); 40] = [
    ("target.resolve_ms", "ms"),
    ("runtime.build_us", "us"),
    ("runtime.restore_us", "us"),
    ("runtime.tick_ns", "ns"),
    ("runtime.converge_check_ns", "ns"),
    ("runtime.converge_checks_per_run", "count"),
    ("runtime.compare_ns_per_tick", "ns"),
    ("runtime.step_share", "ratio"),
    ("golden.build_ms", "ms"),
    ("golden.ticks", "count"),
    ("golden.snapshots", "count"),
    ("campaign.run_us.p50", "us"),
    ("campaign.run_us.p99", "us"),
    ("campaign.run_ticks", "count"),
    ("campaign.ticks_per_run", "count"),
    ("campaign.reconverged_ratio", "ratio"),
    ("campaign.ticks_saved_ratio", "ratio"),
    ("campaign.residual_frac", "ratio"),
    ("journal.append_us", "us"),
    ("journal.fsync_us.p50", "us"),
    ("journal.fsync_us.p99", "us"),
    ("journal.bytes_per_record", "bytes"),
    ("journal.open_ms", "ms"),
    ("journal.records_replayed", "count"),
    ("process.worker_spawns", "count"),
    ("process.attempt_us.p50", "us"),
    ("process.attempt_us.p99", "us"),
    ("process.ipc_frac", "ratio"),
    ("adaptive.batches", "count"),
    ("adaptive.runs_ratio", "ratio"),
    ("adaptive.barrier_wait_frac", "ratio"),
    ("estimate.ms", "ms"),
    ("core.analyse_ms", "ms"),
    ("analysis.report_ms", "ms"),
    ("server.submit_ms", "ms"),
    ("server.slices_dispatched", "count"),
    ("server.golden_runs", "count"),
    ("server.records_replayed", "count"),
    ("obs.overhead_frac", "ratio"),
    ("failed_frac", "ratio"),
];

/// Timed set-ups per run before the measured iterations (their median,
/// pooled with each iteration's own set-up, is `setup_s`). A daemon
/// set-up includes starting and draining a daemon, so it repeats less.
fn setup_reps(workload: &str) -> usize {
    if workload == "daemon-two-tenant" {
        12
    } else {
        100
    }
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: std::path::PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, gen::DEFAULT_SEED, 10.0, false);
    let mut work = std::path::PathBuf::from(".bench_build/perfbench-work");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(*WORKLOADS.iter().find(|w| **w == value).ok_or(format!(
                    "unknown workload {value} (known: {})",
                    WORKLOADS.join(", ")
                ))?);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => trace = value == "1",
            "--work" => work = value.into(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        work,
    })
}

fn main() -> ExitCode {
    // Worker-process mode for the pipeline workload's process isolation.
    if std::env::args().nth(1).as_deref() == Some("--worker") {
        return ExitCode::from(permea_fi::process::run_worker(
            permea_target::registry::factory_from_payload,
        ));
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = args
        .work
        .join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: creating {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let ctx = |obs: Obs, draw: usize| Ctx {
        workload: args.workload,
        seed: args.seed,
        draw: draw as u64,
        work: work.clone(),
        obs,
    };

    let mut setups = Vec::new();
    for rep in 0..setup_reps(args.workload) {
        match workloads::setup_once(&ctx(Obs::disabled(), 0), rep) {
            Ok(s) => setups.push(s),
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                let _ = std::fs::remove_dir_all(&work);
                return ExitCode::FAILURE;
            }
        }
    }
    let rss = sys::RssSampler::start();
    let steal_before = sys::cpu_steal();
    let mut iters: Vec<Iter> = Vec::new();
    let mut traced: Option<Iter> = None;
    let mut peak_rss_mb = 0.0;
    if args.trace {
        // Both iterations run the same input draw, so their walls compare.
        iters.push(workloads::iteration(&ctx(Obs::disabled(), 0), 0));
        traced = Some(workloads::iteration(
            &ctx(Obs::with_sinks(Vec::new()), 0),
            1,
        ));
    } else {
        let started = Instant::now();
        loop {
            let t = Instant::now();
            let i = iters.len();
            iters.push(workloads::iteration(&ctx(Obs::disabled(), i), i));
            if i == 0 {
                // Later iterations start from a heap the earlier ones grew.
                peak_rss_mb = rss.peak_mb();
            }
            // Stop where the run ends closest to `--seconds`: one more
            // iteration of the same length would overshoot by more than
            // stopping now falls short.
            let took = t.elapsed().as_secs_f64();
            if started.elapsed().as_secs_f64() + took / 2.0 > args.seconds {
                break;
            }
        }
    }
    rss.finish();
    let steal_after = sys::cpu_steal();
    // Host contention while measuring: results taken under heavy steal are
    // not comparable with quiet ones.
    let steal_frac =
        (steal_after.0 - steal_before.0) as f64 / (steal_after.1 - steal_before.1).max(1) as f64;
    let _ = std::fs::remove_dir_all(&work);

    let all: Vec<&Iter> = iters.iter().chain(traced.as_ref()).collect();
    let attempted: u64 = all.iter().map(|i| i.attempted).sum();
    let failed: u64 = all.iter().map(|i| i.failed).sum();
    let problems: Vec<&String> = all.iter().flat_map(|i| &i.problems).collect();
    for p in &problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let latencies: Vec<f64> = iters
        .iter()
        .flat_map(|i| i.latencies_s.iter().copied())
        .collect();
    setups.extend(iters.iter().map(|i| i.setup_s));

    let metrics: Vec<(&str, &str, f64)> = match &traced {
        None => {
            let of = |f: fn(&Iter) -> f64| median(&iters.iter().map(f).collect::<Vec<_>>());
            let values = [
                of(|i| i.wall_s),
                of(|i| i.runs as f64 / (i.wall_s - i.setup_s)),
                median(&setups),
                peak_rss_mb,
                of(|i| i.resume_s),
                median(&latencies),
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), v)| (name, unit, v))
                .collect()
        }
        Some(t) => {
            let untraced = iters[0].wall_s;
            PER_LAYER
                .iter()
                .map(|&(name, unit)| {
                    let v = match name {
                        "obs.overhead_frac" => t.wall_s / untraced - 1.0,
                        "failed_frac" => failed as f64 / attempted.max(1) as f64,
                        _ => t.layers.get(name).copied().unwrap_or(0.0),
                    };
                    (name, unit, v)
                })
                .collect()
        }
    };

    // The provenance and details line, then the result as the last line.
    let tail = tail_percentile(latencies.len());
    let details = json_object([
        (
            "provenance",
            json_object(
                sys::provenance()
                    .into_iter()
                    .map(|(k, v)| (k, json_str(&v))),
            ),
        ),
        ("workload", json_str(args.workload)),
        ("seed", args.seed.to_string()),
        ("trace", args.trace.to_string()),
        ("load", workloads::shape(args.workload)),
        ("iterations", all.len().to_string()),
        ("cpu_steal_frac", json_num(steal_frac)),
        (
            "campaign_latency_s",
            json_object([
                ("samples", latencies.len().to_string()),
                ("median", json_num(median(&latencies))),
                ("tail_percentile", tail.map_or("null".to_owned(), json_num)),
                (
                    "tail",
                    tail.map_or("null".to_owned(), |p| {
                        json_num(quantile(&latencies, p / 100.0))
                    }),
                ),
            ]),
        ),
        (
            "problems",
            format!(
                "[{}]",
                problems
                    .iter()
                    .map(|p| json_str(p))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
    ]);
    println!("{details}");
    let metrics = json_object(metrics.iter().map(|&(name, unit, v)| {
        (
            name,
            json_object([("value", json_num(v)), ("unit", json_str(unit))]),
        )
    }));
    println!(
        "{}",
        json_object([
            ("correct", (problems.is_empty() && failed == 0).to_string()),
            ("attempted", attempted.max(1).to_string()),
            ("failed", failed.to_string()),
            ("metrics", metrics),
        ])
    );
    ExitCode::SUCCESS
}
