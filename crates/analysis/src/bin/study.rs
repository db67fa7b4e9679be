//! The `study` binary: runs the paper's experiment end to end and writes
//! every table, figure and shape check to an artifact directory.
//!
//! ```text
//! study [--quick | --full | --smoke] [--out DIR] [--threads N] [--seed S]
//!       [--journal] [--resume DIR]
//!       [--progress] [--metrics-out PATH] [--events PATH]
//!       [--html-out PATH] [--fsync-interval N]
//!       [--isolation process|in-process]
//!       [--workers N] [--run-timeout MS] [--max-retries N]
//!       [--max-quarantined F] [--adaptive] [--target-ci W]
//!       [--batch-size N] [--chaos-plan SPEC]
//! study suite DIR [--out DIR] [--isolation process|in-process] [--threads N]
//! study --serve DIR
//! ```
//!
//! `study suite DIR` runs every `*.toml` scenario file in `DIR` (see
//! `permea_target::scenario` for the format): each scenario names a
//! registered target (`arrestment`, `five-module`, `mask-pipeline`),
//! optional workload overrides, campaign drive parameters, error models
//! and `[expect]` assertions. The suite prints a per-scenario pass/fail
//! table (runs, quarantined, failed-error-propagation rate) and, with
//! `--out DIR`, writes `suite.json`, `suite.txt` and each scenario's
//! `result.json`. Exit codes: 0 all pass, 1 a scenario failed its
//! expectations, 2 a scenario file is invalid (the error names the
//! offending TOML key path).
//!
//! `--quick` (default) runs the reduced configuration (seconds);
//! `--full` runs the paper's 52 000-injection campaign (minutes);
//! `--smoke` an even smaller configuration for CI smoke tests. Flags may
//! come in any order: `--seed`, `--threads` and the adaptive flags apply
//! on top of the preset wherever they appear.
//!
//! Telemetry: the campaign always collects metrics (counters, phase spans,
//! fsync latency) and writes them as `metrics.json` next to `result.json`
//! (`--metrics-out PATH` overrides the location). `--progress` adds a live
//! progress line (runs/s, quarantine count, fast-forward rate, ETA);
//! `--events PATH` appends every telemetry event as JSONL. The `campaign`
//! section of `metrics.json` is deterministic — a resumed campaign merges
//! journaled run statistics so its totals equal an uninterrupted run's —
//! while the `process` section describes this invocation (wall-clock,
//! work actually executed here). `--fsync-interval N` tunes journal
//! fsync batching (default 64, must be > 0).
//!
//! `--html-out PATH` additionally writes the self-contained interactive
//! explorer page (see `permea-explorer`): permeability graph heatmap,
//! backtrack path explorer, client-side what-if containment panel, and —
//! when `--events` is also given — convergence curves and the campaign
//! timeline stitched from the event log. One file, no network, opens from
//! `file://`.
//!
//! `--journal` makes the campaign durable: every finished injection run is
//! appended to `DIR/journal.jsonl` as write-ahead state. `--resume DIR`
//! (shorthand for `--out DIR --journal`) picks a killed or interrupted
//! campaign back up from its journal — already-journaled runs are not
//! re-executed, and the final artifacts are byte-identical to an
//! uninterrupted run. SIGINT/SIGTERM stop the campaign cleanly: the journal
//! is synced and resume instructions are printed. The journal records the
//! spec, seed and horizon, so resuming with a different configuration is
//! rejected instead of silently mixing campaigns (the thread count may
//! differ freely — it does not affect results).
//!
//! `--isolation process` executes injection runs in a supervised pool of
//! worker processes (re-execs of this binary in `--worker` mode) instead of
//! in-process sandboxes: runs that `abort()` or deadlock without polling the
//! cooperative watchdog only kill their worker, are classified
//! (crashed/hung), retried up to `--max-retries` times and then
//! quarantined. `--workers N` sizes the pool (0 = all cores, and doubles as
//! the supervisor thread count), `--run-timeout MS` sets the hard per-run
//! wall-clock deadline. Results are byte-identical to in-process execution.
//!
//! `--shard i/n` scales a campaign out over machines: shard `i` of `n`
//! executes only its deterministic slice of the coordinate space (dense
//! positions — or adaptive permutation positions — congruent to `i` mod
//! `n`) and journals it under the *unsharded* campaign header. The
//! companion subcommand
//!
//! ```text
//! study journal merge --out PATH IN...
//! ```
//!
//! combines shard journals into one resumable journal, rejecting
//! conflicting records for the same coordinate; `--resume` on the merged
//! journal re-executes nothing and writes artifacts byte-identical to an
//! unsharded run. Note a sharded invocation's own artifacts cover only its
//! slice — merge and resume for the real estimates.
//!
//! `--adaptive` replaces the dense injection grid with the sequential
//! sampling planner: each target's stratum stops as soon as every Wilson
//! interval half-width drops below the target precision, and the freed
//! budget flows to the least-converged targets. `--target-ci W` sets that
//! half-width goal (default 0.05) and `--batch-size N` the per-stratum
//! batch between interval recomputations (default 50); both imply
//! `--adaptive`. The sampled coordinates are journaled, so `--resume`
//! replays the planner's decisions byte-identically. `precision.txt` in
//! the artifact directory reports per-target achieved precision and
//! runs saved versus the dense grid.
//!
//! `--serve DIR` hosts the campaign daemon with default knobs: campaign
//! submissions arrive over a Unix socket under `DIR`, are write-ahead
//! recorded in `DIR/ledger.jsonl` and fair-share scheduled across
//! tenants. See the `permea-server` binary for the tunable version and
//! `permea-cli` for the client verbs.
//!
//! `--chaos-plan SPEC` arms the deterministic chaos harness: environment
//! faults (journal write/fsync errors, scheduled worker SIGKILLs, IPC frame
//! corruption, artifact-write failures, a faked free-disk reading) are
//! injected at the exact points the plan names, so recovery paths can be
//! exercised reproducibly. See `permea_fi::chaos` for the plan grammar.
//! With no plan the chaos layer is entirely absent — zero overhead.
//! `--max-quarantined F` overrides the quarantine abort threshold.
//!
//! Exit codes (pinned in `permea_analysis::exit`): 0 success, 1 failure,
//! 2 usage error, 3 quarantine threshold exceeded (systematic target
//! breakage), 4 environment failure (disk full, journal or artifact I/O —
//! fix the environment and `--resume`), 130 interrupted (resumable).

use permea_analysis::exit;
use permea_analysis::report::Report;
use permea_analysis::study::{Study, StudyConfig};
use permea_fi::adaptive::AdaptivePlan;
use permea_fi::chaos::{ChaosInjector, ChaosPlan};
use permea_fi::error::FiError;
use permea_fi::estimate::{render_target_summaries, target_summaries};
use permea_fi::journal::RunJournal;
use permea_fi::process::{run_worker, IsolationMode, ProcessIsolation, WorkerCommand};
use permea_fi::shard::Shard;
use permea_obs::{JsonlSink, Obs, ProgressSink, Sink, StderrSink};
use permea_server::signal as interrupt;
use permea_target::registry;
use permea_target::suite::{run_suite, SuiteOptions};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: study [--quick | --full | --smoke] [--out DIR] [--threads N] [--seed S] \
         [--journal] [--resume DIR] \
         [--progress] [--metrics-out PATH] [--events PATH] [--html-out PATH] \
         [--fsync-interval N] \
         [--isolation process|in-process] [--workers N] [--run-timeout MS] \
         [--max-retries N] [--max-quarantined F] [--adaptive] [--target-ci W] \
         [--batch-size N] [--shard I/N] [--chaos-plan SPEC]\n\
         \x20      study journal merge --out PATH IN...\n\
         \x20      study suite DIR [--out DIR] [--isolation process|in-process] [--threads N]\n\
         \x20      study --serve DIR    (host the campaign daemon, see permea-server)\n\
         exit codes: 0 success, 1 failure, 2 usage, \
         3 quarantine threshold exceeded, 4 environment failure, 130 interrupted"
    );
    std::process::exit(i32::from(permea_analysis::exit::EXIT_USAGE));
}

/// The `study journal merge --out PATH IN...` subcommand: combines shard
/// journals into one resumable journal, refusing conflicting records.
fn journal_command() -> ExitCode {
    let mut args = std::env::args().skip(2);
    if args.next().as_deref() != Some("merge") {
        usage();
    }
    let mut out: Option<PathBuf> = None;
    let mut inputs: Vec<PathBuf> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(p) => out = Some(PathBuf::from(p)),
                None => usage(),
            },
            _ => inputs.push(PathBuf::from(arg)),
        }
    }
    let Some(out) = out else { usage() };
    if inputs.is_empty() {
        usage();
    }
    match permea_fi::journal::merge_journals(&out, &inputs) {
        Ok(s) => {
            eprintln!(
                "merged {} journal(s) into {}: {} record(s), {} duplicate(s) collapsed{}",
                s.inputs,
                out.display(),
                s.records,
                s.duplicates,
                if s.torn_tails > 0 {
                    format!(", {} torn tail(s) skipped", s.torn_tails)
                } else {
                    String::new()
                }
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("journal merge failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `study suite DIR [--out DIR] [--isolation process|in-process]
/// [--threads N]` subcommand: runs every `*.toml` scenario in `DIR`
/// against the target registry and summarises pass/fail per scenario.
fn suite_command() -> ExitCode {
    let mut dir: Option<PathBuf> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut options = SuiteOptions {
        obs: Obs::with_sinks(vec![Arc::new(StderrSink) as Arc<dyn Sink>]),
        ..SuiteOptions::default()
    };
    let mut args = std::env::args().skip(2);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(d) => out_dir = Some(PathBuf::from(d)),
                None => usage(),
            },
            "--isolation" => match args.next().as_deref() {
                Some("process") => options.process_isolation = true,
                Some("in-process") => options.process_isolation = false,
                _ => usage(),
            },
            "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => options.threads = Some(n),
                None => usage(),
            },
            _ if dir.is_none() && !arg.starts_with('-') => dir = Some(PathBuf::from(arg)),
            _ => usage(),
        }
    }
    let Some(dir) = dir else { usage() };
    // A non-directory argument is a usage error (2), not an environment
    // failure: nothing has started running yet.
    if !dir.is_dir() {
        eprintln!(
            "scenario suite: `{}` is not a readable directory",
            dir.display()
        );
        return ExitCode::from(exit::EXIT_USAGE);
    }
    match run_suite(&dir, out_dir.as_deref(), &options) {
        Ok(report) => {
            print!("{}", report.render());
            ExitCode::from(report.exit_code())
        }
        Err(e) => {
            eprintln!("scenario suite failed: {e}");
            ExitCode::from(exit::classify_error(&e))
        }
    }
}

/// The command that resumes an interrupted campaign. It repeats every flag
/// that enters the journal header (preset, seed, adaptive plan, shard), so
/// the resumed invocation opens the same campaign.
fn resume_hint(
    preset: &str,
    seed: Option<u64>,
    adaptive: Option<&AdaptivePlan>,
    shard: Option<Shard>,
    out_dir: &Path,
) -> String {
    let mut hint = format!("study {preset}");
    if let Some(seed) = seed {
        hint += &format!(" --seed {seed}");
    }
    hint += &format!(" --resume {}", out_dir.display());
    if let Some(plan) = adaptive {
        hint += &format!(
            " --adaptive --target-ci {} --batch-size {}",
            plan.target_ci, plan.batch_size
        );
    }
    if let Some(shard) = shard {
        hint += &format!(" --shard {shard}");
    }
    hint
}

fn main() -> ExitCode {
    // Worker mode: this process is a pool member re-exec'd by a supervising
    // `study --isolation process`. It speaks the framed IPC protocol on
    // stdin/stdout and never parses the normal CLI.
    if std::env::args().nth(1).as_deref() == Some("--worker") {
        let code = run_worker(registry::factory_from_payload);
        std::process::exit(i32::from(code));
    }
    if std::env::args().nth(1).as_deref() == Some("journal") {
        return journal_command();
    }
    if std::env::args().nth(1).as_deref() == Some("suite") {
        return suite_command();
    }
    // Service mode: host the campaign daemon (state, ledger, socket under
    // DIR) with the study-preset runner. Equivalent to `permea-server
    // --state DIR` with default knobs; submit work with `permea-cli`.
    if std::env::args().nth(1).as_deref() == Some("--serve") {
        let Some(dir) = std::env::args().nth(2) else {
            usage()
        };
        let obs = Obs::with_sinks(vec![Arc::new(StderrSink) as Arc<dyn Sink>]);
        return match permea_analysis::service::serve(
            permea_server::ServerConfig::new(dir),
            obs.clone(),
        ) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                obs.error(format!("serve failed: {e}"));
                ExitCode::FAILURE
            }
        };
    }

    // Flags apply in any order: the preset is chosen first, then the
    // overrides given anywhere on the line go on top of it.
    let mut preset = String::from("--quick");
    let mut threads: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut adaptive = false;
    let mut target_ci: Option<f64> = None;
    let mut batch_size: Option<usize> = None;
    let mut out_dir = PathBuf::from("artifacts/study");
    let mut journal_runs = false;
    let mut progress = false;
    let mut metrics_out: Option<PathBuf> = None;
    let mut events_out: Option<PathBuf> = None;
    let mut html_out: Option<PathBuf> = None;
    let mut fsync_interval: Option<usize> = None;
    let mut process_isolation = false;
    let mut workers = 0usize;
    let mut run_timeout_ms: Option<u64> = None;
    let mut max_retries: Option<u32> = None;
    let mut max_quarantined: Option<f64> = None;
    let mut shard: Option<Shard> = None;
    let mut chaos_plan: Option<ChaosPlan> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" | "--full" | "--smoke" => preset = arg.clone(),
            "--journal" => journal_runs = true,
            "--progress" => progress = true,
            "--out" => match args.next() {
                Some(d) => out_dir = PathBuf::from(d),
                None => usage(),
            },
            "--resume" => match args.next() {
                Some(d) => {
                    out_dir = PathBuf::from(d);
                    journal_runs = true;
                }
                None => usage(),
            },
            "--metrics-out" => match args.next() {
                Some(p) => metrics_out = Some(PathBuf::from(p)),
                None => usage(),
            },
            "--events" => match args.next() {
                Some(p) => events_out = Some(PathBuf::from(p)),
                None => usage(),
            },
            "--html-out" => match args.next() {
                Some(p) => html_out = Some(PathBuf::from(p)),
                None => usage(),
            },
            "--fsync-interval" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => fsync_interval = Some(n),
                None => usage(),
            },
            "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => threads = Some(n),
                None => usage(),
            },
            "--isolation" => match args.next().as_deref() {
                Some("process") => process_isolation = true,
                Some("in-process") => process_isolation = false,
                _ => usage(),
            },
            "--workers" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => workers = n,
                None => usage(),
            },
            "--run-timeout" => match args.next().and_then(|v| v.parse().ok()) {
                Some(ms) => run_timeout_ms = Some(ms),
                None => usage(),
            },
            "--max-retries" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => max_retries = Some(n),
                None => usage(),
            },
            "--max-quarantined" => match args.next().and_then(|v| v.parse().ok()) {
                Some(f) => max_quarantined = Some(f),
                None => usage(),
            },
            "--chaos-plan" => match args.next().map(|v| ChaosPlan::parse(&v)) {
                Some(Ok(p)) => chaos_plan = Some(p),
                Some(Err(e)) => {
                    eprintln!("invalid --chaos-plan: {e}");
                    usage();
                }
                None => usage(),
            },
            "--shard" => match args.next().map(|v| Shard::parse(&v)) {
                Some(Ok(s)) => shard = Some(s),
                Some(Err(e)) => {
                    eprintln!("{e}");
                    usage();
                }
                None => usage(),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(s) => seed = Some(s),
                None => usage(),
            },
            "--adaptive" => adaptive = true,
            "--target-ci" => match args.next().and_then(|v| v.parse().ok()) {
                Some(w) => target_ci = Some(w),
                None => usage(),
            },
            "--batch-size" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => batch_size = Some(n),
                None => usage(),
            },
            _ => usage(),
        }
    }
    let mut config = match preset.as_str() {
        "--full" => StudyConfig::paper(),
        "--smoke" => StudyConfig::smoke(),
        _ => StudyConfig::quick(),
    };
    if let Some(n) = threads {
        config.threads = n;
    }
    if let Some(s) = seed {
        config.seed = s;
    }
    if adaptive || target_ci.is_some() || batch_size.is_some() {
        let plan = config.adaptive.get_or_insert_with(AdaptivePlan::default);
        if let Some(w) = target_ci {
            plan.target_ci = w;
        }
        if let Some(n) = batch_size {
            plan.batch_size = n;
        }
    }

    // Telemetry: messages route through the stderr sink (same output as the
    // old eprintln! path); --progress and --events add their sinks.
    let mut sinks: Vec<Arc<dyn Sink>> = vec![Arc::new(StderrSink)];
    if progress {
        sinks.push(Arc::new(ProgressSink::new()));
    }
    if let Some(path) = &events_out {
        match JsonlSink::create(path) {
            Ok(s) => sinks.push(Arc::new(s)),
            Err(e) => {
                eprintln!("cannot create event log {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let obs = Obs::with_sinks(sinks);

    let spec_preview = config.spec(&StudyConfig::target().topology());
    obs.info(format!(
        "running study: {} targets x {} models x {} times x {} cases = {} injection runs",
        spec_preview.targets.len(),
        spec_preview.models.len(),
        spec_preview.times_ms.len(),
        spec_preview.cases,
        spec_preview.run_count()
    ));
    if let Some(plan) = &config.adaptive {
        obs.info(format!(
            "adaptive sampling: target CI half-width {}, batches of {} per stratum \
             (dense grid is the budget ceiling)",
            plan.target_ci, plan.batch_size
        ));
    }

    if let Some(s) = shard {
        obs.info(format!(
            "shard {s}: executing only coordinates owned by this shard; \
             merge the shard journals and --resume for full-campaign artifacts"
        ));
    }
    // The chaos harness is armed only when a plan was given; with no plan
    // the campaign carries no injector at all (zero overhead).
    let chaos = chaos_plan.map(|plan| {
        obs.warn(format!(
            "chaos plan armed ({} fault(s)): {plan}",
            plan.len()
        ));
        let mut injector = ChaosInjector::new(plan);
        injector.attach_obs(&obs);
        Arc::new(injector)
    });

    let mut study = Study::new(config.clone())
        .with_obs(obs.clone())
        .with_shard(shard);
    if let Some(interval) = fsync_interval {
        study = study.with_fsync_interval(interval);
    }
    if let Some(n) = max_retries {
        study = study.with_max_retries(n);
    }
    if let Some(f) = max_quarantined {
        study = study.with_max_quarantined(f);
    }
    if let Some(chaos) = &chaos {
        study = study.with_chaos(chaos.clone());
    }
    if process_isolation {
        let command = match WorkerCommand::current_exe(vec!["--worker".to_owned()]) {
            Ok(c) => c,
            Err(e) => {
                obs.error(format!("cannot set up worker processes: {e}"));
                return ExitCode::FAILURE;
            }
        };
        let payload = registry::worker_payload("arrestment", &config.workload());
        let mut pool = ProcessIsolation::new(command, payload);
        pool.workers = workers;
        if let Some(ms) = run_timeout_ms {
            pool.run_timeout_ms = ms;
        }
        obs.info(format!(
            "process isolation: {} worker(s), {} ms run deadline",
            if workers == 0 {
                "per-core".to_owned()
            } else {
                workers.to_string()
            },
            pool.run_timeout_ms
        ));
        study = study.with_isolation(IsolationMode::Process(pool));
    }
    let mut journal = if journal_runs {
        if let Err(e) = std::fs::create_dir_all(&out_dir) {
            obs.error(format!("cannot create {}: {e}", out_dir.display()));
            return ExitCode::FAILURE;
        }
        let path = out_dir.join("journal.jsonl");
        match RunJournal::open_or_create(&path, &study.journal_header()) {
            Ok((j, loaded)) => {
                if loaded.recovered > 0 {
                    obs.info(format!(
                        "journal {}: {} run(s) already recorded{}, resuming",
                        path.display(),
                        loaded.recovered,
                        if loaded.truncated_tail {
                            " (torn tail truncated)"
                        } else {
                            ""
                        }
                    ));
                }
                Some(j)
            }
            Err(e) => {
                obs.error(format!("cannot open journal {}: {e}", path.display()));
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    interrupt::install();
    let started = std::time::Instant::now();
    let output = match study.run_resumable(journal.as_mut(), Some(interrupt::latch())) {
        Ok(o) => o,
        Err(FiError::Interrupted { completed, total }) => {
            obs.info(format!(
                "interrupted: {completed} of {total} runs journaled"
            ));
            obs.info(format!(
                "resume with: {}",
                resume_hint(&preset, seed, config.adaptive.as_ref(), shard, &out_dir)
            ));
            // A latched signal is a graceful shutdown, not an abort: the
            // in-flight batch has drained into the journal above, so the
            // telemetry of the work done here must also survive — write
            // the metrics snapshot and flush every sink before exiting.
            if let Some(snap) = obs.snapshot() {
                let path = metrics_out.unwrap_or_else(|| out_dir.join("metrics.json"));
                let _ = std::fs::create_dir_all(&out_dir);
                if let Err(e) = permea_fi::env::atomic_write_chaos(
                    &path,
                    snap.to_json_pretty().as_bytes(),
                    chaos.as_deref(),
                ) {
                    obs.warn(format!("failed to write {}: {e}", path.display()));
                }
            }
            obs.flush();
            return ExitCode::from(exit::EXIT_INTERRUPTED);
        }
        Err(e) => {
            let code = exit::classify_error(&e);
            if code == exit::EXIT_ENVIRONMENT {
                obs.error(format!(
                    "study aborted by environment failure: {e} \
                     (campaign state is intact — fix the environment and --resume)"
                ));
            } else {
                obs.error(format!("study failed: {e}"));
            }
            obs.flush();
            return ExitCode::from(code);
        }
    };
    let campaign_secs = started.elapsed().as_secs_f64();
    if config.adaptive.is_some() {
        let dense = output.spec.run_count() as u64;
        let sampled = output.result.total_runs;
        obs.info(format!(
            "adaptive sampling: {sampled} of {dense} dense-grid runs executed \
             ({:.1}% saved)",
            100.0 * dense.saturating_sub(sampled) as f64 / dense.max(1) as f64
        ));
    }
    obs.info(format!(
        "campaign finished in {campaign_secs:.1}s (fast-forward{})",
        if journal_runs { ", journaled" } else { "" }
    ));
    if output.result.outcomes.quarantined() > 0 {
        obs.warn(format!(
            "{} run(s) quarantined ({} panicked, {} hung, {} crashed) — see outcomes.txt",
            output.result.outcomes.quarantined(),
            output.result.outcomes.panicked,
            output.result.outcomes.hung,
            output.result.outcomes.crashed
        ));
    }

    let metrics = obs.snapshot();
    let mut report = Report::from_study(&output);
    // Per-target achieved precision and runs saved; for a dense campaign
    // the same table audits the achieved CI widths.
    report.files.push((
        "precision.txt".to_owned(),
        render_target_summaries(&target_summaries(&output.spec, &output.result)),
    ));
    if let Some(snap) = &metrics {
        report
            .files
            .push(("telemetry.txt".to_owned(), snap.render_summary()));
    }
    print!("{}", report.summary());
    if let Err(e) = report.write_to(&out_dir) {
        obs.error(format!(
            "failed to write artifacts to {}: {e}",
            out_dir.display()
        ));
        return ExitCode::FAILURE;
    }
    // The raw campaign result as machine-readable data; also what the
    // kill/resume smoke test diffs for byte-identical recovery. Written
    // atomically (tmp + fsync + rename) so a crash mid-write can never
    // leave a torn artifact behind.
    match serde_json::to_string(&output.result) {
        Ok(json) => {
            if let Err(e) = permea_fi::env::atomic_write_chaos(
                out_dir.join("result.json"),
                json.as_bytes(),
                chaos.as_deref(),
            ) {
                obs.error(format!("failed to write result.json: {e}"));
                return ExitCode::from(exit::classify_error(&e));
            }
        }
        Err(e) => {
            obs.error(format!("failed to serialise result.json: {e}"));
            return ExitCode::FAILURE;
        }
    }
    // The machine-readable metrics artifact, next to result.json by default.
    if let Some(snap) = &metrics {
        let path = metrics_out.unwrap_or_else(|| out_dir.join("metrics.json"));
        if let Err(e) = permea_fi::env::atomic_write_chaos(
            &path,
            snap.to_json_pretty().as_bytes(),
            chaos.as_deref(),
        ) {
            obs.error(format!("failed to write {}: {e}", path.display()));
            return ExitCode::from(exit::classify_error(&e));
        }
    }
    // The interactive explorer page: one self-contained HTML file carrying
    // the analysis, the campaign outcome, the raw matrix (byte-identical to
    // matrix.json) and — when --events was given — the stitched timeline.
    if let Some(path) = &html_out {
        // Flush the JSONL sink so the re-read log includes every event
        // emitted so far (the analysis-phase spans land after this, which
        // is fine — the timeline covers the campaign).
        obs.flush();
        let logs: Vec<String> = events_out
            .iter()
            .filter_map(|p| std::fs::read_to_string(p).ok())
            .collect();
        let metrics_value = metrics
            .as_ref()
            .and_then(|snap| serde_json::from_str(&snap.to_json_pretty()).ok());
        let html = permea_analysis::explorer::explorer_html(
            &output,
            "permea study explorer",
            metrics_value,
            &logs,
        );
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = permea_fi::env::atomic_write_chaos(path, html.as_bytes(), chaos.as_deref())
        {
            obs.error(format!("failed to write {}: {e}", path.display()));
            return ExitCode::from(exit::classify_error(&e));
        }
        obs.info(format!("explorer page written to {}", path.display()));
    }
    obs.info(format!("artifacts written to {}", out_dir.display()));
    if let Some(chaos) = &chaos {
        obs.info(format!(
            "chaos: {} environment fault(s) were injected and absorbed",
            chaos.injected()
        ));
    }

    let failed = report.checks.iter().filter(|c| !c.pass).count();
    if failed > 0 {
        obs.warn(format!("{failed} shape check(s) did not reproduce"));
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resume_hint_repeats_every_header_flag_that_was_given() {
        let plan = AdaptivePlan {
            target_ci: 0.1,
            batch_size: 20,
            ..AdaptivePlan::default()
        };
        let shard = Shard::parse("1/3").ok();
        let cases = [
            ("--smoke", None, None, None, "study --smoke --resume d"),
            ("--full", None, None, None, "study --full --resume d"),
            (
                "--smoke",
                Some(7),
                None,
                None,
                "study --smoke --seed 7 --resume d",
            ),
            (
                "--quick",
                None,
                Some(&plan),
                None,
                "study --quick --resume d --adaptive --target-ci 0.1 --batch-size 20",
            ),
            (
                "--quick",
                Some(9),
                None,
                shard,
                "study --quick --seed 9 --resume d --shard 1/3",
            ),
        ];
        for (preset, seed, adaptive, shard, expected) in cases {
            assert_eq!(
                resume_hint(preset, seed, adaptive, shard, Path::new("d")),
                expected
            );
        }
    }
}
