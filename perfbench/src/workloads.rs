//! The four workloads. Each one is a repeatable *iteration* — set up, run
//! its campaign(s), write the outputs — timed from outside and followed by
//! its output checks; a traced iteration additionally takes the per-layer
//! measurements.

use crate::check::{self, check_pin, check_result, replay_from_zero, sample, sha256_hex};
use crate::gen::{self, THREADS};
use crate::layers::{self, counter, hist_q, Phases};
use permea_analysis::report::Report;
use permea_analysis::service::StudyRunner;
use permea_analysis::study::{Study, StudyConfig};
use permea_core::topology::SystemTopology;
use permea_fi::campaign::{Campaign, CampaignConfig, SystemFactory};
use permea_fi::journal::RunJournal;
use permea_fi::process::IsolationMode;
use permea_fi::results::CampaignResult;
use permea_fi::spec::CampaignSpec;
use permea_obs::metrics::MetricsSnapshot;
use permea_obs::Obs;
use permea_server::protocol::{CampaignState, Response};
use permea_server::{Client, Daemon, ServerConfig};
use permea_target::registry::Registry;
use permea_target::scenario::ScenarioSpec;
use permea_target::suite::{ScenarioStudy, SuiteOptions};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Restarts timed per iteration where one restart takes milliseconds;
/// `resume_s` is their median.
const RESUME_REPS: usize = 9;

pub const WORKLOADS: [&str; 4] = [
    "quick-dense",
    "pipeline-durable",
    "daemon-two-tenant",
    "full-adaptive",
];

/// What one iteration is run with.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    /// Which of the seed's input draws to run (see [`crate::gen`]).
    pub draw: u64,
    /// Scratch directory for journals, reports and daemon state.
    pub work: PathBuf,
    /// Enabled for the traced iteration, disabled otherwise.
    pub obs: Obs,
}

impl Ctx {
    fn traced(&self) -> bool {
        self.obs.enabled()
    }
}

/// What one iteration measured and found.
#[derive(Default)]
pub struct Iter {
    pub setup_s: f64,
    /// From the first call to the last output written (includes set-up).
    pub wall_s: f64,
    /// Injection runs completed.
    pub runs: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Per campaign: start (or submission) to completed result.
    pub latencies_s: Vec<f64>,
    pub resume_s: f64,
    pub problems: Vec<String>,
    /// Per-layer metrics (traced iterations only).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Iter {
    /// Records a failed output check that invalidates `runs` runs.
    fn fail(&mut self, runs: u64, problem: String) {
        self.failed += runs;
        self.problems.push(problem);
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

/// The load each workload puts on the host, for the provenance block.
pub fn shape(workload: &str) -> String {
    let (runs, threads, workers, slots, clients, closed) = match workload {
        "quick-dense" => (9_360, THREADS, 0, 0, 1, false),
        "full-adaptive" => (52_000, THREADS, 0, 0, 1, false),
        "pipeline-durable" => (50_688, 1, THREADS, 0, 1, false),
        _ => (
            624 * gen::CAMPAIGNS_PER_TENANT * gen::TENANTS.len(),
            1,
            0,
            THREADS,
            gen::TENANTS.len(),
            true,
        ),
    };
    let runs_note = match workload {
        "full-adaptive" => "dense grid; the adaptive plan executes a subset",
        "daemon-two-tenant" => "per round",
        _ => "per iteration",
    };
    crate::sys::json_object([
        ("runs", runs.to_string()),
        ("runs_note", crate::sys::json_str(runs_note)),
        ("threads", threads.to_string()),
        ("worker_processes", workers.to_string()),
        ("daemon_slots", slots.to_string()),
        ("clients", clients.to_string()),
        ("closed_loop", closed.to_string()),
    ])
}

/// One timed set-up of `ctx.workload`, torn down again. The harness
/// repeats it to report a steady set-up time.
pub fn setup_once(ctx: &Ctx, rep: usize) -> Result<f64, String> {
    let t = Instant::now();
    match ctx.workload {
        "quick-dense" | "full-adaptive" => {
            let config = study_config(ctx);
            let dir = ctx.work.join(format!("setup-{rep}"));
            study_setup(&config, &dir)?;
            let took = secs(t);
            let _ = std::fs::remove_dir_all(&dir);
            Ok(took)
        }
        "pipeline-durable" => {
            let dir = ctx.work.join(format!("setup-{rep}"));
            let setup = pipeline_setup(ctx, &dir)?;
            let took = secs(t);
            drop(setup);
            let _ = std::fs::remove_dir_all(&dir);
            Ok(took)
        }
        _ => {
            let setup = daemon_setup(ctx, &ctx.work.join(format!("setup-{rep}")))?;
            let took = secs(t);
            let dir = setup.state_dir.clone();
            setup.daemon.finish().map_err(|e| e.to_string())?;
            let _ = std::fs::remove_dir_all(dir);
            Ok(took)
        }
    }
}

/// Runs iteration `index` of `ctx.workload`.
pub fn iteration(ctx: &Ctx, index: usize) -> Iter {
    let result = match ctx.workload {
        "quick-dense" => study_iteration(ctx, index, 200),
        "full-adaptive" => study_iteration(ctx, index, 60),
        "pipeline-durable" => pipeline_iteration(ctx, index),
        _ => daemon_round(ctx, index),
    };
    result.unwrap_or_else(|e| Iter {
        problems: vec![e],
        failed: 1,
        attempted: 1,
        ..Iter::default()
    })
}

// ---------------------------------------------------------------------
// Shared per-layer pieces

/// Golden build, sampled runtime phases and the campaign counters of a
/// traced in-process campaign, plus the residual the outside view leaves.
#[allow(clippy::too_many_arguments)]
fn campaign_layers(
    it: &mut Iter,
    factory: &dyn SystemFactory,
    config: &CampaignConfig,
    spec: &CampaignSpec,
    result: &CampaignResult,
    snap: &MetricsSnapshot,
    samples: usize,
    seed: u64,
) -> Result<(f64, Phases), String> {
    let golden_config = CampaignConfig {
        isolation: IsolationMode::InProcess,
        ..config.clone()
    };
    let t = Instant::now();
    let bundles = Campaign::new(factory, golden_config)
        .golden_bundles(spec)
        .map_err(|e| format!("golden build: {e}"))?;
    let golden_ms = ms(t);
    it.layers.insert("golden.build_ms", golden_ms);
    it.layers.insert(
        "golden.ticks",
        bundles.iter().map(|b| b.run.ticks).sum::<u64>() as f64,
    );
    it.layers.insert(
        "golden.snapshots",
        bundles.iter().map(|b| b.snapshot_count()).sum::<usize>() as f64,
    );

    let picks = sample(result.records.len(), samples, seed, 20);
    let p = layers::replay_phases(factory, config.master_seed, spec, &bundles, result, &picks)?;
    let per = |v: u64, n: u64| v as f64 / n.max(1) as f64;
    it.layers
        .insert("runtime.build_us", per(p.build_ns, p.runs) / 1e3);
    it.layers
        .insert("runtime.restore_us", per(p.restore_ns, p.restores) / 1e3);
    it.layers.insert("runtime.tick_ns", per(p.step_ns, p.ticks));
    it.layers
        .insert("runtime.converge_check_ns", per(p.check_ns, p.checks));
    it.layers
        .insert("runtime.converge_checks_per_run", per(p.checks, p.runs));
    it.layers
        .insert("runtime.compare_ns_per_tick", per(p.compare_ns, p.ticks));
    it.layers.insert("runtime.step_share", p.step_share());

    let runs = counter(snap, "campaign.runs_total");
    let run_ticks = counter(snap, "campaign.run_ticks");
    let saved = counter(snap, "campaign.ticks_saved");
    it.layers.insert(
        "campaign.run_us.p50",
        hist_q(snap, "process.run_micros", 0.5),
    );
    it.layers.insert(
        "campaign.run_us.p99",
        hist_q(snap, "process.run_micros", 0.99),
    );
    it.layers.insert("campaign.run_ticks", run_ticks);
    it.layers
        .insert("campaign.ticks_per_run", run_ticks / runs.max(1.0));
    it.layers.insert(
        "campaign.reconverged_ratio",
        counter(snap, "campaign.ff_reconverged") / runs.max(1.0),
    );
    it.layers.insert(
        "campaign.ticks_saved_ratio",
        saved / (saved + run_ticks).max(1.0),
    );
    Ok((golden_ms, p))
}

/// Share of `wall_ms` (on `threads` threads) that the golden build plus
/// `runs` sampled-mean runs do not cover.
fn residual(golden_ms: f64, p: &Phases, runs: f64, threads: f64, wall_ms: f64) -> f64 {
    1.0 - (golden_ms + runs * p.run_us() / 1e3 / threads) / wall_ms.max(1e-9)
}

// ---------------------------------------------------------------------
// quick-dense and full-adaptive: `Study`

fn study_config(ctx: &Ctx) -> StudyConfig {
    if ctx.workload == "quick-dense" {
        gen::quick_dense(ctx.seed, ctx.draw)
    } else {
        gen::full_adaptive(ctx.seed, ctx.draw)
    }
}

fn study_campaign_config(config: &StudyConfig) -> CampaignConfig {
    CampaignConfig {
        threads: config.threads,
        master_seed: config.seed,
        keep_records: config.keep_records,
        horizon_ms: config.horizon_ms,
        fast_forward: config.fast_forward,
        ..CampaignConfig::default()
    }
}

/// Study set-up: registry resolve, topology, factory, spec, output
/// directory.
fn study_setup(
    config: &StudyConfig,
    dir: &Path,
) -> Result<(Box<dyn SystemFactory>, SystemTopology, CampaignSpec), String> {
    let target = StudyConfig::target();
    let topology = target.topology();
    let factory = target
        .factory(&config.workload())
        .map_err(|e| e.to_string())?;
    let spec = config.spec(&topology);
    fresh_dir(dir)?;
    Ok((factory, topology, spec))
}

fn study_iteration(ctx: &Ctx, index: usize, replay_samples: usize) -> Result<Iter, String> {
    let mut it = Iter::default();
    let t0 = Instant::now();
    let config = study_config(ctx);
    let dir = ctx.work.join(format!("{}-{index}", ctx.workload));
    let (factory, topology, spec) = study_setup(&config, &dir)?;
    let study = Study::new(config.clone()).with_obs(ctx.obs.clone());
    it.setup_s = secs(t0);

    let t = Instant::now();
    let output = study.run().map_err(|e| format!("study failed: {e}"))?;
    it.latencies_s.push(secs(t));
    let t = Instant::now();
    let report = Report::from_study(&output);
    report
        .write_to(&dir)
        .map_err(|e| format!("writing the report: {e}"))?;
    let json = serde_json::to_string(&output.result).map_err(|e| e.to_string())?;
    permea_fi::env::atomic_write(dir.join("result.json"), json.as_bytes())
        .map_err(|e| e.to_string())?;
    let report_ms = ms(t);
    it.wall_s = secs(t0);
    let result = &output.result;
    it.runs = result.total_runs;
    it.attempted = result.total_runs;

    // Restart from the written output: reload result.json and rebuild the
    // analysis and every report artifact with no run re-executed; the
    // rebuilt report must equal the one written.
    let runs = result.total_runs;
    let mut resumes = Vec::new();
    for _ in 0..RESUME_REPS {
        let t = Instant::now();
        let rebuilt = std::fs::read_to_string(dir.join("result.json"))
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str(&text).map_err(|e| e.to_string()))
            .and_then(|reloaded| layers::analyse(&topology, &spec, reloaded))
            .map(|(out, _, _)| Report::from_study(&out).files);
        resumes.push(secs(t));
        if rebuilt.as_ref() != Ok(&report.files) {
            it.fail(
                runs,
                "the report rebuilt from result.json differs from the one written".into(),
            );
            break;
        }
    }
    it.resume_s = crate::sys::median(&resumes);
    let expected = if config.adaptive.is_some() {
        result.runs_per_target.iter().sum()
    } else {
        spec.run_count() as u64
    };
    if let Err(e) = check_result(result, expected) {
        it.fail(runs, format!("{}: {e}", ctx.workload));
    }
    if let Err(e) = check_pin(ctx.workload, ctx.seed, &sha256_hex(json.as_bytes())) {
        it.fail(runs, e);
    }
    let campaign_config = study_campaign_config(&config);
    let picks = sample(result.records.len(), 8, ctx.seed, 10 + index as u64);
    if let Err(e) = replay_from_zero(factory.as_ref(), &campaign_config, &spec, result, &picks) {
        it.fail(runs, e);
    }

    if ctx.traced() {
        let snap = ctx.obs.snapshot().expect("traced obs snapshots");
        let t = Instant::now();
        let target = Registry::builtin().resolve("arrestment")?;
        let _ = target
            .factory(&config.workload())
            .map_err(|e| e.to_string())?;
        let _ = target.topology();
        it.layers.insert("target.resolve_ms", ms(t));
        let (golden_ms, p) = campaign_layers(
            &mut it,
            factory.as_ref(),
            &campaign_config,
            &spec,
            result,
            &snap,
            replay_samples,
            ctx.seed,
        )?;
        let wall_ms = snap
            .gauges
            .get("process.campaign_wall_ms")
            .copied()
            .unwrap_or(0) as f64;
        it.layers.insert(
            "campaign.residual_frac",
            residual(golden_ms, &p, runs as f64, THREADS as f64, wall_ms),
        );
        let (_, estimate_ms, analyse_ms) = layers::analyse(&topology, &spec, result.clone())?;
        it.layers.insert("estimate.ms", estimate_ms);
        it.layers.insert("core.analyse_ms", analyse_ms);
        it.layers.insert("analysis.report_ms", report_ms);
        it.layers
            .insert("adaptive.batches", counter(&snap, "adaptive.batches"));
        it.layers
            .insert("adaptive.runs_ratio", runs as f64 / spec.run_count() as f64);
        if config.adaptive.is_some() {
            // Thread time the batch barriers leave idle: the run phase of
            // the campaign (its wall minus the serial golden build) on every
            // thread, less the time spent inside runs.
            let golden_span = snap.spans.get("golden").map_or(0, |s| s.total_micros) as f64;
            let run_us = snap
                .histograms
                .get("process.run_micros")
                .map_or(0, |h| h.sum) as f64;
            let capacity_us = THREADS as f64 * (wall_ms * 1e3 - golden_span);
            it.layers.insert(
                "adaptive.barrier_wait_frac",
                1.0 - run_us / capacity_us.max(1.0),
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(it)
}

// ---------------------------------------------------------------------
// pipeline-durable: `ScenarioStudy` + process isolation + `RunJournal`

struct PipelineSetup {
    study: ScenarioStudy,
    factory: Box<dyn SystemFactory>,
    config: CampaignConfig,
    journal: RunJournal,
    path: PathBuf,
}

fn resolve_scenario(toml: &str, name: &str) -> Result<ScenarioStudy, String> {
    ScenarioSpec::parse(toml, name)
        .and_then(ScenarioStudy::resolve)
        .map_err(|e| format!("scenario {name}: {e}"))
}

fn pipeline_setup(ctx: &Ctx, dir: &Path) -> Result<PipelineSetup, String> {
    let study = resolve_scenario(&gen::pipeline_toml(ctx.seed, ctx.draw), "pipeline-durable")?;
    let factory = study
        .target()
        .factory(study.workload())
        .map_err(|e| e.to_string())?;
    let options = SuiteOptions {
        process_isolation: true,
        threads: Some(THREADS),
        obs: ctx.obs.clone(),
    };
    let mut config = study.campaign_config(&options).map_err(|e| e.to_string())?;
    if let IsolationMode::Process(pool) = &mut config.isolation {
        pool.workers = THREADS;
    }
    fresh_dir(dir)?;
    let path = dir.join("journal.jsonl");
    let (journal, _) =
        RunJournal::open_or_create(&path, &study.journal_header()).map_err(|e| e.to_string())?;
    Ok(PipelineSetup {
        study,
        factory,
        config,
        journal,
        path,
    })
}

fn pipeline_iteration(ctx: &Ctx, index: usize) -> Result<Iter, String> {
    let mut it = Iter::default();
    let t0 = Instant::now();
    let dir = ctx.work.join(format!("pipeline-{index}"));
    let PipelineSetup {
        study,
        factory,
        config,
        mut journal,
        path,
    } = pipeline_setup(ctx, &dir)?;
    let spec = study.campaign_spec();
    it.setup_s = secs(t0);

    let t = Instant::now();
    let campaign = Campaign::new(factory.as_ref(), config.clone()).with_obs(ctx.obs.clone());
    let result = campaign
        .run_resumable(spec, Some(&mut journal), None)
        .map_err(|e| format!("pipeline campaign failed: {e}"))?;
    it.latencies_s.push(secs(t));
    let json = serde_json::to_string(&result).map_err(|e| e.to_string())?;
    permea_fi::env::atomic_write(dir.join("result.json"), json.as_bytes())
        .map_err(|e| e.to_string())?;
    it.wall_s = secs(t0);
    drop(journal);
    let runs = result.total_runs;
    it.runs = runs;
    it.attempted = runs;

    // Reopen the complete journal and resume: nothing may re-execute (a
    // zero run budget turns any re-execution into an interruption).
    let t = Instant::now();
    let (mut reopened, loaded) =
        RunJournal::open_or_create(&path, &study.journal_header()).map_err(|e| e.to_string())?;
    let open_ms = ms(t);
    let resumed = Campaign::new(factory.as_ref(), config.clone()).run_resumable_budgeted(
        spec,
        Some(&mut reopened),
        None,
        Some(0),
    );
    it.resume_s = secs(t);
    match resumed {
        Ok(r) if r == result && loaded.recovered as u64 == runs => {}
        Ok(_) => it.fail(runs, "resumed result differs from the fresh result".into()),
        Err(e) => it.fail(runs, format!("resume re-executed runs or failed: {e}")),
    }
    if let Err(e) = check_result(&result, spec.run_count() as u64) {
        it.fail(runs, format!("pipeline-durable: {e}"));
    }
    if let Err(e) = check_pin(ctx.workload, ctx.seed, &sha256_hex(json.as_bytes())) {
        it.fail(runs, e);
    }
    let picks = sample(result.records.len(), 16, ctx.seed, 10 + index as u64);
    if let Err(e) = replay_from_zero(factory.as_ref(), &config, spec, &result, &picks) {
        it.fail(runs, e);
    }

    if ctx.traced() {
        let snap = ctx.obs.snapshot().expect("traced obs snapshots");
        let t = Instant::now();
        let _ = resolve_scenario(&gen::pipeline_toml(ctx.seed, ctx.draw), "pipeline-durable")?;
        it.layers.insert("target.resolve_ms", ms(t));

        // The same spec without the journal, in worker processes and in
        // process: the gap is the cost of isolation (spawn, IPC, decode).
        let bare = |isolation: IsolationMode| -> Result<(f64, MetricsSnapshot), String> {
            let obs = Obs::with_sinks(Vec::new());
            let t = Instant::now();
            Campaign::new(
                factory.as_ref(),
                CampaignConfig {
                    isolation,
                    ..config.clone()
                },
            )
            .with_obs(obs.clone())
            .run(spec)
            .map_err(|e| e.to_string())?;
            Ok((secs(t), obs.snapshot().expect("enabled obs snapshots")))
        };
        let (process_s, _) = bare(config.isolation.clone())?;
        let (in_process_s, in_process) = bare(IsolationMode::InProcess)?;
        it.layers
            .insert("process.ipc_frac", 1.0 - in_process_s / process_s);
        it.layers.insert(
            "process.worker_spawns",
            counter(&snap, "process.worker_spawns"),
        );
        it.layers.insert(
            "process.attempt_us.p50",
            hist_q(&snap, "process.attempt_micros", 0.5),
        );
        it.layers.insert(
            "process.attempt_us.p99",
            hist_q(&snap, "process.attempt_micros", 0.99),
        );

        // Per-run timings come from the in-process twin (workers keep their
        // own telemetry); the counters are the supervisor's own.
        let (golden_ms, p) = campaign_layers(
            &mut it,
            factory.as_ref(),
            &config,
            spec,
            &result,
            &snap,
            1000,
            ctx.seed,
        )?;
        it.layers.insert(
            "campaign.run_us.p50",
            hist_q(&in_process, "process.run_micros", 0.5),
        );
        it.layers.insert(
            "campaign.run_us.p99",
            hist_q(&in_process, "process.run_micros", 0.99),
        );
        let wall_ms = snap
            .gauges
            .get("process.campaign_wall_ms")
            .copied()
            .unwrap_or(0) as f64;
        it.layers.insert(
            "campaign.residual_frac",
            residual(golden_ms, &p, runs as f64, THREADS as f64, wall_ms),
        );

        journal_layers(
            &mut it,
            &reopened,
            &study,
            &path,
            &dir,
            loaded.recovered,
            open_ms,
        )?;
        it.layers.insert(
            "journal.fsync_us.p50",
            hist_q(&snap, "process.journal_fsync_micros", 0.5),
        );
        it.layers.insert(
            "journal.fsync_us.p99",
            hist_q(&snap, "process.journal_fsync_micros", 0.99),
        );
        it.layers.insert("adaptive.runs_ratio", 1.0);
    }
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(it)
}

/// Journal metrics from a reopened complete journal: open time, records
/// replayed, bytes per record, and the mean append time of the same
/// records re-appended to a fresh journal (whose fsync histogram is
/// returned for workloads whose own journal telemetry is not observable).
fn journal_layers(
    it: &mut Iter,
    journal: &RunJournal,
    study: &ScenarioStudy,
    path: &Path,
    dir: &Path,
    recovered: usize,
    open_ms: f64,
) -> Result<MetricsSnapshot, String> {
    let mut entries: Vec<_> = journal
        .entries()
        .iter()
        .map(|(&k, (r, s))| (k, r.clone(), *s))
        .collect();
    entries.sort_by_key(|e| e.0);
    let bytes = std::fs::metadata(path).map_or(0, |m| m.len()) as f64;
    let (append_us, snap) = layers::reappend(
        &dir.join("reappend.jsonl"),
        &study.journal_header(),
        &entries,
    )?;
    it.layers.insert("journal.append_us", append_us);
    it.layers.insert(
        "journal.bytes_per_record",
        bytes / entries.len().max(1) as f64,
    );
    it.layers.insert("journal.open_ms", open_ms);
    it.layers
        .insert("journal.records_replayed", recovered as f64);
    Ok(snap)
}

// ---------------------------------------------------------------------
// daemon-two-tenant: `Daemon` + two closed-loop `Client`s

struct Planned {
    payload: String,
    toml: String,
    runs: u64,
    cases: usize,
}

struct DaemonSetup {
    plans: Vec<Vec<Planned>>,
    daemon: Daemon,
    socket: PathBuf,
    state_dir: PathBuf,
}

/// Round set-up: generate and admission-check every campaign the two
/// tenants will submit, then start a daemon at `ServerConfig::new`
/// defaults on a fresh state directory.
fn daemon_setup(ctx: &Ctx, state_dir: &Path) -> Result<DaemonSetup, String> {
    let mut plans = Vec::new();
    for tenant in 0..gen::TENANTS.len() {
        let mut mine = Vec::new();
        for j in 0..gen::CAMPAIGNS_PER_TENANT {
            let toml = gen::daemon_toml(ctx.seed, ctx.draw, tenant, j);
            let study = resolve_scenario(&toml, "submitted")?;
            let payload = format!(
                "{{\"scenario\":{},\"threads\":1}}",
                serde_json::to_string(&toml).map_err(|e| e.to_string())?
            );
            mine.push(Planned {
                payload,
                runs: study.campaign_spec().run_count() as u64,
                cases: study.campaign_spec().cases,
                toml,
            });
        }
        plans.push(mine);
    }
    let _ = std::fs::remove_dir_all(state_dir);
    let mut config = ServerConfig::new(state_dir);
    // Unix socket paths are limited to ~108 bytes: keep the socket beside
    // the (relative) state directory instead of under its absolute path.
    config.socket = state_dir.with_extension("sock");
    let socket = config.socket.clone();
    let daemon =
        Daemon::start(config, Arc::new(StudyRunner), ctx.obs.clone()).map_err(|e| e.to_string())?;
    Ok(DaemonSetup {
        plans,
        daemon,
        socket,
        state_dir: state_dir.to_path_buf(),
    })
}

/// One tenant's campaign as the client saw it.
struct Seen {
    id: Option<u64>,
    state: Option<CampaignState>,
    latency_s: f64,
    submit_ms: f64,
    error: String,
}

/// Closed loop: submit, watch to completion, then submit the next.
fn tenant_loop(socket: &Path, tenant: &str, plans: &[Planned]) -> Vec<Seen> {
    plans
        .iter()
        .map(|plan| {
            let t = Instant::now();
            let mut seen = Seen {
                id: None,
                state: None,
                latency_s: 0.0,
                submit_ms: 0.0,
                error: String::new(),
            };
            match Client::connect(socket).and_then(|mut c| c.submit(tenant, &plan.payload)) {
                Ok(Response::Submitted { id }) => {
                    seen.id = Some(id);
                    seen.submit_ms = ms(t);
                    match Client::connect(socket).and_then(|mut c| c.watch(id, |_, _| {})) {
                        Ok((state, detail)) => {
                            seen.state = Some(state);
                            seen.error = detail;
                        }
                        Err(e) => seen.error = e.to_string(),
                    }
                }
                Ok(other) => seen.error = format!("submission refused: {other:?}"),
                Err(e) => seen.error = e.to_string(),
            }
            seen.latency_s = secs(t);
            seen
        })
        .collect()
}

/// Slices and journal records replayed per campaign, read back from the
/// `progress` events each slice appends to the campaign's `events.jsonl`
/// (every slice, yielded or finished, ends with a `finished` progress
/// event carrying its `recovered` count).
fn slice_replays(dir: &Path) -> (u64, u64) {
    let text = std::fs::read_to_string(dir.join("events.jsonl")).unwrap_or_default();
    let mut slices = 0;
    let mut replayed = 0;
    for line in text.lines() {
        if !line.contains("\"type\": \"progress\"") || !line.contains("\"finished\": true") {
            continue;
        }
        slices += 1;
        replayed += line
            .split("\"recovered\": ")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|n| n.trim().parse::<u64>().ok())
            .unwrap_or(0);
    }
    (slices, replayed)
}

fn daemon_round(ctx: &Ctx, round: usize) -> Result<Iter, String> {
    let mut it = Iter::default();
    let t0 = Instant::now();
    let setup = daemon_setup(ctx, &ctx.work.join(format!("daemon-{round}")))?;
    it.setup_s = secs(t0);
    let seen: Vec<Vec<Seen>> = std::thread::scope(|s| {
        let handles: Vec<_> = setup
            .plans
            .iter()
            .enumerate()
            .map(|(t, plans)| {
                let socket = &setup.socket;
                s.spawn(move || tenant_loop(socket, gen::TENANTS[t], plans))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    it.wall_s = secs(t0);
    let DaemonSetup {
        plans,
        daemon,
        state_dir,
        ..
    } = setup;
    let slices = ctx.obs.counter("server.slices_dispatched").get() as f64;
    daemon
        .finish()
        .map_err(|e| format!("daemon shutdown: {e}"))?;

    // Every campaign: completed, with a sane result.json.
    let mut completed: Vec<(usize, usize, u64)> = Vec::new();
    for (t, tenant_seen) in seen.iter().enumerate() {
        for (j, s) in tenant_seen.iter().enumerate() {
            let plan = &plans[t][j];
            it.attempted += plan.runs;
            it.latencies_s.push(s.latency_s);
            let (Some(id), Some(CampaignState::Completed)) = (s.id, s.state) else {
                it.fail(
                    plan.runs,
                    format!("{} campaign {j}: {}", gen::TENANTS[t], s.error),
                );
                continue;
            };
            let path = state_dir
                .join("campaigns")
                .join(id.to_string())
                .join("result.json");
            let checked = std::fs::read(&path)
                .map_err(|e| format!("{}: {e}", path.display()))
                .and_then(|bytes| {
                    let text = String::from_utf8(bytes).map_err(|e| e.to_string())?;
                    let result: CampaignResult =
                        serde_json::from_str(&text).map_err(|e| e.to_string())?;
                    check_result(&result, plan.runs)?;
                    if j == 0 {
                        check_pin(ctx.workload, ctx.seed, &sha256_hex(text.as_bytes()))?;
                    }
                    Ok(())
                });
            match checked {
                Ok(()) => {
                    it.runs += plan.runs;
                    completed.push((t, j, id));
                }
                Err(e) => it.fail(plan.runs, format!("{} campaign {j}: {e}", gen::TENANTS[t])),
            }
        }
    }
    let pick = check::sample(completed.len(), 1, ctx.seed, 30 + round as u64);
    let Some(&(t, j, id)) = pick.first().and_then(|&i| completed.get(i)) else {
        return Ok(it);
    };

    // One sampled campaign per round, re-run standalone: its result must
    // match the daemon's byte for byte, agree with replay from zero, and
    // resume from its journal with nothing re-executed.
    let plan = &plans[t][j];
    let campaign_dir = state_dir.join("campaigns").join(id.to_string());
    let daemon_json = std::fs::read_to_string(campaign_dir.join("result.json")).unwrap_or_default();
    let study = resolve_scenario(&plan.toml, "submitted")?;
    let standalone_obs = if ctx.traced() {
        Obs::with_sinks(Vec::new())
    } else {
        Obs::disabled()
    };
    let options = SuiteOptions {
        process_isolation: false,
        threads: Some(1),
        obs: standalone_obs.clone(),
    };
    let result = study.run(&options).map_err(|e| e.to_string())?;
    if serde_json::to_string(&result).map_err(|e| e.to_string())? != daemon_json {
        it.fail(
            plan.runs,
            format!("campaign {id}: daemon result differs from a standalone run"),
        );
    }
    let factory = study
        .target()
        .factory(study.workload())
        .map_err(|e| e.to_string())?;
    let config = study.campaign_config(&options).map_err(|e| e.to_string())?;
    let picks = sample(result.records.len(), 4, ctx.seed, 10 + round as u64);
    if let Err(e) = replay_from_zero(
        factory.as_ref(),
        &config,
        study.campaign_spec(),
        &result,
        &picks,
    ) {
        it.fail(plan.runs, e);
    }
    let journal_path = campaign_dir.join("journal.jsonl");
    let mut resumes = Vec::new();
    let mut opens = Vec::new();
    let mut reopened = None;
    for _ in 0..RESUME_REPS {
        let t = Instant::now();
        let (mut journal, loaded) =
            RunJournal::open_or_create(&journal_path, &study.journal_header())
                .map_err(|e| e.to_string())?;
        opens.push(ms(t));
        let resumed = study.run_resumable_budgeted(
            &SuiteOptions {
                obs: Obs::disabled(),
                ..options.clone()
            },
            Some(&mut journal),
            None,
            Some(0),
        );
        resumes.push(secs(t));
        match resumed {
            Ok(r) if r == result && loaded.recovered as u64 == plan.runs => {}
            Ok(_) => it.fail(plan.runs, format!("campaign {id}: resumed result differs")),
            Err(e) => it.fail(
                plan.runs,
                format!("campaign {id}: resume re-executed runs or failed: {e}"),
            ),
        }
        reopened = Some((journal, loaded.recovered));
    }
    it.resume_s = crate::sys::median(&resumes);
    let open_ms = crate::sys::median(&opens);
    let (journal, recovered) = reopened.expect("at least one resume");

    if ctx.traced() {
        let t = Instant::now();
        let _ = resolve_scenario(&plan.toml, "submitted")?;
        it.layers.insert("target.resolve_ms", ms(t));
        let snap = standalone_obs.snapshot().expect("traced obs snapshots");
        let (golden_ms, p) = campaign_layers(
            &mut it,
            factory.as_ref(),
            &config,
            study.campaign_spec(),
            &result,
            &snap,
            200,
            ctx.seed,
        )?;
        let fsync = journal_layers(
            &mut it,
            &journal,
            &study,
            &journal_path,
            &state_dir,
            recovered,
            open_ms,
        )?;
        it.layers.insert(
            "journal.fsync_us.p50",
            hist_q(&fsync, "process.journal_fsync_micros", 0.5),
        );
        it.layers.insert(
            "journal.fsync_us.p99",
            hist_q(&fsync, "process.journal_fsync_micros", 0.99),
        );

        let (mut golden_runs, mut replayed, mut campaign_slices) = (0u64, 0u64, 0u64);
        for &(t, j, id) in &completed {
            let (n, r) = slice_replays(&state_dir.join("campaigns").join(id.to_string()));
            campaign_slices += n;
            replayed += r;
            golden_runs += n * plans[t][j].cases as u64;
        }
        let submits: Vec<f64> = seen.iter().flatten().map(|s| s.submit_ms).collect();
        it.layers.insert(
            "server.submit_ms",
            submits.iter().sum::<f64>() / submits.len().max(1) as f64,
        );
        it.layers.insert("server.slices_dispatched", slices);
        it.layers.insert("server.golden_runs", golden_runs as f64);
        it.layers.insert("server.records_replayed", replayed as f64);
        // A daemon campaign runs on one slot: its latency against the
        // golden rebuild of every slice plus its runs' sampled phases.
        let slices_per_campaign = campaign_slices as f64 / completed.len().max(1) as f64;
        let latency_ms = crate::sys::median(&it.latencies_s) * 1e3;
        it.layers.insert(
            "campaign.residual_frac",
            1.0 - (slices_per_campaign * golden_ms + plan.runs as f64 * p.run_us() / 1e3)
                / latency_ms.max(1e-9),
        );
        it.layers.insert("adaptive.runs_ratio", 1.0);
    }
    drop(journal);
    let _ = std::fs::remove_dir_all(&state_dir);
    Ok(it)
}
