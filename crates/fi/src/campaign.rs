//! The campaign executor: Golden Runs, injection runs, Golden Run
//! Comparison, parallel orchestration.
//!
//! For every workload case the executor records one [`GoldenRun`]. Every
//! injection run then replays the case for exactly the Golden Run's tick
//! count, installs one error at the configured instant — *after* the
//! environment refreshed the sensors for that tick, *before* any module
//! reads them — and compares each output of the targeted module with the
//! Golden Run as the run steps. One error per run, as in the paper.
//!
//! # Stages
//!
//! [`Campaign::run_resumable_budgeted`] (behind every `run*` entry point)
//! is a sequence of five stages:
//!
//! 1. **prepare** — validate the spec, resolve its targets, record the
//!    golden runs. Worker processes run the same stage.
//! 2. **claim** — hand an executor thread its next coordinate: the dense
//!    cursor (shard-aware, skipping journaled runs) or the adaptive
//!    planner, under the work budget and the stop and failure flags.
//! 3. **execute** — run the coordinate in the sandbox.
//! 4. **commit** — account the finished run, feed the planner, append it
//!    to the journal, report progress; finally merge with the journal.
//! 5. **assemble** — quarantine threshold and pair statistics, purely from
//!    the merged records.
//!
//! In-process and process-isolated campaigns share every stage and differ
//! only in the transport of *execute*: an in-process thread runs the
//! sandbox itself, while under [`IsolationMode::Process`] each thread
//! ships batches of coordinates to its worker process over a
//! `WorkerClient` and owns that worker's respawns, retries and the
//! in-process fallback. The supervisor then records bare golden runs; its
//! workers record their own snapshot bundles.
//!
//! # Fast-forward
//!
//! With [`CampaignConfig::fast_forward`] enabled (the default), the golden
//! run additionally captures a [`SimSnapshot`] at every injection instant
//! plus a periodic checkpoint cadence, collected in a [`GoldenBundle`].
//! Injection runs then
//!
//! * **fork**: restore the snapshot taken at the injection instant instead
//!   of replaying the prefix — the prefix is identical by determinism — and
//! * **early-exit**: once the injected state reconverges with a golden
//!   checkpoint (same tick, same signal values, caches and serialised
//!   module/environment state, no live corruption), the remainder of the
//!   run is provably identical to the golden run and is not simulated.
//!
//! Both shortcuts are exact: estimates, divergences and records are
//! bit-identical to the replay-from-zero path, which is kept (set
//! `fast_forward: false`) for differential testing.
//!
//! # Decided runs
//!
//! The record of a run holds only the first tick at which each output of
//! the targeted module diverges. Injection runs therefore record no trace:
//! each tick's outputs are compared with the golden samples as the run
//! steps, and the run stops once every output has diverged and the error
//! model has fired for the last time — no later tick can change the
//! record. Both paths above take this cut alike, so they still agree bit
//! for bit. A run is judged over the ticks up to its decision: a stall or
//! panic after it is never reached and cannot change Pr{err on k | err on
//! i}. [`Campaign::run_traced`] alone steps on to the horizon, because it
//! returns the whole trace.

use crate::adaptive::{AdaptivePlanner, StopReason};
use crate::chaos::ChaosInjector;
use crate::error::FiError;
use crate::golden::GoldenRun;
use crate::journal::{JournalHeader, RunJournal, DEFAULT_FSYNC_INTERVAL};
use crate::outcome::{classify_unwind, OutcomeTally, RunOutcome};
use crate::process::{
    backoff, Attempt, IsolationMode, ProcessIsolation, ToWorker, WorkerClient, WorkerCommand,
};
use crate::results::{CampaignResult, PairStat, RunRecord, RunStats};
use crate::shard::Shard;
use crate::spec::{CampaignSpec, InjectionScope};
use permea_obs::{Counter, Event, Histogram, Obs, Progress, StratumCi};
use permea_runtime::signals::{SignalBus, SignalRef};
use permea_runtime::sim::{SimInstruments, SimSnapshot, Simulation};
use permea_runtime::time::SimTime;
use permea_runtime::tracing::TraceSet;
use permea_runtime::watchdog::WatchdogConfig;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Spacing of the periodic golden checkpoints used for convergence
/// early-exit. Denser checkpoints detect reconvergence sooner at the cost
/// of snapshot memory and comparison work.
const CHECKPOINT_CADENCE_MS: u64 = 100;

/// Preflight floor: a journaled campaign refuses to start (with the typed
/// [`FiError::DiskSpaceLow`]) when the journal's filesystem has fewer free
/// bytes than this — it would almost certainly abort mid-run on ENOSPC.
pub const MIN_FREE_DISK_BYTES: u64 = 8 * 1024 * 1024;

/// Preflight warning threshold: below this much free space the campaign
/// still runs but emits a warning event.
pub const WARN_FREE_DISK_BYTES: u64 = 64 * 1024 * 1024;

/// Builds fresh simulations of the system under test, one per run.
///
/// Contract: `build(case)` must return a deterministic simulation with
/// tracing already enabled for every signal the comparison should monitor,
/// and identical module/signal naming across cases.
pub trait SystemFactory: Sync {
    /// Builds the simulation for workload case `case`.
    fn build(&self, case: usize) -> Simulation;

    /// Number of workload cases available.
    fn case_count(&self) -> usize;

    /// Upper bound on any scenario's natural length, in milliseconds.
    fn max_run_ms(&self) -> u64 {
        60_000
    }
}

/// Adapts a closure into a [`SystemFactory`].
///
/// # Examples
///
/// ```no_run
/// use permea_fi::campaign::{FnSystemFactory, SystemFactory};
/// # fn make_sim(_case: usize) -> permea_runtime::sim::Simulation { unimplemented!() }
/// let factory = FnSystemFactory::new(25, 60_000, make_sim);
/// assert_eq!(factory.case_count(), 25);
/// ```
pub struct FnSystemFactory<F> {
    cases: usize,
    max_run_ms: u64,
    build: F,
}

impl<F> FnSystemFactory<F>
where
    F: Fn(usize) -> Simulation + Sync,
{
    /// Wraps `build` with the given case count and run-length cap.
    pub fn new(cases: usize, max_run_ms: u64, build: F) -> Self {
        FnSystemFactory {
            cases,
            max_run_ms,
            build,
        }
    }
}

impl<F> SystemFactory for FnSystemFactory<F>
where
    F: Fn(usize) -> Simulation + Sync,
{
    fn build(&self, case: usize) -> Simulation {
        (self.build)(case)
    }
    fn case_count(&self) -> usize {
        self.cases
    }
    fn max_run_ms(&self) -> u64 {
        self.max_run_ms
    }
}

/// Execution options for a campaign.
///
/// Not `Eq` because `max_quarantined_fraction` is an `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Worker threads (0 ⇒ use available parallelism).
    pub threads: usize,
    /// Master seed from which every per-run RNG is derived.
    pub master_seed: u64,
    /// Keep a detailed [`RunRecord`] per injection run.
    pub keep_records: bool,
    /// Optional horizon: truncate every run (golden and injected) to this
    /// many milliseconds. The paper compares full traces; a horizon
    /// comfortably past the last injection (e.g. 15 000 ms for injections
    /// ending at 5 000 ms) gives the same divergence verdicts at a fraction
    /// of the cost and is used by the fast configurations.
    pub horizon_ms: Option<u64>,
    /// Fork injection runs from golden snapshots and early-exit once they
    /// reconverge with the golden run (see the module docs). Results are
    /// bit-identical either way; disable only for differential testing.
    pub fast_forward: bool,
    /// Watchdog budgets armed on every *injection* run (golden runs are
    /// never armed — an un-injected scenario that hangs is a
    /// [`FiError::GoldenRunDidNotTerminate`] bug, not data). `None`
    /// disables hang detection entirely.
    pub watchdog: Option<WatchdogConfig>,
    /// Largest tolerable fraction of quarantined (panicked or hung) runs.
    /// Individual quarantined runs are data — a brittle module meeting a
    /// corrupted value — but when more than this fraction of the whole
    /// campaign dies, the breakage is systematic and the permeability
    /// estimates would rest on a biased sample, so the campaign returns
    /// [`FiError::QuarantineThresholdExceeded`] instead of a result.
    pub max_quarantined_fraction: f64,
    /// Journal fsync batching: the run journal `fsync`s after every this
    /// many appended records (each append is still flushed to the OS
    /// immediately, so a process kill loses nothing either way). Must be
    /// greater than zero — validated by [`Campaign::run_resumable`], which
    /// returns [`FiError::InvalidFsyncInterval`] otherwise. Smaller values
    /// bound power-failure loss tighter at the cost of fsync latency per
    /// run (measured by the `process.journal_fsync_micros` histogram).
    pub journal_fsync_interval: usize,
    /// Where injection runs execute: in this process (the default) or in a
    /// supervised pool of worker processes that survives hard faults (see
    /// [`IsolationMode`]).
    pub isolation: IsolationMode,
    /// Under [`IsolationMode::Process`], how many times a coordinate whose
    /// worker *died* (crash or hard-deadline kill) is re-dispatched before
    /// the death is quarantined as its classified outcome. Retries separate
    /// transient infrastructure failures (an OOM kill under memory
    /// pressure) from deterministic faults; a death that reproduces with
    /// the identical classification on consecutive attempts is quarantined
    /// early without spending the remaining budget. Ignored in-process,
    /// where every run is deterministic by construction.
    pub max_retries: u32,
    /// Execute only this shard's deterministic slice of the campaign:
    /// positions of the dense enumeration (or of each adaptive stratum's
    /// sampling permutation) congruent to the shard index modulo the shard
    /// count. Shard journals share the unsharded campaign's header, so
    /// [`crate::journal::merge_journals`] combines them into one journal
    /// that is byte-identical to an unsharded single-threaded run's.
    pub shard: Option<Shard>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            threads: 0,
            master_seed: 0x5EED,
            keep_records: true,
            horizon_ms: None,
            fast_forward: true,
            watchdog: Some(WatchdogConfig::default()),
            max_quarantined_fraction: 0.25,
            journal_fsync_interval: DEFAULT_FSYNC_INTERVAL,
            isolation: IsolationMode::InProcess,
            max_retries: 2,
            shard: None,
        }
    }
}

/// A [`GoldenRun`] plus the snapshots that let injection runs fast-forward:
/// one at every injection instant (fork points) and one every
/// [`CHECKPOINT_CADENCE_MS`] (convergence checkpoints).
#[derive(Debug, Clone)]
pub struct GoldenBundle {
    /// The reference run.
    pub run: GoldenRun,
    snapshots: BTreeMap<u64, SimSnapshot>,
}

impl GoldenBundle {
    /// Wraps a golden run with no snapshots: every injection run replays
    /// from tick zero (the `fast_forward: false` path).
    pub fn bare(run: GoldenRun) -> Self {
        GoldenBundle {
            run,
            snapshots: BTreeMap::new(),
        }
    }

    /// The snapshot captured at the boundary of tick `time_ms`, if any.
    pub fn snapshot_at(&self, time_ms: u64) -> Option<&SimSnapshot> {
        self.snapshots.get(&time_ms)
    }

    /// Number of captured snapshots.
    pub fn snapshot_count(&self) -> usize {
        self.snapshots.len()
    }
}

/// What [`Campaign::prepare`] yields: the validated spec, its resolved
/// targets, one golden bundle per workload case, and where each target's
/// outputs sit in each case's golden traces.
pub(crate) struct Prepared<'s> {
    spec: &'s CampaignSpec,
    targets: Vec<ResolvedTarget>,
    goldens: Vec<GoldenBundle>,
    /// Golden trace rows of target `ti`'s outputs in case `ci`, at
    /// `ci * targets.len() + ti`, resolved once so a run compares by index.
    output_rows: Vec<Vec<Option<usize>>>,
}

impl Prepared<'_> {
    fn output_rows(&self, ti: usize, ci: usize) -> &[Option<usize>] {
        &self.output_rows[ci * self.targets.len() + ti]
    }
}

/// Resolved, immutable description of one target (probe-validated once).
#[derive(Debug, Clone)]
pub(crate) struct ResolvedTarget {
    module_name: String,
    input_signal: String,
    module_idx: permea_runtime::sim::ModuleIdx,
    input_port: usize,
    output_signals: Vec<String>,
    /// Bus references of `output_signals` (the factory builds every case
    /// with the same signal layout).
    output_refs: Vec<SignalRef>,
}

/// What `run_one` yields per injection: the original and corrupted signal
/// values, the per-output first divergences, and the run's deterministic
/// execution statistics.
type RunOneOutput = (u16, u16, Vec<Option<u32>>, RunStats);

/// Where an injection run stopped and what it injected. The run simulated
/// ticks `[start_ms, stop_ms)`.
struct Injected {
    start_ms: u64,
    stop_ms: u64,
    forked: bool,
    converged_ms: Option<u64>,
    original: u16,
    corrupted: u16,
}

/// Online Golden Run Comparison: the first tick at which each output of
/// the target deviates from the golden run, folded in as the run steps.
/// An output the golden run does not trace never counts as diverged.
struct Divergence<'g> {
    refs: &'g [SignalRef],
    rows: &'g [Option<usize>],
    golden: &'g TraceSet,
    first: Vec<Option<u32>>,
    /// Outputs not yet diverged.
    pending: usize,
}

impl<'g> Divergence<'g> {
    fn new(target: &'g ResolvedTarget, rows: &'g [Option<usize>], golden: &'g TraceSet) -> Self {
        Divergence {
            refs: &target.output_refs,
            rows,
            golden,
            first: vec![None; rows.len()],
            pending: rows.len(),
        }
    }

    /// Compares the outputs on `bus` with the golden samples of `tick`.
    fn observe(&mut self, bus: &SignalBus, tick: u64) {
        for ((first, &sig), row) in self.first.iter_mut().zip(self.refs).zip(self.rows) {
            let Some(row) = *row else { continue };
            if first.is_none() && bus.read(sig) != self.golden.samples(row)[tick as usize] {
                *first = Some(tick as u32);
                self.pending -= 1;
            }
        }
    }

    /// Every output has diverged: no later tick can change the record.
    fn decided(&self) -> bool {
        self.pending == 0
    }
}

/// Telemetry instruments a campaign resolves once up front and bumps per
/// run. `campaign.*` names hold deterministic facts (identical between a
/// resumed and an uninterrupted execution); `process.*` names describe this
/// process's work. All handles are no-ops for a disabled [`Obs`].
struct Instruments {
    runs_total: Counter,
    runs_completed: Counter,
    runs_panicked: Counter,
    runs_hung: Counter,
    runs_crashed: Counter,
    ff_forked: Counter,
    ff_reconverged: Counter,
    run_ticks: Counter,
    ticks_saved: Counter,
    ticks_cut: Counter,
    golden_runs: Counter,
    golden_ticks: Counter,
    snapshots: Counter,
    runs_executed: Counter,
    runs_recovered: Counter,
    run_micros: Histogram,
    worker_spawns: Counter,
    worker_respawns: Counter,
    worker_kills: Counter,
    run_retries: Counter,
    attempt_micros: Histogram,
    adaptive_batches: Counter,
    adaptive_strata_closed: Counter,
    adaptive_runs_saved: Counter,
}

impl Instruments {
    fn resolve(obs: &Obs) -> Self {
        Instruments {
            runs_total: obs.counter("campaign.runs_total"),
            runs_completed: obs.counter("campaign.runs_completed"),
            runs_panicked: obs.counter("campaign.runs_panicked"),
            runs_hung: obs.counter("campaign.runs_hung"),
            runs_crashed: obs.counter("campaign.runs_crashed"),
            ff_forked: obs.counter("campaign.ff_forked"),
            ff_reconverged: obs.counter("campaign.ff_reconverged"),
            run_ticks: obs.counter("campaign.run_ticks"),
            ticks_saved: obs.counter("campaign.ticks_saved"),
            ticks_cut: obs.counter("campaign.ticks_cut"),
            golden_runs: obs.counter("campaign.golden_runs"),
            golden_ticks: obs.counter("campaign.golden_ticks"),
            snapshots: obs.counter("campaign.snapshots"),
            runs_executed: obs.counter("process.runs_executed"),
            runs_recovered: obs.counter("process.runs_recovered"),
            run_micros: obs.histogram("process.run_micros"),
            worker_spawns: obs.counter("process.worker_spawns"),
            worker_respawns: obs.counter("process.worker_respawns"),
            worker_kills: obs.counter("process.worker_kills"),
            run_retries: obs.counter("process.run_retries"),
            attempt_micros: obs.histogram("process.attempt_micros"),
            adaptive_batches: obs.counter("adaptive.batches"),
            adaptive_strata_closed: obs.counter("adaptive.strata_closed"),
            adaptive_runs_saved: obs.counter("adaptive.runs_saved"),
        }
    }

    /// Accounts one finished run — executed just now or recovered from the
    /// journal — into the deterministic `campaign.*` totals. `golden_ticks`
    /// is the golden-run length of the run's case, needed to credit the
    /// tail skipped by a reconvergence exit or by the decision cut. A
    /// completed run stopped at tick start + `sim_ticks` (start is the
    /// injection instant when forked, else zero); without a reconvergence
    /// the rest of the horizon was cut, so over completed runs
    /// `run_ticks + ticks_saved + ticks_cut` is the golden ticks of each
    /// run's case.
    fn account(&self, record: &RunRecord, stats: &RunStats, golden_ticks: u64) {
        self.runs_total.inc();
        match &record.outcome {
            RunOutcome::Completed => self.runs_completed.inc(),
            RunOutcome::Panicked { .. } => self.runs_panicked.inc(),
            RunOutcome::Hung { .. } => self.runs_hung.inc(),
            RunOutcome::Crashed { .. } => self.runs_crashed.inc(),
        }
        self.run_ticks.add(stats.sim_ticks);
        if stats.forked {
            self.ff_forked.inc();
            self.ticks_saved.add(record.time_ms);
        }
        if let Some(converged) = stats.converged_ms {
            self.ff_reconverged.inc();
            self.ticks_saved.add(golden_ticks.saturating_sub(converged));
        } else if record.outcome.is_completed() {
            let start = if stats.forked { record.time_ms } else { 0 };
            self.ticks_cut
                .add(golden_ticks.saturating_sub(start + stats.sim_ticks));
        }
    }
}

/// Shared planner state of an adaptive campaign: the current batch's
/// still-unclaimed coordinates, the number in flight, and every coordinate
/// sampled so far. Guarded by one mutex so batch planning is a barrier —
/// round *r + 1* is only ever computed from the complete records of rounds
/// *1..=r*, which is what keeps adaptive campaigns independent of executor
/// thread count.
struct AdaptiveState {
    planner: AdaptivePlanner,
    /// Unclaimed coordinates of the current batch, served from the back.
    pending: Vec<usize>,
    /// Claimed-but-uncommitted coordinates of the current batch.
    outstanding: usize,
    /// The planner returned an empty batch: the campaign is complete.
    finished: bool,
    /// Every coordinate the planner has issued, in issue order.
    sampled: Vec<u64>,
    /// Per-target flag: a [`permea_obs::Event::StratumClosed`] event was
    /// already emitted for this stratum (closes are detected at batch
    /// barriers, so without the flag every later barrier would repeat
    /// them).
    closed_reported: Vec<bool>,
}

/// Where worker threads claim coordinates from: the dense grid cursor, or
/// the adaptive planner with its batch condvar.
enum WorkSource {
    Dense(AtomicUsize),
    Adaptive(Box<Mutex<AdaptiveState>>, Condvar),
}

/// A ready-to-run campaign binding a factory to a configuration.
pub struct Campaign<'f> {
    factory: &'f dyn SystemFactory,
    config: CampaignConfig,
    obs: Obs,
    chaos: Option<Arc<ChaosInjector>>,
}

impl<'f> Campaign<'f> {
    /// Creates a campaign with telemetry disabled.
    pub fn new(factory: &'f dyn SystemFactory, config: CampaignConfig) -> Self {
        Campaign {
            factory,
            config,
            obs: Obs::disabled(),
            chaos: None,
        }
    }

    /// Attaches a telemetry handle: campaign phases, per-run counters and
    /// progress events flow through it. With the default disabled handle
    /// every instrument is a branch-and-skip no-op.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Attaches a [`crate::chaos`] injector: its fault plan is replayed
    /// against this campaign's journal, worker pool and preflight checks.
    /// Production campaigns never call this; without an injector every
    /// chaos hook is a single `Option` branch.
    pub fn with_chaos(mut self, chaos: Arc<ChaosInjector>) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// The telemetry handle in use.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The configuration in use.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// The effective run-length cap: the horizon, clipped to the factory's
    /// cap.
    fn cap_ms(&self) -> u64 {
        self.config
            .horizon_ms
            .map_or(self.factory.max_run_ms(), |h| {
                h.min(self.factory.max_run_ms())
            })
    }

    /// Checks that a golden run ending in the given state is acceptable:
    /// a natural finish always is; a truncated run is only acceptable when
    /// the configured horizon itself (not the factory cap) cut it.
    fn check_termination(&self, finished: bool, case: usize) -> Result<(), FiError> {
        if finished {
            return Ok(());
        }
        match self.config.horizon_ms {
            None => Err(FiError::GoldenRunDidNotTerminate { case }),
            Some(h) if h > self.factory.max_run_ms() => Err(FiError::HorizonExceedsCap {
                horizon_ms: h,
                max_run_ms: self.factory.max_run_ms(),
            }),
            Some(_) => Ok(()),
        }
    }

    /// Records the Golden Run for one case.
    ///
    /// # Errors
    ///
    /// [`FiError::GoldenRunDidNotTerminate`] if the scenario neither
    /// finishes nor hits the configured horizon within the factory's cap;
    /// [`FiError::HorizonExceedsCap`] if the horizon lies beyond the cap and
    /// the run would have been silently truncated at the cap;
    /// [`FiError::TracingDisabled`] if the factory built the simulation
    /// without tracing.
    pub fn golden(&self, case: usize) -> Result<GoldenRun, FiError> {
        let mut sim = self.factory.build(case);
        sim.run_until(SimTime::from_millis(self.cap_ms()));
        self.check_termination(sim.finished(), case)?;
        let ticks = sim.now().as_millis();
        let traces = sim.take_traces().ok_or(FiError::TracingDisabled { case })?;
        Ok(GoldenRun {
            case,
            ticks,
            traces,
        })
    }

    /// Records Golden Runs for all cases of a spec.
    ///
    /// # Errors
    ///
    /// Propagates the first golden-run failure.
    pub fn goldens(&self, cases: usize) -> Result<Vec<GoldenRun>, FiError> {
        (0..cases).map(|c| self.golden(c)).collect()
    }

    /// Records the Golden Run for one case together with the fast-forward
    /// snapshots: one at each of `instants` (fork points, normally the
    /// spec's injection instants) and one every [`CHECKPOINT_CADENCE_MS`]
    /// (convergence checkpoints). With `fast_forward` disabled this is just
    /// [`Campaign::golden`] wrapped snapshot-free.
    ///
    /// # Errors
    ///
    /// As for [`Campaign::golden`].
    pub fn golden_bundle(&self, case: usize, instants: &[u64]) -> Result<GoldenBundle, FiError> {
        if !self.config.fast_forward {
            return Ok(GoldenBundle::bare(self.golden(case)?));
        }
        let cap = self.cap_ms();
        let mut wanted: BTreeSet<u64> = instants.iter().copied().filter(|&t| t < cap).collect();
        let mut t = CHECKPOINT_CADENCE_MS;
        while t < cap {
            wanted.insert(t);
            t += CHECKPOINT_CADENCE_MS;
        }

        let mut sim = self.factory.build(case);
        let mut snapshots = BTreeMap::new();
        while sim.now() < SimTime::from_millis(cap) && !sim.finished() {
            let now = sim.now().as_millis();
            if wanted.contains(&now) {
                snapshots.insert(now, sim.snapshot());
            }
            sim.step();
        }
        self.check_termination(sim.finished(), case)?;
        let ticks = sim.now().as_millis();
        // Checkpoints at or beyond the end are useless (runs stop there).
        snapshots.retain(|&t, _| t < ticks);
        let traces = sim.take_traces().ok_or(FiError::TracingDisabled { case })?;
        Ok(GoldenBundle {
            run: GoldenRun {
                case,
                ticks,
                traces,
            },
            snapshots,
        })
    }

    /// Records golden bundles for every case of `spec`, with fork points at
    /// the spec's injection instants.
    ///
    /// # Errors
    ///
    /// Propagates the first golden-run failure.
    pub fn golden_bundles(&self, spec: &CampaignSpec) -> Result<Vec<GoldenBundle>, FiError> {
        (0..spec.cases)
            .map(|c| self.golden_bundle(c, &spec.times_ms))
            .collect()
    }

    /// Validates every target of `spec` against a probe simulation.
    fn resolve_targets(&self, spec: &CampaignSpec) -> Result<Vec<ResolvedTarget>, FiError> {
        let probe = self.factory.build(0);
        spec.targets
            .iter()
            .map(|t| {
                let module_idx = probe
                    .module_by_name(&t.module)
                    .ok_or_else(|| FiError::UnknownModule(t.module.clone()))?;
                let (module_idx, input_port) = probe
                    .find_input_port(&t.module, &t.input_signal)
                    .ok_or_else(|| FiError::UnknownInputPort {
                        module: t.module.clone(),
                        signal: t.input_signal.clone(),
                    })
                    .map(|(m, p)| {
                        debug_assert_eq!(m, module_idx);
                        (m, p)
                    })?;
                let output_refs = probe.module_outputs(module_idx).to_vec();
                let output_signals = output_refs
                    .iter()
                    .map(|&s| probe.bus().name(s).to_owned())
                    .collect();
                Ok(ResolvedTarget {
                    module_name: t.module.clone(),
                    input_signal: t.input_signal.clone(),
                    module_idx,
                    input_port,
                    output_signals,
                    output_refs,
                })
            })
            .collect()
    }

    /// A fresh simulation of `case` for an injection run: telemetry
    /// attached and the watchdog armed. Without `traced`, the factory's
    /// trace set is dropped: a campaign run compares online and records
    /// nothing.
    fn injection_sim(&self, case: usize, traced: bool) -> Simulation {
        let mut sim = self.factory.build(case);
        if !traced {
            drop(sim.take_traces());
        }
        if self.obs.enabled() {
            // Before `arm_watchdog`, which clones the trip counter into the
            // armed watchdog.
            sim.set_instruments(SimInstruments {
                ticks: self.obs.counter("process.sim_ticks"),
                module_steps: self.obs.counter("process.module_steps"),
                watchdog_trips: self.obs.counter("process.watchdog_trips"),
            });
        }
        if let Some(wd) = self.config.watchdog {
            sim.arm_watchdog(wd);
        }
        sim
    }

    /// The one stepping loop of every injection run. Forks from the golden
    /// snapshot at `time_ms` when the bundle has one (otherwise replays
    /// from tick zero), injects, and steps until the golden horizon, or
    /// until the run reconverges with a golden checkpoint. With a
    /// `divergence`, each tick's outputs are compared as the run steps and
    /// the run also stops once every output has diverged after the last
    /// fire: from then on nothing in the record can change.
    ///
    /// The configured watchdog is armed on the simulation, so this call may
    /// unwind with a [`permea_runtime::watchdog::StalledClock`] payload when
    /// the injected error stalls the simulated clock; the campaign loop
    /// catches and classifies that.
    #[allow(clippy::too_many_arguments)] // one coordinate axis per parameter
    fn run_injected(
        &self,
        sim: &mut Simulation,
        target: &ResolvedTarget,
        scope: InjectionScope,
        model: crate::model::ErrorModel,
        time_ms: u64,
        golden: &GoldenBundle,
        seed: u64,
        mut divergence: Option<&mut Divergence<'_>>,
    ) -> Injected {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut original = 0u16;
        let mut corrupted = 0u16;
        let (start_ms, forked) = match golden.snapshot_at(time_ms) {
            Some(snap) => {
                sim.restore(snap);
                (time_ms, true)
            }
            None => (0, false),
        };
        // One-shot models fire exactly at `time_ms`; an intermittent model
        // re-fires on its schedule, and neither exit may be taken before
        // the last fire — the error source is still live until then.
        let last_fire_ms = model.last_instant(time_ms);
        let mut converged_ms = None;
        while sim.now().as_millis() < golden.run.ticks {
            let now = sim.now().as_millis();
            if now > last_fire_ms {
                if divergence.as_ref().is_some_and(|d| d.decided()) {
                    break;
                }
                if let Some(cp) = golden.snapshot_at(now) {
                    if sim.converged_with(cp) {
                        converged_ms = Some(now);
                        break;
                    }
                }
            }
            sim.begin_tick();
            if model.fires_at(time_ms, now) {
                let seen = sim.peek_module_input(target.module_idx, target.input_port);
                let value = model.apply(seen, &mut rng);
                if now == time_ms {
                    // The record carries the first fire's (original,
                    // corrupted) pair; re-fires corrupt whatever the port
                    // holds by then.
                    original = seen;
                    corrupted = value;
                }
                match scope {
                    InjectionScope::Port => {
                        sim.corrupt_module_input(target.module_idx, target.input_port, value);
                    }
                    InjectionScope::Signal => {
                        let sig = sim.module_inputs(target.module_idx)[target.input_port];
                        sim.bus_mut().corrupt_signal(sig, value);
                    }
                }
            }
            sim.run_modules();
            if let Some(d) = divergence.as_deref_mut() {
                d.observe(sim.bus(), now);
            }
        }
        Injected {
            start_ms,
            stop_ms: sim.now().as_millis(),
            forked,
            converged_ms,
            original,
            corrupted,
        }
    }

    /// Executes one injection run and returns the injected values, the
    /// per-output first divergences and the run's deterministic execution
    /// statistics. Ticks before the run's start are identical to the golden
    /// run by determinism, ticks after a reconvergence by convergence, and
    /// ticks after the decision cannot change the record.
    #[allow(clippy::too_many_arguments)] // one coordinate axis per parameter
    fn run_one(
        &self,
        target: &ResolvedTarget,
        scope: InjectionScope,
        rows: &[Option<usize>],
        model: crate::model::ErrorModel,
        time_ms: u64,
        golden: &GoldenBundle,
        seed: u64,
    ) -> RunOneOutput {
        let mut sim = self.injection_sim(golden.run.case, false);
        let mut divergence = Divergence::new(target, rows, &golden.run.traces);
        let run = self.run_injected(
            &mut sim,
            target,
            scope,
            model,
            time_ms,
            golden,
            seed,
            Some(&mut divergence),
        );
        let stats = RunStats {
            sim_ticks: run.stop_ms - run.start_ms,
            forked: run.forked,
            converged_ms: run.converged_ms,
        };
        (run.original, run.corrupted, divergence.first, stats)
    }

    /// Runs a single injection and returns the **full trace set** of the
    /// injected run alongside the (original, corrupted) values — the hook
    /// used by detector-placement studies that need to replay assertions
    /// over injected traces. Unlike a campaign run it records every tick
    /// and never stops at the decision.
    ///
    /// When the run was fast-forwarded, the full trace is reassembled from
    /// the golden prefix (identical by determinism), the recorded window,
    /// and the golden tail (identical by convergence).
    ///
    /// # Errors
    ///
    /// Returns target-resolution errors and [`FiError::TracingDisabled`].
    pub fn run_traced(
        &self,
        target: &crate::spec::PortTarget,
        scope: InjectionScope,
        model: crate::model::ErrorModel,
        time_ms: u64,
        golden: &GoldenBundle,
        seed: u64,
    ) -> Result<(TraceSet, u16, u16), FiError> {
        let spec = CampaignSpec {
            targets: vec![target.clone()],
            models: vec![model],
            times_ms: vec![time_ms],
            cases: golden.run.case + 1,
            scope,
            adaptive: None,
        };
        let resolved = self.resolve_targets(&spec)?;
        let case = golden.run.case;
        let mut sim = self.injection_sim(case, true);
        let run = self.run_injected(
            &mut sim,
            &resolved[0],
            scope,
            model,
            time_ms,
            golden,
            seed,
            None,
        );
        let window = sim.take_traces().ok_or(FiError::TracingDisabled { case })?;
        let start = run.start_ms as usize;
        let traces = if start == 0 && run.converged_ms.is_none() {
            window
        } else {
            let mut full = golden.run.traces.truncated(start);
            full.extend_from_window(&window, 0, window.ticks());
            if let Some(conv) = run.converged_ms {
                full.extend_from_window(
                    &golden.run.traces,
                    conv as usize,
                    golden.run.ticks as usize,
                );
            }
            full
        };
        Ok((traces, run.original, run.corrupted))
    }

    /// The journal header identifying this campaign: the spec plus the
    /// seed and horizon of this configuration. This is what
    /// [`RunJournal::open_or_create`] verifies before resuming.
    pub fn journal_header(&self, spec: &CampaignSpec) -> JournalHeader {
        JournalHeader::new(spec, self.config.master_seed, self.config.horizon_ms)
    }

    /// Stage 1, **prepare**: validates the spec, resolves its targets and
    /// records the golden runs (bare ones under process isolation).
    ///
    /// # Errors
    ///
    /// As for [`Campaign::run`]'s validation phase.
    pub(crate) fn prepare<'s>(&self, spec: &'s CampaignSpec) -> Result<Prepared<'s>, FiError> {
        spec.validate()?;
        let targets = self.resolve_targets(spec)?;
        let goldens = {
            let _golden_span = self.obs.span("golden");
            match self.config.isolation {
                IsolationMode::Process(_) => self
                    .goldens(spec.cases)?
                    .into_iter()
                    .map(GoldenBundle::bare)
                    .collect(),
                IsolationMode::InProcess => self.golden_bundles(spec)?,
            }
        };
        let golden_ticks: Vec<u64> = goldens.iter().map(|g| g.run.ticks).collect();
        spec.validate_instants(self.config.horizon_ms, &golden_ticks)?;
        let output_rows = goldens
            .iter()
            .flat_map(|g| {
                targets.iter().map(|t| {
                    let rows = t.output_signals.iter();
                    rows.map(|name| g.run.traces.position(name)).collect()
                })
            })
            .collect();
        Ok(Prepared {
            spec,
            targets,
            goldens,
            output_rows,
        })
    }

    /// Executes coordinate `k` under the in-process sandbox
    /// (`catch_unwind` + cooperative watchdog) and returns its record: a
    /// completed comparison, or a quarantined `Panicked`/`Hung` outcome.
    /// A run is judged over the ticks up to its decision: a stall or panic
    /// after every output diverged is never reached. The per-run seed
    /// derives from `k` and the master seed alone, which is what makes the
    /// record identical no matter which process (or attempt) executes it.
    pub(crate) fn execute_sandboxed(&self, prepared: &Prepared, k: usize) -> (RunRecord, RunStats) {
        let spec = prepared.spec;
        let (ti, mi, wi, ci) = spec.coordinate(k);
        let (model, time_ms, golden) = (spec.models[mi], spec.times_ms[wi], &prepared.goldens[ci]);
        let seed = self.config.master_seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let (target, rows) = (&prepared.targets[ti], prepared.output_rows(ti, ci));
        // Sandbox the run: a panicking or hanging simulation is quarantined
        // as a classified outcome, not a dead campaign.
        let sandboxed = catch_unwind(AssertUnwindSafe(|| {
            self.run_one(target, spec.scope, rows, model, time_ms, golden, seed)
        }));
        match sandboxed {
            Ok((original, corrupted, divergences, stats)) => {
                let (mut record, stats) = coordinate_run(prepared, k, RunOutcome::Completed, stats);
                record.original_value = original;
                record.corrupted_value = corrupted;
                record.first_divergence = divergences;
                (record, stats)
            }
            // The ticks are lost to the unwind; whether the run forked is
            // still deterministic from the bundle.
            Err(payload) => {
                let forked = golden.snapshot_at(time_ms).is_some();
                let stats = RunStats {
                    forked,
                    ..RunStats::default()
                };
                coordinate_run(prepared, k, classify_unwind(payload), stats)
            }
        }
    }

    /// Preflight: refuses to start a journaled campaign on a filesystem
    /// that is about to run out of space — aborting up front with a typed
    /// error beats dying mid-run on ENOSPC. An unknown reading (exotic
    /// platform, statvfs failure) proceeds.
    fn check_free_disk(&self, journal: &Path) -> Result<(), FiError> {
        let free = self
            .chaos
            .as_ref()
            .and_then(|c| c.free_disk_override())
            .or_else(|| crate::env::free_disk_bytes(journal));
        let Some(free) = free else { return Ok(()) };
        if free < MIN_FREE_DISK_BYTES {
            return Err(FiError::DiskSpaceLow {
                free_bytes: free,
                needed_bytes: MIN_FREE_DISK_BYTES,
            });
        }
        if free < WARN_FREE_DISK_BYTES {
            self.obs.warn(format!(
                "journal filesystem has only {free} bytes free (warning \
                 threshold {WARN_FREE_DISK_BYTES}); the campaign may abort on ENOSPC"
            ));
        }
        Ok(())
    }

    /// Runs the full campaign.
    ///
    /// Equivalent to [`Campaign::run_resumable`] with no journal and no
    /// cancellation flag.
    ///
    /// # Errors
    ///
    /// Fails fast on spec validation (including injection instants no run
    /// can reach), target resolution or golden-run problems;
    /// [`FiError::TracingDisabled`] when the factory builds untraced
    /// simulations; [`FiError::QuarantineThresholdExceeded`] when more than
    /// [`CampaignConfig::max_quarantined_fraction`] of the runs panicked or
    /// hung; [`FiError::WorkerPanicked`] only if campaign *infrastructure*
    /// (not a simulated run) dies.
    pub fn run(&self, spec: &CampaignSpec) -> Result<CampaignResult, FiError> {
        self.run_resumable(spec, None, None)
    }

    /// Runs the campaign with optional durability and cancellation.
    ///
    /// Every injection run executes under `catch_unwind`: a panicking or
    /// hanging run is *quarantined* — recorded with its classified
    /// [`RunOutcome`] and excluded from the estimates — and the campaign
    /// carries on.
    ///
    /// With a `journal`, every finished run is appended as write-ahead
    /// state, runs already present in the journal are **not** re-executed,
    /// and the final result is assembled from the union. Because per-run
    /// seeds derive from the coordinate index alone, a resumed campaign is
    /// byte-identical to an uninterrupted one. The caller must have opened
    /// the journal against [`Campaign::journal_header`] so stale journals
    /// are rejected up front.
    ///
    /// With a `cancel` flag, workers stop claiming new runs once the flag
    /// is raised; finished runs are synced to the journal and the campaign
    /// returns [`FiError::Interrupted`].
    ///
    /// # Errors
    ///
    /// As for [`Campaign::run`], plus [`FiError::Interrupted`] on
    /// cancellation and [`FiError::Journal`] on journal I/O failures.
    pub fn run_resumable(
        &self,
        spec: &CampaignSpec,
        journal: Option<&mut RunJournal>,
        cancel: Option<&AtomicBool>,
    ) -> Result<CampaignResult, FiError> {
        self.run_resumable_budgeted(spec, journal, cancel, None)
    }

    /// [`Campaign::run_resumable`] with a cooperative work budget: at most
    /// `max_new_runs` coordinates are *issued* this invocation (journal
    /// replays and golden runs are free), after which the campaign stops
    /// exactly as if cancelled — in-flight runs commit, the journal syncs,
    /// and [`FiError::Interrupted`] is returned. Because resume replays
    /// the journal, slicing a campaign into any sequence of budgeted
    /// invocations yields a final result byte-identical to one
    /// uninterrupted run; this is what lets a multiplexing scheduler
    /// time-share one executor across concurrent campaigns.
    ///
    /// `max_new_runs == None` is unlimited (identical to
    /// [`Campaign::run_resumable`]).
    ///
    /// # Errors
    ///
    /// As for [`Campaign::run_resumable`]; budget exhaustion before
    /// completion surfaces as [`FiError::Interrupted`].
    pub fn run_resumable_budgeted(
        &self,
        spec: &CampaignSpec,
        journal: Option<&mut RunJournal>,
        cancel: Option<&AtomicBool>,
        max_new_runs: Option<u64>,
    ) -> Result<CampaignResult, FiError> {
        if self.config.journal_fsync_interval == 0 {
            return Err(FiError::InvalidFsyncInterval);
        }
        let _campaign_span = self.obs.span("campaign");
        let started = Instant::now();
        let prepared = self.prepare(spec)?;
        let execution = Execution::open(self, &prepared, started, journal, cancel, max_new_runs)?;
        execution.execute()?;
        let merged = execution.finish()?;
        let _merge_span = self.obs.span("merge");
        assemble(&prepared, merged, &self.config)
    }
}

/// Coordinate `k`'s record with nothing observed (zeroed values, no
/// divergences), paired with `stats`: what a quarantined run records.
fn coordinate_run(
    prepared: &Prepared,
    k: usize,
    outcome: RunOutcome,
    stats: RunStats,
) -> (RunRecord, RunStats) {
    let spec = prepared.spec;
    let (ti, mi, wi, ci) = spec.coordinate(k);
    let target = &prepared.targets[ti];
    let record = RunRecord {
        module: target.module_name.clone(),
        input_signal: target.input_signal.clone(),
        model: spec.models[mi],
        time_ms: spec.times_ms[wi],
        case: ci,
        original_value: 0,
        corrupted_value: 0,
        first_divergence: Vec::new(),
        outcome,
    };
    (record, stats)
}

/// A finished run, or the infrastructure failure that ended it.
type RunResult = Result<(RunRecord, RunStats), FiError>;

/// Progress bookkeeping, advanced only when telemetry is enabled.
struct ProgressCounts {
    /// A dense shard owns only its slice of the grid; adaptive campaigns
    /// report against the dense total (an upper bound).
    total: u64,
    recovered: u64,
    done: AtomicU64,
    quarantined: AtomicU64,
    forked: AtomicU64,
    executed: AtomicU64,
}

/// What the claim, execute and commit stages of one
/// [`Campaign::run_resumable_budgeted`] call share between threads.
struct Execution<'a> {
    campaign: &'a Campaign<'a>,
    prepared: &'a Prepared<'a>,
    ins: Instruments,
    /// Zero of the clock stamped into timeline events. Not
    /// `obs.now_micros()`, whose epoch folds in per-process setup: every
    /// session of a resumed campaign restarts at zero so consumers can
    /// stitch sessions.
    started: Instant,
    /// Runs an earlier execution journaled (the header was verified
    /// against this campaign, so coordinates are comparable).
    done: HashMap<u64, (RunRecord, RunStats)>,
    source: WorkSource,
    journal: Option<Mutex<&'a mut RunJournal>>,
    executed: Mutex<Vec<(u64, RunRecord)>>,
    /// First infrastructure failure; quarantined runs never land here.
    fail: Mutex<Option<FiError>>,
    cancel: Option<&'a AtomicBool>,
    /// Runs this call may still issue (journal replays are free). Negative
    /// once a claim was denied, which stops the campaign like `cancel`.
    budget: Option<AtomicI64>,
    progress: ProgressCounts,
}

impl<'a> Execution<'a> {
    /// Accounts the golden and journaled runs, checks the journal's free
    /// disk space and sets up the work source: the dense cursor, or the
    /// adaptive planner seeded so its decisions replay on resume.
    fn open(
        campaign: &'a Campaign<'a>,
        prepared: &'a Prepared<'a>,
        started: Instant,
        journal: Option<&'a mut RunJournal>,
        cancel: Option<&'a AtomicBool>,
        max_new_runs: Option<u64>,
    ) -> Result<Self, FiError> {
        let (config, spec, goldens) = (&campaign.config, prepared.spec, &prepared.goldens);
        let ins = Instruments::resolve(&campaign.obs);
        ins.golden_runs.add(goldens.len() as u64);
        ins.golden_ticks
            .add(goldens.iter().map(|g| g.run.ticks).sum());
        ins.snapshots
            .add(goldens.iter().map(|g| g.snapshot_count() as u64).sum());
        let run_count = spec.run_count() as u64;
        let done: HashMap<u64, (RunRecord, RunStats)> = journal
            .as_ref()
            .map(|j| j.entries().clone())
            .unwrap_or_default();
        debug_assert!(done.keys().all(|&k| k < run_count));
        let adaptive = spec.adaptive.is_some();
        // Recovered runs merge into the deterministic totals exactly as if
        // they had been executed here — that is what makes a resumed
        // campaign's `campaign.*` metrics equal an uninterrupted one's.
        // Under an adaptive plan a journaled run only counts once the
        // planner re-issues its coordinate, so accounting happens at replay
        // time in `claim` instead.
        let (recovered, mut quarantined) = (done.len() as u64, 0);
        if !adaptive {
            ins.runs_recovered.add(recovered);
            for (record, stats) in done.values() {
                ins.account(record, stats, goldens[record.case].run.ticks);
                quarantined += u64::from(!record.outcome.is_completed());
            }
        }
        if let Some(j) = &journal {
            campaign.check_free_disk(j.path())?;
        }
        let journal = journal.map(|j| {
            j.set_fsync_interval(config.journal_fsync_interval);
            j.attach_obs(&campaign.obs);
            if let Some(chaos) = &campaign.chaos {
                j.set_chaos(chaos.clone());
            }
            Mutex::new(j)
        });
        let progress = ProgressCounts {
            total: match config.shard {
                Some(s) if !adaptive => s.len(run_count),
                _ => run_count,
            },
            recovered,
            done: AtomicU64::new(if adaptive { 0 } else { recovered }),
            quarantined: AtomicU64::new(quarantined),
            forked: AtomicU64::new(0),
            executed: AtomicU64::new(0),
        };
        let source = if adaptive {
            let targets = &prepared.targets;
            let outputs: Vec<usize> = targets.iter().map(|t| t.output_signals.len()).collect();
            let planner = AdaptivePlanner::new(spec, &outputs, config.master_seed, config.shard)?;
            let state = AdaptiveState {
                planner,
                pending: Vec::new(),
                outstanding: 0,
                finished: false,
                sampled: Vec::new(),
                closed_reported: vec![false; targets.len()],
            };
            WorkSource::Adaptive(Box::new(Mutex::new(state)), Condvar::new())
        } else {
            WorkSource::Dense(AtomicUsize::new(0))
        };
        Ok(Execution {
            campaign,
            prepared,
            ins,
            started,
            done,
            source,
            journal,
            executed: Mutex::new(Vec::new()),
            fail: Mutex::new(None),
            cancel,
            budget: max_new_runs.map(|n| AtomicI64::new(clamp_i64(n))),
            progress,
        })
    }

    fn obs(&self) -> &Obs {
        &self.campaign.obs
    }

    fn elapsed_micros(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    fn golden_ticks(&self, record: &RunRecord) -> u64 {
        self.prepared.goldens[record.case].run.ticks
    }

    /// Puts a quarantined run or a worker-death retry on the timeline;
    /// completed runs stay off it, so the event rate tracks trouble.
    fn incident(&self, k: u64, kind: &str, detail: &str) {
        if self.obs().enabled() {
            let elapsed_micros = self.elapsed_micros();
            self.obs().emit(&Event::RunIncident {
                k,
                kind,
                detail,
                elapsed_micros,
            });
        }
    }

    fn emit_progress(&self, finished: bool) {
        if !self.obs().enabled() {
            return;
        }
        let p = &self.progress;
        self.obs().progress(&Progress {
            done: p.done.load(Ordering::Relaxed),
            total: p.total,
            recovered: p.recovered,
            quarantined: p.quarantined.load(Ordering::Relaxed),
            forked: p.forked.load(Ordering::Relaxed),
            executed: p.executed.load(Ordering::Relaxed),
            elapsed_micros: self.elapsed_micros(),
            finished,
        });
    }

    fn set_fail(&self, e: FiError) {
        if let Ok(mut slot) = self.fail.lock() {
            slot.get_or_insert(e);
        }
    }

    fn failed(&self) -> bool {
        self.fail.lock().map(|slot| slot.is_some()).unwrap_or(true)
    }

    fn stop_requested(&self) -> bool {
        self.cancel.is_some_and(|c| c.load(Ordering::Acquire))
            || (self.budget.as_ref()).is_some_and(|b| b.load(Ordering::Acquire) < 0)
    }

    fn take_budget(&self) -> bool {
        (self.budget.as_ref()).is_none_or(|b| b.fetch_sub(1, Ordering::AcqRel) > 0)
    }

    /// The coordinate at this shard's `j`-th owned dense position.
    fn dense_coord(&self, j: usize) -> Option<usize> {
        let shard = self.campaign.config.shard;
        let (index, count) = shard.map_or((0, 1), |s| (s.index(), s.count()));
        let k = index + j * count;
        (k < self.prepared.spec.run_count()).then_some(k)
    }

    /// Stage 2, **claim**: the next coordinate to run; `None` once the
    /// campaign is complete, stopped or failed. Only a blocking claim
    /// (`wait`) waits at the adaptive batch barrier and replays journaled
    /// records; a non-blocking one tops up an IPC dispatch batch, so a
    /// batch never spans planner rounds.
    fn claim(&self, wait: bool) -> Option<usize> {
        if self.stop_requested() || self.failed() {
            return None;
        }
        let (state, batch_done) = match &self.source {
            WorkSource::Dense(next) => loop {
                let j = next.fetch_add(1, Ordering::Relaxed);
                let k = self.dense_coord(j)?;
                if !self.done.contains_key(&(k as u64)) {
                    return self.take_budget().then_some(k);
                }
            },
            WorkSource::Adaptive(state, batch_done) => (state, batch_done),
        };
        let Ok(mut s) = state.lock() else {
            self.set_fail(FiError::WorkerPanicked);
            return None;
        };
        loop {
            if s.finished || self.stop_requested() {
                return None;
            }
            if let Some(k) = s.pending.pop() {
                match self.done.get(&(k as u64)) {
                    Some((record, stats)) if wait => {
                        // Journal replay: the planner re-issued a coordinate
                        // an earlier execution already ran, so feed it the
                        // journaled record instead of executing. Accounting
                        // matches the dense path's upfront merge.
                        self.ins.runs_recovered.inc();
                        self.ins.account(record, stats, self.golden_ticks(record));
                        s.planner.record(k, record);
                        if self.obs().enabled() {
                            let p = &self.progress;
                            p.done.fetch_add(1, Ordering::Relaxed);
                            let quarantined = !record.outcome.is_completed();
                            p.quarantined
                                .fetch_add(quarantined.into(), Ordering::Relaxed);
                        }
                        continue;
                    }
                    None if self.take_budget() => {
                        s.outstanding += 1;
                        return Some(k);
                    }
                    // Push back: a blocking claim replays a journaled one;
                    // the next invocation re-issues one the budget denied.
                    _ => {
                        s.pending.push(k);
                        return None;
                    }
                }
            }
            if !wait {
                return None;
            }
            if s.outstanding > 0 {
                // The batch tail is in flight elsewhere: wake on commit, or
                // time out to re-check the stop and fail flags.
                match batch_done.wait_timeout(s, Duration::from_millis(20)) {
                    Ok((guard, _)) => s = guard,
                    Err(_) => {
                        self.set_fail(FiError::WorkerPanicked);
                        return None;
                    }
                }
                if self.failed() {
                    return None;
                }
                continue;
            }
            // Batch barrier reached: every issued coordinate is recorded,
            // so the planner may allocate the next round.
            let batch = s.planner.next_batch();
            self.report_barrier(&mut s, batch.len() as u64);
            if batch.is_empty() {
                s.finished = true;
                batch_done.notify_all();
                return None;
            }
            s.sampled.extend(batch.iter().map(|&k| k as u64));
            // `pop` from the back serves ascending coordinates.
            s.pending = batch;
            s.pending.reverse();
        }
    }

    /// Snapshots the planner at a batch barrier (the explorer's
    /// convergence curves; the final empty batch closes them) and reports
    /// each newly closed stratum once.
    fn report_barrier(&self, s: &mut AdaptiveState, batch_runs: u64) {
        if !self.obs().enabled() {
            return;
        }
        let elapsed_micros = self.elapsed_micros();
        let status = s.planner.status();
        let strata: Vec<StratumCi> = status
            .iter()
            .map(|st| StratumCi {
                target: st.target as u32,
                executed: st.executed,
                trials: st.trials,
                half_width: st.max_half_width,
                closed: st.closed.is_some(),
            })
            .collect();
        self.obs().emit(&Event::AdaptiveBatch {
            round: s.planner.rounds(),
            batch_runs,
            elapsed_micros,
            strata: &strata,
        });
        for st in &status {
            let Some(stop) = st.closed else { continue };
            if std::mem::replace(&mut s.closed_reported[st.target], true) {
                continue;
            }
            let target = &self.prepared.targets[st.target];
            self.obs().emit(&Event::StratumClosed {
                target: st.target as u32,
                module: &target.module_name,
                input_signal: &target.input_signal,
                executed: st.executed,
                trials: st.trials,
                half_width: st.max_half_width,
                reason: match stop {
                    StopReason::CiReached => "ci_reached",
                    StopReason::BudgetExhausted => "budget_exhausted",
                    StopReason::RankingStable => "ranking_stable",
                },
                elapsed_micros,
            });
        }
    }

    /// Stage 3, **execute**: fans the claim → run → commit loop out over
    /// the executor threads. The transports differ only in where a claimed
    /// coordinate runs: [`Execution::run_here`] on this thread, or a
    /// [`WorkerClient`] dispatch to the thread's worker process (see
    /// [`Supervisor`]).
    fn execute(&self) -> Result<(), FiError> {
        match &self.campaign.config.isolation {
            IsolationMode::InProcess => fan_out(self.campaign.config.threads, || {
                while let Some(k) = self.claim(true) {
                    if !self.commit(k, self.run_here(k), 1) {
                        break;
                    }
                }
            }),
            IsolationMode::Process(p) => {
                let pool = Pool::new(self.campaign, self.prepared.spec, p)?;
                let supervisor = || Supervisor {
                    exec: self,
                    pool: &pool,
                    client: None,
                    ever_spawned: false,
                };
                fan_out(p.workers, || supervisor().run());
            }
        }
        Ok(())
    }

    /// The in-process transport: runs coordinate `k` on this thread under
    /// [`Campaign::execute_sandboxed`], timed.
    fn run_here(&self, k: usize) -> RunResult {
        let run_started = self.obs().enabled().then(Instant::now);
        let ran = self.campaign.execute_sandboxed(self.prepared, k);
        if let Some(t0) = run_started {
            self.ins.run_micros.observe(t0.elapsed().as_micros() as u64);
        }
        Ok(ran)
    }

    /// Stage 4, **commit**: accounts a finished run, feeds the adaptive
    /// planner, appends to the journal and reports progress — or records
    /// the failure `run` carries. `false` once the thread must stop.
    fn commit(&self, k: usize, run: RunResult, attempts: u32) -> bool {
        let (record, stats) = match run {
            Ok(run) => run,
            Err(e) => {
                self.set_fail(e);
                return false;
            }
        };
        self.ins
            .account(&record, &stats, self.golden_ticks(&record));
        self.ins.runs_executed.inc();
        if let WorkSource::Adaptive(state, batch_done) = &self.source {
            let Ok(mut s) = state.lock() else {
                self.set_fail(FiError::WorkerPanicked);
                return false;
            };
            s.planner.record(k, &record);
            s.outstanding -= 1;
            batch_done.notify_all();
        }
        if let Some(j) = &self.journal {
            let appended = (j.lock().map_err(poisoned))
                .and_then(|mut g| g.append(k as u64, &record, &stats, attempts));
            if let Err(e) = appended {
                self.set_fail(e);
                return false;
            }
        }
        let quarantined = !record.outcome.is_completed();
        let incident = self
            .obs()
            .enabled()
            .then(|| incident_detail(&record.outcome))
            .flatten();
        match self.executed.lock() {
            Ok(mut recs) => recs.push((k as u64, record)),
            Err(_) => {
                self.set_fail(FiError::WorkerPanicked);
                return false;
            }
        }
        if self.obs().enabled() {
            let p = &self.progress;
            p.done.fetch_add(1, Ordering::Relaxed);
            p.executed.fetch_add(1, Ordering::Relaxed);
            p.forked.fetch_add(stats.forked.into(), Ordering::Relaxed);
            p.quarantined
                .fetch_add(quarantined.into(), Ordering::Relaxed);
            if let Some((kind, detail)) = &incident {
                self.incident(k as u64, kind, detail);
            }
            self.emit_progress(false);
        }
        true
    }

    /// The end of the **commit** stage, after every thread stopped: syncs
    /// the journal, surfaces a failure or the interruption, and merges the
    /// records executed here with the journaled ones in coordinate order.
    fn finish(mut self) -> Result<Vec<(u64, RunRecord)>, FiError> {
        // Whatever the exit path, leave the journal durable first.
        if let Some(j) = &self.journal {
            j.lock().map_err(poisoned)?.sync()?;
        }
        if let Some(e) = self.fail.get_mut().map_err(poisoned)?.take() {
            return Err(e);
        }
        let executed = std::mem::take(self.executed.get_mut().map_err(poisoned)?);
        // An adaptive campaign's sampled coordinates, rounds and closed
        // strata.
        let adaptive = match &mut self.source {
            WorkSource::Dense(_) => None,
            WorkSource::Adaptive(state, _) => {
                let s = state.get_mut().map_err(poisoned)?;
                let sampled = std::mem::take(&mut s.sampled);
                Some((sampled, s.planner.rounds(), s.planner.strata_closed()))
            }
        };
        let run_count = self.prepared.spec.run_count();
        let done = std::mem::take(&mut self.done);
        // Expected dense total: every journaled record plus every
        // shard-owned coordinate that was not journaled. Without a shard
        // this is simply the spec's run count.
        let dense_expected = self.campaign.config.shard.map_or(run_count, |s| {
            let positions = s.positions(run_count as u64);
            done.len() + positions.filter(|k| !done.contains_key(k)).count()
        });
        // Dense campaigns merge every journaled record; adaptive campaigns
        // merge exactly the coordinates the planner sampled (a journaled
        // run whose batch was never re-issued — possible only after a
        // cancellation — stays out, matching its skipped accounting).
        let sampled: Option<HashSet<u64>> =
            adaptive.as_ref().map(|a| a.0.iter().copied().collect());
        let mut merged: Vec<(u64, RunRecord)> = done
            .into_iter()
            .filter(|(k, _)| sampled.as_ref().is_none_or(|s| s.contains(k)))
            .map(|(k, (r, _))| (k, r))
            .collect();
        merged.extend(executed);
        merged.sort_by_key(|&(k, _)| k);
        let wall_ms = self.started.elapsed().as_millis() as u64;
        self.obs().gauge("process.campaign_wall_ms").set(wall_ms);

        // Budget exhaustion implies at least one claimed coordinate was
        // denied, so the campaign is necessarily incomplete — it reports
        // as interrupted exactly like an external cancellation.
        if self.stop_requested() {
            self.emit_progress(true);
            return Err(FiError::Interrupted {
                completed: merged.len() as u64,
                total: run_count as u64,
            });
        }
        // Adaptive totals are deterministic facts of the finished plan: a
        // resumed campaign replays the same rounds and closes the same
        // strata, so these merge to the uninterrupted values just like the
        // `campaign.*` counters.
        match &adaptive {
            None => debug_assert_eq!(merged.len(), dense_expected),
            Some((sampled, rounds, strata_closed)) => {
                debug_assert_eq!(merged.len(), sampled.len());
                self.ins.adaptive_batches.add(*rounds);
                self.ins.adaptive_strata_closed.add(*strata_closed as u64);
                let saved = run_count.saturating_sub(sampled.len());
                self.ins.adaptive_runs_saved.add(saved as u64);
            }
        }
        self.emit_progress(true);
        Ok(merged)
    }
}

/// The run-incident kind and detail of a quarantined outcome; `None` for a
/// completed run.
fn incident_detail(outcome: &RunOutcome) -> Option<(&'static str, String)> {
    match outcome {
        RunOutcome::Completed => None,
        RunOutcome::Panicked { message } => Some(("panicked", message.clone())),
        RunOutcome::Hung { last_tick_ms } => Some((
            "hung",
            format!("clock stalled; last observed tick {last_tick_ms} ms"),
        )),
        RunOutcome::Crashed { signal, exit_code } => Some((
            "crashed",
            match (signal, exit_code) {
                (Some(sig), _) => format!("worker killed by signal {sig}"),
                (None, Some(code)) => format!("worker exited with code {code}"),
                (None, None) => "worker died".to_owned(),
            },
        )),
    }
}

/// Runs `work` on `threads` scoped threads (0 ⇒ available parallelism), or
/// on the calling thread when that is one.
fn fan_out(threads: usize, work: impl Fn() + Sync) {
    let threads = match threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    if threads <= 1 {
        work();
    } else {
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(&work);
            }
        });
    }
}

fn clamp_i64(n: u64) -> i64 {
    n.min(i64::MAX as u64) as i64
}

/// The error for a lock a panicking executor thread poisoned.
fn poisoned<T>(_: PoisonError<T>) -> FiError {
    FiError::WorkerPanicked
}

/// Process-pool state every supervisor thread shares.
struct Pool<'p> {
    config: &'p ProcessIsolation,
    /// The launch command with the RLIMIT environment variables applied.
    command: WorkerCommand,
    setup_frame: Vec<u8>,
    /// Respawns left; a thread's first spawn is free.
    respawn_budget: AtomicI64,
    /// Refill waves left: when the budget runs dry, one wave re-arms it
    /// before the breaker may trip.
    respawn_waves: AtomicI64,
    /// Crash-storm circuit breaker: once tripped, the rest of the campaign
    /// runs in-process.
    breaker: AtomicBool,
}

impl<'p> Pool<'p> {
    fn new(
        campaign: &Campaign<'_>,
        spec: &CampaignSpec,
        config: &'p ProcessIsolation,
    ) -> Result<Self, FiError> {
        let (c, wd) = (&campaign.config, campaign.config.watchdog);
        let setup = ToWorker::Setup {
            spec: spec.clone(),
            master_seed: c.master_seed,
            horizon_ms: c.horizon_ms,
            fast_forward: c.fast_forward,
            wd_enabled: wd.is_some(),
            wd_work_per_tick: wd.and_then(|w| w.max_work_per_tick),
            wd_wall_ms: wd.and_then(|w| w.max_wall_ms),
            payload: config.factory_payload.clone(),
        };
        let json = serde_json::to_string(&setup).map_err(|e| FiError::WorkerProcess {
            message: format!("serialising worker setup: {e}"),
        })?;
        Ok(Pool {
            config,
            command: config.effective_command(),
            setup_frame: crate::process::encode_frame(&json),
            respawn_budget: AtomicI64::new(clamp_i64(config.max_worker_respawns)),
            respawn_waves: AtomicI64::new(clamp_i64(config.pool_respawn_waves)),
            breaker: AtomicBool::new(false),
        })
    }
}

/// One process-isolation executor thread and the worker it supervises. A
/// blocking claim is topped up with non-blocking ones into a dispatch
/// batch of up to [`ProcessIsolation::dispatch_batch`] coordinates. When
/// the worker dies under a batch, each coordinate is re-dispatched singly
/// so the retry loop classifies the death exactly; runs are deterministic,
/// so the records are identical either way.
struct Supervisor<'e, 'a> {
    exec: &'e Execution<'a>,
    pool: &'e Pool<'e>,
    /// This thread's worker process, while it lives.
    client: Option<WorkerClient>,
    /// A worker was spawned before, so the next spawn is a respawn.
    ever_spawned: bool,
}

impl Supervisor<'_, '_> {
    fn run(mut self) {
        let exec = self.exec;
        while let Some(first) = exec.claim(true) {
            let mut batch = vec![first];
            if self.client.is_some() && !self.pool.breaker.load(Ordering::Acquire) {
                while batch.len() < self.pool.config.dispatch_batch.max(1) {
                    match exec.claim(false) {
                        Some(k) => batch.push(k),
                        None => break,
                    }
                }
            }
            if batch.len() > 1 {
                let ks: Vec<u64> = batch.iter().map(|&k| k as u64).collect();
                match self.attempt(&ks) {
                    Ok(Attempt::Done { results }) => {
                        for run in results {
                            if !exec.commit(run.k as usize, Ok((run.record, run.stats)), 1) {
                                return;
                            }
                        }
                        continue;
                    }
                    Ok(Attempt::Died { .. }) => {
                        exec.ins.run_retries.inc();
                        let detail = format!(
                            "worker died running a dispatch batch of {}; re-dispatching singly",
                            ks.len()
                        );
                        exec.incident(ks[0], "retried", &detail);
                    }
                    Err(e) => {
                        exec.set_fail(e);
                        return;
                    }
                }
            }
            for k in batch {
                let (ran, attempts) = self.dispatch_single(k);
                if !exec.commit(k, ran, attempts) {
                    return;
                }
            }
        }
    }

    /// Runs coordinate `k` on this thread's worker until it yields a
    /// record, and counts the dispatches (the journal keeps the count): a
    /// worker death is retried up to [`CampaignConfig::max_retries`] times
    /// unless it reproduces with the same classification, and once the
    /// circuit breaker has tripped the run stays in-process.
    fn dispatch_single(&mut self, k: usize) -> (RunResult, u32) {
        let exec = self.exec;
        let mut attempts: u32 = 0;
        let mut last_death: Option<RunOutcome> = None;
        loop {
            if self.pool.breaker.load(Ordering::Acquire) {
                // Degraded mode: run on the supervisor's bare bundles —
                // records are bit-identical, just slower.
                self.client = None;
                return (exec.run_here(k), attempts.max(1));
            }
            if self.client.is_none() && !self.spawn(attempts) {
                continue;
            }
            attempts += 1;
            let (deadline, signal, exit_code) = match self.attempt(&[k as u64]) {
                Ok(Attempt::Done { mut results }) => {
                    let run = results.pop().expect("batch of one verified by client");
                    return (Ok((run.record, run.stats)), attempts);
                }
                Ok(Attempt::Died {
                    deadline,
                    signal,
                    exit_code,
                }) => (deadline, signal, exit_code),
                Err(e) => return (Err(e), attempts),
            };
            // A hard-deadline kill means the run never let its own clock be
            // observed; any other death is classified from the exit status.
            let outcome = if deadline {
                RunOutcome::Hung { last_tick_ms: 0 }
            } else {
                RunOutcome::Crashed { signal, exit_code }
            };
            let reproduced = last_death.as_ref() == Some(&outcome);
            if reproduced || attempts > exec.campaign.config.max_retries {
                let run = coordinate_run(exec.prepared, k, outcome, RunStats::default());
                return (Ok(run), attempts);
            }
            last_death = Some(outcome);
            exec.ins.run_retries.inc();
            let detail = format!("worker death on attempt {attempts}; backing off");
            exec.incident(k as u64, "retried", &detail);
            std::thread::sleep(backoff(self.pool.config.retry_backoff_ms, attempts));
        }
    }

    /// Spawns this thread's worker and sends it the setup frame; `true`
    /// once a worker is live. A respawn draws on the pool's budget; a dry
    /// budget spends a refill wave or else trips the breaker. A failed
    /// spawn or setup backs off and counts like a crash.
    fn spawn(&mut self, attempts: u32) -> bool {
        let (exec, pool, p) = (self.exec, self.pool, self.pool.config);
        if self.ever_spawned {
            if pool.respawn_budget.fetch_sub(1, Ordering::AcqRel) <= 0 {
                if p.max_worker_respawns > 0
                    && pool.respawn_waves.fetch_sub(1, Ordering::AcqRel) > 0
                {
                    let fresh = clamp_i64(p.max_worker_respawns);
                    pool.respawn_budget.store(fresh, Ordering::Release);
                    exec.obs().warn(format!(
                        "worker pool collapsed; spending a respawn wave ({} fresh respawns)",
                        p.max_worker_respawns
                    ));
                } else {
                    pool.breaker.store(true, Ordering::Release);
                }
                return false;
            }
            exec.ins.worker_respawns.inc();
        }
        self.ever_spawned = true;
        let setup_timeout = Duration::from_millis(p.setup_timeout_ms.max(1));
        let ready = WorkerClient::spawn(&pool.command).and_then(|mut fresh| {
            exec.ins.worker_spawns.inc();
            fresh
                .setup(&pool.setup_frame, setup_timeout)
                .map(|()| fresh)
        });
        match ready {
            Ok(fresh) => self.client = Some(fresh),
            Err(_) => std::thread::sleep(backoff(p.retry_backoff_ms, attempts)),
        }
        self.client.is_some()
    }

    /// The process transport: one dispatch of `ks` to this thread's live
    /// worker, in one frame, after any scheduled chaos kill, timed. A
    /// worker death drops the client; a protocol violation is an error.
    fn attempt(&mut self, ks: &[u64]) -> Result<Attempt, FiError> {
        let (exec, p) = (self.exec, self.pool.config);
        let live = self
            .client
            .as_mut()
            .expect("dispatched only to a live worker");
        let chaos = exec.campaign.chaos.as_deref();
        if chaos.is_some_and(|c| c.should_kill_worker(ks)) {
            live.chaos_kill();
        }
        let run_timeout = Duration::from_millis(p.run_timeout_ms.max(1));
        let attempt_started = exec.obs().enabled().then(Instant::now);
        let attempt = live.run_batch(ks, run_timeout, chaos);
        if let Some(t0) = attempt_started {
            let micros = t0.elapsed().as_micros() as u64;
            exec.ins.attempt_micros.observe(micros);
        }
        if let Ok(Attempt::Died { deadline, .. }) = &attempt {
            if *deadline {
                exec.ins.worker_kills.inc();
            }
            self.client = None;
        }
        attempt
    }
}

/// Stage 5, **assemble**: the campaign result, purely from the merged
/// record set in coordinate order — the same bytes whether the records
/// were just executed, recovered from a journal, or any mix of the two.
///
/// # Errors
///
/// [`FiError::QuarantineThresholdExceeded`] when more than
/// [`CampaignConfig::max_quarantined_fraction`] of the runs died.
fn assemble(
    prepared: &Prepared,
    merged: Vec<(u64, RunRecord)>,
    config: &CampaignConfig,
) -> Result<CampaignResult, FiError> {
    let targets = &prepared.targets;
    let per_target = prepared.spec.injections_per_target();
    let mut outcomes = OutcomeTally::default();
    let mut completed_per_target = vec![0u64; targets.len()];
    let mut runs_per_target = vec![0u64; targets.len()];
    let mut errors: Vec<Vec<u64>> = targets
        .iter()
        .map(|t| vec![0u64; t.output_signals.len()])
        .collect();
    for (k, record) in &merged {
        let ti = (*k as usize) / per_target;
        runs_per_target[ti] += 1;
        outcomes.record(&record.outcome);
        if record.outcome.is_completed() {
            completed_per_target[ti] += 1;
            for (out_idx, div) in record.first_divergence.iter().enumerate() {
                if div.is_some() {
                    errors[ti][out_idx] += 1;
                }
            }
        }
    }
    if outcomes.quarantined_fraction() > config.max_quarantined_fraction {
        return Err(FiError::QuarantineThresholdExceeded {
            quarantined: outcomes.quarantined(),
            total: outcomes.total(),
            max_fraction: config.max_quarantined_fraction,
        });
    }

    let mut pairs = Vec::new();
    for (ti, target) in targets.iter().enumerate() {
        for (out_idx, out_name) in target.output_signals.iter().enumerate() {
            pairs.push(PairStat {
                module: target.module_name.clone(),
                input_signal: target.input_signal.clone(),
                output_signal: out_name.clone(),
                input: target.input_port,
                output: out_idx,
                // `n_inj` counts only runs that produced a comparison;
                // equals `injections_per_target` when nothing was
                // quarantined.
                injections: completed_per_target[ti],
                errors: errors[ti][out_idx],
            });
        }
    }
    let total_runs = merged.len() as u64;
    Ok(CampaignResult {
        pairs,
        records: if config.keep_records {
            merged.into_iter().map(|(_, r)| r).collect()
        } else {
            Vec::new()
        },
        golden_ticks: prepared.goldens.iter().map(|g| g.run.ticks).collect(),
        total_runs,
        runs_per_target,
        outcomes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ErrorModel;
    use crate::spec::PortTarget;
    use permea_runtime::module::{ModuleCtx, SoftwareModule};
    use permea_runtime::scheduler::Schedule;
    use permea_runtime::signals::SignalBus;
    use permea_runtime::sim::{Environment, SimulationBuilder};

    /// Copies input to output; a second output stays constant (zero
    /// permeability) — a minimal system with known ground truth.
    struct CopyAndConst;
    impl SoftwareModule for CopyAndConst {
        fn step(&mut self, ctx: &mut ModuleCtx<'_>) {
            let v = ctx.read(0);
            ctx.write(0, v);
            ctx.write(1, 42);
        }
    }

    struct RampEnv {
        sensor: permea_runtime::signals::SignalRef,
        limit: u64,
    }
    impl Environment for RampEnv {
        fn pre_tick(&mut self, now: SimTime, bus: &mut SignalBus) {
            bus.write(self.sensor, (now.as_millis() % 1000) as u16);
        }
        fn post_tick(&mut self, _: SimTime, _: &mut SignalBus) {}
        fn finished(&self, now: SimTime) -> bool {
            now.as_millis() >= self.limit
        }
    }

    fn build_sim(case: usize) -> Simulation {
        let mut b = SimulationBuilder::new();
        let sensor = b.define_signal("sensor");
        let out = b.define_signal("out");
        let konst = b.define_signal("konst");
        b.add_module(
            "COPY",
            Box::new(CopyAndConst),
            Schedule::every_ms(),
            &[sensor],
            &[out, konst],
        );
        let mut sim = b.build(Box::new(RampEnv {
            sensor,
            limit: 100 + case as u64,
        }));
        sim.enable_tracing_all();
        sim
    }

    fn factory() -> FnSystemFactory<fn(usize) -> Simulation> {
        FnSystemFactory::new(2, 10_000, build_sim as fn(usize) -> Simulation)
    }

    fn spec() -> CampaignSpec {
        CampaignSpec {
            targets: vec![PortTarget::new("COPY", "sensor")],
            models: ErrorModel::all_bit_flips(),
            times_ms: vec![10, 50],
            cases: 2,
            scope: InjectionScope::Port,
            adaptive: None,
        }
    }

    #[test]
    fn golden_run_has_expected_length() {
        let f = factory();
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        );
        let g = c.golden(0).unwrap();
        assert_eq!(g.ticks, 100);
        let g1 = c.golden(1).unwrap();
        assert_eq!(g1.ticks, 101);
    }

    #[test]
    fn copy_module_has_full_permeability_on_copy_and_zero_on_const() {
        let f = factory();
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        );
        let res = c.run(&spec()).unwrap();
        let copy = res.pair("COPY", "sensor", "out").unwrap();
        assert_eq!(copy.injections, 16 * 2 * 2);
        assert_eq!(copy.estimate(), 1.0, "every flip reaches the copied output");
        let konst = res.pair("COPY", "sensor", "konst").unwrap();
        assert_eq!(konst.estimate(), 0.0, "constant output never diverges");
        assert_eq!(res.total_runs, 64);
        assert_eq!(res.records.len(), 64);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let f = factory();
        let seq = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        )
        .run(&spec())
        .unwrap();
        let par = Campaign::new(
            &f,
            CampaignConfig {
                threads: 4,
                ..Default::default()
            },
        )
        .run(&spec())
        .unwrap();
        assert_eq!(
            seq, par,
            "campaigns must be deterministic regardless of threads"
        );
    }

    #[test]
    fn horizon_truncates_runs() {
        let f = factory();
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                horizon_ms: Some(30),
                ..Default::default()
            },
        );
        let g = c.golden(0).unwrap();
        assert_eq!(g.ticks, 30);
    }

    #[test]
    fn unknown_targets_are_rejected() {
        let f = factory();
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        );
        let mut s = spec();
        s.targets = vec![PortTarget::new("NOPE", "sensor")];
        assert_eq!(
            c.run(&s).unwrap_err(),
            FiError::UnknownModule("NOPE".into())
        );
        let mut s = spec();
        s.targets = vec![PortTarget::new("COPY", "nope")];
        assert!(matches!(
            c.run(&s).unwrap_err(),
            FiError::UnknownInputPort { .. }
        ));
    }

    #[test]
    fn signal_scope_also_corrupts() {
        let f = factory();
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        );
        let mut s = spec();
        s.scope = InjectionScope::Signal;
        let res = c.run(&s).unwrap();
        assert_eq!(res.pair("COPY", "sensor", "out").unwrap().estimate(), 1.0);
    }

    #[test]
    fn records_capture_injection_details() {
        let f = factory();
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        );
        let res = c.run(&spec()).unwrap();
        let r = &res.records[0];
        assert_eq!(r.module, "COPY");
        assert_eq!(r.corrupted_value, r.original_value ^ 1); // bit 0 first
        assert!(r.any_error());
        // The copied output diverges at the injection tick itself.
        assert_eq!(r.first_divergence[0], Some(r.time_ms as u32));
    }

    #[test]
    fn fast_forward_and_replay_agree_bit_for_bit() {
        let f = factory();
        let fast = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        )
        .run(&spec())
        .unwrap();
        let replay = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                fast_forward: false,
                ..Default::default()
            },
        )
        .run(&spec())
        .unwrap();
        assert_eq!(fast, replay, "fast-forward must not change any result bit");
    }

    #[test]
    fn golden_bundle_captures_fork_points_and_checkpoints() {
        let f = factory();
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        );
        let b = c.golden_bundle(0, &[10, 50]).unwrap();
        assert_eq!(b.run.ticks, 100);
        assert!(
            b.snapshot_at(10).is_some(),
            "fork point at each injection instant"
        );
        assert!(b.snapshot_at(50).is_some());
        assert_eq!(b.snapshot_at(10).unwrap().now().as_millis(), 10);
        // 100-tick run: no 250 ms cadence checkpoint fits.
        assert_eq!(b.snapshot_count(), 2);
        let bare = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                fast_forward: false,
                ..Default::default()
            },
        )
        .golden_bundle(0, &[10, 50])
        .unwrap();
        assert_eq!(bare.snapshot_count(), 0);
        assert_eq!(
            bare.run, b.run,
            "snapshot capture must not perturb the golden run"
        );
    }

    #[test]
    fn unreachable_instants_fail_validation() {
        let f = factory();
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        );
        // Case 0's golden run is 100 ticks; an instant at its end can never
        // fire.
        let mut s = spec();
        s.times_ms = vec![10, 100];
        assert_eq!(
            c.run(&s).unwrap_err(),
            FiError::UnreachableInstant {
                time_ms: 100,
                limit_ms: 100,
                case: Some(0)
            }
        );
        // Against an explicit horizon the horizon wins the error message.
        let ch = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                horizon_ms: Some(40),
                ..Default::default()
            },
        );
        let mut s = spec();
        s.times_ms = vec![10, 50];
        assert_eq!(
            ch.run(&s).unwrap_err(),
            FiError::UnreachableInstant {
                time_ms: 50,
                limit_ms: 40,
                case: None
            }
        );
    }

    #[test]
    fn horizon_beyond_factory_cap_is_an_error() {
        // The scenario never finishes on its own within the cap, and the
        // configured horizon cannot be honoured either: refuse instead of
        // silently truncating at the cap.
        let f = FnSystemFactory::new(1, 50, build_sim as fn(usize) -> Simulation);
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                horizon_ms: Some(200),
                ..Default::default()
            },
        );
        assert_eq!(
            c.golden(0).unwrap_err(),
            FiError::HorizonExceedsCap {
                horizon_ms: 200,
                max_run_ms: 50
            }
        );
        // A horizon the cap can honour still truncates as configured.
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                horizon_ms: Some(40),
                ..Default::default()
            },
        );
        assert_eq!(c.golden(0).unwrap().ticks, 40);
    }

    /// Panics when its input exceeds a threshold — only corrupted runs die.
    struct Fragile;
    impl SoftwareModule for Fragile {
        fn step(&mut self, ctx: &mut ModuleCtx<'_>) {
            let v = ctx.read(0);
            assert!(v < 0x4000, "fragile module crashed on corrupted input");
            ctx.write(0, v);
        }
    }

    fn fragile_sim(_case: usize) -> Simulation {
        let mut b = SimulationBuilder::new();
        let sensor = b.define_signal("sensor");
        let out = b.define_signal("out");
        b.add_module(
            "FRAGILE",
            Box::new(Fragile),
            Schedule::every_ms(),
            &[sensor],
            &[out],
        );
        let mut sim = b.build(Box::new(RampEnv { sensor, limit: 100 }));
        sim.enable_tracing_all();
        sim
    }

    fn fragile_spec() -> CampaignSpec {
        CampaignSpec {
            targets: vec![PortTarget::new("FRAGILE", "sensor")],
            models: vec![ErrorModel::BitFlip { bit: 15 }],
            times_ms: vec![10],
            cases: 1,
            scope: InjectionScope::Port,
            adaptive: None,
        }
    }

    #[test]
    fn panicking_run_is_quarantined_and_campaign_completes() {
        let f = FnSystemFactory::new(1, 10_000, fragile_sim as fn(usize) -> Simulation);
        for threads in [1, 4] {
            let c = Campaign::new(
                &f,
                CampaignConfig {
                    threads,
                    // Every run of this spec dies; accept that for the test.
                    max_quarantined_fraction: 1.0,
                    ..Default::default()
                },
            );
            let res = c.run(&fragile_spec()).unwrap();
            assert_eq!(res.total_runs, 1);
            assert_eq!(res.outcomes.panicked, 1);
            assert_eq!(res.outcomes.completed, 0);
            assert_eq!(res.records.len(), 1);
            match &res.records[0].outcome {
                RunOutcome::Panicked { message } => {
                    assert!(
                        message.contains("fragile module crashed"),
                        "panic message should be preserved, got: {message}"
                    );
                }
                other => panic!("expected Panicked, got {other:?}"),
            }
            assert!(res.records[0].first_divergence.is_empty());
            // Quarantined runs are excluded from n_inj.
            assert_eq!(res.pair("FRAGILE", "sensor", "out").unwrap().injections, 0);
        }
    }

    #[test]
    fn systematic_breakage_exceeds_quarantine_threshold() {
        let f = FnSystemFactory::new(1, 10_000, fragile_sim as fn(usize) -> Simulation);
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        );
        // 1 of 1 runs quarantined blows through the default 25 % ceiling.
        assert_eq!(
            c.run(&fragile_spec()).unwrap_err(),
            FiError::QuarantineThresholdExceeded {
                quarantined: 1,
                total: 1,
                max_fraction: 0.25,
            }
        );
    }

    /// Loops as many times as its input value says — an injected high bit
    /// turns the loop pathological and stalls the simulated clock.
    struct InputBoundedLoop;
    impl SoftwareModule for InputBoundedLoop {
        fn step(&mut self, ctx: &mut ModuleCtx<'_>) {
            let v = ctx.read(0);
            let mut acc: u16 = 0;
            for _ in 0..v {
                ctx.work(1);
                acc = acc.wrapping_add(3);
            }
            ctx.write(0, acc);
        }
    }

    fn looping_sim(_case: usize) -> Simulation {
        let mut b = SimulationBuilder::new();
        let sensor = b.define_signal("sensor");
        let out = b.define_signal("out");
        b.add_module(
            "LOOPER",
            Box::new(InputBoundedLoop),
            Schedule::every_ms(),
            &[sensor],
            &[out],
        );
        let mut sim = b.build(Box::new(RampEnv { sensor, limit: 100 }));
        sim.enable_tracing_all();
        sim
    }

    #[test]
    fn hanging_run_is_quarantined_as_hung() {
        let f = FnSystemFactory::new(1, 10_000, looping_sim as fn(usize) -> Simulation);
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                // Golden runs do < 100 units/tick; a bit-15 flip forces
                // ≥ 32 768 and must trip.
                watchdog: Some(WatchdogConfig {
                    max_work_per_tick: Some(4_096),
                    max_wall_ms: None,
                }),
                max_quarantined_fraction: 1.0,
                ..Default::default()
            },
        );
        let s = CampaignSpec {
            targets: vec![PortTarget::new("LOOPER", "sensor")],
            models: vec![ErrorModel::BitFlip { bit: 15 }],
            times_ms: vec![10],
            cases: 1,
            scope: InjectionScope::Port,
            adaptive: None,
        };
        let res = c.run(&s).unwrap();
        assert_eq!(res.outcomes.hung, 1);
        assert_eq!(
            res.records[0].outcome,
            RunOutcome::Hung { last_tick_ms: 10 },
            "the clock stalled at the injection instant"
        );
        // Without a work budget the same run must complete: the loop is
        // long, not unbounded.
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                watchdog: None,
                ..Default::default()
            },
        );
        let res = c.run(&s).unwrap();
        assert_eq!(res.outcomes.hung, 0);
        assert_eq!(res.outcomes.completed, 1);
    }

    #[test]
    fn untraced_factory_is_a_typed_error() {
        fn untraced(_case: usize) -> Simulation {
            let mut b = SimulationBuilder::new();
            let sensor = b.define_signal("sensor");
            let out = b.define_signal("out");
            let konst = b.define_signal("konst");
            b.add_module(
                "COPY",
                Box::new(CopyAndConst),
                Schedule::every_ms(),
                &[sensor],
                &[out, konst],
            );
            b.build(Box::new(RampEnv { sensor, limit: 100 }))
        }
        let f = FnSystemFactory::new(1, 10_000, untraced as fn(usize) -> Simulation);
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        );
        assert_eq!(
            c.golden(0).unwrap_err(),
            FiError::TracingDisabled { case: 0 }
        );
        let mut s = spec();
        s.cases = 1;
        assert_eq!(c.run(&s).unwrap_err(), FiError::TracingDisabled { case: 0 });
    }

    fn journal_path(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("permea-campaign-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("journal.jsonl")
    }

    #[test]
    fn journaled_campaign_matches_plain_run() {
        let f = factory();
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        );
        let baseline = c.run(&spec()).unwrap();

        let path = journal_path("full");
        let _ = std::fs::remove_file(&path);
        let header = c.journal_header(&spec());
        let (mut j, _) = RunJournal::open_or_create(&path, &header).unwrap();
        let journaled = c.run_resumable(&spec(), Some(&mut j), None).unwrap();
        assert_eq!(journaled, baseline);
        assert_eq!(j.len(), spec().run_count());

        // A second pass over the now-complete journal re-executes nothing
        // and still reproduces the result bit for bit.
        let (mut j, loaded) = RunJournal::open_or_create(&path, &header).unwrap();
        assert_eq!(loaded.recovered, spec().run_count());
        let resumed = c.run_resumable(&spec(), Some(&mut j), None).unwrap();
        assert_eq!(resumed, baseline);
    }

    #[test]
    fn sharded_journals_merge_to_the_unsharded_journal() {
        let f = factory();
        let unsharded = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        );
        let baseline = unsharded.run(&spec()).unwrap();
        let full_path = journal_path("shard-full");
        let _ = std::fs::remove_file(&full_path);
        let header = unsharded.journal_header(&spec());
        let (mut j, _) = RunJournal::open_or_create(&full_path, &header).unwrap();
        unsharded
            .run_resumable(&spec(), Some(&mut j), None)
            .unwrap();
        j.sync().unwrap();
        drop(j);

        // Each shard runs its slice into its own journal; shard totals
        // partition the grid.
        let mut shard_paths = Vec::new();
        for i in 0..2 {
            let c = Campaign::new(
                &f,
                CampaignConfig {
                    threads: 1,
                    shard: Some(Shard::new(i, 2).unwrap()),
                    ..Default::default()
                },
            );
            let path = journal_path(&format!("shard-{i}"));
            let _ = std::fs::remove_file(&path);
            let (mut j, _) = RunJournal::open_or_create(&path, &header).unwrap();
            let partial = c.run_resumable(&spec(), Some(&mut j), None).unwrap();
            assert_eq!(
                partial.total_runs,
                Shard::new(i, 2).unwrap().len(spec().run_count() as u64),
                "shard {i} must run exactly its slice"
            );
            j.sync().unwrap();
            drop(j);
            shard_paths.push(path);
        }

        let merged_path = journal_path("shard-merged");
        let _ = std::fs::remove_file(&merged_path);
        let summary = crate::journal::merge_journals(&merged_path, &shard_paths).unwrap();
        assert_eq!(summary.records, spec().run_count());
        assert_eq!(
            std::fs::read(&merged_path).unwrap(),
            std::fs::read(&full_path).unwrap(),
            "merged shard journals must be byte-identical to the unsharded journal"
        );

        // The merged journal resumes the unsharded campaign: nothing
        // re-executes and the result is bit-identical.
        let (mut j, loaded) = RunJournal::open_or_create(&merged_path, &header).unwrap();
        assert_eq!(loaded.recovered, spec().run_count());
        let resumed = unsharded
            .run_resumable(&spec(), Some(&mut j), None)
            .unwrap();
        assert_eq!(resumed, baseline);
    }

    #[test]
    fn resume_after_truncation_is_byte_identical() {
        let f = factory();
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        );
        let baseline = c.run(&spec()).unwrap();

        let path = journal_path("truncated");
        let _ = std::fs::remove_file(&path);
        let header = c.journal_header(&spec());
        let (mut j, _) = RunJournal::open_or_create(&path, &header).unwrap();
        c.run_resumable(&spec(), Some(&mut j), None).unwrap();
        drop(j);

        // Chop the journal mid-way — keep the header plus 20 records and a
        // torn half-line, as a kill -9 would leave it.
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let mut kept: String = lines[..21].join("\n");
        kept.push('\n');
        kept.push_str(&lines[21][..lines[21].len() / 2]);
        std::fs::write(&path, kept).unwrap();

        let (mut j, loaded) = RunJournal::open_or_create(&path, &header).unwrap();
        assert_eq!(loaded.recovered, 20);
        assert!(loaded.truncated_tail);
        let resumed = c.run_resumable(&spec(), Some(&mut j), None).unwrap();
        assert_eq!(resumed, baseline, "resume must be byte-identical");
    }

    #[test]
    fn cancelled_campaign_reports_interrupted_and_resumes() {
        let f = factory();
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        );
        let baseline = c.run(&spec()).unwrap();

        let path = journal_path("cancelled");
        let _ = std::fs::remove_file(&path);
        let header = c.journal_header(&spec());
        let (mut j, _) = RunJournal::open_or_create(&path, &header).unwrap();
        let cancel = AtomicBool::new(true); // raised before any run starts
        assert_eq!(
            c.run_resumable(&spec(), Some(&mut j), Some(&cancel))
                .unwrap_err(),
            FiError::Interrupted {
                completed: 0,
                total: spec().run_count() as u64,
            }
        );
        drop(j);

        let (mut j, _) = RunJournal::open_or_create(&path, &header).unwrap();
        let resumed = c.run_resumable(&spec(), Some(&mut j), None).unwrap();
        assert_eq!(resumed, baseline);
    }

    #[test]
    fn budgeted_slices_converge_to_the_unbudgeted_result() {
        let f = factory();
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        );
        let baseline = c.run(&spec()).unwrap();
        let total = spec().run_count() as u64;

        // Reference journal: one unbudgeted journaled run.
        let full_path = journal_path("budget-full");
        let _ = std::fs::remove_file(&full_path);
        let header = c.journal_header(&spec());
        let (mut j, _) = RunJournal::open_or_create(&full_path, &header).unwrap();
        c.run_resumable(&spec(), Some(&mut j), None).unwrap();
        j.sync().unwrap();
        drop(j);

        // The same campaign in slices of 10 new runs per invocation: every
        // slice but the last reports Interrupted, and the union converges
        // to the identical result and the identical journal bytes.
        let path = journal_path("budget-sliced");
        let _ = std::fs::remove_file(&path);
        let mut slices = 0u64;
        let result = loop {
            slices += 1;
            assert!(slices <= total, "budgeted loop failed to converge");
            let (mut j, _) = RunJournal::open_or_create(&path, &header).unwrap();
            match c.run_resumable_budgeted(&spec(), Some(&mut j), None, Some(10)) {
                Ok(result) => break result,
                Err(FiError::Interrupted {
                    completed,
                    total: t,
                }) => {
                    assert_eq!(t, total);
                    assert!(completed < total, "interrupted slice must be partial");
                }
                Err(e) => panic!("unexpected slice failure: {e:?}"),
            }
        };
        assert_eq!(result, baseline);
        assert_eq!(slices, total.div_ceil(10), "64 runs in 10-run slices");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&full_path).unwrap(),
            "sliced journal must be byte-identical to the unbudgeted journal"
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&full_path);
    }

    #[test]
    fn zero_budget_interrupts_without_issuing_work() {
        let f = factory();
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        );
        assert_eq!(
            c.run_resumable_budgeted(&spec(), None, None, Some(0))
                .unwrap_err(),
            FiError::Interrupted {
                completed: 0,
                total: spec().run_count() as u64,
            }
        );
    }

    #[test]
    fn keep_records_false_drops_details() {
        let f = factory();
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                keep_records: false,
                ..Default::default()
            },
        );
        let res = c.run(&spec()).unwrap();
        assert!(res.records.is_empty());
        assert_eq!(res.pairs.len(), 2);
    }

    #[test]
    fn zero_fsync_interval_is_rejected() {
        let f = factory();
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                journal_fsync_interval: 0,
                ..Default::default()
            },
        );
        assert_eq!(c.run(&spec()).unwrap_err(), FiError::InvalidFsyncInterval);
    }

    /// Arms a time bomb: an injected high bit does not stall the module at
    /// the injection tick — it schedules an unbounded loop five ticks later.
    /// Distinguishes "hung at the injection instant" from "hung where the
    /// clock actually stopped". With `masked`, the output drops the high
    /// bit, so the bomb is the error's only trace and the run is still
    /// undecided when the clock stalls; without, the output diverges at the
    /// injection and the record is decided before the stall.
    struct DelayedStall {
        stall_at: Option<u64>,
        masked: bool,
    }
    impl SoftwareModule for DelayedStall {
        fn step(&mut self, ctx: &mut ModuleCtx<'_>) {
            let v = ctx.read(0);
            let now = ctx.now().as_millis();
            if self.stall_at.is_none() && v >= 0x8000 {
                self.stall_at = Some(now + 5);
            }
            if self.stall_at == Some(now) {
                loop {
                    ctx.work(1);
                }
            }
            let shown = if self.masked { v & 0x7FFF } else { v };
            ctx.write(0, shown.wrapping_add(1));
        }
        fn reset(&mut self) {
            self.stall_at = None;
        }
        fn save_state(&self) -> Vec<u8> {
            let mut w = permea_runtime::state::StateWriter::new();
            w.put_bool(self.stall_at.is_some());
            w.put_u64(self.stall_at.unwrap_or(0));
            w.finish()
        }
        fn load_state(&mut self, state: &[u8]) {
            let mut r = permea_runtime::state::StateReader::new(state);
            let armed = r.bool();
            let at = r.u64();
            r.finish();
            self.stall_at = armed.then_some(at);
        }
    }

    fn delayed_stall_sim(masked: bool) -> Simulation {
        let mut b = SimulationBuilder::new();
        let sensor = b.define_signal("sensor");
        let out = b.define_signal("out");
        b.add_module(
            "BOMB",
            Box::new(DelayedStall {
                stall_at: None,
                masked,
            }),
            Schedule::every_ms(),
            &[sensor],
            &[out],
        );
        let mut sim = b.build(Box::new(RampEnv { sensor, limit: 100 }));
        sim.enable_tracing_all();
        sim
    }

    /// The BOMB campaign (one bit-15 flip at 10 ms) under a work budget.
    fn run_bomb(masked: bool, fast_forward: bool, obs: Obs) -> CampaignResult {
        let f = FnSystemFactory::new(1, 10_000, move |_| delayed_stall_sim(masked));
        let s = CampaignSpec {
            targets: vec![PortTarget::new("BOMB", "sensor")],
            models: vec![ErrorModel::BitFlip { bit: 15 }],
            times_ms: vec![10],
            cases: 1,
            scope: InjectionScope::Port,
            adaptive: None,
        };
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                fast_forward,
                watchdog: Some(WatchdogConfig {
                    max_work_per_tick: Some(4_096),
                    max_wall_ms: None,
                }),
                max_quarantined_fraction: 1.0,
                ..Default::default()
            },
        );
        c.with_obs(obs).run(&s).unwrap()
    }

    #[test]
    fn hung_outcome_records_the_watchdogs_last_observed_tick() {
        for fast_forward in [true, false] {
            let res = run_bomb(true, fast_forward, Obs::disabled());
            assert_eq!(res.outcomes.hung, 1);
            assert_eq!(
                res.records[0].outcome,
                RunOutcome::Hung { last_tick_ms: 15 },
                "the clock stalled 5 ticks after the injection at 10 \
                 (fast_forward = {fast_forward})"
            );
        }
    }

    #[test]
    fn stall_after_the_decision_completes_with_the_decided_record() {
        for fast_forward in [true, false] {
            let obs = Obs::with_sinks(Vec::new());
            let res = run_bomb(false, fast_forward, obs.clone());
            assert_eq!(res.outcomes.completed, 1, "fast_forward = {fast_forward}");
            let r = &res.records[0];
            assert_eq!(r.outcome, RunOutcome::Completed);
            assert_eq!(r.first_divergence, vec![Some(10)]);
            assert_eq!((r.original_value, r.corrupted_value), (10, 0x800A));
            // The run stopped at 11, right after the deciding tick.
            let snap = obs.snapshot().unwrap();
            let start = if fast_forward { 10 } else { 0 };
            assert_eq!(snap.counter("campaign.run_ticks"), Some(11 - start));
            assert_eq!(snap.counter("campaign.ticks_cut"), Some(100 - 11));
        }
    }

    /// Over completed runs, every golden tick is simulated, skipped by a
    /// fork or a reconvergence, or cut after the decision.
    fn assert_tick_identity(obs: &Obs, res: &CampaignResult) {
        let snap = obs.snapshot().unwrap();
        let golden: u64 = (res.records.iter())
            .filter(|r| r.outcome.is_completed())
            .map(|r| res.golden_ticks[r.case])
            .sum();
        let counter = |name| snap.counter(name).unwrap_or(0);
        assert_eq!(
            counter("campaign.run_ticks")
                + counter("campaign.ticks_saved")
                + counter("campaign.ticks_cut"),
            golden
        );
    }

    #[test]
    fn telemetry_counters_match_campaign_facts() {
        let f = factory();
        let obs = Obs::with_sinks(Vec::new());
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        )
        .with_obs(obs.clone());
        let res = c.run(&spec()).unwrap();
        let snap = obs.snapshot().unwrap();
        assert_eq!(snap.counter("campaign.runs_total"), Some(64));
        assert_eq!(snap.counter("campaign.runs_completed"), Some(64));
        assert_eq!(snap.counter("campaign.golden_runs"), Some(2));
        assert_eq!(
            snap.counter("campaign.golden_ticks"),
            Some(res.golden_ticks.iter().sum::<u64>())
        );
        // Every injection instant has a fork snapshot, so every run forks.
        assert_eq!(snap.counter("campaign.ff_forked"), Some(64));
        assert!(snap.counter("campaign.snapshots").unwrap() > 0);
        assert_eq!(snap.counter("process.runs_executed"), Some(64));
        assert_eq!(snap.counter("process.runs_recovered"), Some(0));
        assert_eq!(
            snap.histograms.get("process.run_micros").map(|h| h.count),
            Some(64)
        );
        assert!(snap.spans.contains_key("campaign"));
        assert!(snap.spans.contains_key("golden"));
        // `konst` never diverges, so no run here is decided early.
        assert_eq!(snap.counter("campaign.ticks_cut"), Some(0));
        assert_tick_identity(&obs, &res);
        // Decided runs, on both paths, with and without a fork.
        for fast_forward in [true, false] {
            let obs = Obs::with_sinks(Vec::new());
            let res = run_bomb(false, fast_forward, obs.clone());
            assert!(obs.snapshot().unwrap().counter("campaign.ticks_cut") > Some(0));
            assert_tick_identity(&obs, &res);
        }
    }

    #[test]
    fn resumed_campaign_merges_metrics_to_uninterrupted_totals() {
        let f = factory();
        let obs_full = Obs::with_sinks(Vec::new());
        let c = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        )
        .with_obs(obs_full.clone());
        let baseline = c.run(&spec()).unwrap();
        let full_snapshot = obs_full.snapshot().unwrap();
        let full = full_snapshot.campaign_section();

        // Journal a complete campaign, then chop it to 20 records as an
        // interruption would have left it.
        let path = journal_path("metrics-merge");
        let _ = std::fs::remove_file(&path);
        let header = c.journal_header(&spec());
        let (mut j, _) = RunJournal::open_or_create(&path, &header).unwrap();
        Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        )
        .run_resumable(&spec(), Some(&mut j), None)
        .unwrap();
        drop(j);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let mut kept = lines[..21].join("\n");
        kept.push('\n');
        std::fs::write(&path, kept).unwrap();

        let obs_resumed = Obs::with_sinks(Vec::new());
        let c2 = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        )
        .with_obs(obs_resumed.clone());
        let (mut j, loaded) = RunJournal::open_or_create(&path, &header).unwrap();
        assert_eq!(loaded.recovered, 20);
        let resumed = c2.run_resumable(&spec(), Some(&mut j), None).unwrap();
        assert_eq!(resumed, baseline);

        let snap = obs_resumed.snapshot().unwrap();
        assert_eq!(
            snap.campaign_section(),
            full,
            "deterministic campaign.* totals must merge to the uninterrupted values"
        );
        // ... while the process-local view shows the split honestly.
        assert_eq!(snap.counter("process.runs_executed"), Some(44));
        assert_eq!(snap.counter("process.runs_recovered"), Some(20));
    }

    /// Records every progress event's sink clock / campaign clock pair and
    /// optionally raises a cancel flag after a fixed number of them.
    #[derive(Debug)]
    struct TimelineSink {
        /// `(t_us, elapsed_micros, finished)` per progress event.
        points: Mutex<Vec<(u64, u64, bool)>>,
        cancel_after: Option<(usize, Arc<AtomicBool>)>,
    }
    impl permea_obs::Sink for TimelineSink {
        fn event(&self, now_micros: u64, event: &permea_obs::Event<'_>) {
            if let permea_obs::Event::Progress(p) = event {
                let mut pts = self.points.lock().unwrap();
                pts.push((now_micros, p.elapsed_micros, p.finished));
                if let Some((after, flag)) = &self.cancel_after {
                    if pts.len() >= *after {
                        flag.store(true, Ordering::Release);
                    }
                }
            }
        }
    }

    /// Regression for the resumed-campaign timeline: progress events must
    /// carry *campaign-relative* timestamps (each session restarting at
    /// zero), not the telemetry handle's epoch clock — the epoch starts at
    /// handle creation and would fold per-process setup time into the
    /// timeline, breaking contiguous stitching of kill/resume sessions.
    #[test]
    fn timeline_events_are_campaign_relative_across_kill_and_resume() {
        // Deliberate gap between telemetry-handle creation and campaign
        // start. An event stamped with the epoch clock carries this gap;
        // a campaign-relative one does not.
        const SETUP_GAP: Duration = Duration::from_millis(50);
        const MIN_GAP_MICROS: u64 = 40_000;

        let f = factory();
        let path = journal_path("timeline-resume");
        let _ = std::fs::remove_file(&path);
        let header = Campaign::new(
            &f,
            CampaignConfig {
                threads: 1,
                ..Default::default()
            },
        )
        .journal_header(&spec());

        let run_session = |cancel_after: Option<usize>| {
            let cancel = Arc::new(AtomicBool::new(false));
            let sink = Arc::new(TimelineSink {
                points: Mutex::new(Vec::new()),
                cancel_after: cancel_after.map(|n| (n, cancel.clone())),
            });
            let obs = Obs::with_sinks(vec![sink.clone()]);
            std::thread::sleep(SETUP_GAP);
            let c = Campaign::new(
                &f,
                CampaignConfig {
                    threads: 1,
                    ..Default::default()
                },
            )
            .with_obs(obs);
            let (mut j, _) = RunJournal::open_or_create(&path, &header).unwrap();
            let result = c.run_resumable(&spec(), Some(&mut j), Some(&cancel));
            let points = sink.points.lock().unwrap().clone();
            (points, result)
        };

        let assert_session = |points: &[(u64, u64, bool)], label: &str| {
            assert!(!points.is_empty(), "{label}: no progress events");
            let mut prev = 0u64;
            for &(t_us, elapsed, _) in points {
                assert!(
                    t_us >= elapsed + MIN_GAP_MICROS,
                    "{label}: elapsed_micros {elapsed} is epoch-relative \
                     (sink clock {t_us})"
                );
                assert!(
                    elapsed >= prev,
                    "{label}: campaign clock went backwards ({prev} -> {elapsed})"
                );
                prev = elapsed;
            }
        };

        // Session 1: killed after 20 progress events.
        let (first, result) = run_session(Some(20));
        assert!(
            matches!(result, Err(FiError::Interrupted { .. })),
            "session 1 should be interrupted, got {result:?}"
        );
        assert_session(&first, "session 1");

        // Session 2: resumes the journal and finishes. Its campaign clock
        // restarts at zero — still bounded away from the epoch clock.
        let (second, result) = run_session(None);
        result.expect("resume completes");
        assert_session(&second, "session 2");
        assert!(
            second.last().is_some_and(|&(_, _, finished)| finished),
            "resumed session must emit the final progress event"
        );
        let _ = std::fs::remove_file(&path);
    }
}
