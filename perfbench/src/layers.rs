//! Per-layer measurements taken from outside the program: a phase-timed
//! replay of sampled runs through the public `Simulation` calls, journal
//! re-appends, and the analysis stages timed one call at a time.

use crate::check::{coordinate_of, run_seed};
use permea_analysis::study::StudyOutput;
use permea_core::backtrack::BacktrackForest;
use permea_core::graph::PermeabilityGraph;
use permea_core::measures::SystemMeasures;
use permea_core::placement::PlacementAdvisor;
use permea_core::topology::SystemTopology;
use permea_core::trace::TraceForest;
use permea_fi::campaign::{GoldenBundle, SystemFactory};
use permea_fi::journal::{JournalHeader, RunJournal};
use permea_fi::results::{CampaignResult, RunRecord, RunStats};
use permea_fi::spec::{CampaignSpec, InjectionScope};
use permea_obs::metrics::MetricsSnapshot;
use permea_obs::Obs;
use permea_runtime::tracing::{first_mismatch, TraceSet};
use permea_runtime::watchdog::WatchdogConfig;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::Instant;

/// Accumulated runtime phases of the sampled replays, in nanoseconds.
#[derive(Debug, Default)]
pub struct Phases {
    pub runs: u64,
    pub build_ns: u64,
    pub restores: u64,
    pub restore_ns: u64,
    pub ticks: u64,
    pub step_ns: u64,
    pub checks: u64,
    pub check_ns: u64,
    pub take_ns: u64,
    pub compare_ns: u64,
}

impl Phases {
    fn total_ns(&self) -> u64 {
        self.build_ns
            + self.restore_ns
            + self.step_ns
            + self.check_ns
            + self.take_ns
            + self.compare_ns
    }

    /// Mean attributed time of one run, in microseconds.
    pub fn run_us(&self) -> f64 {
        self.total_ns() as f64 / self.runs.max(1) as f64 / 1e3
    }

    /// Stepping's share of the attributed time.
    pub fn step_share(&self) -> f64 {
        self.step_ns as f64 / self.total_ns().max(1) as f64
    }
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Replays the sampled records' coordinates the way the campaign executor
/// runs them (fork from the golden snapshot, inject, step, reconvergence
/// checks, window compare), timing each phase, and checks that every
/// replay reproduces the campaign's record for its coordinate.
pub fn replay_phases(
    factory: &dyn SystemFactory,
    master_seed: u64,
    spec: &CampaignSpec,
    bundles: &[GoldenBundle],
    result: &CampaignResult,
    picks: &[usize],
) -> Result<Phases, String> {
    let outputs = crate::check::module_outputs(factory, spec);
    let mut p = Phases::default();
    let mut arena: Option<TraceSet> = None;
    for &i in picks {
        let record = &result.records[i];
        let k = coordinate_of(spec, record).ok_or("record outside the spec")?;
        let golden = &bundles[record.case];
        let model = record.model;
        let time_ms = record.time_ms;

        let t = Instant::now();
        let mut sim = factory.build(record.case);
        p.build_ns += ns(t);
        if let Some(spare) = arena.take() {
            sim.reuse_trace_arena(spare);
        }
        sim.arm_watchdog(WatchdogConfig::default());
        let (module, port) = sim
            .find_input_port(&record.module, &record.input_signal)
            .ok_or("unknown target port")?;
        let mut rng = SmallRng::seed_from_u64(run_seed(master_seed, k));
        let start_ms = match golden.snapshot_at(time_ms) {
            Some(snap) => {
                let t = Instant::now();
                sim.restore(snap);
                p.restore_ns += ns(t);
                p.restores += 1;
                time_ms
            }
            None => 0,
        };
        let (mut original, mut corrupted) = (0u16, 0u16);
        let last_fire_ms = model.last_instant(time_ms);
        let mut check_ns = 0;
        let loop_started = Instant::now();
        while sim.now().as_millis() < golden.run.ticks {
            let now = sim.now().as_millis();
            if now > last_fire_ms {
                if let Some(cp) = golden.snapshot_at(now) {
                    let t = Instant::now();
                    let converged = sim.converged_with(cp);
                    check_ns += ns(t);
                    p.checks += 1;
                    if converged {
                        break;
                    }
                }
            }
            sim.begin_tick();
            if model.fires_at(time_ms, now) {
                let seen = sim.peek_module_input(module, port);
                let value = model.apply(seen, &mut rng);
                if now == time_ms {
                    original = seen;
                    corrupted = value;
                }
                match spec.scope {
                    InjectionScope::Port => sim.corrupt_module_input(module, port, value),
                    InjectionScope::Signal => {
                        let sig = sim.module_inputs(module)[port];
                        sim.bus_mut().corrupt_signal(sig, value);
                    }
                }
            }
            sim.run_modules();
        }
        p.step_ns += ns(loop_started).saturating_sub(check_ns);
        p.check_ns += check_ns;

        let t = Instant::now();
        let window = sim.take_traces().ok_or("tracing disabled")?;
        p.take_ns += ns(t);
        p.ticks += window.ticks() as u64;

        let t = Instant::now();
        let start = start_ms as usize;
        let divergences: Vec<Option<u32>> = outputs[&record.module]
            .iter()
            .map(|name| {
                let (g, w) = (golden.run.traces.trace(name)?, window.trace(name)?);
                let n = w.len().min(g.len().saturating_sub(start));
                first_mismatch(&w[..n], &g[start..start + n]).map(|d| (start + d) as u32)
            })
            .collect();
        p.compare_ns += ns(t);
        p.runs += 1;

        if divergences != record.first_divergence
            || original != record.original_value
            || corrupted != record.corrupted_value
        {
            return Err(format!(
                "coordinate {k}: phase replay gives {divergences:?}, the campaign recorded {:?}",
                record.first_divergence
            ));
        }
        arena = Some(window);
    }
    Ok(p)
}

/// Re-appends `entries` to a fresh journal at `path` and returns the mean
/// append time in µs and the fsync histogram the journal recorded.
pub fn reappend(
    path: &Path,
    header: &JournalHeader,
    entries: &[(u64, RunRecord, RunStats)],
) -> Result<(f64, MetricsSnapshot), String> {
    let _ = std::fs::remove_file(path);
    let obs = Obs::with_sinks(Vec::new());
    let mut journal = RunJournal::create(path, header).map_err(|e| e.to_string())?;
    journal.attach_obs(&obs);
    let t = Instant::now();
    for (k, record, stats) in entries {
        journal
            .append(*k, record, stats, 1)
            .map_err(|e| e.to_string())?;
    }
    journal.sync().map_err(|e| e.to_string())?;
    let append_us = t.elapsed().as_secs_f64() * 1e6 / entries.len().max(1) as f64;
    drop(journal);
    let _ = std::fs::remove_file(path);
    Ok((append_us, obs.snapshot().expect("enabled obs snapshots")))
}

/// The analysis stages `Study::run` performs after its campaign — the
/// permeability estimate, then graph, measures, backtrack and trace trees,
/// propagation paths and placement — applied to `result`. Returns the
/// study output with the time of the estimate and of the rest, in ms.
pub fn analyse(
    topology: &SystemTopology,
    spec: &CampaignSpec,
    result: CampaignResult,
) -> Result<(StudyOutput, f64, f64), String> {
    let t = Instant::now();
    let matrix =
        permea_fi::estimate::estimate_matrix(topology, &result).map_err(|e| e.to_string())?;
    let estimate_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let graph = PermeabilityGraph::new(topology, &matrix).map_err(|e| e.to_string())?;
    let measures = SystemMeasures::compute(&graph).map_err(|e| e.to_string())?;
    let backtrack = BacktrackForest::build(&graph).map_err(|e| e.to_string())?;
    let trace = TraceForest::build(&graph).map_err(|e| e.to_string())?;
    let output = *topology
        .system_outputs()
        .first()
        .ok_or("no system output")?;
    let toc2_paths = backtrack
        .tree_for(output)
        .ok_or("no backtrack tree")?
        .clone()
        .into_path_set()
        .sorted_by_weight();
    let placement = PlacementAdvisor::new(&graph)
        .map_err(|e| e.to_string())?
        .plan();
    let analyse_ms = t.elapsed().as_secs_f64() * 1e3;
    let out = StudyOutput {
        topology: topology.clone(),
        spec: spec.clone(),
        result,
        matrix,
        graph,
        measures,
        backtrack,
        trace,
        toc2_paths,
        placement,
    };
    Ok((out, estimate_ms, analyse_ms))
}

/// The `q`-quantile of a program histogram (bucket upper bound), or 0.
pub fn hist_q(snap: &MetricsSnapshot, name: &str, q: f64) -> f64 {
    snap.histograms
        .get(name)
        .and_then(|h| h.quantile(q))
        .unwrap_or(0) as f64
}

/// A program counter, or 0.
pub fn counter(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.counter(name).unwrap_or(0) as f64
}
