//! Campaign results: per-pair counts and optional per-run records.

use crate::model::ErrorModel;
use crate::outcome::{OutcomeTally, RunOutcome};
use serde::{Deserialize, Serialize};

/// Injection/error counts for one (module, input, output) pair — the raw
/// material of the paper's `P̂_{i,k} = n_err / n_inj` estimate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PairStat {
    /// Module name.
    pub module: String,
    /// Input-port signal name.
    pub input_signal: String,
    /// Output-port signal name.
    pub output_signal: String,
    /// Zero-based input port index.
    pub input: usize,
    /// Zero-based output port index.
    pub output: usize,
    /// Number of injections into the input (`n_inj`).
    pub injections: u64,
    /// Number of runs in which the output trace deviated from the Golden
    /// Run (`n_err`).
    pub errors: u64,
}

impl PairStat {
    /// The permeability estimate `n_err / n_inj` (0 when no injections ran).
    pub fn estimate(&self) -> f64 {
        if self.injections == 0 {
            0.0
        } else {
            self.errors as f64 / self.injections as f64
        }
    }
}

/// Deterministic execution statistics of one injection run — what the run
/// cost and which fast-forward shortcuts it took.
///
/// Kept *outside* [`RunRecord`] deliberately: records are the scientific
/// result (byte-identical across the fast-forward and replay-from-zero
/// paths, and across resume boundaries), while these statistics describe
/// *how* the configured executor got there. They are journaled next to
/// each record so a resumed campaign can merge telemetry totals exactly;
/// for a fixed configuration they are fully deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunStats {
    /// Ticks actually simulated: from the fork (or tick zero) to the
    /// reconvergence, the decision or the horizon (0 for quarantined runs
    /// — their ticks are lost to the unwind).
    pub sim_ticks: u64,
    /// `true` when the run forked from a golden snapshot at the injection
    /// instant instead of replaying the prefix from tick zero.
    pub forked: bool,
    /// The tick at which the run reconverged with a golden checkpoint and
    /// exited early, when it did.
    pub converged_ms: Option<u64>,
}

/// Detailed record of one injection run (kept when
/// [`crate::campaign::CampaignConfig::keep_records`] is set).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Target module name.
    pub module: String,
    /// Targeted input-port signal.
    pub input_signal: String,
    /// Error model applied.
    pub model: ErrorModel,
    /// Injection instant (ms).
    pub time_ms: u64,
    /// Workload case index.
    pub case: usize,
    /// Value observed at the port just before corruption.
    pub original_value: u16,
    /// Value installed by the error model.
    pub corrupted_value: u16,
    /// For each output port of the module (port order): the first tick at
    /// which its trace deviated from the Golden Run, if any. Empty for
    /// quarantined runs — no comparison exists for them.
    pub first_divergence: Vec<Option<u32>>,
    /// How the run ended. Quarantined runs (panicked or hung) carry zeroed
    /// value fields and an empty `first_divergence`.
    pub outcome: RunOutcome,
}

impl RunRecord {
    /// `true` if any output deviated.
    pub fn any_error(&self) -> bool {
        self.first_divergence.iter().any(Option::is_some)
    }

    /// Propagation latency to output `k`, in ticks after the injection
    /// instant (`None` when no error or the divergence preceded injection —
    /// which cannot happen in a correct campaign).
    pub fn latency_ticks(&self, output: usize) -> Option<u64> {
        self.first_divergence
            .get(output)
            .copied()
            .flatten()
            .map(|tick| (tick as u64).saturating_sub(self.time_ms))
    }
}

/// Aggregated outcome of an injection campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Counts per (module, input, output) pair, in deterministic order
    /// (targets in spec order, outputs in port order).
    pub pairs: Vec<PairStat>,
    /// Per-run details (empty unless requested).
    pub records: Vec<RunRecord>,
    /// Golden-run tick counts per case (the comparison horizons).
    pub golden_ticks: Vec<u64>,
    /// Total injection runs executed. Equals the spec's dense
    /// [`crate::spec::CampaignSpec::run_count`] for a grid campaign; under
    /// an adaptive plan it is the number of coordinates the planner
    /// actually sampled.
    pub total_runs: u64,
    /// Runs executed per target (spec order), including quarantined ones.
    /// Uniformly [`crate::spec::CampaignSpec::injections_per_target`] for a
    /// dense campaign; under an adaptive plan each entry is what the
    /// stratum cost before it closed — the raw material of the runs-saved
    /// accounting in [`crate::estimate::target_summaries`].
    pub runs_per_target: Vec<u64>,
    /// Per-class run counts: completed vs quarantined (panicked / hung).
    pub outcomes: OutcomeTally,
}

impl CampaignResult {
    /// Looks up the stat for a pair by names.
    pub fn pair(&self, module: &str, input_signal: &str, output_signal: &str) -> Option<&PairStat> {
        self.pairs.iter().find(|p| {
            p.module == module && p.input_signal == input_signal && p.output_signal == output_signal
        })
    }

    /// All stats of one module.
    pub fn module_pairs(&self, module: &str) -> Vec<&PairStat> {
        self.pairs.iter().filter(|p| p.module == module).collect()
    }

    /// The fraction of errors propagating per (time, case) cell for a pair —
    /// used to probe the *uniform propagation* hypothesis of reference \[12\], which the
    /// paper (and this reproduction) does not corroborate. Returns
    /// `(time_ms, case, errors, injections)` rows computed from records.
    pub fn propagation_cells(
        &self,
        module: &str,
        input_signal: &str,
        output: usize,
    ) -> Vec<(u64, usize, u64, u64)> {
        use std::collections::BTreeMap;
        let mut cells: BTreeMap<(u64, usize), (u64, u64)> = BTreeMap::new();
        for r in self
            .records
            .iter()
            .filter(|r| r.module == module && r.input_signal == input_signal)
            .filter(|r| r.outcome.is_completed())
        {
            let cell = cells.entry((r.time_ms, r.case)).or_insert((0, 0));
            cell.1 += 1;
            if r.first_divergence.get(output).copied().flatten().is_some() {
                cell.0 += 1;
            }
        }
        cells
            .into_iter()
            .map(|((t, c), (e, n))| (t, c, e, n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(inj: u64, err: u64) -> PairStat {
        PairStat {
            module: "M".into(),
            input_signal: "in".into(),
            output_signal: "out".into(),
            input: 0,
            output: 0,
            injections: inj,
            errors: err,
        }
    }

    #[test]
    fn estimate_is_ratio() {
        assert_eq!(stat(4000, 1000).estimate(), 0.25);
        assert_eq!(stat(0, 0).estimate(), 0.0);
    }

    #[test]
    fn record_error_and_latency() {
        let r = RunRecord {
            module: "M".into(),
            input_signal: "in".into(),
            model: ErrorModel::BitFlip { bit: 3 },
            time_ms: 500,
            case: 0,
            original_value: 10,
            corrupted_value: 2,
            first_divergence: vec![None, Some(520)],
            outcome: RunOutcome::Completed,
        };
        assert!(r.any_error());
        assert_eq!(r.latency_ticks(0), None);
        assert_eq!(r.latency_ticks(1), Some(20));
        assert_eq!(r.latency_ticks(9), None);
    }

    #[test]
    fn result_lookup() {
        let res = CampaignResult {
            pairs: vec![stat(10, 5)],
            records: vec![],
            golden_ticks: vec![100],
            total_runs: 10,
            runs_per_target: vec![10],
            outcomes: OutcomeTally::default(),
        };
        assert!(res.pair("M", "in", "out").is_some());
        assert!(res.pair("M", "in", "nope").is_none());
        assert_eq!(res.module_pairs("M").len(), 1);
    }

    #[test]
    fn propagation_cells_aggregate_records() {
        let mk = |time, case, div: Option<u32>| RunRecord {
            module: "M".into(),
            input_signal: "in".into(),
            model: ErrorModel::BitFlip { bit: 0 },
            time_ms: time,
            case,
            original_value: 0,
            corrupted_value: 1,
            first_divergence: vec![div],
            outcome: RunOutcome::Completed,
        };
        let res = CampaignResult {
            pairs: vec![],
            records: vec![mk(500, 0, Some(501)), mk(500, 0, None), mk(1000, 1, None)],
            golden_ticks: vec![],
            total_runs: 3,
            runs_per_target: vec![3],
            outcomes: OutcomeTally::default(),
        };
        let cells = res.propagation_cells("M", "in", 0);
        assert_eq!(cells, vec![(500, 0, 1, 2), (1000, 1, 0, 1)]);
    }

    #[test]
    fn propagation_cells_skip_quarantined_records() {
        let mk = |outcome: RunOutcome| RunRecord {
            module: "M".into(),
            input_signal: "in".into(),
            model: ErrorModel::BitFlip { bit: 0 },
            time_ms: 500,
            case: 0,
            original_value: 0,
            corrupted_value: 1,
            first_divergence: if outcome.is_completed() {
                vec![Some(501)]
            } else {
                vec![]
            },
            outcome,
        };
        let res = CampaignResult {
            pairs: vec![],
            records: vec![
                mk(RunOutcome::Completed),
                mk(RunOutcome::Panicked {
                    message: "boom".into(),
                }),
                mk(RunOutcome::Hung { last_tick_ms: 499 }),
            ],
            golden_ticks: vec![],
            total_runs: 3,
            runs_per_target: vec![3],
            outcomes: OutcomeTally {
                completed: 1,
                panicked: 1,
                hung: 1,
                crashed: 0,
            },
        };
        // Only the completed run contributes to the cell's injection count.
        assert_eq!(res.propagation_cells("M", "in", 0), vec![(500, 0, 1, 1)]);
    }
}
