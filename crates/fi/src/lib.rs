//! # permea-fi — SWIFI fault injection and permeability estimation
//!
//! A reimplementation of the experimental method of Section 6 of the paper
//! (and of the PROPANE tool it uses): software-implemented fault injection
//! with **Golden Run Comparison**.
//!
//! The workflow:
//!
//! 1. describe the experiment with a [`spec::CampaignSpec`] — which module
//!    input ports to target, which [`model::ErrorModel`]s to apply (the
//!    paper flips each of the 16 bits), at which times, over which workload
//!    cases;
//! 2. run it with [`campaign::Campaign`], which records a Golden Run per
//!    case and then executes one injection run per (target, model, time,
//!    case), comparing every output trace of the targeted module against
//!    the Golden Run;
//! 3. feed the [`results::CampaignResult`] to [`estimate`] to obtain a
//!    [`permea_core::matrix::PermeabilityMatrix`] (`P̂ = n_err / n_inj`)
//!    with Wilson confidence intervals.
//!
//! Everything is deterministic: per-run RNGs are derived from the campaign
//! master seed and the run coordinates.
//!
//! Campaigns are also **crash- and hang-tolerant**: every injection run is
//! sandboxed (`catch_unwind` plus a cooperative stalled-clock watchdog) and
//! classified with an [`outcome::RunOutcome`], and the executor can write
//! every finished run into an append-only [`journal::RunJournal`] so an
//! interrupted campaign resumes — byte-identically — instead of restarting.
//! For runs that can take the whole process down (`abort()`, stack
//! overflow, hard deadlocks), [`process::IsolationMode::Process`] moves
//! execution into a supervised pool of worker processes with hard
//! wall-clock deadlines, crash classification
//! ([`outcome::RunOutcome::Crashed`]) and bounded retry — see [`process`].

// `deny` rather than `forbid`: the only exemption is the scoped
// `allow(unsafe_code)` on `env`'s private libc FFI shims (statvfs,
// setrlimit); everything else still refuses unsafe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod campaign;
pub mod chaos;
pub mod env;
pub mod error;
pub mod estimate;
pub mod golden;
pub mod journal;
pub mod latency;
pub mod model;
pub mod outcome;
pub mod process;
pub mod record_log;
pub mod results;
pub mod shard;
pub mod spec;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::adaptive::{AdaptivePlan, AdaptivePlanner, StopReason, StratumStatus};
    pub use crate::campaign::{
        Campaign, CampaignConfig, FnSystemFactory, GoldenBundle, SystemFactory,
    };
    pub use crate::chaos::{ChaosInjector, ChaosPlan, IoFaultKind};
    pub use crate::env::{atomic_write, atomic_write_chaos, free_disk_bytes};
    pub use crate::error::FiError;
    pub use crate::estimate::{
        estimate_matrix, render_target_summaries, target_summaries, wilson_interval, PairEstimate,
        TargetSummary,
    };
    pub use crate::golden::GoldenRun;
    pub use crate::journal::{
        audit_journal, merge_journals, read_journal, JournalAudit, JournalHeader, LoadedJournal,
        MergeSummary, ReadJournal, RunJournal,
    };
    pub use crate::latency::{latency_summaries, render_latencies, LatencySummary};
    pub use crate::model::ErrorModel;
    pub use crate::outcome::{CrashCause, OutcomeTally, RunOutcome};
    pub use crate::process::{
        encode_frame, read_frame, run_worker, IsolationMode, ProcessIsolation, WorkerCommand,
    };
    pub use crate::results::{CampaignResult, PairStat, RunRecord, RunStats};
    pub use crate::shard::Shard;
    pub use crate::spec::{CampaignSpec, InjectionScope, PortTarget};
}

pub use prelude::*;
