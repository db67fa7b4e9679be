//! The chaos harness turned on the executor itself: deterministic,
//! seeded environment-fault schedules (journal I/O errors, scheduled
//! worker SIGKILLs, torn IPC frames, artifact-write failures) are
//! injected at the exact boundaries `permea_fi::chaos` instruments, and
//! the executor's core contract is asserted after every schedule:
//!
//! * a campaign resumed after any injected abort is **byte-identical**
//!   to an undisturbed run,
//! * no coordinate is double-counted,
//! * the journal never holds conflicting records
//!   ([`permea::fi::journal::audit_journal`] is the invariant checker),
//!
//! in both isolation modes. The process-mode worker pool re-execs this
//! test binary into [`chaos_worker_entry`], exactly like
//! `tests/process_isolation.rs`.
#![cfg(unix)]
#![recursion_limit = "512"]

use permea::fi::campaign::{Campaign, CampaignConfig, FnSystemFactory, SystemFactory};
use permea::fi::chaos::{ChaosInjector, ChaosPlan};
use permea::fi::error::FiError;
use permea::fi::journal::{audit_journal, RunJournal};
use permea::fi::model::ErrorModel;
use permea::fi::process::{run_worker, IsolationMode, ProcessIsolation, WorkerCommand};
use permea::fi::results::CampaignResult;
use permea::fi::spec::{CampaignSpec, InjectionScope, PortTarget};
use permea::runtime::module::{ModuleCtx, SoftwareModule};
use permea::runtime::scheduler::Schedule;
use permea::runtime::signals::{SignalBus, SignalRef};
use permea::runtime::sim::{Environment, Simulation, SimulationBuilder};
use permea::runtime::time::SimTime;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

/// A perfectly benign copy module: every fault in this suite is an
/// *environment* fault injected by the chaos layer, never by the target.
struct Copy;

impl SoftwareModule for Copy {
    fn step(&mut self, ctx: &mut ModuleCtx<'_>) {
        let v = ctx.read(0);
        ctx.write(0, v);
    }
}

struct ConstEnv {
    sensor: SignalRef,
    limit: u64,
}

impl Environment for ConstEnv {
    fn pre_tick(&mut self, _: SimTime, bus: &mut SignalBus) {
        bus.write(self.sensor, 100);
    }
    fn post_tick(&mut self, _: SimTime, _: &mut SignalBus) {}
    fn finished(&self, now: SimTime) -> bool {
        now.as_millis() >= self.limit
    }
}

fn build_sim(_case: usize) -> Simulation {
    let mut b = SimulationBuilder::new();
    let sensor = b.define_signal("sensor");
    let out = b.define_signal("out");
    b.add_module(
        "DUT",
        Box::new(Copy),
        Schedule::every_ms(),
        &[sensor],
        &[out],
    );
    let mut sim = b.build(Box::new(ConstEnv { sensor, limit: 80 }));
    sim.enable_tracing_all();
    sim
}

fn factory() -> FnSystemFactory<impl Fn(usize) -> Simulation + Sync> {
    FnSystemFactory::new(1, 10_000, build_sim)
}

fn spec() -> CampaignSpec {
    CampaignSpec {
        targets: vec![PortTarget::new("DUT", "sensor")],
        models: vec![
            ErrorModel::BitFlip { bit: 0 },
            ErrorModel::BitFlip { bit: 7 },
        ],
        times_ms: vec![10, 30],
        cases: 2,
        scope: InjectionScope::Port,
        adaptive: None,
    }
}

fn config() -> CampaignConfig {
    CampaignConfig {
        threads: 1,
        ..CampaignConfig::default()
    }
}

fn chaos(plan: &str) -> Arc<ChaosInjector> {
    Arc::new(ChaosInjector::new(
        ChaosPlan::parse(plan).expect("test plan parses"),
    ))
}

fn scratch(tag: &str) -> PathBuf {
    // Unique per call: tests and proptest cases run concurrently in one
    // process, so the pid alone is not enough.
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!(
        "permea-chaos-{tag}-{}-{n}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// The undisturbed reference: same spec, same seed, no chaos, journaled.
fn undisturbed(journal_path: &PathBuf) -> (CampaignResult, Vec<u8>) {
    let f = factory();
    let campaign = Campaign::new(&f, config());
    let s = spec();
    let header = campaign.journal_header(&s);
    let (mut journal, _) = RunJournal::open_or_create(journal_path, &header).unwrap();
    let result = campaign
        .run_resumable(&s, Some(&mut journal), None)
        .unwrap();
    drop(journal);
    let bytes = std::fs::read(journal_path).unwrap();
    (result, bytes)
}

/// Runs the campaign journaled under `plan`; on an injected abort,
/// resumes (chaos disarmed — the fault "healed") until it completes.
/// Returns the final result and how many aborts were absorbed.
fn run_with_chaos_until_complete(journal_path: &PathBuf, plan: &str) -> (CampaignResult, usize) {
    let f = factory();
    let s = spec();
    let mut aborts = 0usize;
    // First attempt: chaos armed.
    {
        let campaign = Campaign::new(&f, config()).with_chaos(chaos(plan));
        let header = campaign.journal_header(&s);
        let (mut journal, _) = RunJournal::open_or_create(journal_path, &header).unwrap();
        match campaign.run_resumable(&s, Some(&mut journal), None) {
            Ok(result) => return (result, aborts),
            Err(e) => {
                assert!(
                    matches!(e, FiError::Journal { .. } | FiError::JournalDiskFull { .. }),
                    "chaos may only surface typed journal errors, got: {e}"
                );
                aborts += 1;
            }
        }
    }
    // Resume attempts: the environment has healed.
    loop {
        let campaign = Campaign::new(&f, config());
        let header = campaign.journal_header(&s);
        let (mut journal, _) = RunJournal::open_or_create(journal_path, &header).unwrap();
        match campaign.run_resumable(&s, Some(&mut journal), None) {
            Ok(result) => return (result, aborts),
            Err(_) => {
                aborts += 1;
                assert!(aborts < 16, "resume must converge");
            }
        }
    }
}

fn assert_clean_and_identical(journal_path: &PathBuf, result: &CampaignResult) {
    let reference_path = scratch("reference");
    let (reference, reference_bytes) = undisturbed(&reference_path);
    assert_eq!(
        result, &reference,
        "recovered campaign must be byte-identical to an undisturbed run"
    );
    let bytes = std::fs::read(journal_path).unwrap();
    assert_eq!(
        bytes, reference_bytes,
        "recovered journal must be byte-identical to an undisturbed journal"
    );
    let audit = audit_journal(journal_path).unwrap();
    assert!(audit.is_clean(), "journal audit must be clean: {audit:?}");
    assert_eq!(
        audit.records, audit.distinct,
        "no coordinate may be double-counted"
    );
    let _ = std::fs::remove_file(&reference_path);
}

#[test]
fn transient_enospc_is_absorbed_without_any_abort() {
    let path = scratch("enospc-once");
    let (result, aborts) = run_with_chaos_until_complete(&path, "journal-write=enospc-once@2");
    assert_eq!(aborts, 0, "a transient ENOSPC is retried away in-line");
    assert_clean_and_identical(&path, &result);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn short_write_aborts_typed_and_resume_is_byte_identical() {
    let path = scratch("short");
    let (result, aborts) = run_with_chaos_until_complete(&path, "journal-write=short@3");
    assert!(aborts >= 1, "a torn append must abort the campaign");
    assert_clean_and_identical(&path, &result);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn fsync_eio_aborts_typed_and_resume_is_byte_identical() {
    let path = scratch("fsync-eio");
    let (result, aborts) = run_with_chaos_until_complete(&path, "journal-fsync=eio@0");
    assert!(aborts >= 1, "a failed fsync must abort, not be ignored");
    assert_clean_and_identical(&path, &result);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn persistent_enospc_exhausts_bounded_retry_into_disk_full() {
    let f = factory();
    let s = spec();
    let path = scratch("enospc-hard");
    let campaign = Campaign::new(&f, config()).with_chaos(chaos("journal-write=enospc@1"));
    let header = campaign.journal_header(&s);
    let (mut journal, _) = RunJournal::open_or_create(&path, &header).unwrap();
    let err = campaign
        .run_resumable(&s, Some(&mut journal), None)
        .unwrap_err();
    assert!(
        matches!(err, FiError::JournalDiskFull { .. }),
        "persistent ENOSPC must exhaust the bounded retry into JournalDiskFull, got: {err}"
    );
    drop(journal);
    // The tail the abort left behind is still parseable, and resume heals.
    let audit = audit_journal(&path).unwrap();
    assert!(audit.conflicts.is_empty());
    let (result, _) = run_with_chaos_until_complete(&path, "seed=0");
    assert_clean_and_identical(&path, &result);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn preflight_disk_space_check_aborts_before_any_run() {
    let f = factory();
    let s = spec();
    let path = scratch("preflight");
    let campaign = Campaign::new(&f, config()).with_chaos(chaos("free-disk=0"));
    let header = campaign.journal_header(&s);
    let (mut journal, _) = RunJournal::open_or_create(&path, &header).unwrap();
    let err = campaign
        .run_resumable(&s, Some(&mut journal), None)
        .unwrap_err();
    match err {
        FiError::DiskSpaceLow { free_bytes, .. } => assert_eq!(free_bytes, 0),
        other => panic!("expected DiskSpaceLow, got {other}"),
    }
    drop(journal);
    let audit = audit_journal(&path).unwrap();
    assert_eq!(audit.records, 0, "preflight must fire before any run");
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------
// Process isolation: the worker pool re-execs this test binary.
// ---------------------------------------------------------------------

fn worker_command() -> WorkerCommand {
    let mut command = WorkerCommand::current_exe(vec![
        "chaos_worker_entry".to_owned(),
        "--exact".to_owned(),
        "--nocapture".to_owned(),
    ])
    .expect("current test binary resolves");
    command
        .envs
        .push(("PERMEA_TEST_WORKER".to_owned(), "1".to_owned()));
    command
}

/// Not a test by itself: the worker main loop when re-exec'd by the
/// supervisor tests below (`PERMEA_TEST_WORKER=1`).
#[test]
fn chaos_worker_entry() {
    if std::env::var("PERMEA_TEST_WORKER").as_deref() != Ok("1") {
        return;
    }
    let code = run_worker(|_payload| Ok(Box::new(factory()) as Box<dyn SystemFactory>));
    std::process::exit(i32::from(code));
}

fn process_config(run_timeout_ms: u64) -> CampaignConfig {
    let mut pool = ProcessIsolation::new(worker_command(), "benign".to_owned());
    pool.workers = 1;
    pool.retry_backoff_ms = 1;
    pool.run_timeout_ms = run_timeout_ms;
    CampaignConfig {
        threads: 1,
        isolation: IsolationMode::Process(pool),
        ..CampaignConfig::default()
    }
}

fn baseline_in_process() -> CampaignResult {
    Campaign::new(&factory(), config()).run(&spec()).unwrap()
}

#[test]
fn scheduled_worker_kill_is_absorbed_by_the_retry_path() {
    let f = factory();
    let result = Campaign::new(&f, process_config(10_000))
        .with_chaos(chaos("kill-run@1"))
        .run(&spec())
        .unwrap();
    assert_eq!(
        result,
        baseline_in_process(),
        "a one-shot SIGKILL must not change any result bit"
    );
    assert_eq!(result.outcomes.completed as usize, result.records.len());
}

#[test]
fn torn_ipc_frame_is_bounded_by_the_deadline_and_absorbed() {
    let f = factory();
    let result = Campaign::new(&f, process_config(800))
        .with_chaos(chaos("frame-corrupt@0"))
        .run(&spec())
        .unwrap();
    assert_eq!(
        result,
        baseline_in_process(),
        "a torn dispatch frame must be killed at the deadline and retried clean"
    );
}

// ---------------------------------------------------------------------
// The proptest: random seeded chaos schedules, both isolation modes.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum JournalFault {
    Write(u64, &'static str),
    Fsync(u64, &'static str),
}

fn fault_kind() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("enospc-once"), Just("eio"), Just("short")]
}

fn journal_fault() -> impl Strategy<Value = JournalFault> {
    prop_oneof![
        (0u64..12, fault_kind()).prop_map(|(i, k)| JournalFault::Write(i, k)),
        (0u64..4, fault_kind()).prop_map(|(i, k)| JournalFault::Fsync(i, k)),
    ]
}

fn render_plan(seed: u64, faults: &[JournalFault]) -> String {
    let mut parts = vec![format!("seed={seed}")];
    for f in faults {
        match f {
            JournalFault::Write(i, k) => parts.push(format!("journal-write={k}@{i}")),
            JournalFault::Fsync(i, k) => parts.push(format!("journal-fsync={k}@{i}")),
        }
    }
    parts.join(", ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // In-process mode: any random schedule of journal write/fsync faults
    // either is absorbed or aborts typed; resume always converges to the
    // undisturbed bytes with a clean audit.
    #[test]
    fn random_journal_chaos_preserves_the_resume_contract(
        seed in 0u64..1000,
        faults in prop::collection::vec(journal_fault(), 1..4),
    ) {
        let path = scratch(&format!("prop-{seed}-{}", faults.len()));
        let plan = render_plan(seed, &faults);
        let (result, _aborts) = run_with_chaos_until_complete(&path, &plan);
        assert_clean_and_identical(&path, &result);
        let _ = std::fs::remove_file(&path);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // Process mode: random one-shot worker-kill and frame-corruption
    // schedules never change a result bit — the supervisor's
    // classify/retry path absorbs every one of them.
    #[test]
    fn random_process_chaos_is_absorbed(
        kills in prop::collection::vec(0u64..8, 0..3),
        corrupt in prop::collection::vec(0u64..6, 0..2),
    ) {
        let kills: std::collections::BTreeSet<u64> = kills.into_iter().collect();
        let corrupt: std::collections::BTreeSet<u64> = corrupt.into_iter().collect();
        let mut parts: Vec<String> = kills.iter().map(|k| format!("kill-run@{k}")).collect();
        parts.extend(corrupt.iter().map(|i| format!("frame-corrupt@{i}")));
        if parts.is_empty() {
            parts.push("seed=0".to_owned());
        }
        let plan = parts.join(", ");
        let f = factory();
        let result = Campaign::new(&f, process_config(800))
            .with_chaos(chaos(&plan))
            .run(&spec())
            .unwrap();
        prop_assert_eq!(result, baseline_in_process());
    }
}

// ---------------------------------------------------------------------
// The plan grammar: arbitrary strings over its alphabet.
// ---------------------------------------------------------------------

// The grammar's alphabet, by role.
const SEPARATORS: &[&str] = &[",", "=", "@"];
const NUMBERS: &[&str] = &[
    "0",
    "1",
    "7",
    "42",
    "18446744073709551615",
    "18446744073709551616",
];
const KEYS: &[&str] = &[
    "seed",
    "journal-write",
    "journal-fsync",
    "ledger-write",
    "kill-run",
    "kill-always",
    "frame-corrupt",
    "client-disconnect",
    "artifact-fail",
    "free-disk",
];
const KINDS: &[&str] = &["enospc", "enospc-once", "eio", "short", "result.json"];
const SPACES: &[&str] = &[" ", "\t", "\n", ""];

fn pick(words: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
    (0..words.len()).prop_map(move |i| words[i])
}

/// Fragment soup over the whole alphabet, plus plans of token-shaped
/// strings (`key`, separator, optional `kind@`, number), half of them
/// well formed, so that a good share of the inputs parse.
fn plan_text() -> impl Strategy<Value = String> {
    let fragment = || {
        prop_oneof![
            pick(SEPARATORS),
            pick(NUMBERS),
            pick(KEYS),
            pick(KINDS),
            pick(SPACES),
        ]
    };
    let soup = prop::collection::vec(fragment(), 0..24).prop_map(|f| f.concat());
    let shaped = (
        pick(KEYS),
        pick(SEPARATORS),
        prop_oneof![pick(KINDS), Just("")],
        prop_oneof![Just("@"), Just("")],
        pick(NUMBERS),
    )
        .prop_map(|(key, sep, kind, at, n)| format!("{key}{sep}{kind}{at}{n}"));
    let well_formed =
        (pick(KEYS), pick(&KINDS[..4]), pick(&NUMBERS[..5])).prop_map(|(key, kind, n)| match key {
            "journal-write" | "journal-fsync" | "ledger-write" => format!("{key}={kind}@{n}"),
            "seed" | "free-disk" => format!("{key}={n}"),
            "artifact-fail" => format!("{key}={kind}"),
            _ => format!("{key}@{n}"),
        });
    let token = (pick(SPACES), prop_oneof![shaped, well_formed])
        .prop_map(|(pad, token)| format!("{pad}{token}{pad}"));
    let tokens = prop::collection::vec(token, 0..6).prop_map(|t| t.join(","));
    prop_oneof![soup, tokens]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    // `ChaosPlan::parse` never panics, and every plan it accepts prints
    // back to a string that parses to the same plan.
    #[test]
    fn chaos_plan_grammar_round_trips(text in plan_text()) {
        if let Ok(plan) = ChaosPlan::parse(&text) {
            prop_assert_eq!(ChaosPlan::parse(&plan.to_string()), Ok(plan));
        }
    }
}
