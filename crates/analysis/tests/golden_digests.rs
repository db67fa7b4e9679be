//! Absolute digests of `result.json` bytes.
//!
//! Every other equivalence test compares two execution paths against each
//! other; these pins compare them against fixed bytes, so a change that
//! shifts *every* path the same way still fails. Each pin is the
//! `permea_fi::journal::crc32` of the serialised `CampaignResult` (exactly
//! what `study` and `study suite` write as `result.json`) plus its byte
//! length. EXPERIMENTS.md ("Pinned digests") describes how to regenerate a
//! pin; a pin only ever changes together with a note saying why.

use permea_analysis::study::{Study, StudyConfig};
use permea_fi::adaptive::AdaptivePlan;
use permea_fi::error::FiError;
use permea_fi::journal::{crc32, RunJournal};
use permea_fi::results::CampaignResult;
use permea_target::scenario::ScenarioSpec;
use permea_target::suite::{ScenarioStudy, SuiteOptions};
use std::path::{Path, PathBuf};
use std::process::Command;

/// `StudyConfig::smoke()`, spelled as a scenario file.
const SMOKE_SCENARIO: &str = r#"
[scenario]
name = "arrestment-smoke"

[target]
name = "arrestment"

[workload]
masses = 1
velocities = 1

[campaign]
seed = 0x5EED
times_ms = [700, 2100]
horizon_ms = 4000

[error-model]
kind = "bit-flip"
bits = [0, 3, 9, 14]
"#;

const FIVE_MODULE: &str =
    include_str!("../../../examples/scenarios/five-module-extended-models.toml");
const MASK_PIPELINE: &str = include_str!("../../../examples/scenarios/mask-pipeline-fep.toml");

/// `(crc32, byte length)` of each pinned `result.json`.
const SMOKE: (u32, usize) = (3_390_979_324, 23_088);
const SMOKE_ADAPTIVE: (u32, usize) = (1_311_238_679, 12_561);
const FIVE_MODULE_EXTENDED: (u32, usize) = (1_545_138_042, 8_264);
const MASK_PIPELINE_FEP: (u32, usize) = (2_695_362_595, 74_449);
/// The single-threaded journal of the sliced smoke scenario, byte for byte.
const SMOKE_SLICED_JOURNAL: (u32, usize) = (2_847_685_419, 31_175);
/// The same journal as written before injection runs stopped at their
/// decision: the records are identical, but each run's journaled
/// `sim_ticks` reaches the horizon or the reconvergence.
const UNCUT_JOURNAL: &str = "tests/fixtures/smoke_journal_uncut.jsonl";
const UNCUT_JOURNAL_DIGEST: (u32, usize) = (2_691_986_424, 31_257);

fn digest(bytes: &[u8]) -> (u32, usize) {
    (crc32(bytes), bytes.len())
}

fn result_digest(result: &CampaignResult) -> (u32, usize) {
    digest(serde_json::to_string(result).unwrap().as_bytes())
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("permea-digests-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn scenario(text: &str, name: &str) -> ScenarioStudy {
    ScenarioStudy::resolve(ScenarioSpec::parse(text, name).unwrap()).unwrap()
}

#[test]
fn smoke_study_at_one_and_two_threads() {
    for threads in [1, 2] {
        let config = StudyConfig {
            threads,
            ..StudyConfig::smoke()
        };
        let output = Study::new(config).run().unwrap();
        assert_eq!(result_digest(&output.result), SMOKE, "{threads} threads");
    }
}

/// `AdaptivePlan::default()` asks for 50 runs per stratum before one may
/// close, more than the smoke grid's 8 runs per target; this plan keeps the
/// default's shape at the smoke grid's scale, so strata close early.
fn smoke_plan() -> AdaptivePlan {
    AdaptivePlan {
        batch_size: 3,
        min_runs: 3,
        target_ci: 0.3,
        ..AdaptivePlan::default()
    }
}

#[test]
fn adaptive_smoke_study() {
    for threads in [1, 2] {
        let config = StudyConfig {
            threads,
            adaptive: Some(smoke_plan()),
            ..StudyConfig::smoke()
        };
        let output = Study::new(config).run().unwrap();
        assert!(output.result.total_runs < 104, "the plan stops early");
        assert_eq!(
            result_digest(&output.result),
            SMOKE_ADAPTIVE,
            "{threads} threads"
        );
    }
}

#[test]
fn example_scenarios() {
    let options = SuiteOptions::default();
    let five = scenario(FIVE_MODULE, "five-module-extended-models");
    assert_eq!(
        result_digest(&five.run(&options).unwrap()),
        FIVE_MODULE_EXTENDED
    );
    let mask = scenario(MASK_PIPELINE, "mask-pipeline-fep");
    assert_eq!(
        result_digest(&mask.run(&options).unwrap()),
        MASK_PIPELINE_FEP
    );
}

#[test]
fn smoke_scenario_in_journaled_budget_slices() {
    let study = scenario(SMOKE_SCENARIO, "arrestment-smoke");
    let options = SuiteOptions {
        threads: Some(1),
        ..SuiteOptions::default()
    };
    let path = scratch("sliced").join("journal.jsonl");
    let mut slices = 0;
    let result = loop {
        let (mut journal, _) = RunJournal::open_or_create(&path, &study.journal_header()).unwrap();
        match study.run_resumable_budgeted(&options, Some(&mut journal), None, Some(7)) {
            Ok(result) => break result,
            Err(FiError::Interrupted { .. }) => slices += 1,
            Err(e) => panic!("slice {slices} failed: {e}"),
        }
        assert!(slices <= 104 / 7 + 1, "slices never finish the campaign");
    };
    // 104 runs in slices of 7: 14 interrupted slices plus the final one.
    assert_eq!(slices, 14);
    assert_eq!(result_digest(&result), SMOKE);
    assert_eq!(digest(&std::fs::read(&path).unwrap()), SMOKE_SLICED_JOURNAL);

    // Resuming the finished journal replays every run and executes none.
    let (mut journal, _) = RunJournal::open_or_create(&path, &study.journal_header()).unwrap();
    let resumed = study
        .run_resumable_budgeted(&options, Some(&mut journal), None, Some(0))
        .unwrap();
    assert_eq!(result_digest(&resumed), SMOKE);
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

#[test]
fn journal_written_before_the_decision_cut_resumes_unchanged() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join(UNCUT_JOURNAL);
    assert_eq!(read_digest(&fixture), UNCUT_JOURNAL_DIGEST);
    let path = scratch("uncut").join("journal.jsonl");
    std::fs::copy(&fixture, &path).unwrap();
    let study = scenario(SMOKE_SCENARIO, "arrestment-smoke");
    let options = SuiteOptions {
        threads: Some(1),
        ..SuiteOptions::default()
    };
    let (mut journal, _) = RunJournal::open_or_create(&path, &study.journal_header()).unwrap();
    assert_eq!(journal.entries().len(), 104);
    // A zero budget: any run the journal does not hold would interrupt.
    let resumed = study
        .run_resumable_budgeted(&options, Some(&mut journal), None, Some(0))
        .unwrap();
    assert_eq!(result_digest(&resumed), SMOKE);
    drop(journal);
    assert_eq!(read_digest(&path), UNCUT_JOURNAL_DIGEST, "nothing appended");
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

fn read_digest(path: &Path) -> (u32, usize) {
    digest(&std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display())))
}

#[test]
fn process_isolated_suite() {
    let dir = scratch("suite");
    let scenarios = dir.join("scenarios");
    std::fs::create_dir_all(&scenarios).unwrap();
    for (name, text) in [
        ("arrestment-smoke", SMOKE_SCENARIO),
        ("five-module-extended-models", FIVE_MODULE),
        ("mask-pipeline-fep", MASK_PIPELINE),
    ] {
        std::fs::write(scenarios.join(format!("{name}.toml")), text).unwrap();
    }
    let out = dir.join("out");
    let run = Command::new(env!("CARGO_BIN_EXE_study"))
        .arg("suite")
        .arg(&scenarios)
        .args(["--isolation", "process", "--out"])
        .arg(&out)
        .output()
        .expect("study runs");
    assert_eq!(
        run.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    for (name, pin) in [
        ("arrestment-smoke", SMOKE),
        ("five-module-extended-models", FIVE_MODULE_EXTENDED),
        ("mask-pipeline-fep", MASK_PIPELINE_FEP),
    ] {
        assert_eq!(
            read_digest(&out.join(name).join("result.json")),
            pin,
            "{name}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
