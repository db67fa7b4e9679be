//! An absolute check of the decision cut: a campaign run stops once every
//! output of the injected module has diverged, so each completed record is
//! replayed here through `Campaign::run_traced` with `fast_forward: false`
//! — from tick zero to the golden horizon, every tick traced, no cut — and
//! its first divergences and injected values must equal the campaign's.

use permea_fi::campaign::{Campaign, CampaignConfig};
use permea_fi::results::CampaignResult;
use permea_target::scenario::ScenarioSpec;
use permea_target::suite::{ScenarioStudy, SuiteOptions};
use std::collections::HashMap;

/// `StudyConfig::smoke()`, spelled as a scenario file.
const ARRESTMENT_SMOKE: &str = r#"
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

/// The per-run seed the campaign executor derives for coordinate `k`.
fn run_seed(master_seed: u64, k: usize) -> u64 {
    master_seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The output signals of each `(module, input)` target, in record order.
fn outputs(result: &CampaignResult) -> HashMap<(String, String), Vec<String>> {
    let mut outputs: HashMap<(String, String), Vec<String>> = HashMap::new();
    for p in &result.pairs {
        let key = (p.module.clone(), p.input_signal.clone());
        outputs
            .entry(key)
            .or_default()
            .push(p.output_signal.clone());
    }
    outputs
}

/// Runs the scenario and checks every completed record against its uncut
/// replay; returns the number of records checked.
fn check_scenario(text: &str, name: &str) -> usize {
    let study = ScenarioStudy::resolve(ScenarioSpec::parse(text, name).unwrap()).unwrap();
    let options = SuiteOptions::default();
    let result = study.run(&options).unwrap();
    let spec = study.campaign_spec();
    assert_eq!(
        result.records.len(),
        spec.run_count(),
        "{name}: dense records"
    );
    let factory = study.target().factory(study.workload()).unwrap();
    let config = CampaignConfig {
        threads: 1,
        fast_forward: false,
        ..study.campaign_config(&options).unwrap()
    };
    let campaign = Campaign::new(factory.as_ref(), config.clone());
    let goldens: Vec<_> = (0..spec.cases)
        .map(|case| campaign.golden_bundle(case, &[]).unwrap())
        .collect();
    let outputs = outputs(&result);
    let mut checked = 0;
    for (k, record) in result.records.iter().enumerate() {
        if !record.outcome.is_completed() {
            continue;
        }
        let (ti, _, _, case) = spec.coordinate(k);
        let golden = &goldens[case];
        let (traces, original, corrupted) = campaign
            .run_traced(
                &spec.targets[ti],
                spec.scope,
                record.model,
                record.time_ms,
                golden,
                run_seed(config.master_seed, k),
            )
            .unwrap();
        assert_eq!(
            traces.ticks() as u64,
            golden.run.ticks,
            "{name} #{k}: uncut"
        );
        let key = (record.module.clone(), record.input_signal.clone());
        let divergences: Vec<Option<u32>> = outputs[&key]
            .iter()
            .map(|out| golden.run.first_divergence(&traces, out).map(|t| t as u32))
            .collect();
        assert_eq!(
            (divergences, original, corrupted),
            (
                record.first_divergence.clone(),
                record.original_value,
                record.corrupted_value
            ),
            "{name} coordinate {k}: uncut replay vs. campaign record"
        );
        checked += 1;
    }
    checked
}

#[test]
fn smoke_grids_match_their_uncut_replay() {
    assert_eq!(check_scenario(ARRESTMENT_SMOKE, "arrestment-smoke"), 104);
    let five = include_str!("../../../examples/scenarios/five-module-extended-models.toml");
    assert_eq!(check_scenario(five, "five-module-extended-models"), 40);
    let mask = include_str!("../../../examples/scenarios/mask-pipeline-fep.toml");
    assert_eq!(check_scenario(mask, "mask-pipeline-fep"), 384);
}

#[test]
fn ablation_scenarios_match_their_uncut_replay() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/ablations");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 6);
    for path in files {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(check_scenario(&text, &name) > 0, "{name}");
    }
}
