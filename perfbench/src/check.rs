//! Output checks: result digests, pinned digests at the default seed, and
//! replay-from-zero agreement on a seeded sample of coordinates.

use crate::gen::{SplitMix, DEFAULT_SEED};
use permea_fi::campaign::{Campaign, CampaignConfig, GoldenBundle, SystemFactory};
use permea_fi::results::{CampaignResult, RunRecord};
use permea_fi::spec::CampaignSpec;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// sha256 of each workload's `result.json` at [`DEFAULT_SEED`], recorded
/// on the commit that introduced this benchmark. For `daemon-two-tenant`
/// it is the digest of the first campaign each tenant completes in a round
/// (every campaign runs the same preset scenario at the default seed).
pub const PINS: [(&str, &str); 4] = [
    (
        "quick-dense",
        "eb5ba6098f66b15594508809db9c13ba37cfc3e6bfe942a552fb54833eb38b21",
    ),
    (
        "full-adaptive",
        "09cc9409f6d4ef324139e9ab474d04deaba953b6103bf4012c6e15df0c029fb0",
    ),
    (
        "pipeline-durable",
        "54320c85f2fd272d0be384e7578f14988d3f198908600b7ee27cafcacb35bde5",
    ),
    (
        "daemon-two-tenant",
        "8a594acfb22b54cc506efa6ab5e2f92bf88facd5fe1105f8a1361fcd1a419468",
    ),
];

/// Checks `digest` against the workload's pin when `seed` is the default
/// seed; other seeds have no pin.
pub fn check_pin(workload: &str, seed: u64, digest: &str) -> Result<(), String> {
    if seed != DEFAULT_SEED {
        return Ok(());
    }
    let pin = PINS
        .iter()
        .find(|(w, _)| *w == workload)
        .map_or("", |(_, d)| *d);
    if digest == pin {
        Ok(())
    } else {
        Err(format!(
            "{workload}: result digest {digest} differs from the pinned {pin}"
        ))
    }
}

/// The coordinate index `k` of `record` within `spec` — the inverse of
/// `CampaignSpec::coordinate`, recovered from the record's own fields
/// (adaptive results hold only the sampled coordinates, so position in
/// `records` is not `k`).
pub fn coordinate_of(spec: &CampaignSpec, record: &RunRecord) -> Option<usize> {
    let ti = spec
        .targets
        .iter()
        .position(|t| t.module == record.module && t.input_signal == record.input_signal)?;
    let mi = spec.models.iter().position(|m| *m == record.model)?;
    let wi = spec.times_ms.iter().position(|&t| t == record.time_ms)?;
    let (nm, nt, nc) = (spec.models.len(), spec.times_ms.len(), spec.cases);
    Some(((ti * nm + mi) * nt + wi) * nc + record.case)
}

/// The per-run seed the executor derives from the master seed and `k`.
pub fn run_seed(master_seed: u64, k: usize) -> u64 {
    master_seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// `count` distinct record indices of `0..len`, drawn from `seed`.
pub fn sample(len: usize, count: usize, seed: u64, stream: u64) -> Vec<usize> {
    let count = count.min(len);
    if count == 0 {
        return Vec::new();
    }
    SplitMix::new(seed, stream)
        .distinct(count, len as u64)
        .into_iter()
        .map(|i| i as usize)
        .collect()
}

/// Sanity of a finished campaign: the expected number of runs, every run
/// completed, one divergence slot per output.
pub fn check_result(result: &CampaignResult, expected_runs: u64) -> Result<(), String> {
    if result.total_runs != expected_runs {
        return Err(format!(
            "{} runs recorded, {expected_runs} expected",
            result.total_runs
        ));
    }
    if result.outcomes.completed != result.total_runs {
        return Err(format!(
            "{} of {} runs quarantined",
            result.total_runs - result.outcomes.completed,
            result.total_runs
        ));
    }
    if result.records.len() as u64 != result.total_runs {
        return Err(format!(
            "{} records for {} runs",
            result.records.len(),
            result.total_runs
        ));
    }
    Ok(())
}

/// Output signal names of every targeted module, from a probe simulation.
pub fn module_outputs(
    factory: &dyn SystemFactory,
    spec: &CampaignSpec,
) -> HashMap<String, Vec<String>> {
    let probe = factory.build(0);
    spec.targets
        .iter()
        .filter_map(|t| {
            let idx = probe.module_by_name(&t.module)?;
            let outputs = probe
                .module_outputs(idx)
                .iter()
                .map(|&s| probe.bus().name(s).to_owned())
                .collect();
            Some((t.module.clone(), outputs))
        })
        .collect()
}

/// Re-executes the sampled records' coordinates with `fast_forward: false`
/// through `Campaign::run_traced` and compares every output's first
/// divergence and the injected values with the campaign's records.
pub fn replay_from_zero(
    factory: &dyn SystemFactory,
    config: &CampaignConfig,
    spec: &CampaignSpec,
    result: &CampaignResult,
    picks: &[usize],
) -> Result<(), String> {
    let config = CampaignConfig {
        fast_forward: false,
        threads: 1,
        isolation: permea_fi::process::IsolationMode::InProcess,
        ..config.clone()
    };
    let campaign = Campaign::new(factory, config.clone());
    let outputs = module_outputs(factory, spec);
    let mut goldens: HashMap<usize, GoldenBundle> = HashMap::new();
    for &i in picks {
        let record = &result.records[i];
        let k = coordinate_of(spec, record).ok_or("record outside the spec")?;
        let (ti, _, _, case) = spec.coordinate(k);
        let golden = match goldens.entry(case) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(
                campaign
                    .golden_bundle(case, &[])
                    .map_err(|e| format!("golden run of case {case}: {e}"))?,
            ),
        };
        let (traces, original, corrupted) = campaign
            .run_traced(
                &spec.targets[ti],
                spec.scope,
                record.model,
                record.time_ms,
                golden,
                run_seed(config.master_seed, k),
            )
            .map_err(|e| format!("replaying coordinate {k}: {e}"))?;
        let divergences: Vec<Option<u32>> = outputs[&record.module]
            .iter()
            .map(|name| golden.run.first_divergence(&traces, name).map(|t| t as u32))
            .collect();
        if divergences != record.first_divergence
            || original != record.original_value
            || corrupted != record.corrupted_value
        {
            return Err(format!(
                "coordinate {k}: replay from zero gives {divergences:?} ({original:#x}->{corrupted:#x}), \
                 the campaign recorded {:?} ({:#x}->{:#x})",
                record.first_divergence, record.original_value, record.corrupted_value
            ));
        }
    }
    Ok(())
}

/// SHA-256 of `data`, lowercase hex.
pub fn sha256_hex(data: &[u8]) -> String {
    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    let mut msg = data.to_vec();
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&((data.len() as u64) * 8).to_be_bytes());
    for block in msg.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (x, y) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *x = x.wrapping_add(y);
        }
    }
    h.iter().map(|x| format!("{x:08x}")).collect()
}
