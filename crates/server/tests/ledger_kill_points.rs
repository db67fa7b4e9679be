//! Property test: `kill -9` the daemon at *any byte* of the submission
//! ledger and a restart replays exactly the durably acknowledged records.
//!
//! Each case builds a random submission/close history, then cuts the file
//! at a random offset, from byte 0 on — the on-disk shape an arbitrary
//! kill point leaves behind, since the header and every append are written
//! sequentially. Reopening must succeed, replay must equal an independent
//! line-boundary model of the surviving prefix, and the truncated ledger
//! must accept further appends that themselves survive a reopen.

use permea_server::{CampaignState, Ledger, LedgerRecord, ReplayedCampaign};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;

const TENANTS: [&str; 3] = ["alice", "bob", "carol"];

fn tmp_ledger(case: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("permea-killpoints-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{case}.jsonl"));
    let _ = std::fs::remove_file(&path);
    path
}

/// Folds records through the same replay semantics `Ledger::open` uses.
fn model_replay(records: &[LedgerRecord]) -> (Vec<ReplayedCampaign>, u64) {
    let mut campaigns: BTreeMap<u64, ReplayedCampaign> = BTreeMap::new();
    for record in records {
        match record {
            LedgerRecord::Submitted {
                id,
                tenant,
                payload,
            } => {
                campaigns.insert(
                    *id,
                    ReplayedCampaign {
                        id: *id,
                        tenant: tenant.clone(),
                        payload: payload.clone(),
                        closed: None,
                    },
                );
            }
            LedgerRecord::Closed { id, state, detail } => {
                if let Some(c) = campaigns.get_mut(id) {
                    c.closed = Some((*state, detail.clone()));
                }
            }
        }
    }
    let next_id = campaigns.keys().next_back().map_or(1, |max| max + 1);
    (campaigns.into_values().collect(), next_id)
}

/// Decodes one op byte into the next history record.
fn next_record(op: u8, next_id: &mut u64, open: &mut Vec<u64>) -> LedgerRecord {
    if op % 4 == 3 && !open.is_empty() {
        let id = open.remove(usize::from(op / 4) % open.len());
        let state = match op % 3 {
            0 => CampaignState::Completed,
            1 => CampaignState::Failed,
            _ => CampaignState::Cancelled,
        };
        LedgerRecord::Closed {
            id,
            state,
            detail: format!("closed by op {op}"),
        }
    } else {
        let id = *next_id;
        *next_id += 1;
        open.push(id);
        LedgerRecord::Submitted {
            id,
            tenant: TENANTS[usize::from(op) % TENANTS.len()].to_string(),
            payload: format!("{{\"preset\":\"smoke\",\"seed\":{id}}}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn any_kill_point_replays_the_acknowledged_prefix(
        ops in prop::collection::vec(any::<u8>(), 1..12),
        cut_pick in any::<u64>(),
        zone in 0u8..4,
    ) {
        let path = tmp_ledger("any-kill-point");
        let (mut ledger, _, _) = Ledger::open(&path).unwrap();

        // Build the history, recording where each record's line ends.
        let mut next_id = 1u64;
        let mut open_ids = Vec::new();
        let mut history: Vec<(LedgerRecord, u64)> = Vec::new();
        for &op in &ops {
            let record = next_record(op, &mut next_id, &mut open_ids);
            ledger.append(&record).unwrap();
            let end = std::fs::metadata(&path).unwrap().len();
            history.push((record, end));
        }
        drop(ledger);

        // Kill point: anywhere from byte 0 — a kill between creating the
        // file and syncing its header — to end-of-file. One case in four
        // cuts inside the header line, which a uniform cut rarely hits.
        let data = std::fs::read(&path).unwrap();
        let header_end = data.iter().position(|&b| b == b'\n').unwrap() + 1;
        let span = if zone == 0 { header_end } else { data.len() + 1 };
        let cut = cut_pick % span as u64;
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(cut)
            .unwrap();

        // The surviving records are exactly the complete lines before the
        // cut; everything else was never acknowledged durable.
        let survivors: Vec<LedgerRecord> = history
            .iter()
            .filter(|(_, end)| *end <= cut)
            .map(|(r, _)| r.clone())
            .collect();
        let (expected, expected_next) = model_replay(&survivors);

        let (mut ledger, replayed, next) = Ledger::open(&path).unwrap();
        prop_assert_eq!(&replayed, &expected);
        prop_assert_eq!(next, expected_next);

        // The truncated ledger stays appendable and the new record is as
        // durable as any other.
        let extra = LedgerRecord::Submitted {
            id: next,
            tenant: "dave".to_string(),
            payload: "{\"preset\":\"smoke\"}".to_string(),
        };
        ledger.append(&extra).unwrap();
        drop(ledger);
        let mut with_extra = survivors;
        with_extra.push(extra);
        let (expected, expected_next) = model_replay(&with_extra);
        let (_ledger, replayed, next) = Ledger::open(&path).unwrap();
        prop_assert_eq!(&replayed, &expected);
        prop_assert_eq!(next, expected_next);
    }
}

/// A file that is not a torn copy of the ledger — here a header with a
/// different version, cut short — is a typed startup error, and is never
/// overwritten.
#[test]
fn foreign_header_is_a_typed_error_and_left_untouched() {
    let path = tmp_ledger("foreign-header");
    std::fs::write(&path, "{\"version\":2").unwrap();
    let err = Ledger::open(&path).unwrap_err();
    assert!(
        err.to_string().contains("header"),
        "unexpected error: {err}"
    );
    assert_eq!(std::fs::read(&path).unwrap(), b"{\"version\":2");
}
