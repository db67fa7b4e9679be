//! Property fuzz of every reader over the shared CRC-framed record log:
//! `RunJournal::open_or_create`, `read_journal` and `audit_journal` over a
//! run journal, and `Ledger::open` over a submission ledger. It lives in
//! this crate because it is the one that sees both wrappers.
//!
//! Three input classes, each fed to every reader: arbitrary bytes (alone or
//! after a valid header line), a valid log cut at any byte from 0 on (the
//! shape a kill at any point leaves behind), and a valid log with one bit
//! flipped. For every input no reader panics, and each answers with a
//! prefix of the written records or a typed error. A flip inside a record
//! line with an intact record after it is the corruption error naming
//! exactly that line; a reader that opens for appending rejects a file
//! only without touching it.

use permea_fi::error::FiError;
use permea_fi::journal::{audit_journal, read_journal, JournalHeader, RunJournal};
use permea_fi::model::ErrorModel;
use permea_fi::outcome::RunOutcome;
use permea_fi::results::{RunRecord, RunStats};
use permea_fi::spec::{CampaignSpec, PortTarget};
use permea_server::{Ledger, LedgerRecord, ServerError};
use proptest::prelude::*;
use std::path::PathBuf;

/// A file path private to the calling test (tests run on parallel threads
/// named after themselves).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("permea-logfuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let test = std::thread::current()
        .name()
        .unwrap_or("main")
        .replace(':', "_");
    dir.join(format!("{test}-{name}"))
}

fn journal_header() -> JournalHeader {
    let spec = CampaignSpec::paper_style(vec![PortTarget::new("CALC", "pulscnt")], 2);
    JournalHeader::new(&spec, 42, Some(6_000))
}

const LEDGER_HEADER: &[u8] = b"{\"version\":1}\n";

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Journal,
    Ledger,
}

const KINDS: [Kind; 2] = [Kind::Journal, Kind::Ledger];

/// How a reader answered: the keys of the records it recovered (journal
/// coordinates, ledger ids), or its typed error.
#[derive(Debug, PartialEq)]
enum Answer {
    Records(Vec<u64>),
    Corrupt(usize),
    Failed,
}

/// Writes a valid log of `n` records; returns its bytes and the offset just
/// past each line's newline (the header's first).
fn image(kind: Kind, n: u64) -> (Vec<u8>, Vec<usize>) {
    let path = scratch(&format!("{kind:?}-source.jsonl"));
    let _ = std::fs::remove_file(&path);
    match kind {
        Kind::Journal => {
            let mut journal = RunJournal::create(&path, &journal_header()).unwrap();
            for k in 0..n {
                let record = RunRecord {
                    module: "CALC".into(),
                    input_signal: "pulscnt".into(),
                    model: ErrorModel::BitFlip {
                        bit: (k % 16) as u8,
                    },
                    time_ms: 500 * (k + 1),
                    case: (k % 2) as usize,
                    original_value: 7,
                    corrupted_value: 7 ^ (1 << (k % 16)),
                    first_divergence: vec![Some(510 + k as u32), None],
                    outcome: if k % 3 == 2 {
                        RunOutcome::Panicked {
                            message: format!("J*{k} overflow"),
                        }
                    } else {
                        RunOutcome::Completed
                    },
                };
                let stats = RunStats {
                    sim_ticks: 40 + k,
                    forked: k % 2 == 0,
                    converged_ms: Some(90 + k),
                };
                journal.append(k, &record, &stats, 1).unwrap();
            }
            journal.sync().unwrap();
        }
        Kind::Ledger => {
            let (mut ledger, _, _) = Ledger::open(&path).unwrap();
            for id in 0..n {
                let tenant = ["alice", "bob", "Jo*"][id as usize % 3].to_string();
                let payload = format!("{{\"preset\":\"smoke\",\"seed\":{id}}}");
                let record = LedgerRecord::Submitted {
                    id,
                    tenant,
                    payload,
                };
                ledger.append(&record).unwrap();
            }
        }
    }
    let data = std::fs::read(&path).unwrap();
    let ends = (0..data.len())
        .filter(|&i| data[i] == b'\n')
        .map(|i| i + 1)
        .collect();
    (data, ends)
}

fn journal_answer<T>(result: Result<T, FiError>, keys: impl FnOnce(T) -> Vec<u64>) -> Answer {
    match result {
        Ok(value) => {
            let mut keys = keys(value);
            keys.sort_unstable();
            Answer::Records(keys)
        }
        Err(FiError::JournalCorrupt { line }) => Answer::Corrupt(line),
        Err(FiError::Journal { .. } | FiError::JournalMismatch { .. }) => Answer::Failed,
        Err(other) => panic!("untyped journal read failure: {other:?}"),
    }
}

fn ledger_answer<T>(
    result: Result<(T, Vec<permea_server::ReplayedCampaign>, u64), ServerError>,
) -> Answer {
    match result {
        Ok((_, replayed, _)) => Answer::Records(replayed.iter().map(|c| c.id).collect()),
        Err(ServerError::Ledger { message }) => message
            .strip_prefix("line ")
            .and_then(|rest| rest.split(' ').next())
            .and_then(|line| line.parse().ok())
            .map_or(Answer::Failed, Answer::Corrupt),
        Err(other) => panic!("untyped ledger read failure: {other:?}"),
    }
}

/// Feeds `data` to every reader of `kind`, each over the same file. The
/// opener runs last; when it rejects the file, the file must be untouched.
fn answers(kind: Kind, data: &[u8]) -> Vec<(&'static str, Answer)> {
    let path = scratch(&format!("{kind:?}-fuzz.jsonl"));
    std::fs::write(&path, data).unwrap();
    let answers = match kind {
        Kind::Journal => vec![
            (
                "read_journal",
                journal_answer(read_journal(&path), |r| r.entries.into_keys().collect()),
            ),
            (
                "audit_journal",
                journal_answer(audit_journal(&path), |a| (0..a.records as u64).collect()),
            ),
            (
                "RunJournal::open_or_create",
                journal_answer(RunJournal::open_or_create(&path, &journal_header()), |j| {
                    j.0.entries().keys().copied().collect()
                }),
            ),
        ],
        Kind::Ledger => vec![("Ledger::open", ledger_answer(Ledger::open(&path)))],
    };
    if !matches!(answers.last(), Some((_, Answer::Records(_)))) {
        assert_eq!(
            std::fs::read(&path).unwrap(),
            data,
            "a rejected file was modified"
        );
    }
    answers
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_bytes_never_panic_and_fail_typed(
        bytes in prop::collection::vec(any::<u8>(), 0..160),
        lead in 0u8..3,
    ) {
        let journal_line = format!("{}\n", serde_json::to_string(&journal_header()).unwrap());
        let mut data = match lead {
            0 => Vec::new(),
            1 => journal_line.into_bytes(),
            _ => LEDGER_HEADER.to_vec(),
        };
        data.extend_from_slice(&bytes);
        for kind in KINDS {
            for (reader, answer) in answers(kind, &data) {
                if let Answer::Records(keys) = answer {
                    prop_assert!(keys.is_empty(), "{} recovered {:?} from noise", reader, keys);
                }
            }
        }
    }

    #[test]
    fn any_cut_recovers_the_complete_prefix(
        n in 0u64..6,
        cut_pick in any::<u64>(),
        zone in 0u8..4,
    ) {
        for kind in KINDS {
            let (data, ends) = image(kind, n);
            // One case in four cuts inside the header line.
            let span = if zone == 0 { ends[0] } else { data.len() + 1 };
            let cut = (cut_pick % span as u64) as usize;
            let complete = ends[1..].iter().filter(|&&end| end <= cut).count();
            let prefix = Answer::Records((0..complete as u64).collect());
            for (reader, answer) in answers(kind, &data[..cut]) {
                let read_only = reader == "read_journal" || reader == "audit_journal";
                if read_only && cut < ends[0] {
                    prop_assert_eq!(answer, Answer::Failed, "{:?} {} cut at {}", kind, reader, cut);
                } else {
                    prop_assert_eq!(answer, prefix, "{:?} {} cut at {}: {:?} vs {:?}", kind, reader, cut, answer, prefix);
                }
            }
            // The opener left exactly the header and the complete records.
            let path = scratch(&format!("{kind:?}-fuzz.jsonl"));
            prop_assert_eq!(std::fs::read(&path).unwrap(), data[..ends[complete]].to_vec());
        }
    }

    #[test]
    fn one_bit_flip_is_corruption_at_its_line_or_a_torn_tail(
        n in 2u64..6,
        pos_pick in any::<u64>(),
        bit in 0u8..8,
        zone in 0u8..4,
    ) {
        for kind in KINDS {
            let (mut data, ends) = image(kind, n);
            // Three cases in four flip a byte of the record lines.
            let start = if zone == 0 { 0 } else { ends[0] };
            let pos = start + (pos_pick % (data.len() - start) as u64) as usize;
            let was_newline = data[pos] == b'\n';
            data[pos] ^= 1 << bit;
            // 1-based line holding `pos`; record lines start at line 2.
            let line = ends.iter().filter(|&&end| end <= pos).count() + 1;
            for (reader, answer) in answers(kind, &data) {
                if line >= 2 && !was_newline {
                    let expected = if line < ends.len() {
                        Answer::Corrupt(line)
                    } else {
                        Answer::Records((0..n - 1).collect())
                    };
                    prop_assert_eq!(answer, expected, "{:?} {} flip at {}: {:?} vs {:?}", kind, reader, pos, answer, expected);
                } else if let Answer::Records(keys) = answer {
                    let m = keys.len() as u64;
                    prop_assert_eq!(keys, (0..m).collect::<Vec<_>>(), "{:?} {}", kind, reader);
                }
            }
        }
    }
}
