//! The `study` command line is order-independent: a preset flag chooses
//! the base configuration, and the overrides given before or after it go
//! on top. Driven through the real binary; the journal header records the
//! seed, the spec and the horizon the campaign actually ran with.

use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("permea_flags_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Runs `study ARGS --journal --out DIR` and returns the journal's header
/// line.
fn journal_header(args: &[&str], out: &Path) -> String {
    let run = Command::new(env!("CARGO_BIN_EXE_study"))
        .args(args)
        .args(["--threads", "1", "--journal", "--out"])
        .arg(out)
        .output()
        .expect("study runs");
    assert_eq!(
        run.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let journal = std::fs::read_to_string(out.join("journal.jsonl")).unwrap();
    journal.lines().next().unwrap().to_owned()
}

#[test]
fn seed_before_and_after_the_preset_write_the_same_journal_header() {
    let (before, after) = (scratch("before"), scratch("after"));
    let header_before = journal_header(&["--seed", "7", "--smoke"], &before);
    let header_after = journal_header(&["--smoke", "--seed", "7"], &after);
    assert_eq!(header_before, header_after);
    assert!(
        header_before.contains("\"master_seed\":7"),
        "{header_before}"
    );
    std::fs::remove_dir_all(&before).ok();
    std::fs::remove_dir_all(&after).ok();
}
