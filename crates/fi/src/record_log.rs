//! CRC-framed append-only record log: the one on-disk format and durability
//! policy under the run journal ([`crate::journal`]) and the campaign
//! daemon's submission ledger (`permea_server::ledger`). Each of those is a
//! thin typed layer that picks its header and record types and maps
//! [`LogError`] onto its own error type.
//!
//! Layout: line 1 is a JSON header; every following line is one JSON
//! record, prefixed with the CRC32 (IEEE) of its payload as eight lowercase
//! hex digits and a space:
//!
//! ```text
//! {"version":1}
//! 89abcdef {"Submitted":{"id":1,"tenant":"alice","payload":"..."}}
//! ```
//!
//! Recovery, read-only or through [`RecordLog::open`], reads the file once
//! and makes one pass over it. A record that fails its CRC (or does not
//! parse) with no intact record after it is the torn tail of an interrupted
//! write: it is reported, and [`RecordLog::open`] truncates it away before
//! appending resumes. The same failure with intact records after it can
//! only be silent corruption (bit rot, a bad copy) and is
//! [`LogError::Corrupt`] naming the line. A file holding nothing but a
//! strict prefix of the header line this log would write — a kill between
//! creating the file and syncing its header — is rewritten by
//! [`RecordLog::open`]; any other unreadable header is an error, so a file
//! that is not a torn copy of this log is never overwritten.
//!
//! Durability: [`RecordLog::append`] flushes every record to the OS before
//! it returns, and the caller decides when to [`RecordLog::sync`]. An
//! `ENOSPC` flush or sync is retried [`ENOSPC_APPEND_RETRIES`] times with a
//! short growing sleep — transient pressure (log rotation, tmp reaping)
//! clears, a genuinely full disk becomes [`LogError::DiskFull`]. A fault
//! scheduled by a [`crate::chaos`] plan is drawn by the caller from its own
//! site and injected at exactly these points.

use crate::chaos::IoFaultKind;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, ErrorKind, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// How many times a flush or sync that failed with `ENOSPC` is retried
/// before giving up with [`LogError::DiskFull`]. Retries are spaced by a
/// short growing sleep, so a genuinely full disk fails within a second.
pub const ENOSPC_APPEND_RETRIES: u32 = 3;

/// CRC32 (IEEE 802.3, reflected) of `data` — the checksum prefixed to every
/// record line. Computed bitwise; record lines are short enough that a
/// lookup table would buy nothing.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// A failure of the log itself; each wrapper maps it onto its typed error.
#[derive(Debug)]
pub enum LogError {
    /// An I/O operation failed (for real or by injection).
    Io {
        /// What was being attempted.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The header is missing or unreadable, or a value does not serialise.
    Malformed(String),
    /// A record fails its CRC (or does not parse) with intact records after
    /// it: silent corruption, not a torn tail.
    Corrupt {
        /// 1-based line number of the first bad record (line 1 is the
        /// header).
        line: usize,
    },
    /// `ENOSPC` persisted through [`ENOSPC_APPEND_RETRIES`] retries.
    DiskFull {
        /// Retries spent before giving up.
        retries: u32,
    },
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Io { context, source } => write!(f, "{context}: {source}"),
            LogError::Malformed(message) => f.write_str(message),
            LogError::Corrupt { line } => {
                write!(f, "line {line} is corrupt but later records are intact")
            }
            LogError::DiskFull { retries } => {
                write!(f, "ENOSPC persisted after {retries} retries")
            }
        }
    }
}

impl std::error::Error for LogError {}

fn io_err(context: impl Into<String>, source: std::io::Error) -> LogError {
    LogError::Io {
        context: context.into(),
        source,
    }
}

fn to_json<T: Serialize>(value: &T, what: &str) -> Result<String, LogError> {
    serde_json::to_string(value)
        .map_err(|e| LogError::Malformed(format!("serialising {what}: {e}")))
}

/// The header line (with its newline) that [`RecordLog::create`] writes.
fn header_line<H: Serialize>(header: &H) -> Result<String, LogError> {
    let mut line = to_json(header, "header")?;
    line.push('\n');
    Ok(line)
}

/// Encodes one record line, without its newline: the CRC32 of the JSON
/// payload as eight lowercase hex digits, a space, the payload.
pub fn frame<R: Serialize>(record: &R) -> Result<String, LogError> {
    let json = to_json(record, "record")?;
    Ok(format!("{:08x} {json}", crc32(json.as_bytes())))
}

/// Verifies one framed line (without its newline) and parses its payload.
/// `None` on any framing, checksum or parse failure — [`scan`] decides
/// whether that is a torn tail or corruption. The CRC digits must be
/// lowercase, as written: an uppercase digit is a flipped bit.
fn unframe<R: Deserialize>(line: &[u8]) -> Option<R> {
    let json = line.get(9..)?;
    if line[8] != b' ' {
        return None;
    }
    let expected = line[..8].iter().try_fold(0u32, |crc, &b| {
        let digit = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            _ => return None,
        };
        Some(crc << 4 | u32::from(digit))
    })?;
    if crc32(json) != expected {
        return None;
    }
    serde_json::from_str(std::str::from_utf8(json).ok()?).ok()
}

/// The complete bytes of a log holding `header` and `records`, exactly as
/// [`RecordLog::create`] and one [`RecordLog::append`] per record write
/// them.
///
/// # Errors
///
/// [`LogError::Malformed`] when a value does not serialise.
pub(crate) fn image<'a, H: Serialize, R: Serialize + 'a>(
    header: &H,
    records: impl IntoIterator<Item = &'a R>,
) -> Result<Vec<u8>, LogError> {
    let mut bytes = header_line(header)?.into_bytes();
    for record in records {
        bytes.extend_from_slice(frame(record)?.as_bytes());
        bytes.push(b'\n');
    }
    Ok(bytes)
}

/// What one pass over a log recovered.
#[derive(Debug, Clone)]
pub(crate) struct Scan<H> {
    /// The parsed header.
    pub(crate) header: H,
    /// Length in bytes of the intact prefix: the header line and every
    /// line up to and including the last intact record.
    valid_len: usize,
    /// Bytes follow the intact prefix: the file ends in a torn tail.
    pub(crate) truncated_tail: bool,
}

/// Makes the one pass over a log image: parses the header line, hands it
/// to `check`, then hands every intact record to `on_record` in file
/// order.
///
/// # Errors
///
/// [`LogError::Malformed`] when the header line is missing or unreadable,
/// [`LogError::Corrupt`] when a bad record has intact records after it,
/// and whatever `check` returns.
fn scan<H, R, E>(
    data: &[u8],
    check: impl FnOnce(&H) -> Result<(), E>,
    mut on_record: impl FnMut(R),
) -> Result<Scan<H>, E>
where
    H: Deserialize,
    R: Deserialize,
    E: From<LogError>,
{
    let header_len = data
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| LogError::Malformed("holds no complete header line".into()))?;
    let header_text = std::str::from_utf8(&data[..header_len])
        .map_err(|_| LogError::Malformed("header is not valid UTF-8".into()))?;
    let header: H = serde_json::from_str(header_text)
        .map_err(|e| LogError::Malformed(format!("parsing header: {e}")))?;
    check(&header)?;

    let mut valid_len = header_len + 1;
    let mut end = valid_len;
    // Line of the first bad record, if any. Bad lines at the very end are a
    // torn tail; a bad line followed by an intact one is corruption.
    let mut first_bad: Option<usize> = None;
    for (idx, piece) in data[valid_len..]
        .split_inclusive(|&b| b == b'\n')
        .enumerate()
    {
        end += piece.len();
        match piece.strip_suffix(b"\n").and_then(unframe) {
            Some(record) => {
                if let Some(line) = first_bad {
                    return Err(LogError::Corrupt { line }.into());
                }
                on_record(record);
                valid_len = end;
            }
            // Line 1 is the header; record `idx` sits on line idx + 2.
            None => {
                first_bad.get_or_insert(idx + 2);
            }
        }
    }
    Ok(Scan {
        header,
        valid_len,
        truncated_tail: valid_len < data.len(),
    })
}

/// Reads the log at `path` and [`scan`]s it, without modifying the file.
///
/// # Errors
///
/// [`LogError::Io`] when the file cannot be read, else as [`scan`].
pub(crate) fn read<H, R, E>(
    path: &Path,
    check: impl FnOnce(&H) -> Result<(), E>,
    on_record: impl FnMut(R),
) -> Result<Scan<H>, E>
where
    H: Deserialize,
    R: Deserialize,
    E: From<LogError>,
{
    let data = std::fs::read(path).map_err(|e| io_err(format!("reading {}", path.display()), e))?;
    scan(&data, check, on_record)
}

/// An open log, positioned for appending.
#[derive(Debug)]
pub struct RecordLog {
    path: PathBuf,
    writer: BufWriter<File>,
}

impl RecordLog {
    /// Creates the log at `path`, overwriting any existing file, with
    /// `header` as line 1: one write and one `sync_data`.
    ///
    /// # Errors
    ///
    /// [`LogError::Io`] on I/O failure.
    pub fn create<H: Serialize>(path: &Path, header: &H) -> Result<Self, LogError> {
        Self::write_header(path, &header_line(header)?)
    }

    fn write_header(path: &Path, line: &str) -> Result<Self, LogError> {
        let file = File::create(path).map_err(|e| io_err("creating", e))?;
        let mut writer = BufWriter::new(file);
        writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.flush())
            .and_then(|()| writer.get_ref().sync_data())
            .map_err(|e| io_err("writing header", e))?;
        Ok(RecordLog {
            path: path.to_path_buf(),
            writer,
        })
    }

    /// Opens the log at `path` for appending: one read and one pass over it
    /// (`check` sees the on-disk header, then `on_record` every intact
    /// record in file order), then any torn tail is truncated away. Creates
    /// the log when `path` does not exist, and rewrites it when the file
    /// holds only a strict prefix of `header`'s line. Returns the log and
    /// whether the file held a torn tail.
    ///
    /// # Errors
    ///
    /// [`LogError::Malformed`] when the header line is missing or
    /// unreadable, [`LogError::Corrupt`] when a bad record has intact
    /// records after it, [`LogError::Io`] on I/O failure, and whatever
    /// `check` returns.
    pub fn open<H, R, E>(
        path: &Path,
        header: &H,
        check: impl FnOnce(&H) -> Result<(), E>,
        on_record: impl FnMut(R),
    ) -> Result<(Self, bool), E>
    where
        H: Serialize + Deserialize,
        R: Deserialize,
        E: From<LogError>,
    {
        let data = match std::fs::read(path) {
            Ok(data) => data,
            Err(e) if e.kind() == ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err("reading", e).into()),
        };
        if !data.contains(&b'\n') {
            let line = header_line(header)?;
            if line.as_bytes().starts_with(&data) {
                return Ok((Self::write_header(path, &line)?, !data.is_empty()));
            }
        }
        let scan = scan(&data, check, on_record)?;
        let mut file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_err("reopening", e))?;
        if scan.truncated_tail {
            file.set_len(scan.valid_len as u64)
                .map_err(|e| io_err("truncating torn tail", e))?;
        }
        file.seek(SeekFrom::End(0))
            .map_err(|e| io_err("seeking end", e))?;
        let log = RecordLog {
            path: path.to_path_buf(),
            writer: BufWriter::new(file),
        };
        Ok((log, scan.truncated_tail))
    }

    /// The file this log persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one framed record and flushes it to the OS, injecting
    /// `fault` first when the caller's chaos site drew one.
    ///
    /// # Errors
    ///
    /// [`LogError::DiskFull`] when `ENOSPC` outlasts the bounded retry,
    /// [`LogError::Io`] on any other failure.
    pub fn append<R: Serialize>(
        &mut self,
        record: &R,
        fault: Option<IoFaultKind>,
    ) -> Result<(), LogError> {
        const CONTEXT: &str = "appending record";
        let line = frame(record)?;
        match fault {
            Some(IoFaultKind::Eio) => return Err(io_err(CONTEXT, eio())),
            Some(IoFaultKind::Short) => {
                // A torn partial write: a prefix of the line reaches the
                // file with no newline, then the device fails — exactly the
                // tail shape `open` truncates away.
                let _ = self
                    .writer
                    .write_all(&line.as_bytes()[..line.len() / 2])
                    .and_then(|()| self.writer.flush());
                return Err(io_err(CONTEXT, enospc()));
            }
            _ => {}
        }
        let mut retries = 0;
        retry_enospc(&mut retries, CONTEXT, injected_enospc(fault))?;
        // Stage the full line in the buffer (memory only, unless it
        // spills), then make the flush durable under the bounded retry.
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| {
                if is_enospc(&e) {
                    LogError::DiskFull { retries }
                } else {
                    io_err(CONTEXT, e)
                }
            })?;
        retry_enospc(&mut retries, CONTEXT, || self.writer.flush())
    }

    /// Flushes buffered data and `fsync`s the file, injecting `fault` first
    /// when the caller's chaos site drew one.
    ///
    /// # Errors
    ///
    /// As [`RecordLog::append`].
    pub fn sync(&mut self, fault: Option<IoFaultKind>) -> Result<(), LogError> {
        const CONTEXT: &str = "syncing";
        // fsync has no "short" shape; both map to a hard I/O error.
        if matches!(fault, Some(IoFaultKind::Eio | IoFaultKind::Short)) {
            return Err(io_err(CONTEXT, eio()));
        }
        let mut retries = 0;
        retry_enospc(&mut retries, CONTEXT, injected_enospc(fault))?;
        self.writer.flush().map_err(|e| io_err("flushing", e))?;
        retry_enospc(&mut retries, CONTEXT, || self.writer.get_ref().sync_data())
    }
}

fn eio() -> std::io::Error {
    std::io::Error::from_raw_os_error(5)
}

fn enospc() -> std::io::Error {
    std::io::Error::from_raw_os_error(28)
}

fn is_enospc(e: &std::io::Error) -> bool {
    e.raw_os_error() == Some(28) // ENOSPC on every unix we run on
}

/// The injected half of an `enospc` / `enospc-once` fault: an operation
/// that fails with `ENOSPC` every time, or only the first time.
fn injected_enospc(fault: Option<IoFaultKind>) -> impl FnMut() -> std::io::Result<()> {
    let mut failures = match fault {
        Some(IoFaultKind::Enospc) => u32::MAX,
        Some(IoFaultKind::EnospcOnce) => 1,
        _ => 0,
    };
    move || {
        if failures == 0 {
            return Ok(());
        }
        failures -= 1;
        Err(enospc())
    }
}

/// Runs `op` until it succeeds, retrying `ENOSPC` while `retries` (shared
/// across one append or sync) stays within [`ENOSPC_APPEND_RETRIES`].
fn retry_enospc(
    retries: &mut u32,
    context: &str,
    mut op: impl FnMut() -> std::io::Result<()>,
) -> Result<(), LogError> {
    loop {
        match op() {
            Ok(()) => return Ok(()),
            Err(e) if !is_enospc(&e) => return Err(io_err(context, e)),
            Err(_) if *retries >= ENOSPC_APPEND_RETRIES => {
                return Err(LogError::DiskFull { retries: *retries })
            }
            Err(_) => {
                *retries += 1;
                std::thread::sleep(Duration::from_millis(5 * u64::from(*retries)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosInjector, ChaosPlan};

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Header {
        version: u32,
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Rec {
        k: u64,
    }

    const HEADER: Header = Header { version: 7 };

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("permea-log-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}.jsonl"));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn accept(_: &Header) -> Result<(), LogError> {
        Ok(())
    }

    /// Reopens `path`, returning the recovered keys and the torn-tail flag.
    fn reopen(path: &Path) -> (RecordLog, Vec<u64>, bool) {
        let mut keys = Vec::new();
        let (log, torn) = RecordLog::open(path, &HEADER, accept, |r: Rec| keys.push(r.k)).unwrap();
        (log, keys, torn)
    }

    #[derive(Debug, Clone, Copy)]
    enum Expect {
        Absorbed,
        Failed,
        DiskFull,
    }

    /// Every rung of the chaos ladder at every site that injects into the
    /// log. The last field marks the rungs that leave a torn tail.
    const LADDER: &[(&str, Expect, bool)] = &[
        ("journal-write=eio@0", Expect::Failed, false),
        ("journal-write=short@0", Expect::Failed, true),
        ("journal-write=enospc@0", Expect::DiskFull, false),
        ("journal-write=enospc-once@0", Expect::Absorbed, false),
        ("journal-fsync=eio@0", Expect::Failed, false),
        ("journal-fsync=short@0", Expect::Failed, false),
        ("journal-fsync=enospc@0", Expect::DiskFull, false),
        ("journal-fsync=enospc-once@0", Expect::Absorbed, false),
        ("ledger-write=eio@0", Expect::Failed, false),
        ("ledger-write=short@0", Expect::Failed, true),
        ("ledger-write=enospc@0", Expect::DiskFull, false),
        ("ledger-write=enospc-once@0", Expect::Absorbed, false),
    ];

    #[test]
    fn chaos_ladder_at_every_site() {
        let clean = image(&HEADER, &[Rec { k: 0 }, Rec { k: 1 }]).unwrap();
        for &(plan, expect, torn) in LADDER {
            let chaos = ChaosInjector::new(ChaosPlan::parse(plan).unwrap());
            let on_sync = plan.starts_with("journal-fsync");
            let draw = match plan.split('=').next() {
                Some("journal-write") => chaos.on_journal_append(),
                Some("journal-fsync") => chaos.on_journal_fsync(),
                _ => chaos.on_ledger_append(),
            };
            assert_eq!(chaos.injected(), 1, "{plan}");

            let path = tmp(&plan.replace(['=', '@'], "-"));
            let mut log = RecordLog::create(&path, &HEADER).unwrap();
            log.append(&Rec { k: 0 }, None).unwrap();
            let result = if on_sync {
                log.append(&Rec { k: 1 }, None).unwrap();
                log.sync(draw)
            } else {
                log.append(&Rec { k: 1 }, draw)
            };
            match (expect, &result) {
                (Expect::Absorbed, Ok(())) | (Expect::Failed, Err(LogError::Io { .. })) => {}
                (Expect::DiskFull, Err(LogError::DiskFull { retries }))
                    if *retries == ENOSPC_APPEND_RETRIES => {}
                _ => panic!("{plan}: expected {expect:?}, got {result:?}"),
            }
            // A failed append that wrote nothing leaves the log usable as
            // is; a failed sync loses nothing (the record was flushed).
            if result.is_err() && !on_sync && !torn {
                log.append(&Rec { k: 1 }, None).unwrap();
            }
            log.sync(None).unwrap();
            drop(log);
            let raw = std::fs::read(&path).unwrap();
            assert_eq!(raw.ends_with(b"\n"), !torn, "{plan}: tail shape");

            // Reopening truncates a tear; re-appending what it lost leaves
            // a file byte-identical to one that never saw the fault.
            let (mut log, keys, truncated) = reopen(&path);
            assert_eq!(truncated, torn, "{plan}");
            assert_eq!(keys, if torn { vec![0] } else { vec![0, 1] }, "{plan}");
            if torn {
                log.append(&Rec { k: 1 }, None).unwrap();
            }
            drop(log);
            assert_eq!(std::fs::read(&path).unwrap(), clean, "{plan}");
        }
    }

    #[test]
    fn torn_header_is_rewritten_at_every_cut() {
        let line = header_line(&HEADER).unwrap();
        for cut in 0..line.len() {
            let path = tmp(&format!("torn-header-{cut}"));
            std::fs::write(&path, &line.as_bytes()[..cut]).unwrap();
            let (mut log, keys, torn) = reopen(&path);
            assert!(keys.is_empty());
            assert_eq!(torn, cut > 0);
            log.append(&Rec { k: 3 }, None).unwrap();
            drop(log);
            assert_eq!(
                std::fs::read(&path).unwrap(),
                image(&HEADER, &[Rec { k: 3 }]).unwrap()
            );
        }
    }

    #[test]
    fn foreign_or_unparseable_header_is_never_overwritten() {
        for content in [
            &b"{\"version\":8"[..],
            b"not a log",
            b"{\"version\":7\n",
            b"{\"versio\n89abcdef {\"k\":1}\n",
        ] {
            let path = tmp("foreign");
            std::fs::write(&path, content).unwrap();
            let err = RecordLog::open(&path, &HEADER, accept, |_: Rec| {}).unwrap_err();
            assert!(matches!(err, LogError::Malformed(_)), "{err:?}");
            assert_eq!(std::fs::read(&path).unwrap(), content);
        }
    }

    #[test]
    fn header_check_runs_before_any_record() {
        let path = tmp("check");
        std::fs::write(&path, b"{\"version\":7}\ngarbage\n00000000 {}\n").unwrap();
        let err = RecordLog::open(
            &path,
            &HEADER,
            |_: &Header| Err(LogError::Malformed("rejected".into())),
            |_: Rec| {},
        )
        .unwrap_err();
        assert_eq!(err.to_string(), "rejected");
    }

    #[test]
    fn uppercase_crc_digits_do_not_verify() {
        let (k, line) = (0..)
            .map(|k| (k, frame(&Rec { k }).unwrap()))
            .find(|(_, line)| line[..8].bytes().any(|b| b.is_ascii_alphabetic()))
            .unwrap();
        assert_eq!(unframe::<Rec>(line.as_bytes()), Some(Rec { k }));
        let upper = line[..8].to_uppercase() + &line[8..];
        assert_eq!(unframe::<Rec>(upper.as_bytes()), None);
        assert_eq!(unframe::<Rec>(b"0123"), None);
        assert_eq!(unframe::<Rec>(b""), None);
    }
}
