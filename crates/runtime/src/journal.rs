//! The trial journal: an append-only JSON Lines checkpoint file.
//!
//! Line 1 is a [`JournalHeader`] identifying the campaign (including its
//! [`fingerprint`](crate::Campaign::fingerprint)); every subsequent line
//! is one [`TrialRecord`]. Records are appended and flushed as trials
//! finish, in *completion* order — which under parallel execution is not
//! index order. Consumers that want a canonical form sort by trial
//! index; the content itself is deterministic (no timestamps).
//!
//! A process killed mid-write leaves at most one truncated final line;
//! [`read_journal`] tolerates exactly that (a malformed line anywhere
//! else is a hard error).

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

use serde::{Deserialize, Serialize, Value};

use crate::executor::RuntimeError;
use crate::jsonl::{read_jsonl_records, JsonlAppender};

/// The `kind` tag expected in a journal header.
pub const JOURNAL_KIND: &str = "xbar-campaign-journal";

/// Current journal format version.
///
/// Version 2 records written by earlier builds also carry `attempts` and
/// `failure_class` fields; readers ignore them, so those journals still
/// resume.
pub const JOURNAL_FORMAT_VERSION: u32 = 2;

/// First line of a journal: identifies the campaign the records belong to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalHeader {
    /// Always [`JOURNAL_KIND`].
    pub kind: String,
    /// Always [`JOURNAL_FORMAT_VERSION`].
    pub format_version: u32,
    /// Campaign name.
    pub name: String,
    /// Campaign seed.
    pub campaign_seed: u64,
    /// [`crate::Campaign::fingerprint`] of the grid this journal tracks.
    pub fingerprint: u64,
    /// Total number of trials in the grid.
    pub total_trials: usize,
}

/// Completion status of a journaled trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrialStatus {
    /// The trial produced an output.
    Ok,
    /// The trial returned an error or panicked.
    Failed,
}

/// One journal line: the outcome of a single trial.
///
/// Deliberately contains no wall-clock data — the journal must be
/// byte-identical across runs and thread counts (after sorting by
/// `trial`); timing goes to the [`crate::progress::ProgressSink`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialRecord {
    /// Trial index within the campaign grid.
    pub trial: usize,
    /// Outcome.
    pub status: TrialStatus,
    /// Serialised trial output (present iff `status == Ok`).
    pub output: Option<Value>,
    /// Failure message (present iff `status == Failed`).
    pub error: Option<String>,
}

/// Append-only journal writer: a [`JsonlAppender`] whose first line is
/// the campaign header. Each record is flushed to the OS as soon as it
/// is written, so a killed process loses at most the line being written
/// at that instant.
pub struct JournalWriter {
    out: JsonlAppender,
}

impl JournalWriter {
    /// Creates a fresh journal at `path` (truncating any existing file)
    /// and writes the header line.
    pub fn create(path: &Path, header: &JournalHeader) -> Result<Self, RuntimeError> {
        let mut out = JsonlAppender::create(path)?;
        out.write(header)?;
        Ok(JournalWriter { out })
    }

    /// Opens an existing journal at `path` for appending, repairing a
    /// torn tail first (see [`JsonlAppender::append`]): a complete
    /// record that merely lost its newline gets the newline back,
    /// anything else after the last newline is dropped.
    pub fn append(path: &Path) -> Result<Self, RuntimeError> {
        let out = JsonlAppender::append(path, |tail| {
            serde_json::from_str::<TrialRecord>(tail).is_ok()
        })?;
        Ok(JournalWriter { out })
    }

    /// Appends one trial record and flushes it.
    pub fn record(&mut self, record: &TrialRecord) -> Result<(), RuntimeError> {
        self.out.write(record)
    }
}

/// Reads a journal back: the header plus every well-formed trial record.
///
/// A malformed or truncated *final* line (the signature of a killed
/// writer) is dropped silently — including a line that isn't valid
/// UTF-8, which a torn multi-byte write can produce; a malformed line
/// anywhere else is corruption and fails with [`RuntimeError::Journal`].
pub fn read_journal(path: &Path) -> Result<(JournalHeader, Vec<TrialRecord>), RuntimeError> {
    let file = File::open(path)?;
    let mut reader = BufReader::new(file);
    // Lines are read as raw bytes (not via `BufRead::lines`) so that a
    // torn, non-UTF-8 final line is tolerated instead of erroring.
    let mut buf: Vec<u8> = Vec::new();

    reader.read_until(b'\n', &mut buf)?;
    if buf.is_empty() {
        return Err(RuntimeError::Journal(format!(
            "journal {} is empty (no header)",
            path.display()
        )));
    }
    let header_line = std::str::from_utf8(&buf).map_err(|e| {
        RuntimeError::Journal(format!("journal {}: bad header: {e}", path.display()))
    })?;
    let header: JournalHeader = serde_json::from_str(header_line.trim()).map_err(|e| {
        RuntimeError::Journal(format!("journal {}: bad header: {e}", path.display()))
    })?;
    if header.kind != JOURNAL_KIND {
        return Err(RuntimeError::Journal(format!(
            "journal {}: kind is {:?}, expected {JOURNAL_KIND:?}",
            path.display(),
            header.kind
        )));
    }
    if header.format_version != JOURNAL_FORMAT_VERSION {
        return Err(RuntimeError::Journal(format!(
            "journal {}: format version {} unsupported (expected {JOURNAL_FORMAT_VERSION})",
            path.display(),
            header.format_version
        )));
    }

    let records = read_jsonl_records::<TrialRecord>(&mut reader, path, 2)?;
    Ok((header, records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::test_path;
    use std::fs::OpenOptions;
    use std::io::Write;

    fn header() -> JournalHeader {
        JournalHeader {
            kind: JOURNAL_KIND.to_string(),
            format_version: JOURNAL_FORMAT_VERSION,
            name: "t".into(),
            campaign_seed: 5,
            fingerprint: 99,
            total_trials: 3,
        }
    }

    fn ok_record(trial: usize) -> TrialRecord {
        TrialRecord {
            trial,
            status: TrialStatus::Ok,
            output: Some(Value::U64(trial as u64 * 10)),
            error: None,
        }
    }

    #[test]
    fn roundtrip_header_and_records() {
        let path = test_path("journal_roundtrip");
        let mut writer = JournalWriter::create(&path, &header()).unwrap();
        writer.record(&ok_record(0)).unwrap();
        writer
            .record(&TrialRecord {
                trial: 1,
                status: TrialStatus::Failed,
                output: None,
                error: Some("boom".into()),
            })
            .unwrap();
        drop(writer);

        let (read_header, records) = read_journal(&path).unwrap();
        assert_eq!(read_header, header());
        assert_eq!(records.len(), 2);
        assert_eq!(records[0], ok_record(0));
        assert_eq!(records[1].status, TrialStatus::Failed);
        assert_eq!(records[1].error.as_deref(), Some("boom"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_tail_is_tolerated() {
        let path = test_path("journal_truncated");
        let mut writer = JournalWriter::create(&path, &header()).unwrap();
        writer.record(&ok_record(0)).unwrap();
        drop(writer);
        // Simulate a kill mid-write: a half line with no newline.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"{\"trial\":1,\"sta").unwrap();
        drop(file);

        let (_, records) = read_journal(&path).unwrap();
        assert_eq!(records, vec![ok_record(0)]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn interior_corruption_is_an_error() {
        let path = test_path("journal_corrupt");
        let mut writer = JournalWriter::create(&path, &header()).unwrap();
        writer.record(&ok_record(0)).unwrap();
        drop(writer);
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"not json\n").unwrap();
        drop(file);
        let mut writer = JournalWriter::append(&path).unwrap();
        writer.record(&ok_record(2)).unwrap();
        drop(writer);

        let err = read_journal(&path).unwrap_err();
        assert!(err.to_string().contains("corrupt record"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_repairs_a_torn_tail_instead_of_merging_records() {
        let path = test_path("journal_torn_append");
        let mut writer = JournalWriter::create(&path, &header()).unwrap();
        writer.record(&ok_record(0)).unwrap();
        drop(writer);
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"{\"trial\":1,\"sta").unwrap();
        drop(file);

        // Appending after the torn fragment must not glue the new record
        // onto it: the fragment is dropped and the record starts clean.
        let mut writer = JournalWriter::append(&path).unwrap();
        writer.record(&ok_record(2)).unwrap();
        drop(writer);

        let (_, records) = read_journal(&path).unwrap();
        assert_eq!(records, vec![ok_record(0), ok_record(2)]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_completes_a_record_that_lost_only_its_newline() {
        let path = test_path("journal_no_newline_append");
        let mut writer = JournalWriter::create(&path, &header()).unwrap();
        writer.record(&ok_record(0)).unwrap();
        drop(writer);
        // The full record bytes made it to disk, the trailing '\n' didn't.
        let record_1 = serde_json::to_string(&ok_record(1)).unwrap();
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(record_1.as_bytes()).unwrap();
        drop(file);

        let mut writer = JournalWriter::append(&path).unwrap();
        writer.record(&ok_record(2)).unwrap();
        drop(writer);

        // All three records survive, including the newline-less one.
        let (_, records) = read_journal(&path).unwrap();
        assert_eq!(records, vec![ok_record(0), ok_record(1), ok_record(2)]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_utf8_final_line_is_tolerated_and_repaired() {
        let path = test_path("journal_non_utf8");
        let mut writer = JournalWriter::create(&path, &header()).unwrap();
        writer.record(&ok_record(0)).unwrap();
        drop(writer);
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&[0xff, 0xfe, b'g', b'a', b'r', b'b'])
            .unwrap();
        drop(file);

        // Read: invalid UTF-8 in the final line is a torn tail, not an error.
        let (_, records) = read_journal(&path).unwrap();
        assert_eq!(records, vec![ok_record(0)]);

        // Append: the garbage is dropped, not merged into.
        let mut writer = JournalWriter::append(&path).unwrap();
        writer.record(&ok_record(1)).unwrap();
        drop(writer);
        let (_, records) = read_journal(&path).unwrap();
        assert_eq!(records, vec![ok_record(0), ok_record(1)]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_kind_rejected() {
        let path = test_path("journal_kind");
        let mut bad = header();
        bad.kind = "something-else".into();
        drop(JournalWriter::create(&path, &bad).unwrap());
        assert!(read_journal(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
