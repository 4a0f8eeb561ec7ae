//! The persistent job store: an append-only log of terminal job records
//! under `--state-dir`, replayed on startup so a restart loses no
//! finished result.
//!
//! Format: one canonical `sdp-json` object per line in `jobs.log`, one
//! line per terminal transition (Done/Failed/Cancelled), fsync'd before
//! the write is considered durable. Appending is the only hot-path
//! operation; startup replays the log (last record per id wins),
//! rebuilds the terminal records and warms the result cache, then
//! compacts the surviving records into a fresh log via tmp-file +
//! rename.
//!
//! Crash safety: a torn final line — the expected shape after a kill
//! mid-append — or any other unparseable suffix is *truncated, not
//! fatal*: every record before the corruption replays, and the file is
//! clipped back to the last good line so subsequent appends extend a
//! well-formed log.

use crate::engine::JobState;
use sdp_json::Json;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One terminal job record, as persisted.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredRecord {
    /// The job id the client was given.
    pub id: u64,
    /// Canonical spec hash ([`crate::canon::spec_hash`]) — lets replay
    /// warm the content-addressed cache.
    pub hash: u64,
    /// Display label (preset name or `"bookshelf"`).
    pub label: String,
    /// Terminal state (Done/Failed/Cancelled — never Queued/Running).
    pub state: JobState,
    /// The deterministic result body (`Done` only), shared with the job
    /// record and the result cache.
    pub result: Option<Arc<str>>,
    /// Failure / cancellation detail.
    pub error: Option<String>,
}

/// An open append-only record log.
pub struct JobStore {
    path: PathBuf,
    file: File,
}

impl JobStore {
    /// Opens (creating if needed) `jobs.log` under `dir`, replays every
    /// intact record, and truncates any corrupt tail in place. Returns
    /// the store ready for appends plus the replayed records in log
    /// order (duplicated ids are the caller's to resolve — last wins).
    pub fn open(dir: &Path) -> io::Result<(JobStore, Vec<StoredRecord>)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("jobs.log");
        let mut records = Vec::new();
        match std::fs::read(&path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
            Ok(bytes) => {
                let mut good = 0usize;
                for line in bytes.split_inclusive(|&b| b == b'\n') {
                    let Some(rec) = parse_line(line) else { break };
                    records.push(rec);
                    good += line.len();
                }
                if good < bytes.len() {
                    let f = OpenOptions::new().write(true).open(&path)?;
                    f.set_len(good as u64)?;
                    f.sync_data()?;
                }
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok((JobStore { path, file }, records))
    }

    /// Appends one record and fsyncs: after this returns `Ok`, the
    /// record survives a kill.
    pub fn append(&mut self, rec: &StoredRecord) -> io::Result<()> {
        let mut line = record_json(rec).to_string();
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()
    }

    /// Replaces the log with exactly `records` (compaction): written to
    /// a temporary file, fsync'd, then renamed over the log so a crash
    /// at any point leaves either the old or the new log, never a
    /// half-written one.
    pub fn rewrite<'a>(
        &mut self,
        records: impl Iterator<Item = &'a StoredRecord>,
    ) -> io::Result<()> {
        let tmp = self.path.with_extension("log.tmp");
        let mut out = File::create(&tmp)?;
        for rec in records {
            let mut line = record_json(rec).to_string();
            line.push('\n');
            out.write_all(line.as_bytes())?;
        }
        out.sync_data()?;
        drop(out);
        std::fs::rename(&tmp, &self.path)?;
        self.file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        Ok(())
    }
}

fn record_json(rec: &StoredRecord) -> Json {
    let mut pairs = vec![
        ("hash".to_string(), Json::str(format!("{:016x}", rec.hash))),
        ("id".to_string(), Json::num(rec.id as f64)),
        ("label".to_string(), Json::str(rec.label.clone())),
        ("state".to_string(), Json::str(rec.state.name())),
    ];
    if let Some(r) = &rec.result {
        pairs.push(("result".to_string(), Json::str(&**r)));
    }
    if let Some(e) = &rec.error {
        pairs.push(("error".to_string(), Json::str(e.clone())));
    }
    Json::Obj(pairs.into_iter().collect())
}

/// Parses one log line into a record; `None` marks corruption (torn
/// write, bad JSON, missing field, non-terminal state) and stops replay.
fn parse_line(line: &[u8]) -> Option<StoredRecord> {
    let line = line.strip_suffix(b"\n")?; // a torn final line has no \n
    let text = std::str::from_utf8(line).ok()?;
    let v = sdp_json::parse(text).ok()?;
    let state = match v.get("state")?.as_str()? {
        "done" => JobState::Done,
        "failed" => JobState::Failed,
        "cancelled" => JobState::Cancelled,
        _ => return None,
    };
    Some(StoredRecord {
        id: v.get("id")?.as_u64()?,
        hash: u64::from_str_radix(v.get("hash")?.as_str()?, 16).ok()?,
        label: v.get("label")?.as_str()?.to_string(),
        state,
        result: v.get("result").and_then(Json::as_str).map(Arc::from),
        error: v.get("error").and_then(Json::as_str).map(str::to_string),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sdp-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn rec(id: u64, state: JobState, result: Option<&str>) -> StoredRecord {
        StoredRecord {
            id,
            hash: 0xdead_beef_0000_0000 | id,
            label: "dp_tiny".to_string(),
            state,
            result: result.map(Arc::from),
            error: None,
        }
    }

    #[test]
    fn append_then_reopen_replays_in_order() {
        let dir = tempdir("roundtrip");
        let (mut store, replayed) = JobStore::open(&dir).unwrap();
        assert!(replayed.is_empty());
        let a = rec(1, JobState::Done, Some(r#"{"hpwl": 1}"#));
        let b = rec(2, JobState::Failed, None);
        store.append(&a).unwrap();
        store.append(&b).unwrap();
        drop(store);
        let (_store, replayed) = JobStore::open(&dir).unwrap();
        assert_eq!(replayed, vec![a, b]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_tail_is_truncated_not_fatal() {
        let dir = tempdir("tail");
        let (mut store, _) = JobStore::open(&dir).unwrap();
        let a = rec(1, JobState::Done, Some("body"));
        store.append(&a).unwrap();
        drop(store);
        // Simulate a kill mid-append: a torn, newline-less JSON prefix.
        let path = dir.join("jobs.log");
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(br#"{"hash":"00ff","id":2,"la"#).unwrap();
        drop(f);
        let (mut store, replayed) = JobStore::open(&dir).unwrap();
        assert_eq!(replayed, vec![a.clone()], "intact prefix survives");
        // The file was clipped back, so a fresh append yields a clean log.
        let b = rec(3, JobState::Cancelled, None);
        store.append(&b).unwrap();
        drop(store);
        let (_store, replayed) = JobStore::open(&dir).unwrap();
        assert_eq!(replayed, vec![a, b]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_mid_file_stops_replay_at_the_last_good_record() {
        let dir = tempdir("midfile");
        let (mut store, _) = JobStore::open(&dir).unwrap();
        store.append(&rec(1, JobState::Done, Some("x"))).unwrap();
        drop(store);
        let path = dir.join("jobs.log");
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        // A complete line that is not a record, followed by one that is:
        // replay must stop at the corruption, not resync past it.
        f.write_all(b"not json at all\n").unwrap();
        f.write_all(br#"{"hash":"02","id":2,"label":"x","state":"done"}"#)
            .unwrap();
        f.write_all(b"\n").unwrap();
        drop(f);
        let (_store, replayed) = JobStore::open(&dir).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].id, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewrite_compacts_to_exactly_the_given_records() {
        let dir = tempdir("compact");
        let (mut store, _) = JobStore::open(&dir).unwrap();
        for id in 1..=5 {
            store.append(&rec(id, JobState::Done, Some("b"))).unwrap();
        }
        let keep: Vec<StoredRecord> = vec![
            rec(4, JobState::Done, Some("b")),
            rec(5, JobState::Done, Some("b")),
        ];
        store.rewrite(keep.iter()).unwrap();
        // Appends after a rewrite extend the compacted log.
        store.append(&rec(6, JobState::Failed, None)).unwrap();
        drop(store);
        let (_store, replayed) = JobStore::open(&dir).unwrap();
        let ids: Vec<u64> = replayed.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![4, 5, 6]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
