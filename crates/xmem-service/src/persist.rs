//! Crash-consistent persistence for the service caches.
//!
//! Layout inside the state directory:
//!
//! - `snapshot.xmem` — a full dump of cache state, written atomically via
//!   `snapshot.xmem.tmp` + rename. The first frame is a version header; a
//!   snapshot whose header does not parse (or carries a different format
//!   version) is ignored wholesale.
//! - `journal.xmem` — an append-only log of inserts since the last
//!   snapshot, truncated after every successful snapshot rename.
//!
//! Both files are sequences of *frames*: `[u32 payload-len LE][u64
//! FNV-1a-64 checksum LE][JSON payload]`. On boot the reader walks each
//! file front to back and stops at the first frame that is short, fails
//! its checksum, or fails to decode — recovery always lands on the last
//! valid prefix and never errors (torn-tail tolerance). A crash between
//! the snapshot rename and the journal truncate merely replays journal
//! records that the snapshot already contains; replayed values are
//! deterministic, so the double-apply is idempotent.
//!
//! Journal appends are buffered writes without fsync — a power loss can
//! shed the unsynced tail, which the torn-tail reader absorbs. Snapshots
//! are fsynced before the rename (and the directory after it), so a
//! completed snapshot survives power loss.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use serde::{Deserialize, Serialize};
use xmem_core::{AnalyzedTrace, Estimate, ParamReplay, UnboundedReplay};

use crate::key::{JobKey, SweepKey};
use crate::service::EstimationService;

/// On-disk format version; bumped on any incompatible layout change.
pub const STATE_FORMAT_VERSION: u32 = 1;

/// Snapshot file name inside the state directory.
pub const SNAPSHOT_FILE: &str = "snapshot.xmem";
/// Temp file the snapshot is staged in before the atomic rename.
pub const SNAPSHOT_TMP_FILE: &str = "snapshot.xmem.tmp";
/// Append-only journal file name inside the state directory.
pub const JOURNAL_FILE: &str = "journal.xmem";

/// Upper bound on a single frame payload; a corrupt length field larger
/// than this ends replay rather than triggering a huge allocation.
const MAX_FRAME_LEN: usize = 64 << 20;

/// FNV-1a 64-bit over `bytes` (the frame checksum).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// The snapshot header frame.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SnapshotHeader {
    format: String,
    version: u32,
}

/// A persisted device identity: [`crate::simcache::DeviceFingerprint`]
/// with the `&'static str` name made owned. Recovered sim cells are
/// re-attached by matching every field against the boot-time registry;
/// cells for devices no longer registered are skipped (counted).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct PersistedDevice {
    pub(crate) name: String,
    pub(crate) capacity: u64,
    pub(crate) framework_bytes: u64,
    pub(crate) init_bytes: u64,
}

/// One journal/snapshot record: a single cache insert.
///
/// Traces are deliberately excluded from `Stage` records — they are
/// re-derivable and dominate `approx_bytes`; a recovered stage entry
/// serves analysis-dependent paths with zero profile runs but carries
/// `trace: None`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) enum StateRecord {
    /// A stage-cache insert (analyzed trace only; raw trace excluded).
    Stage {
        job: JobKey,
        analyzed: AnalyzedTrace,
    },
    /// An insert into the unbounded-replay cache of older binaries. No
    /// service writes it any more; it stays decodable so their state
    /// dirs boot (an undecodable frame would end recovery like a torn
    /// tail), and it is dropped at import, counted as skipped.
    Replay {
        job: JobKey,
        replay: UnboundedReplay,
    },
    /// A sim-shard cell insert for one device fingerprint.
    Sim {
        device: PersistedDevice,
        job: JobKey,
        estimate: Estimate,
    },
    /// A parameterized-replay (incremental sweep) fit for one job
    /// family. Exported after every other record kind so binaries that
    /// predate the variant still recover the full Stage/Sim prefix.
    Param {
        family: SweepKey,
        replay: ParamReplay,
    },
    /// The learned adaptive-tiering state of one cache tier (`"stage"`,
    /// `"param"`, or `"sim"`; any other name is skipped at import): the
    /// mean learned protected
    /// fraction in permille and the frequency sketch's decay epoch.
    /// Integers only, so the record is bit-exact across round trips.
    /// Exported **last** — after `Param`, keeping the downgrade-tolerant
    /// prefix convention: binaries that predate the variant still
    /// recover every earlier record kind.
    Tuner {
        cache: String,
        frac_permille: u32,
        decay_epoch: u64,
    },
}

/// Counters and gauges describing persistence activity, surfaced through
/// [`EstimationService::persist_stats`] and `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Whether a state directory is configured and usable.
    pub enabled: bool,
    /// Snapshots successfully written (temp-file + rename completed).
    pub snapshot_writes: u64,
    /// Journal records appended by this process.
    pub journal_records: u64,
    /// Journal appends that failed — the record did not encode, or the
    /// write itself failed (a full or read-only disk). The lost entry
    /// stays served from memory and becomes durable only with the next
    /// successful snapshot.
    pub journal_errors: u64,
    /// Journal records appended since the last snapshot (compaction debt).
    pub pending_records: u64,
    /// Cache entries recovered (snapshot + journal replay) at boot.
    pub recovered_entries: u64,
    /// Torn or corrupt tails detected during recovery (per file; a
    /// checksum-invalid snapshot header also counts once).
    pub recovery_truncated: u64,
    /// Valid records skipped at boot: sim cells whose device fingerprint
    /// matched no registered device, `Replay` records, and tuner state
    /// of tiers this binary does not have.
    pub recovery_skipped: u64,
    /// Size of the current snapshot file in bytes.
    pub snapshot_bytes: u64,
    /// Size of the current journal file in bytes.
    pub journal_bytes: u64,
}

/// Journal writer state guarded by one mutex: the append handle plus the
/// record count since the last snapshot.
#[derive(Debug)]
struct JournalHandle {
    file: File,
    pending: u64,
}

/// The persistence engine owned by an [`EstimationService`].
#[derive(Debug)]
pub(crate) struct Persister {
    dir: PathBuf,
    journal: Mutex<JournalHandle>,
    snapshot_writes: AtomicU64,
    journal_records: AtomicU64,
    journal_errors: AtomicU64,
    recovered: AtomicU64,
    truncated: AtomicU64,
    skipped: AtomicU64,
    snapshot_bytes: AtomicU64,
    journal_bytes: AtomicU64,
}

/// Everything recovered from a state directory at boot (torn-tail counts
/// are already folded into the persister's `truncated` counter).
pub(crate) struct LoadedState {
    pub(crate) records: Vec<StateRecord>,
}

/// Frames `payload` into `out` as `[len][checksum][payload]`.
fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    let len = u32::try_from(payload.len()).expect("frame payload exceeds u32");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Walks the framed file at `path`, returning the decoded payloads of the
/// longest valid prefix and whether a torn/corrupt tail was dropped. A
/// missing file is an empty, un-torn prefix.
fn read_frames(path: &Path) -> (Vec<Vec<u8>>, bool) {
    let Ok(data) = fs::read(path) else {
        return (Vec::new(), false);
    };
    let mut frames = Vec::new();
    let mut off = 0usize;
    while off < data.len() {
        if data.len() - off < 12 {
            return (frames, true);
        }
        let len = u32::from_le_bytes(data[off..off + 4].try_into().expect("4 bytes")) as usize;
        let sum = u64::from_le_bytes(data[off + 4..off + 12].try_into().expect("8 bytes"));
        if len > MAX_FRAME_LEN || data.len() - off - 12 < len {
            return (frames, true);
        }
        let payload = &data[off + 12..off + 12 + len];
        if fnv1a64(payload) != sum {
            return (frames, true);
        }
        frames.push(payload.to_vec());
        off += 12 + len;
    }
    (frames, false)
}

/// Decodes frame payloads into records, stopping at the first payload
/// that is not valid UTF-8 JSON of a [`StateRecord`] (prefix semantics:
/// a decode failure ends replay exactly like a checksum failure).
fn decode_records(frames: Vec<Vec<u8>>, torn: &mut bool) -> Vec<StateRecord> {
    let mut records = Vec::with_capacity(frames.len());
    for payload in frames {
        let Ok(text) = std::str::from_utf8(&payload) else {
            *torn = true;
            break;
        };
        match serde_json::from_str::<StateRecord>(text) {
            Ok(rec) => records.push(rec),
            Err(_) => {
                *torn = true;
                break;
            }
        }
    }
    records
}

impl Persister {
    /// Opens (creating if needed) the state directory, recovers the valid
    /// record prefix from snapshot + journal, and readies the journal for
    /// appends. Only I/O failures on the directory or journal handle are
    /// errors — torn or corrupt state files never are.
    pub(crate) fn open(dir: &Path) -> std::io::Result<(Self, LoadedState)> {
        fs::create_dir_all(dir)?;
        let mut truncated = 0u64;
        let mut records = Vec::new();

        let (snap_frames, snap_torn) = read_frames(&dir.join(SNAPSHOT_FILE));
        if snap_torn {
            truncated += 1;
        }
        if !snap_frames.is_empty() {
            let mut frames = snap_frames.into_iter();
            let header = frames.next().expect("non-empty");
            let header_ok = std::str::from_utf8(&header)
                .ok()
                .and_then(|t| serde_json::from_str::<SnapshotHeader>(t).ok())
                .is_some_and(|h| h.format == "xmem-state" && h.version == STATE_FORMAT_VERSION);
            if header_ok {
                let mut torn = false;
                records = decode_records(frames.collect(), &mut torn);
                if torn {
                    truncated += 1;
                }
            } else {
                // Unknown header: the whole snapshot is unusable, but the
                // journal may still replay.
                truncated += 1;
            }
        }

        let (journal_frames, journal_torn) = read_frames(&dir.join(JOURNAL_FILE));
        if journal_torn {
            truncated += 1;
        }
        let mut torn = false;
        records.extend(decode_records(journal_frames, &mut torn));
        if torn {
            truncated += 1;
        }

        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(JOURNAL_FILE))?;
        let journal_bytes = file.metadata().map(|m| m.len()).unwrap_or(0);
        let snapshot_bytes = fs::metadata(dir.join(SNAPSHOT_FILE))
            .map(|m| m.len())
            .unwrap_or(0);

        let persister = Persister {
            dir: dir.to_path_buf(),
            journal: Mutex::new(JournalHandle { file, pending: 0 }),
            snapshot_writes: AtomicU64::new(0),
            journal_records: AtomicU64::new(0),
            journal_errors: AtomicU64::new(0),
            recovered: AtomicU64::new(0),
            truncated: AtomicU64::new(truncated),
            skipped: AtomicU64::new(0),
            snapshot_bytes: AtomicU64::new(snapshot_bytes),
            journal_bytes: AtomicU64::new(journal_bytes),
        };
        Ok((persister, LoadedState { records }))
    }

    /// Appends one record to the journal. Persistence is best-effort
    /// between snapshots, so a failure never reaches the caller: it is
    /// counted in [`PersistStats::journal_errors`] and the first one is
    /// logged (the torn-tail reader absorbs a partial frame).
    pub(crate) fn append(&self, record: &StateRecord) {
        let json = match serde_json::to_string(record) {
            Ok(json) => json,
            Err(e) => return self.journal_error(&e),
        };
        let mut frame = Vec::with_capacity(12 + json.len());
        push_frame(&mut frame, json.as_bytes());
        let mut guard = self
            .journal
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match guard.file.write_all(&frame) {
            Ok(()) => {
                guard.pending += 1;
                self.journal_records.fetch_add(1, Ordering::Relaxed);
                self.journal_bytes
                    .fetch_add(frame.len() as u64, Ordering::Relaxed);
            }
            Err(e) => {
                drop(guard);
                self.journal_error(&e);
            }
        }
    }

    /// Counts one failed append, logging only the first: a full disk
    /// fails every append, and the counter carries the rest.
    fn journal_error(&self, error: &dyn std::fmt::Display) {
        if self.journal_errors.fetch_add(1, Ordering::Relaxed) == 0 {
            eprintln!(
                "xmem-service: warn: journal append in {} failed ({error}); entries are not durable until the next snapshot, further failures are counted in xmem_persist_journal_errors_total",
                self.dir.display()
            );
        }
    }

    /// Writes a full snapshot of `records` atomically (temp file, fsync,
    /// rename, directory fsync), then truncates the journal. The journal
    /// lock is held across the whole sequence so no append can land
    /// between the rename and the truncate.
    pub(crate) fn snapshot(&self, records: &[StateRecord]) -> std::io::Result<()> {
        let mut buf = Vec::new();
        let header = SnapshotHeader {
            format: "xmem-state".to_owned(),
            version: STATE_FORMAT_VERSION,
        };
        let header_json = serde_json::to_string(&header)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        push_frame(&mut buf, header_json.as_bytes());
        for record in records {
            let json = serde_json::to_string(record)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
            push_frame(&mut buf, json.as_bytes());
        }

        let tmp_path = self.dir.join(SNAPSHOT_TMP_FILE);
        let final_path = self.dir.join(SNAPSHOT_FILE);

        let mut guard = self
            .journal
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        {
            let mut tmp = File::create(&tmp_path)?;
            tmp.write_all(&buf)?;
            tmp.sync_all()?;
        }
        fs::rename(&tmp_path, &final_path)?;
        // Durability of the rename itself: fsync the directory (best
        // effort — not all platforms allow opening a directory).
        if let Ok(dirf) = File::open(&self.dir) {
            let _ = dirf.sync_all();
        }
        guard.file.set_len(0)?;
        let _ = guard.file.sync_all();
        guard.pending = 0;
        drop(guard);

        self.snapshot_writes.fetch_add(1, Ordering::Relaxed);
        self.snapshot_bytes
            .store(buf.len() as u64, Ordering::Relaxed);
        self.journal_bytes.store(0, Ordering::Relaxed);
        Ok(())
    }

    /// Records `n` entries recovered at boot.
    pub(crate) fn add_recovered(&self, n: u64) {
        self.recovered.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` boot records skipped (unmatched device fingerprint).
    pub(crate) fn add_skipped(&self, n: u64) {
        self.skipped.fetch_add(n, Ordering::Relaxed);
    }

    /// Journal records appended since the last snapshot.
    pub(crate) fn pending(&self) -> u64 {
        self.journal
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pending
    }

    /// Point-in-time persistence counters/gauges.
    pub(crate) fn stats(&self) -> PersistStats {
        PersistStats {
            enabled: true,
            snapshot_writes: self.snapshot_writes.load(Ordering::Relaxed),
            journal_records: self.journal_records.load(Ordering::Relaxed),
            journal_errors: self.journal_errors.load(Ordering::Relaxed),
            pending_records: self.pending(),
            recovered_entries: self.recovered.load(Ordering::Relaxed),
            recovery_truncated: self.truncated.load(Ordering::Relaxed),
            recovery_skipped: self.skipped.load(Ordering::Relaxed),
            snapshot_bytes: self.snapshot_bytes.load(Ordering::Relaxed),
            journal_bytes: self.journal_bytes.load(Ordering::Relaxed),
        }
    }
}

/// A background thread that periodically compacts the journal into a
/// fresh snapshot via [`EstimationService::snapshot_now`].
///
/// The thread wakes on `interval` (or on stop) and snapshots only when
/// journal records are pending, so an idle service performs no I/O.
/// Dropping the handle signals the thread and joins it; the final
/// drain-time snapshot is the owner's responsibility (the CLI writes one
/// after the server drains).
pub struct Snapshotter {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<JoinHandle<()>>,
}

impl Snapshotter {
    /// Spawns the snapshotter over `service`, compacting every `interval`.
    #[must_use]
    pub fn spawn(service: Arc<EstimationService>, interval: Duration) -> Self {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("xmem-snapshotter".to_owned())
            .spawn(move || {
                let (lock, cvar) = &*thread_stop;
                let mut stopped = lock
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                while !*stopped {
                    let (guard, _timeout) = cvar
                        .wait_timeout(stopped, interval)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    stopped = guard;
                    if *stopped {
                        break;
                    }
                    if service.persist_stats().pending_records > 0 {
                        if let Err(e) = service.snapshot_now() {
                            eprintln!("xmem-snapshotter: snapshot failed: {e}");
                        }
                    }
                }
            })
            .expect("spawn snapshotter thread");
        Snapshotter {
            stop,
            handle: Some(handle),
        }
    }

    /// Signals the thread and joins it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let (lock, cvar) = &*self.stop;
        *lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = true;
        cvar.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Snapshotter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Reference values for the 64-bit FNV-1a parameters.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        push_frame(&mut buf, b"hello");
        push_frame(&mut buf, b"");
        push_frame(&mut buf, b"world");
        let dir = std::env::temp_dir().join(format!("xmem-frame-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("frames.bin");
        fs::write(&path, &buf).unwrap();
        let (frames, torn) = read_frames(&path);
        assert!(!torn);
        assert_eq!(
            frames,
            vec![b"hello".to_vec(), Vec::new(), b"world".to_vec()]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_yields_valid_prefix() {
        let mut buf = Vec::new();
        push_frame(&mut buf, b"one");
        push_frame(&mut buf, b"two");
        let full = buf.len();
        push_frame(&mut buf, b"three");
        let dir = std::env::temp_dir().join(format!("xmem-torn-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("frames.bin");
        // Every truncation point inside the last frame leaves the first
        // two frames intact.
        for cut in full..buf.len() {
            fs::write(&path, &buf[..cut]).unwrap();
            let (frames, torn) = read_frames(&path);
            assert_eq!(torn, cut != full);
            assert_eq!(frames.len(), 2);
            assert_eq!(frames[0], b"one");
            assert_eq!(frames[1], b"two");
        }
        // A flipped payload byte fails the checksum and ends the prefix.
        let mut corrupt = buf.clone();
        corrupt[full + 12] ^= 0xff;
        fs::write(&path, &corrupt).unwrap();
        let (frames, torn) = read_frames(&path);
        assert!(torn);
        assert_eq!(frames.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_empty_not_torn() {
        let (frames, torn) = read_frames(Path::new("/nonexistent/xmem-no-such-file"));
        assert!(frames.is_empty());
        assert!(!torn);
    }

    /// The golden fixture's job and its analysis.
    fn fixture_analysis() -> (JobKey, AnalyzedTrace) {
        const FIXTURE: &str =
            include_str!("../../xmem-core/tests/fixtures/mobilenet_v3_small_adam_b2.trace.json");
        let trace = xmem_trace::Trace::from_json_str(FIXTURE).expect("fixture parses");
        let analyzed = xmem_core::Analyzer::new()
            .analyze(&trace)
            .expect("fixture analyzes");
        let spec = xmem_runtime::TrainJobSpec::new(
            xmem_models::ModelId::MobileNetV3Small,
            xmem_optim::OptimizerKind::Adam,
            2,
        )
        .with_iterations(2);
        (JobKey::of(&spec), analyzed)
    }

    /// Checks that `record` encodes to the pinned digest and that a
    /// decoded copy re-encodes to the same bytes.
    fn assert_record_bytes(record: &StateRecord, expected: u64, kind: &str) {
        let json = serde_json::to_string(record).expect("record encodes");
        assert_eq!(
            fnv1a64(json.as_bytes()),
            expected,
            "{kind} record bytes moved: 0x{:016x} over {} bytes",
            fnv1a64(json.as_bytes()),
            json.len()
        );
        let back: StateRecord = serde_json::from_str(&json).expect("record decodes");
        assert_eq!(
            serde_json::to_string(&back).expect("re-encodes"),
            json,
            "a decoded {kind} record re-encodes to the same bytes"
        );
    }

    /// The journal and snapshot bytes of a stage record are a persisted
    /// format: a state directory written by one build must recover in the
    /// next. This pins the exact payload the golden fixture's analysis
    /// encodes to, so a change to how analyses hold their names in memory
    /// cannot move what goes to disk.
    #[test]
    fn stage_record_bytes_are_pinned() {
        let (job, analyzed) = fixture_analysis();
        let record = StateRecord::Stage { job, analyzed };
        assert_record_bytes(&record, 0x7630_d5af_2eab_5f60, "stage");
    }

    /// The sim-cell sibling of `stage_record_bytes_are_pinned`: a change
    /// to how an estimate holds its diagnostics in memory cannot move
    /// what goes to disk.
    #[test]
    fn sim_record_bytes_are_pinned() {
        let (job, analyzed) = fixture_analysis();
        let gpu = xmem_runtime::GpuDevice::rtx3060();
        let estimate = xmem_core::Estimator::new(xmem_core::EstimatorConfig::for_device(gpu))
            .estimate_analyzed(&analyzed);
        let record = StateRecord::Sim {
            device: PersistedDevice {
                name: "rtx3060".to_owned(),
                capacity: gpu.capacity,
                framework_bytes: gpu.framework_bytes,
                init_bytes: gpu.init_bytes,
            },
            job,
            estimate,
        };
        assert_record_bytes(&record, 0x4b90_5e95_2733_7e65, "sim");
    }

    #[test]
    fn failed_journal_writes_are_counted_not_swallowed() {
        let dir = std::env::temp_dir().join(format!("xmem-full-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let (persister, _) = Persister::open(&dir).unwrap();
        let record = StateRecord::Tuner {
            cache: "stage".to_owned(),
            frac_permille: 500,
            decay_epoch: 0,
        };
        persister.append(&record);
        // Every write to /dev/full fails with ENOSPC: a full disk.
        persister.journal.lock().unwrap().file =
            OpenOptions::new().write(true).open("/dev/full").unwrap();
        persister.append(&record);
        persister.append(&record);
        let stats = persister.stats();
        assert_eq!(stats.journal_errors, 2);
        assert_eq!(stats.journal_records, 1);
        assert_eq!(stats.pending_records, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
