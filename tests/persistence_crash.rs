//! Crash/power-loss simulation matrix for the persistence layer.
//!
//! Each test populates a state directory through a live service, then
//! simulates a kill at one of the persistence write sites — mid-journal
//! append (the journal tail is truncated at every byte offset of its
//! last records), mid-snapshot (a partial temp file next to the previous
//! snapshot), between the temp-file write and the rename (a complete but
//! un-renamed temp file), and between the rename and the journal
//! truncate (a stale journal duplicating snapshot contents) — and
//! asserts that recovery lands on a checksum-valid consistent prefix:
//! boot never errors, recovered entries serve bit-identical estimates,
//! and the warm boot performs **zero** profile runs for recovered jobs.

use std::fs;
use std::path::{Path, PathBuf};
use xmem::prelude::*;
use xmem::service::{ServiceConfig, JOURNAL_FILE, SNAPSHOT_FILE, SNAPSHOT_TMP_FILE};

/// A unique, self-cleaning state directory per test.
struct StateDir(PathBuf);

impl StateDir {
    fn new(label: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("xmem-crash-{label}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        StateDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn config(dir: &Path) -> ServiceConfig {
    ServiceConfig::for_device(GpuDevice::rtx3060()).with_state_dir(dir)
}

fn spec(batch: usize) -> TrainJobSpec {
    TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, batch).with_iterations(2)
}

/// Populates a fresh service on `dir` and returns the expected
/// estimates. Uses both the primary-device path (`estimate_traced` with
/// no device) and a named-device path (`estimate_traced` with a device
/// name) so stage records and the sim cells
/// of two devices hit the journal.
fn populate(dir: &Path, batches: &[usize]) -> Vec<Estimate> {
    let untraced = TraceContext::disabled();
    let service = EstimationService::new(config(dir));
    assert!(service.persist_stats().enabled, "persistence must engage");
    batches
        .iter()
        .map(|&b| {
            let job = spec(b);
            let on_device = service
                .estimate_traced(&job, Some("rtx4060"), &untraced)
                .expect("estimates");
            let primary = service
                .estimate_traced(&job, None, &untraced)
                .expect("estimates");
            assert!(on_device.peak_bytes > 0);
            primary
        })
        .collect()
}

/// Warm-boots from `dir` and asserts the recovered state serves
/// `expected` bit-identically with zero profile runs.
fn assert_warm_boot(dir: &Path, batches: &[usize], expected: &[Estimate]) {
    let untraced = TraceContext::disabled();
    let service = EstimationService::new(config(dir));
    let stats = service.persist_stats();
    assert!(stats.recovered_entries > 0, "nothing recovered: {stats:?}");
    for (&b, want) in batches.iter().zip(expected) {
        let got = service
            .estimate_traced(&spec(b), None, &untraced)
            .expect("warm estimate");
        assert_eq!(&got, want, "batch {b} diverged after warm boot");
    }
    assert_eq!(
        service.profile_runs(),
        0,
        "warm boot must not re-profile recovered jobs"
    );
}

/// The baseline contract: populate, restart, serve bit-identically with
/// zero profile runs — first via the boot snapshot (compaction ran), and
/// again after a second restart (snapshot-only recovery).
#[test]
fn warm_boot_serves_bit_identical_estimates_with_zero_profile_runs() {
    let dir = StateDir::new("warm");
    let batches = [4usize, 8, 16];
    let expected = populate(dir.path(), &batches);
    assert_warm_boot(dir.path(), &batches, &expected);
    // Once more: the second boot recovered from the first boot's
    // compaction snapshot; its own compaction must round-trip too.
    assert_warm_boot(dir.path(), &batches, &expected);
}

/// Journal-only recovery: kill before any snapshot ever completes (the
/// snapshot file is removed, as if the process died before the first
/// compaction). The journal alone must warm the boot.
#[test]
fn journal_alone_recovers_when_no_snapshot_was_ever_written() {
    let dir = StateDir::new("journal-only");
    let batches = [4usize, 8];
    let expected = populate(dir.path(), &batches);
    fs::remove_file(dir.path().join(SNAPSHOT_FILE)).expect("drop the snapshot");
    assert_warm_boot(dir.path(), &batches, &expected);
}

/// Kill mid-journal-append: the journal is truncated at a matrix of
/// offsets covering every structural position inside every frame —
/// inside the length field, inside the checksum, at the payload's first
/// and last byte, mid-payload, and exactly on each frame boundary.
/// Recovery must never error, must land on the longest checksum-valid
/// prefix (flagging torn cuts, not clean ones), and jobs whose records
/// survived in full serve bit-identically.
#[test]
fn every_journal_truncation_point_recovers_to_a_valid_prefix() {
    let untraced = TraceContext::disabled();
    let dir = StateDir::new("torn-journal");
    let batches = [4usize];
    let expected = populate(dir.path(), &batches);
    let journal = fs::read(dir.path().join(JOURNAL_FILE)).expect("journal exists");
    assert!(!journal.is_empty(), "populate must have journaled inserts");

    // Frame boundaries, from the length fields.
    let mut boundaries = vec![0usize];
    let mut off = 0usize;
    while off + 12 <= journal.len() {
        let len = u32::from_le_bytes(journal[off..off + 4].try_into().expect("4 bytes")) as usize;
        off += 12 + len;
        boundaries.push(off);
    }
    assert!(boundaries.len() > 2, "expected several journal frames");
    assert_eq!(*boundaries.last().expect("nonempty"), journal.len());

    // Kill points per frame: torn length, torn checksum, payload start,
    // mid-payload, one byte short, and the clean boundary itself.
    let mut cuts = Vec::new();
    for pair in boundaries.windows(2) {
        let (start, end) = (pair[0], pair[1]);
        cuts.extend([
            start + 2,
            start + 8,
            start + 13,
            (start + end) / 2,
            end - 1,
            end,
        ]);
    }
    cuts.sort_unstable();
    cuts.dedup();

    for cut in cuts {
        let scratch = StateDir::new(&format!("torn-journal-cut{cut}"));
        fs::create_dir_all(scratch.path()).expect("scratch dir");
        fs::write(scratch.path().join(JOURNAL_FILE), &journal[..cut]).expect("torn journal");

        let service = EstimationService::new(config(scratch.path()));
        let stats = service.persist_stats();
        let clean_boundary = boundaries.contains(&cut);
        assert_eq!(
            stats.recovery_truncated > 0,
            !clean_boundary,
            "cut {cut}: torn-tail detection disagrees with the cut class: {stats:?}"
        );
        for (&b, want) in batches.iter().zip(&expected) {
            let before = service.profile_runs();
            let got = service
                .estimate_traced(&spec(b), None, &untraced)
                .expect("estimate after torn boot");
            if service.profile_runs() == before {
                // Served from recovered state: must be bit-identical.
                assert_eq!(&got, want, "cut {cut}: recovered entry diverged");
            }
        }
        // The boot compaction must have produced a checksum-valid
        // snapshot from the recovered prefix: a second boot re-reads it
        // without tripping the truncation counter.
        let reboot = EstimationService::new(config(scratch.path()));
        assert_eq!(
            reboot.persist_stats().recovery_truncated,
            0,
            "cut {cut}: compacted snapshot must be checksum-valid"
        );
    }
}

/// A flipped byte mid-journal fails that record's checksum and ends
/// replay at the previous record — a consistent prefix, not an error.
#[test]
fn corrupt_journal_record_ends_replay_at_the_valid_prefix() {
    let untraced = TraceContext::disabled();
    let dir = StateDir::new("bitflip");
    let batches = [4usize, 8];
    let _expected = populate(dir.path(), &batches);
    fs::remove_file(dir.path().join(SNAPSHOT_FILE)).expect("drop the snapshot");
    let mut journal = fs::read(dir.path().join(JOURNAL_FILE)).expect("journal");
    let mid = journal.len() / 2;
    journal[mid] ^= 0xff;
    fs::write(dir.path().join(JOURNAL_FILE), &journal).expect("corrupt journal");

    let service = EstimationService::new(config(dir.path()));
    let stats = service.persist_stats();
    assert!(
        stats.recovery_truncated > 0,
        "the corrupt record must be detected: {stats:?}"
    );
    // The service still boots and still serves (re-profiling what the
    // corruption cost it).
    let estimate = service
        .estimate_traced(&spec(4), None, &untraced)
        .expect("post-corruption estimate");
    assert!(estimate.peak_bytes > 0);
}

/// Kill mid-snapshot: a partial temp file sits next to the previous
/// (complete) snapshot. The temp file must be ignored, the old snapshot
/// and journal must recover, and the next snapshot must overwrite the
/// leftover temp file.
#[test]
fn partial_snapshot_temp_file_is_ignored() {
    let dir = StateDir::new("mid-snapshot");
    let batches = [4usize];
    let expected = populate(dir.path(), &batches);
    // Simulate dying halfway through writing the temp file.
    let snapshot = fs::read(dir.path().join(SNAPSHOT_FILE)).expect("snapshot");
    fs::write(
        dir.path().join(SNAPSHOT_TMP_FILE),
        &snapshot[..snapshot.len() / 2],
    )
    .expect("partial temp");
    assert_warm_boot(dir.path(), &batches, &expected);
    // The boot compaction rewrote the snapshot through the same temp
    // path; the leftover partial file is gone.
    assert!(
        !dir.path().join(SNAPSHOT_TMP_FILE).exists(),
        "compaction must clear the stale temp file"
    );
}

/// Kill between the temp-file write and the rename: a *complete* temp
/// file next to the previous snapshot. Same contract — the un-renamed
/// file is simply not state.
#[test]
fn complete_but_unrenamed_snapshot_temp_file_is_ignored() {
    let dir = StateDir::new("pre-rename");
    let batches = [4usize];
    let expected = populate(dir.path(), &batches);
    let snapshot = fs::read(dir.path().join(SNAPSHOT_FILE)).expect("snapshot");
    fs::write(dir.path().join(SNAPSHOT_TMP_FILE), &snapshot).expect("complete temp");
    assert_warm_boot(dir.path(), &batches, &expected);
}

/// Kill between the snapshot rename and the journal truncate: the
/// journal still holds records the snapshot already contains. Replay is
/// idempotent (values are deterministic), so the double-apply changes
/// nothing.
#[test]
fn stale_journal_after_snapshot_rename_replays_idempotently() {
    let dir = StateDir::new("rename-vs-truncate");
    let batches = [4usize, 8];
    let expected = populate(dir.path(), &batches);
    // An intermediate boot compacts: the snapshot now carries the state
    // and the journal is empty.
    drop(EstimationService::new(config(dir.path())));
    // Reconstruct the pre-truncate state: append the snapshot's record
    // frames (sans header) onto the journal, duplicating every entry.
    let snapshot = fs::read(dir.path().join(SNAPSHOT_FILE)).expect("snapshot");
    // Skip the header frame: [4-byte len][8-byte sum][payload].
    let header_len = u32::from_le_bytes(snapshot[..4].try_into().expect("4 bytes")) as usize + 12;
    assert!(
        snapshot.len() > header_len,
        "compacted snapshot must carry data frames"
    );
    let mut journal = fs::read(dir.path().join(JOURNAL_FILE)).expect("journal");
    journal.extend_from_slice(&snapshot[header_len..]);
    fs::write(dir.path().join(JOURNAL_FILE), &journal).expect("stale journal");
    assert_warm_boot(dir.path(), &batches, &expected);
}

/// A corrupt snapshot *header* discards the snapshot wholesale but the
/// journal still replays — recovery degrades, never errors.
#[test]
fn corrupt_snapshot_header_falls_back_to_the_journal() {
    let untraced = TraceContext::disabled();
    let dir = StateDir::new("bad-header");
    let batches = [4usize];
    let expected = populate(dir.path(), &batches);
    // After `populate` the journal holds every insert (the boot
    // compaction preceded them); damaging the snapshot's header frame
    // must discard the snapshot but leave the journal replayable.
    let mut corrupted = fs::read(dir.path().join(SNAPSHOT_FILE)).expect("snapshot");
    corrupted[14] ^= 0xff; // inside the header payload
    fs::write(dir.path().join(SNAPSHOT_FILE), &corrupted).expect("corrupt snapshot");

    let service = EstimationService::new(config(dir.path()));
    let stats = service.persist_stats();
    assert!(
        stats.recovery_truncated > 0,
        "header damage detected: {stats:?}"
    );
    assert!(
        stats.recovered_entries > 0,
        "journal still recovered: {stats:?}"
    );
    for (&b, want) in batches.iter().zip(&expected) {
        let got = service
            .estimate_traced(&spec(b), None, &untraced)
            .expect("estimate");
        assert_eq!(&got, want, "journal-recovered entry diverged");
    }
    assert_eq!(service.profile_runs(), 0);
}

/// Downgrade tolerance: a reader that predates the `Param` record kind
/// (PR 7's parameterized sweep fits) stops replay at the first record it
/// cannot decode. For that prefix to carry the whole pre-`Param` state,
/// snapshots must export every Stage/Replay/Sim record *before* any
/// `Param` record — this test pins that export-order claim structurally
/// (no `Stage`/`Replay`/`Sim` frame after the first `Param` frame) and
/// behaviourally (a snapshot truncated at the first `Param` frame still
/// warm-boots every estimate bit-identically with zero profile runs).
#[test]
fn reader_without_param_support_still_recovers_all_stage_replay_sim_entries() {
    let untraced = TraceContext::disabled();
    let dir = StateDir::new("downgrade");
    let batches = [4usize, 8];
    let expected = populate(dir.path(), &batches);
    // Produce a Param record: an incremental-eligible sweep spanning
    // enough distinct points to pay the three-anchor fit.
    {
        let service = EstimationService::new(config(dir.path()));
        for (_, outcome) in service.sweep_traced(&spec(1), &[1, 2, 4, 8, 16], &untraced) {
            outcome.expect("sweep estimates");
        }
    }
    // One more boot compacts everything into the snapshot.
    drop(EstimationService::new(config(dir.path())));

    // Walk the snapshot frames ([4-byte len][8-byte sum][JSON]) and tag
    // each record by its externally-tagged enum variant; frame 0 is the
    // version header.
    let snapshot = fs::read(dir.path().join(SNAPSHOT_FILE)).expect("snapshot");
    let mut frames: Vec<(usize, String)> = Vec::new(); // (start offset, variant)
    let mut off = 0usize;
    while off + 12 <= snapshot.len() {
        let len = u32::from_le_bytes(snapshot[off..off + 4].try_into().expect("4 bytes")) as usize;
        let payload = std::str::from_utf8(&snapshot[off + 12..off + 12 + len])
            .expect("frame payload is JSON text");
        if off > 0 {
            let value: serde::Value = serde_json::from_str(payload).expect("frame decodes");
            let variant = value
                .as_object()
                .and_then(|entries| entries.first())
                .map(|(tag, _)| tag.clone())
                .expect("record frames are single-variant objects");
            frames.push((off, variant));
        }
        off += 12 + len;
    }
    assert_eq!(off, snapshot.len(), "snapshot must be whole frames");

    let first_param = frames
        .iter()
        .find(|(_, variant)| variant == "Param")
        .map(|&(start, _)| start)
        .expect("the sweep must have produced a Param record");
    let mut pre_param = 0usize;
    for (start, variant) in &frames {
        if matches!(variant.as_str(), "Stage" | "Replay" | "Sim") {
            assert!(
                *start < first_param,
                "a {variant} record after the first Param breaks downgrade tolerance"
            );
            pre_param += 1;
        }
    }
    assert!(pre_param > 0, "snapshot must carry pre-Param records");

    // The old reader's effective state is exactly this prefix: boot from
    // it and the full pre-Param contract must hold.
    let scratch = StateDir::new("downgrade-prefix");
    fs::create_dir_all(scratch.path()).expect("scratch dir");
    fs::write(scratch.path().join(SNAPSHOT_FILE), &snapshot[..first_param])
        .expect("prefix snapshot");
    assert_warm_boot(scratch.path(), &batches, &expected);
}

/// FNV-1a 64-bit — the persistence layer's frame checksum, duplicated
/// here to hand-craft journal frames.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Frames `payload` as `[u32 len LE][u64 FNV-1a LE][payload]`.
fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    let len = u32::try_from(payload.len()).expect("payload fits a frame");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Walks a framed state file, returning `(start offset, variant tag)` per
/// record frame (frame 0, the version header, is skipped).
fn record_frames(data: &[u8]) -> Vec<(usize, String)> {
    let mut frames = Vec::new();
    let mut off = 0usize;
    while off + 12 <= data.len() {
        let len = u32::from_le_bytes(data[off..off + 4].try_into().expect("4 bytes")) as usize;
        let payload =
            std::str::from_utf8(&data[off + 12..off + 12 + len]).expect("frame payload is JSON");
        if off > 0 {
            let value: serde::Value = serde_json::from_str(payload).expect("frame decodes");
            let variant = value
                .as_object()
                .and_then(|entries| entries.first())
                .map(|(tag, _)| tag.clone())
                .expect("record frames are single-variant objects");
            frames.push((off, variant));
        }
        off += 12 + len;
    }
    assert_eq!(off, data.len(), "state file must be whole frames");
    frames
}

/// A state dir written by a binary whose cache tiers tuned their
/// protected split online: its journal ends in `Tuner` frames for the
/// stage, param and sim tiers, and one for a tier name no binary has.
/// Every tier now runs a fixed split, so the service boots from it with
/// no torn tail, drops all four frames (counted as skipped), recovers
/// every other record, and writes no `Tuner` frame back.
#[test]
fn a_state_dir_with_tuner_records_boots_and_drops_them() {
    let dir = StateDir::new("tuner");
    let batches = [4usize, 8];
    let expected = populate(dir.path(), &batches);
    // One more boot compacts everything into the snapshot.
    drop(EstimationService::new(config(dir.path())));
    let snapshot = fs::read(dir.path().join(SNAPSHOT_FILE)).expect("snapshot");
    let recorded = record_frames(&snapshot).len() as u64;
    assert!(recorded > 0, "the snapshot must carry records");

    let mut old = fs::read(dir.path().join(JOURNAL_FILE)).expect("journal");
    for cache in ["stage", "param", "sim", "negative"] {
        push_frame(
            &mut old,
            format!(r#"{{"Tuner":{{"cache":"{cache}","frac_permille":250,"decay_epoch":3}}}}"#)
                .as_bytes(),
        );
    }
    fs::write(dir.path().join(JOURNAL_FILE), &old).expect("journal with tuner records");

    let service = EstimationService::new(config(dir.path()));
    let stats = service.persist_stats();
    assert_eq!(stats.recovery_truncated, 0, "{stats:?}");
    assert_eq!(
        stats.recovery_skipped, 4,
        "the four Tuner frames: {stats:?}"
    );
    assert_eq!(
        stats.recovered_entries, recorded,
        "every Stage and Sim record: {stats:?}"
    );
    assert_eq!(
        service.stage_tier_stats().protected_frac_permille,
        875,
        "no tier takes a persisted split"
    );
    drop(service);
    let snapshot = fs::read(dir.path().join(SNAPSHOT_FILE)).expect("snapshot");
    assert!(record_frames(&snapshot)
        .iter()
        .all(|(_, variant)| variant != "Tuner"));
    assert_warm_boot(dir.path(), &batches, &expected);
}

/// Tuner records for cache tiers this binary does not recognize are
/// skipped (counted), exactly like orphaned sim cells — a name from a
/// future version must not poison boot.
#[test]
fn tuner_records_for_unknown_tiers_are_skipped() {
    let untraced = TraceContext::disabled();
    let dir = StateDir::new("tuner-unknown");
    let batches = [4usize];
    let expected = populate(dir.path(), &batches);
    let mut frame = Vec::new();
    push_frame(
        &mut frame,
        br#"{"Tuner":{"cache":"negative","frac_permille":700,"decay_epoch":1}}"#,
    );
    let mut journal = fs::read(dir.path().join(JOURNAL_FILE)).expect("journal");
    journal.extend_from_slice(&frame);
    fs::write(dir.path().join(JOURNAL_FILE), &journal).expect("journal with unknown tier");

    let service = EstimationService::new(config(dir.path()));
    let stats = service.persist_stats();
    assert!(
        stats.recovery_skipped > 0,
        "unknown tier names must be counted, not fatal: {stats:?}"
    );
    assert_eq!(
        service.stage_tier_stats().protected_frac_permille,
        875,
        "no known tier may have absorbed the unknown record"
    );
    for (&b, want) in batches.iter().zip(&expected) {
        let got = service
            .estimate_traced(&spec(b), None, &untraced)
            .expect("warm estimate");
        assert_eq!(&got, want);
    }
    assert_eq!(service.profile_runs(), 0);
}

/// A state dir written by a binary that still kept an unbounded-replay
/// cache: its snapshot holds `Replay` frames (written before every `Sim`
/// and `Param` frame) and a `replay` tuner record. The service boots from
/// it, drops those two frames (counted as skipped, not torn), recovers
/// every other record, and serves a recovered cell with no profile run
/// and no replay.
#[test]
fn a_state_dir_with_replay_records_boots_and_drops_them() {
    let untraced = TraceContext::disabled();
    let dir = StateDir::new("upgrade");
    let batches = [4usize];
    let expected = populate(dir.path(), &batches);
    {
        // A `Param` record, from a sweep long enough to fit.
        let service = EstimationService::new(config(dir.path()));
        for (_, outcome) in service.sweep_traced(&spec(1), &[1, 2, 4, 8, 16], &untraced) {
            outcome.expect("sweep estimates");
        }
    }
    // One more boot compacts everything into the snapshot.
    drop(EstimationService::new(config(dir.path())));
    let snapshot = fs::read(dir.path().join(SNAPSHOT_FILE)).expect("snapshot");
    let frames = record_frames(&snapshot);
    let payload = |start: usize| {
        let len =
            u32::from_le_bytes(snapshot[start..start + 4].try_into().expect("4 bytes")) as usize;
        serde_json::from_str::<serde::Value>(
            std::str::from_utf8(&snapshot[start + 12..start + 12 + len]).expect("JSON"),
        )
        .expect("record decodes")
    };
    let first_sim = frames
        .iter()
        .find(|(_, variant)| variant == "Sim")
        .map(|&(start, _)| start)
        .expect("populate journals sim cells");
    for variant in ["Stage", "Param"] {
        assert!(
            frames.iter().any(|(_, v)| v == variant),
            "no {variant} frame"
        );
    }

    // The old binary's Replay record for the first stage entry's job.
    let (stage_start, _) = frames
        .iter()
        .find(|(_, variant)| variant == "Stage")
        .expect("a Stage frame");
    let serde::Value::Object(stage) = payload(*stage_start) else {
        panic!("records are objects")
    };
    let serde::Value::Object(fields) = &stage[0].1 else {
        panic!("a Stage record is an object")
    };
    let (_, job) = fields
        .iter()
        .find(|(key, _)| key == "job")
        .expect("the record names its job");
    let analyzed = xmem::core::Analyzer::new()
        .analyze(&profile_on_cpu(&spec(batches[0])))
        .expect("analysis succeeds");
    let replay = Estimator::new(EstimatorConfig::for_device(GpuDevice::rtx3060()))
        .replay_unbounded(&analyzed);
    let replay: serde::Value =
        serde_json::from_str(&serde_json::to_string(&replay).expect("encodes")).expect("decodes");
    let record = serde::Value::Object(vec![(
        "Replay".to_string(),
        serde::Value::Object(vec![
            ("job".to_string(), job.clone()),
            ("replay".to_string(), replay),
        ]),
    )]);
    let mut state = snapshot[..first_sim].to_vec();
    push_frame(
        &mut state,
        serde_json::to_string(&record).expect("encodes").as_bytes(),
    );
    state.extend_from_slice(&snapshot[first_sim..]);
    push_frame(
        &mut state,
        br#"{"Tuner":{"cache":"replay","frac_permille":700,"decay_epoch":1}}"#,
    );
    let old = StateDir::new("upgrade-old");
    fs::create_dir_all(old.path()).expect("state dir");
    fs::write(old.path().join(SNAPSHOT_FILE), &state).expect("old snapshot");

    let service = EstimationService::new(config(old.path()));
    let stats = service.persist_stats();
    assert_eq!(stats.recovery_truncated, 0, "{stats:?}");
    assert_eq!(
        stats.recovery_skipped, 2,
        "the two dropped frames: {stats:?}"
    );
    assert_eq!(
        stats.recovered_entries,
        frames.len() as u64,
        "every Stage, Sim and Param record: {stats:?}"
    );
    for (&b, want) in batches.iter().zip(&expected) {
        let got = service
            .estimate_traced(&spec(b), None, &untraced)
            .expect("warm estimate");
        assert_eq!(&got, want, "batch {b} diverged after the upgrade");
    }
    assert_eq!(service.profile_runs(), 0);
    assert_eq!(service.sim_runs(), 0, "a recovered cell is not replayed");
    drop(service);
    // The boot compaction writes no Replay frame back.
    let compacted = fs::read(old.path().join(SNAPSHOT_FILE)).expect("snapshot");
    assert!(record_frames(&compacted)
        .iter()
        .all(|(_, variant)| variant != "Replay"));
}

/// Sim cells whose device fingerprint matches no registered device are
/// skipped (counted), not resurrected against the wrong hardware.
#[test]
fn sim_cells_for_unregistered_devices_are_skipped() {
    let untraced = TraceContext::disabled();
    let dir = StateDir::new("unmatched-device");
    let batches = [4usize];
    let _ = populate(dir.path(), &batches);
    // Reboot with a registry that no longer knows any named device: the
    // rtx4060 sim cells (written under its device name) match neither the
    // empty registry nor the rtx3060 primary, so they are orphaned.
    let service = EstimationService::new(
        ServiceConfig::for_device(GpuDevice::rtx3060())
            .with_registry(xmem::service::DeviceRegistry::empty())
            .with_state_dir(dir.path()),
    );
    let stats = service.persist_stats();
    assert!(
        stats.recovery_skipped > 0,
        "orphaned sim cells must be counted: {stats:?}"
    );
    // Stage records are device-independent and still recover.
    assert!(stats.recovered_entries > 0, "{stats:?}");
    assert_eq!(service.profile_runs(), 0);
    let _ = service
        .estimate_traced(&spec(4), None, &untraced)
        .expect("warm estimate");
    // The analysis was recovered, so serving still pays no profile run.
    assert_eq!(service.profile_runs(), 0);
}

/// Corruptions of a recovered `Param` record that keep it valid JSON of
/// the right shape, each of which made the first sweep of the family panic
/// or wrap before the record was checked on decode: `(name, field of the
/// replay, edit)`.
type ParamEdit = fn(&mut serde::Value);

const PARAM_CORRUPTIONS: [(&str, &str, ParamEdit); 5] = [
    // Every block id but 0 indexes past a one-entry block table.
    ("one block", "num_blocks", |v| *v = serde::Value::U64(1)),
    // A block table no replay could allocate.
    ("huge block table", "num_blocks", |v| {
        *v = serde::Value::U64(1 << 50)
    }),
    // One column shorter than the others.
    ("short column", "ts_us", |v| {
        let serde::Value::Array(items) = v else {
            panic!("ts_us is a column")
        };
        items.pop();
    }),
    // An empty batch range.
    ("inverted range", "batch_lo", |v| {
        *v = serde::Value::U64(1 << 20)
    }),
    // `base + slope * batch_hi` past `u64::MAX`.
    ("overflowing size", "slope", |v| {
        let serde::Value::Array(items) = v else {
            panic!("slope is a column")
        };
        items[0] = serde::Value::U64(u64::MAX / 2);
    }),
];

/// A `Param` record that decodes as JSON but cannot be replayed is a torn
/// record: recovery stops at it and counts it, and the family's next sweep
/// refits and serves what a fresh service serves, instead of panicking.
#[test]
fn corrupt_param_record_is_torn_and_the_sweep_refits() {
    let untraced = TraceContext::disabled();
    let dir = StateDir::new("param-fields");
    let sweep = |service: &EstimationService, batches: &[usize]| -> Vec<Estimate> {
        service
            .sweep_traced(&spec(1), batches, &untraced)
            .into_iter()
            .map(|(_, outcome)| outcome.expect("sweep estimates"))
            .collect()
    };
    // The fit covers 1..=16; the later sweep asks for cells inside that
    // range that no recovered cell answers, so only the fit can.
    sweep(
        &EstimationService::new(config(dir.path())),
        &[1, 2, 4, 8, 16],
    );
    let interior = [3usize, 5, 6, 7, 12];
    let fresh = EstimationService::new(ServiceConfig::for_device(GpuDevice::rtx3060()));
    let expected = sweep(&fresh, &interior);
    // One more boot compacts the fit into the snapshot.
    drop(EstimationService::new(config(dir.path())));
    let snapshot = fs::read(dir.path().join(SNAPSHOT_FILE)).expect("snapshot");
    let (start, _) = record_frames(&snapshot)
        .into_iter()
        .find(|(_, variant)| variant == "Param")
        .expect("the sweep must have produced a Param record");
    let len = u32::from_le_bytes(snapshot[start..start + 4].try_into().expect("4 bytes")) as usize;
    let end = start + 12 + len;
    let payload = std::str::from_utf8(&snapshot[start + 12..end]).expect("JSON payload");
    let record: serde::Value = serde_json::from_str(payload).expect("record decodes");

    // Intact, the recovered fit serves the interior cells with no refit.
    let service = EstimationService::new(config(dir.path()));
    assert_eq!(sweep(&service, &interior), expected);
    assert_eq!(service.sim_stats().param_replays, 0, "the fit is recovered");
    drop(service);

    for (name, field, edit) in PARAM_CORRUPTIONS {
        let mut corrupt = record.clone();
        let serde::Value::Object(variant) = &mut corrupt else {
            panic!("records are objects")
        };
        let serde::Value::Object(param) = &mut variant[0].1 else {
            panic!("a Param record is an object")
        };
        let (_, serde::Value::Object(replay)) = param
            .iter_mut()
            .find(|(key, _)| key == "replay")
            .expect("the record carries its replay")
        else {
            panic!("a replay is an object")
        };
        let (_, value) = replay
            .iter_mut()
            .find(|(key, _)| key == field)
            .expect("the replay has the field");
        edit(value);

        let mut state = snapshot[..start].to_vec();
        let json = serde_json::to_string(&corrupt).expect("re-encodes");
        push_frame(&mut state, json.as_bytes());
        state.extend_from_slice(&snapshot[end..]);
        let scratch = StateDir::new("param-fields-corrupt");
        fs::create_dir_all(scratch.path()).expect("scratch dir");
        fs::write(scratch.path().join(SNAPSHOT_FILE), &state).expect("corrupt snapshot");

        let service = EstimationService::new(config(scratch.path()));
        let stats = service.persist_stats();
        assert!(
            stats.recovery_truncated > 0,
            "{name}: the record must count as torn: {stats:?}"
        );
        assert_eq!(
            sweep(&service, &interior),
            expected,
            "{name}: the sweep diverged"
        );
        assert_eq!(
            service.sim_stats().param_replays,
            1,
            "{name}: the family refits"
        );
    }
}

/// Corruptions of a recovered `Stage` record's first named block that keep
/// it valid JSON of the right shape but leave it nothing an analysis can
/// hold, which stores block ids in 32 bits, each its block's position, and
/// names as indices of the analysis's own windows: `(name, edit of the
/// block's fields)`.
type StageEdit = fn(&mut Vec<(String, serde::Value)>);

const STAGE_CORRUPTIONS: [(&str, StageEdit); 5] = [
    ("id past 32 bits", |block| {
        let serde::Value::Object(lifecycle) = &mut block[0].1 else {
            panic!("a block's lifecycle is an object")
        };
        lifecycle[0].1 = serde::Value::U64(1 << 32);
    }),
    // The Orchestrator reads a block's size by its id.
    ("id not its position", |block| {
        let serde::Value::Object(lifecycle) = &mut block[0].1 else {
            panic!("a block's lifecycle is an object")
        };
        let serde::Value::U64(id) = lifecycle[0].1 else {
            panic!("a block id is a number")
        };
        lifecycle[0].1 = serde::Value::U64(id + 1);
    }),
    ("operator no window has", |block| {
        block[2].1 = serde::Value::Str("aten::nowhere".to_owned());
    }),
    ("component no window has", |block| {
        block[3].1 = serde::Value::Str("model.nowhere".to_owned());
    }),
    // Names index their own kind of window.
    ("operator only a component window has", |block| {
        block[2].1 = block[3].1.clone();
    }),
];

/// A `Stage` record the compact analysis cannot hold is a torn record, not
/// a panic: the service boots, recovery stops at the record and counts it,
/// and the job's next estimate re-profiles and serves what a fresh service
/// serves.
#[test]
fn hostile_stage_record_is_torn_and_the_job_reprofiles() {
    let untraced = TraceContext::disabled();
    let dir = StateDir::new("stage-fields");
    let batches = [4usize];
    let expected = populate(dir.path(), &batches);
    // One more boot compacts everything into the snapshot.
    drop(EstimationService::new(config(dir.path())));
    let snapshot = fs::read(dir.path().join(SNAPSHOT_FILE)).expect("snapshot");
    let (start, _) = record_frames(&snapshot)
        .into_iter()
        .find(|(_, variant)| variant == "Stage")
        .expect("populate journals a Stage record");
    let len = u32::from_le_bytes(snapshot[start..start + 4].try_into().expect("4 bytes")) as usize;
    let end = start + 12 + len;
    let payload = std::str::from_utf8(&snapshot[start + 12..end]).expect("JSON payload");
    let record: serde::Value = serde_json::from_str(payload).expect("record decodes");

    for (name, edit) in STAGE_CORRUPTIONS {
        let mut corrupt = record.clone();
        let serde::Value::Object(variant) = &mut corrupt else {
            panic!("records are objects")
        };
        let serde::Value::Object(stage) = &mut variant[0].1 else {
            panic!("a Stage record is an object")
        };
        let (_, serde::Value::Object(analyzed)) = stage
            .iter_mut()
            .find(|(key, _)| key == "analyzed")
            .expect("the record carries its analysis")
        else {
            panic!("an analysis is an object")
        };
        let (_, serde::Value::Array(blocks)) = analyzed
            .iter_mut()
            .find(|(key, _)| key == "blocks")
            .expect("the analysis has blocks")
        else {
            panic!("blocks are an array")
        };
        let block = blocks
            .iter_mut()
            .find_map(|b| match b {
                serde::Value::Object(f) if !f[2].1.is_null() && !f[3].1.is_null() => Some(f),
                _ => None,
            })
            .expect("some block names an operator and a component");
        edit(block);

        let mut state = snapshot[..start].to_vec();
        let json = serde_json::to_string(&corrupt).expect("re-encodes");
        push_frame(&mut state, json.as_bytes());
        state.extend_from_slice(&snapshot[end..]);
        let scratch = StateDir::new("stage-fields-corrupt");
        fs::create_dir_all(scratch.path()).expect("scratch dir");
        fs::write(scratch.path().join(SNAPSHOT_FILE), &state).expect("corrupt snapshot");

        let service = EstimationService::new(config(scratch.path()));
        let stats = service.persist_stats();
        assert!(
            stats.recovery_truncated > 0,
            "{name}: the record must count as torn: {stats:?}"
        );
        assert_eq!(
            service
                .estimate_traced(&spec(batches[0]), None, &untraced)
                .expect("estimates"),
            expected[0],
            "{name}: the estimate diverged"
        );
        assert_eq!(service.profile_runs(), 1, "{name}: the job re-profiles");
    }
}
