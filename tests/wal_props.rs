//! Property tests for the durable-session layer (DESIGN.md §15): the
//! WAL record codec round-trips, recovery survives truncation at
//! *every* byte boundary and single-bit corruption at *every* offset,
//! compaction is observationally invisible (snapshot + suffix replay
//! renders the same bindings as full replay), and a seeded
//! storage-fault grid over both the WAL and the checkpoint
//! [`FileStore`] proves every injected disk fault degrades to a typed
//! error or an older consistent state — never a panic, never silently
//! wrong state.

use std::path::PathBuf;
use std::sync::Arc;

use bsml_bsp::checkpoint::{CheckpointStore, FileStore, RankFrame, SyncOutcome};
use bsml_bsp::{BspParams, Disk, StorageError, StoragePlan};
use bsml_core::{Session, SessionSnapshot};
use bsml_obs::Telemetry;
use bsml_repro::testgen;
use bsml_serve::{frame_record, scan_records, DurableLog, WalRecord};
use proptest::collection::vec;
use proptest::prelude::*;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bsml-walprops-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn machine() -> BspParams {
    BspParams::new(4, 2, 10)
}

/// Deterministic well-typed binding phrases, the same shape the load
/// generator submits.
fn phrases(seed: u64, n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            let s = seed.wrapping_mul(31).wrapping_add(i as u64);
            format!("let v{i} = {}", testgen::well_typed_source(s, 2))
        })
        .collect()
}

fn wal_record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        ("[a-z0-9]{1,24}",).prop_map(|(tenant,)| WalRecord::Header { version: 1, tenant }),
        (any::<u64>(), vec(any::<u8>(), 0..64))
            .prop_map(|(seq, state)| WalRecord::Snapshot { seq, state }),
        (any::<u64>(), ".{0,64}").prop_map(|(seq, source)| WalRecord::Commit { seq, source }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every record body round-trips through encode/decode.
    #[test]
    fn record_bodies_roundtrip(rec in wal_record()) {
        prop_assert_eq!(WalRecord::decode(&rec.encode()).unwrap(), rec);
    }

    /// Cutting a framed log at any byte boundary yields a clean
    /// prefix of the original records — the scan never panics, never
    /// invents a record, and flags exactly the cuts that cost bytes.
    #[test]
    fn truncation_at_every_boundary_yields_a_prefix(
        records in vec(wal_record(), 1..6),
    ) {
        let mut bytes = Vec::new();
        let mut frame_ends = Vec::new();
        for rec in &records {
            bytes.extend_from_slice(&frame_record(&rec.encode()));
            frame_ends.push(bytes.len());
        }
        for cut in 0..=bytes.len() {
            let (scanned, good, torn) = scan_records(&bytes[..cut]);
            let whole = frame_ends.iter().filter(|e| **e <= cut).count();
            prop_assert_eq!(scanned.len(), whole, "cut at {}", cut);
            prop_assert_eq!(&scanned[..], &records[..whole]);
            let good_end = frame_ends.get(whole.wrapping_sub(1)).copied().unwrap_or(0);
            prop_assert_eq!(good, good_end);
            prop_assert_eq!(torn, cut != good_end);
        }
    }

    /// Flipping any single bit anywhere in a framed log is detected:
    /// the scan stops at the damaged frame and returns the intact
    /// prefix before it.
    #[test]
    fn single_bit_flips_never_pass_the_scan(
        records in vec(wal_record(), 1..5),
        byte_pick in any::<u16>(),
        bit in 0u8..8,
    ) {
        let mut bytes = Vec::new();
        let mut frame_ends = Vec::new();
        for rec in &records {
            bytes.extend_from_slice(&frame_record(&rec.encode()));
            frame_ends.push(bytes.len());
        }
        let byte = byte_pick as usize % bytes.len();
        bytes[byte] ^= 1 << bit;
        let (scanned, good, torn) = scan_records(&bytes);
        prop_assert!(torn, "flip at {byte}:{bit} went undetected");
        // The intact prefix is exactly the frames before the flip.
        let whole = frame_ends.iter().filter(|e| **e <= byte).count();
        prop_assert_eq!(scanned.len(), whole);
        prop_assert_eq!(&scanned[..], &records[..whole]);
        prop_assert_eq!(good, frame_ends.get(whole.wrapping_sub(1)).copied().unwrap_or(0));
    }

    /// A session snapshot's byte codec round-trips through the WAL's
    /// validator path.
    #[test]
    fn session_snapshots_roundtrip_through_bytes(seed in 0u64..1000) {
        let mut session = Session::new(machine());
        for p in phrases(seed, 3) {
            let _ = session.load(&p);
        }
        let snap = session.snapshot();
        let bytes = snap.to_bytes();
        let back = SessionSnapshot::from_bytes(&bytes).unwrap();
        let mut rebuilt = Session::new(machine());
        rebuilt.restore(&back).unwrap();
        prop_assert_eq!(rebuilt.render_bindings(), session.render_bindings());
    }

    /// Compaction equivalence: recovering from a snapshot base plus
    /// the commit suffix renders exactly the bindings of replaying the
    /// full phrase list into a fresh session. Compaction must be
    /// observationally invisible.
    #[test]
    fn compaction_is_observationally_invisible(
        seed in 0u64..500,
        n in 3usize..8,
        snap_at in 1usize..7,
    ) {
        let snap_at = snap_at.min(n - 1);
        let dir = temp_dir(&format!("compact-{seed}-{n}-{snap_at}"));
        let log = DurableLog::open(&dir, Arc::new(Disk::new()), 64, Telemetry::disabled())
            .unwrap();
        let mut wal = log.tenant("alice", None).unwrap();
        let mut session = Session::new(machine());
        let all = phrases(seed, n);
        for (i, p) in all.iter().enumerate() {
            let _ = session.load(p);
            wal.append_commit(p).unwrap();
            if i + 1 == snap_at {
                wal.install_snapshot(&session.snapshot().to_bytes()).unwrap();
            }
        }
        let recovered = log.recover(&|b| SessionSnapshot::from_bytes(b).is_ok());
        prop_assert_eq!(recovered.len(), 1);
        let r = &recovered[0];
        prop_assert_eq!(r.last_seq, n as u64);
        prop_assert_eq!(r.commits.len(), n - snap_at);
        let mut rebuilt = Session::new(machine());
        if let Some((_, state)) = &r.base {
            rebuilt.restore(&SessionSnapshot::from_bytes(state).unwrap()).unwrap();
        }
        for p in &r.commits {
            let _ = rebuilt.load(p);
        }
        let mut oracle = Session::new(machine());
        for p in &all {
            let _ = oracle.load(p);
        }
        prop_assert_eq!(rebuilt.render_bindings(), oracle.render_bindings());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Seeded chaos over the WAL: one random storage fault per seed,
    /// armed under a write/compact/recover workload. Every outcome is
    /// a typed error or an older consistent state — recovered commits
    /// are always a prefix of what was offered, in order.
    #[test]
    fn wal_chaos_degrades_to_typed_error_or_older_state(seed in 0u64..256) {
        let dir = temp_dir(&format!("chaos-{seed}"));
        let disk = Arc::new(Disk::with_plan(StoragePlan::chaos(seed)));
        let log = DurableLog::open(&dir, disk, 3, Telemetry::disabled()).unwrap();
        let all = phrases(seed, 6);
        let mut durable: Vec<String> = Vec::new();
        if let Ok(mut wal) = log.tenant("chaos", None) {
            let mut session = Session::new(machine());
            for p in &all {
                // Mirror the server's commit-before-report rule: the
                // session only keeps a phrase whose append succeeded.
                let before = session.snapshot();
                let _ = session.load(p);
                match wal.append_commit(p) {
                    Ok(_) => durable.push(p.clone()),
                    Err(
                        StorageError::Enospc { .. }
                        | StorageError::TornWrite { .. }
                        | StorageError::SyncFailure { .. }
                        | StorageError::Io { .. },
                    ) => session.restore(&before).unwrap(),
                }
                if wal.should_snapshot() {
                    // Compaction failure is benign: the old generation
                    // stays authoritative.
                    let _ = wal.install_snapshot(&session.snapshot().to_bytes());
                }
            }
        }
        // Recovery on a clean disk (the fault has fired or never will)
        // sees a consistent prefix: sequence numbers index the
        // *durable* phrase list, and the recovered suffix matches it
        // exactly.
        let clean = DurableLog::open(&dir, Arc::new(Disk::new()), 3, Telemetry::disabled())
            .unwrap();
        for r in clean.recover(&|b| SessionSnapshot::from_bytes(b).is_ok()) {
            prop_assert!(r.last_seq <= durable.len() as u64);
            let last = r.last_seq as usize;
            let replay_from = last - r.commits.len();
            prop_assert_eq!(&r.commits[..], &durable[replay_from..last]);
            // Nothing the WAL acknowledged as durable may be lost,
            // unless recovery had to fall back past a damaged newer
            // generation (older consistent state, by design).
            if !r.fell_back && !r.truncated {
                prop_assert_eq!(r.last_seq, durable.len() as u64);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The same seeded chaos over the checkpoint [`FileStore`]: stage,
    /// commit, and load generations under an injected fault. Every
    /// failure is a typed [`CheckpointError`], and any generation that
    /// *does* load verifies bit-for-bit against what was committed.
    #[test]
    fn filestore_chaos_degrades_to_typed_error_or_older_state(seed in 0u64..256) {
        let dir = temp_dir(&format!("ckpt-{seed}"));
        let disk = Arc::new(Disk::with_plan(StoragePlan::chaos(seed)));
        let store = FileStore::open_with_disk(&dir, disk).unwrap();
        let p = 2usize;
        let fingerprint = 0xfeed_f00d_u64;
        let frame = |rank: usize, superstep: u64| RankFrame {
            fingerprint,
            rank,
            superstep,
            fuel_left: 100 - superstep,
            sent_words: superstep * 2,
            received_words: superstep * 2,
            puts: superstep,
            ifats: 0,
            outcomes: vec![SyncOutcome::IfAt { chosen: true }; superstep as usize],
        };
        let mut committed: Vec<u64> = Vec::new();
        for generation in 1..=4u64 {
            let staged = (0..p).all(|rank| store.stage(&frame(rank, generation)).is_ok());
            if staged && store.commit(generation, p).is_ok() {
                committed.push(generation);
            }
        }
        // Every committed generation either loads exactly what was
        // written or fails with a typed error (injected read faults
        // are typed, never a panic).
        for generation in committed {
            if let Ok(frames) = store.load(generation, p, fingerprint) {
                prop_assert_eq!(frames.len(), p);
                for (rank, f) in frames.iter().enumerate() {
                    prop_assert_eq!(f, &frame(rank, generation));
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
