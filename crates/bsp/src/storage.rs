//! An injectable storage backend: every durable byte the workspace
//! writes (checkpoint generations, server write-ahead logs) goes
//! through a [`Disk`], so disk misbehavior — ENOSPC, a torn write at a
//! chosen byte, a failing fsync, a bit flipped at rest — can be
//! injected deterministically, in the spirit of [`crate::faults`].
//!
//! The contract mirrors the fault plans of the distributed machine: a
//! seeded [`StoragePlan`] arms faults against specific operations
//! (the *n*-th append, the *n*-th atomic write, …), and the test grid
//! proves that every injected fault degrades to a typed
//! [`StorageError`] or an older consistent state — never a panic, a
//! hang, or silently wrong data.
//!
//! Two write disciplines are provided:
//!
//! * [`Disk::write_atomic`] — tmp + `sync_all` + rename + parent-dir
//!   fsync. A crash (or injected fault) at any point leaves either
//!   the old file or the new file, never a mixture.
//! * [`Disk::append_sync`] — append + `sync_all`, for log files whose
//!   *records* carry their own framing and checksums. A torn append
//!   leaves a torn tail that the log's reader must detect and drop.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::lock;

/// Which [`Disk`] operation a fault arms against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageOp {
    /// [`Disk::write_atomic`].
    AtomicWrite,
    /// [`Disk::append_sync`].
    Append,
    /// [`Disk::read`].
    Read,
}

impl StorageOp {
    /// A short human-readable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            StorageOp::AtomicWrite => "atomic-write",
            StorageOp::Append => "append",
            StorageOp::Read => "read",
        }
    }
}

/// What the armed fault does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageFaultKind {
    /// The write fails before a single byte lands (disk full).
    Enospc,
    /// The write stops after `at` bytes and fails — the torn prefix
    /// *stays on disk*, exactly like a power cut mid-`write(2)`.
    TornWrite {
        /// How many bytes of the payload land before the tear.
        at: usize,
    },
    /// The data is written but `fsync` fails; the caller must treat
    /// the write as not durable.
    SyncFailure,
    /// A read returns the file's bytes with one bit flipped at offset
    /// `at % len` — silent at the storage layer, so only checksums
    /// can catch it.
    BitFlip {
        /// The byte offset (taken modulo the file length) to corrupt.
        at: usize,
    },
    /// The process writes `at` bytes of the payload and then aborts —
    /// a deterministic stand-in for SIGKILL mid-append. Only crash
    /// test *binaries* arm this; in-process tests never do (the test
    /// would die too).
    CrashAfter {
        /// How many bytes land before the process aborts.
        at: usize,
    },
}

impl StorageFaultKind {
    /// A short human-readable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            StorageFaultKind::Enospc => "enospc",
            StorageFaultKind::TornWrite { .. } => "torn-write",
            StorageFaultKind::SyncFailure => "sync-failure",
            StorageFaultKind::BitFlip { .. } => "bit-flip",
            StorageFaultKind::CrashAfter { .. } => "crash-after",
        }
    }
}

/// One armed fault: fires on the `nth` (0-based) occurrence of `op`,
/// once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StorageFault {
    /// The operation to perturb.
    pub op: StorageOp,
    /// Which occurrence of the operation (0-based) fires the fault.
    pub nth: u64,
    /// What happens when it fires.
    pub kind: StorageFaultKind,
}

/// A deterministic set of storage faults, mirroring
/// [`crate::faults::FaultPlan`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StoragePlan {
    faults: Vec<StorageFault>,
}

impl StoragePlan {
    /// An empty plan (injects nothing).
    #[must_use]
    pub fn new() -> StoragePlan {
        StoragePlan::default()
    }

    /// Adds one armed fault.
    #[must_use]
    pub fn fault(mut self, fault: StorageFault) -> StoragePlan {
        self.faults.push(fault);
        self
    }

    /// Derives a single random fault from a seed (SplitMix64), for
    /// seeded chaos grids. `CrashAfter` is deliberately excluded —
    /// chaos runs in-process.
    #[must_use]
    pub fn chaos(seed: u64) -> StoragePlan {
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let op = match next() % 3 {
            0 => StorageOp::AtomicWrite,
            1 => StorageOp::Append,
            _ => StorageOp::Read,
        };
        let at = (next() % 64) as usize;
        let kind = if op == StorageOp::Read {
            StorageFaultKind::BitFlip { at }
        } else {
            match next() % 3 {
                0 => StorageFaultKind::Enospc,
                1 => StorageFaultKind::TornWrite { at },
                _ => StorageFaultKind::SyncFailure,
            }
        };
        StoragePlan::new().fault(StorageFault {
            op,
            nth: next() % 4,
            kind,
        })
    }

    /// The armed faults.
    #[must_use]
    pub fn faults(&self) -> &[StorageFault] {
        &self.faults
    }
}

/// Why a storage operation failed. Every variant is a *typed*,
/// recoverable outcome: the caller keeps (or falls back to) an older
/// consistent state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StorageError {
    /// No space left on device (or an injected equivalent): nothing
    /// was written.
    Enospc {
        /// The file being written.
        path: PathBuf,
    },
    /// The write tore after `wrote` bytes; the torn prefix is on disk.
    TornWrite {
        /// The file being written.
        path: PathBuf,
        /// Bytes that landed before the tear.
        wrote: usize,
    },
    /// The data was written but could not be made durable.
    SyncFailure {
        /// The file being synced.
        path: PathBuf,
    },
    /// Any other I/O failure, with the OS error text.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The rendered OS error.
        what: String,
    },
}

impl StorageError {
    fn io(path: &Path, e: &std::io::Error) -> StorageError {
        StorageError::Io {
            path: path.to_path_buf(),
            what: e.to_string(),
        }
    }
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Enospc { path } => {
                write!(f, "{}: no space left on device", path.display())
            }
            StorageError::TornWrite { path, wrote } => {
                write!(f, "{}: write torn after {wrote} bytes", path.display())
            }
            StorageError::SyncFailure { path } => {
                write!(f, "{}: fsync failed", path.display())
            }
            StorageError::Io { path, what } => write!(f, "{}: {what}", path.display()),
        }
    }
}

impl std::error::Error for StorageError {}

#[derive(Debug, Default)]
struct DiskState {
    plan: StoragePlan,
    /// Occurrence counters per op, indexed by [`StorageOp`] order.
    counts: [u64; 3],
    /// Parallel to `plan.faults`: whether each fault already fired.
    fired: Vec<bool>,
}

fn op_index(op: StorageOp) -> usize {
    match op {
        StorageOp::AtomicWrite => 0,
        StorageOp::Append => 1,
        StorageOp::Read => 2,
    }
}

/// The injectable storage backend. A fault-free `Disk` is the
/// production configuration; [`Disk::with_plan`] arms a deterministic
/// fault set for tests.
#[derive(Debug, Default)]
pub struct Disk {
    state: Mutex<DiskState>,
}

impl Disk {
    /// A disk with no faults armed.
    #[must_use]
    pub fn new() -> Disk {
        Disk::default()
    }

    /// A disk with the given fault plan armed.
    #[must_use]
    pub fn with_plan(plan: StoragePlan) -> Disk {
        let fired = vec![false; plan.faults.len()];
        Disk {
            state: Mutex::new(DiskState {
                plan,
                counts: [0; 3],
                fired,
            }),
        }
    }

    /// Consults the plan: does a fault fire on this occurrence of
    /// `op`? Each fault fires at most once.
    fn armed(&self, op: StorageOp) -> Option<StorageFaultKind> {
        let mut st = lock(&self.state);
        let n = st.counts[op_index(op)];
        st.counts[op_index(op)] += 1;
        for (i, f) in st.plan.faults.iter().enumerate() {
            if !st.fired[i] && f.op == op && f.nth == n {
                let kind = f.kind;
                st.fired[i] = true;
                return Some(kind);
            }
        }
        None
    }

    /// Appends `bytes` to `path` (creating it if absent) and fsyncs.
    /// On success returns the file's *previous* length — the offset at
    /// which the record landed.
    ///
    /// On a torn write the torn prefix stays on disk, exactly like a
    /// real power cut; the caller either truncates back to the
    /// returned offset or relies on record checksums at read time.
    ///
    /// # Errors
    ///
    /// A typed [`StorageError`]; injected faults surface as their
    /// matching variant.
    pub fn append_sync(&self, path: &Path, bytes: &[u8]) -> Result<u64, StorageError> {
        let fault = self.armed(StorageOp::Append);
        if let Some(StorageFaultKind::Enospc) = fault {
            return Err(StorageError::Enospc {
                path: path.to_path_buf(),
            });
        }
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| StorageError::io(path, &e))?;
        let offset = file
            .metadata()
            .map_err(|e| StorageError::io(path, &e))?
            .len();
        match fault {
            Some(StorageFaultKind::TornWrite { at }) => {
                let at = at.min(bytes.len());
                file.write_all(&bytes[..at])
                    .map_err(|e| StorageError::io(path, &e))?;
                let _ = file.sync_all();
                return Err(StorageError::TornWrite {
                    path: path.to_path_buf(),
                    wrote: at,
                });
            }
            Some(StorageFaultKind::CrashAfter { at }) => {
                let at = at.min(bytes.len());
                let _ = file.write_all(&bytes[..at]);
                let _ = file.sync_all();
                // A deterministic stand-in for SIGKILL mid-append:
                // the process dies here, leaving the torn tail.
                std::process::abort();
            }
            _ => {}
        }
        file.write_all(bytes)
            .map_err(|e| StorageError::io(path, &e))?;
        if matches!(fault, Some(StorageFaultKind::SyncFailure)) {
            return Err(StorageError::SyncFailure {
                path: path.to_path_buf(),
            });
        }
        file.sync_all().map_err(|e| StorageError::io(path, &e))?;
        Ok(offset)
    }

    /// Writes `bytes` to `path` atomically: a `.tmp` sibling is
    /// written and fsynced, renamed over `path`, and the parent
    /// directory fsynced so the rename itself is durable. Any failure
    /// (real or injected) leaves the previous `path` contents intact.
    ///
    /// # Errors
    ///
    /// A typed [`StorageError`]; the target file is untouched.
    pub fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
        let fault = self.armed(StorageOp::AtomicWrite);
        if let Some(StorageFaultKind::Enospc) = fault {
            return Err(StorageError::Enospc {
                path: path.to_path_buf(),
            });
        }
        let tmp = path.with_extension("tmp");
        let mut file = fs::File::create(&tmp).map_err(|e| StorageError::io(&tmp, &e))?;
        match fault {
            Some(StorageFaultKind::TornWrite { at }) => {
                let at = at.min(bytes.len());
                let _ = file.write_all(&bytes[..at]);
                drop(file);
                // The tear hit the tmp file; the target is intact.
                return Err(StorageError::TornWrite {
                    path: path.to_path_buf(),
                    wrote: at,
                });
            }
            Some(StorageFaultKind::CrashAfter { at }) => {
                let at = at.min(bytes.len());
                let _ = file.write_all(&bytes[..at]);
                let _ = file.sync_all();
                std::process::abort();
            }
            _ => {}
        }
        file.write_all(bytes)
            .map_err(|e| StorageError::io(&tmp, &e))?;
        if matches!(fault, Some(StorageFaultKind::SyncFailure)) {
            let _ = fs::remove_file(&tmp);
            return Err(StorageError::SyncFailure {
                path: path.to_path_buf(),
            });
        }
        file.sync_all().map_err(|e| StorageError::io(&tmp, &e))?;
        drop(file);
        fs::rename(&tmp, path).map_err(|e| StorageError::io(path, &e))?;
        // fsync the parent directory so the rename is durable too —
        // the discipline the postmortem writer pioneered, completed.
        if let Some(parent) = path.parent() {
            if let Ok(dir) = fs::File::open(parent) {
                let _ = dir.sync_all();
            }
        }
        Ok(())
    }

    /// Reads the whole file. Injected [`StorageFaultKind::BitFlip`]s
    /// corrupt the returned bytes *silently* — by design, so the test
    /// grid proves the caller's checksums catch them.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] (including not-found).
    pub fn read(&self, path: &Path) -> Result<Vec<u8>, StorageError> {
        let fault = self.armed(StorageOp::Read);
        let mut bytes = fs::read(path).map_err(|e| StorageError::io(path, &e))?;
        if let Some(StorageFaultKind::BitFlip { at }) = fault {
            if !bytes.is_empty() {
                let i = at % bytes.len();
                bytes[i] ^= 1 << (at % 8);
            }
        }
        Ok(bytes)
    }

    /// Truncates `path` to `len` bytes — used to cut a torn tail back
    /// to the last valid record boundary. Not fault-injectable: it
    /// runs during recovery, where the recovery ladder itself is the
    /// degradation path.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`].
    pub fn truncate(&self, path: &Path, len: u64) -> Result<(), StorageError> {
        let file = fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| StorageError::io(path, &e))?;
        file.set_len(len).map_err(|e| StorageError::io(path, &e))?;
        file.sync_all().map_err(|e| StorageError::io(path, &e))?;
        Ok(())
    }

    /// Removes a file, best-effort (pruning old generations must
    /// never fail recovery).
    pub fn remove(&self, path: &Path) {
        let _ = fs::remove_file(path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bsml-storage-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn append_returns_offsets_and_persists() {
        let disk = Disk::new();
        let path = tmp("append.log");
        let _ = fs::remove_file(&path);
        assert_eq!(disk.append_sync(&path, b"abc").unwrap(), 0);
        assert_eq!(disk.append_sync(&path, b"defg").unwrap(), 3);
        assert_eq!(disk.read(&path).unwrap(), b"abcdefg");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn atomic_write_replaces_whole_files() {
        let disk = Disk::new();
        let path = tmp("atomic.bin");
        disk.write_atomic(&path, b"first").unwrap();
        disk.write_atomic(&path, b"second").unwrap();
        assert_eq!(disk.read(&path).unwrap(), b"second");
        disk.remove(&path);
    }

    #[test]
    fn enospc_on_append_writes_nothing() {
        let disk = Disk::with_plan(StoragePlan::new().fault(StorageFault {
            op: StorageOp::Append,
            nth: 1,
            kind: StorageFaultKind::Enospc,
        }));
        let path = tmp("enospc.log");
        let _ = fs::remove_file(&path);
        disk.append_sync(&path, b"ok").unwrap();
        let err = disk.append_sync(&path, b"doomed").unwrap_err();
        assert!(matches!(err, StorageError::Enospc { .. }));
        assert_eq!(disk.read(&path).unwrap(), b"ok");
        // The fault fired once; later appends succeed.
        disk.append_sync(&path, b"!").unwrap();
        assert_eq!(disk.read(&path).unwrap(), b"ok!");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn torn_append_leaves_the_torn_prefix() {
        let disk = Disk::with_plan(StoragePlan::new().fault(StorageFault {
            op: StorageOp::Append,
            nth: 0,
            kind: StorageFaultKind::TornWrite { at: 2 },
        }));
        let path = tmp("torn.log");
        let _ = fs::remove_file(&path);
        let err = disk.append_sync(&path, b"abcdef").unwrap_err();
        assert_eq!(
            err,
            StorageError::TornWrite {
                path: path.clone(),
                wrote: 2
            }
        );
        assert_eq!(disk.read(&path).unwrap(), b"ab");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn failed_atomic_write_keeps_the_old_contents() {
        let path = tmp("keep-old.bin");
        Disk::new().write_atomic(&path, b"old state").unwrap();
        for kind in [
            StorageFaultKind::Enospc,
            StorageFaultKind::TornWrite { at: 3 },
            StorageFaultKind::SyncFailure,
        ] {
            let disk = Disk::with_plan(StoragePlan::new().fault(StorageFault {
                op: StorageOp::AtomicWrite,
                nth: 0,
                kind,
            }));
            assert!(disk.write_atomic(&path, b"new state").is_err());
            assert_eq!(disk.read(&path).unwrap(), b"old state", "{kind:?}");
        }
        Disk::new().remove(&path);
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_bit() {
        let disk = Disk::with_plan(StoragePlan::new().fault(StorageFault {
            op: StorageOp::Read,
            nth: 0,
            kind: StorageFaultKind::BitFlip { at: 5 },
        }));
        let path = tmp("flip.bin");
        Disk::new().write_atomic(&path, b"0123456789").unwrap();
        let corrupt = disk.read(&path).unwrap();
        let clean = disk.read(&path).unwrap(); // fault fired once
        assert_eq!(clean, b"0123456789");
        let diffs: Vec<usize> = corrupt
            .iter()
            .zip(clean.iter())
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(diffs, vec![5]);
        assert_eq!((corrupt[5] ^ clean[5]).count_ones(), 1);
        Disk::new().remove(&path);
    }

    #[test]
    fn truncate_cuts_tails() {
        let disk = Disk::new();
        let path = tmp("truncate.log");
        let _ = fs::remove_file(&path);
        disk.append_sync(&path, b"keep+torn").unwrap();
        disk.truncate(&path, 4).unwrap();
        assert_eq!(disk.read(&path).unwrap(), b"keep");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn chaos_plans_are_seeded_and_in_process_safe() {
        for seed in 0..64 {
            let plan = StoragePlan::chaos(seed);
            assert_eq!(plan, StoragePlan::chaos(seed));
            for f in plan.faults() {
                assert!(
                    !matches!(f.kind, StorageFaultKind::CrashAfter { .. }),
                    "chaos must stay in-process"
                );
                if f.op == StorageOp::Read {
                    assert!(matches!(f.kind, StorageFaultKind::BitFlip { .. }));
                }
            }
        }
        // Seeds disagree somewhere (not all identical).
        assert!((0..64).any(|s| StoragePlan::chaos(s) != StoragePlan::chaos(s + 64)));
    }
}
