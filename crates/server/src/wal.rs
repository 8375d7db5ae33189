//! The write-ahead transcript log behind durable tenant sessions.
//!
//! **Soundness.** BSML evaluation is deterministic, so a tenant
//! session is fully determined by the ordered list of phrases that
//! *committed* ([`crate::Outcome::Done`]) — the same property that
//! lets the server rebuild quarantined sessions from an in-memory
//! transcript. This module makes that transcript durable: one log
//! file per tenant, each committed phrase appended as a
//! checksum-framed record, fsynced before the completion is reported.
//!
//! **Format.** A log file is a sequence of records, each
//! `[len:u64le][body][fnv1a(len‖body):u64le]`: a length prefix, then
//! the shared FNV-1a trailer of `bsml_eval::bytes::seal`, which every
//! wire, checkpoint and postmortem format also ends in. Bodies are
//! `Header` (format version + tenant name, always first), at most one
//! `Snapshot` (a serialized [`SessionSnapshot`](bsml_core::SessionSnapshot)
//! base state, always second), then `Commit` records with contiguous
//! sequence numbers.
//!
//! **Torn-tail rule.** On recovery the file is scanned record by
//! record; the first record that fails its checksum, fails to decode,
//! or runs past the end of the file ends the scan, and the file is
//! truncated back to the last good record. A half-written record
//! costs *that record*, never the session.
//!
//! **Compaction.** Every `snapshot_every` commits the host serializes
//! its session state and [`TenantWal::install_snapshot`] writes a
//! fresh *generation* — `t-<hash>-<gen>.wal`, written whole via
//! tmp+rename+fsync — containing just Header + Snapshot; appends then
//! continue there and older generations are pruned. The host keeps
//! the count; this log only writes what it is given. Recovery cost is
//! O(phrases since the last snapshot). If the newest generation is
//! unusable (corrupt header, undecodable snapshot), recovery falls
//! down the generation ladder to the previous one.
//!
//! All I/O goes through [`bsml_bsp::Disk`], so the fault-injection
//! grid (ENOSPC, torn writes, fsync failure, read bit-flips) covers
//! the WAL with the same plans as the checkpoint store.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bsml_bsp::{Disk, StorageError};
use bsml_eval::bytes::{fnv1a, open, put_bytes, put_str, put_u64, seal, ByteReader, CodecError};
use bsml_obs::Telemetry;

/// WAL format version; bump on any layout change.
const WAL_VERSION: u8 = 1;

// Record body tags.
const R_HEADER: u8 = 0;
const R_SNAPSHOT: u8 = 1;
const R_COMMIT: u8 = 2;

/// One decoded WAL record body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// First record of every file: format version and tenant name.
    Header {
        /// The WAL format version the file was written with.
        version: u8,
        /// The tenant the file belongs to (the filename carries only
        /// its hash).
        tenant: String,
    },
    /// A compaction base: serialized session state as of `seq`.
    Snapshot {
        /// The sequence number of the last commit the state covers.
        seq: u64,
        /// `SessionSnapshot::to_bytes` output.
        state: Vec<u8>,
    },
    /// One committed phrase.
    Commit {
        /// 1-based, contiguous per tenant across generations.
        seq: u64,
        /// The phrase source, exactly as submitted.
        source: String,
    },
}

impl WalRecord {
    /// Encodes the body (without framing).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalRecord::Header { version, tenant } => {
                out.push(R_HEADER);
                out.push(*version);
                put_str(&mut out, tenant);
            }
            WalRecord::Snapshot { seq, state } => {
                out.push(R_SNAPSHOT);
                put_u64(&mut out, *seq);
                put_bytes(&mut out, state);
            }
            WalRecord::Commit { seq, source } => {
                out.push(R_COMMIT);
                put_u64(&mut out, *seq);
                put_str(&mut out, source);
            }
        }
        out
    }

    /// Decodes a body.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on any malformed body; never panics.
    pub fn decode(body: &[u8]) -> Result<WalRecord, CodecError> {
        let mut r = ByteReader::new(body);
        let rec = match r.u8()? {
            R_HEADER => WalRecord::Header {
                version: r.u8()?,
                tenant: r.str()?,
            },
            R_SNAPSHOT => WalRecord::Snapshot {
                seq: r.u64()?,
                state: r.bytes()?.to_vec(),
            },
            R_COMMIT => WalRecord::Commit {
                seq: r.u64()?,
                source: r.str()?,
            },
            other => {
                return Err(CodecError::BadTag {
                    what: "wal record",
                    tag: other,
                })
            }
        };
        r.finish()?;
        Ok(rec)
    }
}

/// Frames a body as `[len][body][fnv1a(len‖body)]`.
#[must_use]
pub fn frame_record(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 16);
    put_bytes(&mut out, body);
    seal(&mut out, 0);
    out
}

/// Scans framed records from the start of `bytes`, stopping at the
/// first torn or corrupt one. Returns the decoded bodies, the byte
/// offset up to which the file is good, and whether a tail was
/// dropped.
#[must_use]
pub fn scan_records(bytes: &[u8]) -> (Vec<WalRecord>, usize, bool) {
    let mut records = Vec::new();
    let mut good = 0usize;
    let mut pos = 0usize;
    loop {
        let rest = &bytes[pos..];
        if rest.is_empty() {
            return (records, good, false);
        }
        if rest.len() < 8 {
            return (records, good, true);
        }
        let len = u64::from_le_bytes(rest[..8].try_into().expect("8 bytes"));
        let Some(total) = len
            .checked_add(16)
            .and_then(|t| usize::try_from(t).ok())
            .filter(|t| *t <= rest.len())
        else {
            return (records, good, true);
        };
        let Ok(record) = open(&rest[..total]).and_then(|sealed| WalRecord::decode(&sealed[8..]))
        else {
            return (records, good, true);
        };
        records.push(record);
        pos += total;
        good = pos;
    }
}

/// Everything recovery could reconstruct for one tenant.
#[derive(Clone, Debug)]
pub struct RecoveredTenant {
    /// The tenant name (from the file header).
    pub name: String,
    /// The compaction base, if the generation has one: the sequence
    /// number it covers and the serialized session state.
    pub base: Option<(u64, Vec<u8>)>,
    /// Committed phrase sources after the base, in commit order.
    pub commits: Vec<String>,
    /// Sequence number of the last recovered commit (or of the base
    /// if no commits followed it). 0 for a tenant with no history.
    pub last_seq: u64,
    /// Whether a torn tail was dropped (and the file truncated).
    pub truncated: bool,
    /// Whether recovery had to fall back past an unusable newer
    /// generation.
    pub fell_back: bool,
    generation: u32,
}

/// A per-tenant append handle. Writes go through the shared
/// [`Disk`], so fault plans cover them.
#[derive(Debug)]
pub struct TenantWal {
    log: DurableLog,
    hash: u64,
    tenant: String,
    generation: u32,
    path: PathBuf,
    /// The known-good file length — every successful append advances
    /// it, and a failed append truncates back to it.
    len: u64,
    next_seq: u64,
    poisoned: bool,
}

impl TenantWal {
    /// Appends one committed phrase, fsynced, rolling the file back to
    /// its previous length if the write fails partway.
    ///
    /// # Errors
    ///
    /// [`StorageError`] — the phrase is then *not* durable and must
    /// not be reported as committed. After a failed rollback the
    /// handle is poisoned and every later append fails fast.
    pub fn append_commit(&mut self, source: &str) -> Result<u64, StorageError> {
        let seq = self.next_seq;
        let body = WalRecord::Commit {
            seq,
            source: source.to_string(),
        }
        .encode();
        self.append_record(&body)?;
        self.next_seq += 1;
        Ok(seq)
    }

    /// The sequence number the next commit will get.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Compacts: writes a fresh generation containing only
    /// Header + Snapshot (covering everything committed so far) via
    /// tmp+rename+fsync, switches appends to it, and prunes older
    /// generations. On failure the current generation stays
    /// authoritative — compaction is repeatable and never required
    /// for correctness.
    ///
    /// # Errors
    ///
    /// [`StorageError`]; the log remains consistent on the old
    /// generation.
    pub fn install_snapshot(&mut self, state: &[u8]) -> Result<(), StorageError> {
        let old = self.generation;
        let covered = (self.next_seq - 1, state);
        *self = self
            .log
            .write_generation(&self.tenant, old + 1, Some(covered), &[])?;
        // Pruning is best-effort: a survivor is only wasted space and
        // recovery always prefers the newest usable generation.
        for gen in 0..=old {
            self.log
                .disk
                .remove(&generation_path(&self.log.dir, self.hash, gen));
        }
        Ok(())
    }

    fn append_record(&mut self, body: &[u8]) -> Result<(), StorageError> {
        if self.poisoned {
            return Err(StorageError::Io {
                path: self.path.clone(),
                what: "wal poisoned by an earlier failed rollback".to_string(),
            });
        }
        let framed = frame_record(body);
        match self.log.disk.append_sync(&self.path, &framed) {
            Ok(_) => {
                self.len += framed.len() as u64;
                self.log
                    .telemetry
                    .counter_add("server.wal_bytes", framed.len() as u64);
                Ok(())
            }
            Err(e) => {
                // Roll the file back to the last known-good length so
                // a torn prefix never survives into recovery (ENOSPC
                // may have created nothing — only files that actually
                // grew need cutting). If the rollback itself fails,
                // refuse all further appends.
                match std::fs::metadata(&self.path) {
                    Ok(m) if m.len() != self.len => {
                        if self.log.disk.truncate(&self.path, self.len).is_err() {
                            self.poisoned = true;
                        }
                    }
                    Ok(_) => {}
                    Err(_) => self.poisoned = self.len > 0,
                }
                Err(e)
            }
        }
    }
}

/// The durable directory: opens, recovers, and hands out per-tenant
/// append handles.
#[derive(Clone, Debug)]
pub struct DurableLog {
    dir: PathBuf,
    disk: Arc<Disk>,
    telemetry: Telemetry,
}

impl DurableLog {
    /// Opens (creating if needed) the durable directory.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the directory cannot be created.
    pub fn open(
        dir: &Path,
        disk: Arc<Disk>,
        telemetry: Telemetry,
    ) -> Result<DurableLog, StorageError> {
        std::fs::create_dir_all(dir).map_err(|e| StorageError::Io {
            path: dir.to_path_buf(),
            what: e.to_string(),
        })?;
        Ok(DurableLog {
            dir: dir.to_path_buf(),
            disk,
            telemetry,
        })
    }

    /// The directory this log lives in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Scans the directory and reconstructs every tenant's durable
    /// state, newest usable generation first, applying the torn-tail
    /// rule (and physically truncating torn files so appends continue
    /// from a clean end). `validate` is given each candidate base
    /// snapshot; rejecting it makes recovery fall back one
    /// generation.
    ///
    /// Returns tenants sorted by name — recovery order is
    /// deterministic.
    #[must_use]
    pub fn recover(&self, validate: &dyn Fn(&[u8]) -> bool) -> Vec<RecoveredTenant> {
        // hash → generations present, newest first.
        let mut tenants: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        for entry in entries.flatten() {
            if let Some((hash, generation)) = parse_wal_name(&entry.file_name().to_string_lossy()) {
                tenants.entry(hash).or_default().push(generation);
            }
        }
        let mut out = Vec::new();
        for (hash, mut gens) in tenants {
            gens.sort_unstable_by(|a, b| b.cmp(a));
            let mut fell_back = false;
            for generation in gens {
                let path = generation_path(&self.dir, hash, generation);
                match self.recover_generation(&path, hash, generation, validate) {
                    Some(mut tenant) => {
                        tenant.fell_back = fell_back;
                        if tenant.truncated {
                            self.telemetry.counter_add("server.wal_truncated_tails", 1);
                        }
                        out.push(tenant);
                        break;
                    }
                    None => fell_back = true,
                }
            }
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Arms appends for one tenant, continuing its recovered
    /// generation or starting a fresh one.
    ///
    /// # Errors
    ///
    /// [`StorageError`] if the fresh file's header cannot be written.
    pub fn tenant(
        &self,
        name: &str,
        recovered: Option<&RecoveredTenant>,
    ) -> Result<TenantWal, StorageError> {
        if let Some(r) = recovered.filter(|r| r.name == name) {
            let path = generation_path(&self.dir, fnv1a(name.as_bytes()), r.generation);
            let len = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            return Ok(self.handle(name, r.generation, len, r.last_seq + 1));
        }
        // Fresh tenant: a generation past anything on disk (an
        // unusable stale file must not be appended to).
        let generation = self.next_generation(name);
        let mut wal = self.handle(name, generation, 0, 1);
        wal.append_record(
            &WalRecord::Header {
                version: WAL_VERSION,
                tenant: name.to_string(),
            }
            .encode(),
        )?;
        Ok(wal)
    }

    /// Re-arms a tenant whose previous [`TenantWal`] is unreachable
    /// (its host thread was abandoned wedged, still owning the
    /// handle). Writes the tenant's history — optional snapshot base
    /// plus every commit after it — as a brand-new generation in one
    /// atomic tmp+rename+fsync, and returns a handle appending there.
    /// The zombie host keeps the *old* generation's path, so there is
    /// never more than one writer per file; recovery prefers the
    /// newest usable generation and ignores whatever the zombie does
    /// to the old one.
    ///
    /// # Errors
    ///
    /// [`StorageError`] if the new generation cannot be written; the
    /// old generations are untouched.
    pub fn rearm(
        &self,
        name: &str,
        base: Option<(u64, &[u8])>,
        commits: &[String],
    ) -> Result<TenantWal, StorageError> {
        self.write_generation(name, self.next_generation(name), base, commits)
    }

    /// One past the newest generation on disk for tenant `name`.
    fn next_generation(&self, name: &str) -> u32 {
        let hash = fnv1a(name.as_bytes());
        std::fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|entry| parse_wal_name(&entry.file_name().to_string_lossy()))
            .filter(|(h, _)| *h == hash)
            .map(|(_, g)| g + 1)
            .max()
            .unwrap_or(0)
    }

    /// Writes generation `generation` of tenant `name` whole — Header,
    /// then the optional snapshot base, then `commits` numbered on
    /// from it — and returns a handle appending there.
    fn write_generation(
        &self,
        name: &str,
        generation: u32,
        base: Option<(u64, &[u8])>,
        commits: &[String],
    ) -> Result<TenantWal, StorageError> {
        let mut bytes = frame_record(
            &WalRecord::Header {
                version: WAL_VERSION,
                tenant: name.to_string(),
            }
            .encode(),
        );
        let mut seq = 0u64;
        if let Some((covered, state)) = base {
            bytes.extend_from_slice(&frame_record(
                &WalRecord::Snapshot {
                    seq: covered,
                    state: state.to_vec(),
                }
                .encode(),
            ));
            seq = covered;
        }
        for source in commits {
            seq += 1;
            bytes.extend_from_slice(&frame_record(
                &WalRecord::Commit {
                    seq,
                    source: source.clone(),
                }
                .encode(),
            ));
        }
        let path = generation_path(&self.dir, fnv1a(name.as_bytes()), generation);
        self.disk.write_atomic(&path, &bytes)?;
        self.telemetry
            .counter_add("server.wal_bytes", bytes.len() as u64);
        Ok(self.handle(name, generation, bytes.len() as u64, seq + 1))
    }

    /// A handle appending to generation `generation` of tenant `name`,
    /// whose known-good length is `len`.
    fn handle(&self, name: &str, generation: u32, len: u64, next_seq: u64) -> TenantWal {
        let hash = fnv1a(name.as_bytes());
        TenantWal {
            log: self.clone(),
            hash,
            tenant: name.to_string(),
            generation,
            path: generation_path(&self.dir, hash, generation),
            len,
            next_seq,
            poisoned: false,
        }
    }

    fn recover_generation(
        &self,
        path: &Path,
        hash: u64,
        generation: u32,
        validate: &dyn Fn(&[u8]) -> bool,
    ) -> Option<RecoveredTenant> {
        let bytes = self.disk.read(path).ok()?;
        let (records, good, torn) = scan_records(&bytes);
        let mut records = records.into_iter();
        // The header is the fingerprint: its name must hash to the
        // filename, or the file is not what its name claims.
        let name = match records.next() {
            Some(WalRecord::Header { version, tenant })
                if version == WAL_VERSION && fnv1a(tenant.as_bytes()) == hash =>
            {
                tenant
            }
            _ => return None,
        };
        let mut base: Option<(u64, Vec<u8>)> = None;
        let mut commits: Vec<String> = Vec::new();
        let mut last_seq = 0u64;
        let mut logical_torn = torn;
        for record in records {
            match record {
                WalRecord::Snapshot { seq, state } if base.is_none() && commits.is_empty() => {
                    if !validate(&state) {
                        return None;
                    }
                    last_seq = seq;
                    base = Some((seq, state));
                }
                WalRecord::Commit { seq, source } if seq == last_seq + 1 => {
                    last_seq = seq;
                    commits.push(source);
                }
                // A record out of place or out of sequence ends the
                // usable prefix, exactly like a torn tail.
                _ => {
                    logical_torn = true;
                    break;
                }
            }
        }
        if torn || logical_torn {
            // Physically drop the bad tail so appends resume from a
            // clean, checksummed end. Re-derive the offset from the
            // logical prefix when the tail was checksum-valid but
            // out of sequence.
            let keep = if logical_torn && !torn {
                reframed_len(&bytes, 1 + u64::from(base.is_some()) + commits.len() as u64)
            } else {
                good
            };
            let _ = self.disk.truncate(path, keep as u64);
        }
        Some(RecoveredTenant {
            name,
            base,
            commits,
            last_seq,
            truncated: torn || logical_torn,
            fell_back: false,
            generation,
        })
    }
}

/// Byte length of the first `n` framed records of `bytes` (which must
/// have at least that many valid frames — callers pass counts they
/// just scanned).
fn reframed_len(bytes: &[u8], n: u64) -> usize {
    let mut pos = 0usize;
    for _ in 0..n {
        let len = u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("scanned frame"));
        pos += len as usize + 16;
    }
    pos
}

fn generation_path(dir: &Path, hash: u64, generation: u32) -> PathBuf {
    dir.join(format!("t-{hash:016x}-{generation:08}.wal"))
}

/// Parses `t-<16 hex>-<8 digits>.wal` into (hash, generation).
fn parse_wal_name(name: &str) -> Option<(u64, u32)> {
    let rest = name.strip_prefix("t-")?.strip_suffix(".wal")?;
    let (hash_hex, gen_dec) = rest.split_once('-')?;
    if hash_hex.len() != 16 || gen_dec.len() != 8 {
        return None;
    }
    Some((
        u64::from_str_radix(hash_hex, 16).ok()?,
        gen_dec.parse::<u32>().ok()?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(dir: &Path) -> DurableLog {
        DurableLog::open(dir, Arc::new(Disk::new()), Telemetry::disabled()).unwrap()
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bsml-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn record_bodies_roundtrip() {
        for rec in [
            WalRecord::Header {
                version: 1,
                tenant: "tenant007".to_string(),
            },
            WalRecord::Snapshot {
                seq: 9,
                state: vec![1, 2, 3],
            },
            WalRecord::Commit {
                seq: 10,
                source: "let x = 1".to_string(),
            },
        ] {
            assert_eq!(WalRecord::decode(&rec.encode()).unwrap(), rec);
        }
    }

    #[test]
    fn append_then_recover() {
        let dir = tempdir("append");
        let log = log(&dir);
        let mut wal = log.tenant("alice", None).unwrap();
        assert_eq!(wal.append_commit("let x = 1").unwrap(), 1);
        assert_eq!(wal.append_commit("let y = x + 1").unwrap(), 2);
        let recovered = log.recover(&|_| true);
        assert_eq!(recovered.len(), 1);
        let r = &recovered[0];
        assert_eq!(r.name, "alice");
        assert!(r.base.is_none());
        assert_eq!(r.commits, vec!["let x = 1", "let y = x + 1"]);
        assert_eq!(r.last_seq, 2);
        assert!(!r.truncated);
        // Appends continue with the right sequence number.
        let mut wal = log.tenant("alice", Some(r)).unwrap();
        assert_eq!(wal.next_seq(), 3);
        assert_eq!(wal.append_commit("let z = 3").unwrap(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = tempdir("torn");
        let log = log(&dir);
        let mut wal = log.tenant("bob", None).unwrap();
        wal.append_commit("let a = 1").unwrap();
        wal.append_commit("let b = 2").unwrap();
        // Tear the file mid-way through the last record.
        let path = generation_path(&dir, fnv1a(b"bob"), 0);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let recovered = log.recover(&|_| true);
        let r = &recovered[0];
        assert_eq!(r.commits, vec!["let a = 1"]);
        assert!(r.truncated);
        // The file was physically truncated: a second recovery is
        // clean.
        let again = log.recover(&|_| true);
        assert_eq!(again[0].commits, vec!["let a = 1"]);
        assert!(!again[0].truncated);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_starts_a_new_generation_and_prunes() {
        let dir = tempdir("compact");
        let log = log(&dir);
        let mut wal = log.tenant("carol", None).unwrap();
        for i in 0..4 {
            wal.append_commit(&format!("let v{i} = {i}")).unwrap();
        }
        wal.install_snapshot(b"fake-state").unwrap();
        wal.append_commit("let after = 9").unwrap();
        // Old generation pruned, new one carries base + suffix.
        assert!(!generation_path(&dir, fnv1a(b"carol"), 0).exists());
        let recovered = log.recover(&|_| true);
        let r = &recovered[0];
        assert_eq!(r.base.as_ref().unwrap(), &(4, b"fake-state".to_vec()));
        assert_eq!(r.commits, vec!["let after = 9"]);
        assert_eq!(r.last_seq, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unusable_snapshot_falls_down_the_generation_ladder() {
        let dir = tempdir("ladder");
        let log = log(&dir);
        let mut wal = log.tenant("dave", None).unwrap();
        wal.append_commit("let a = 1").unwrap();
        wal.install_snapshot(b"good").unwrap();
        // Generation 1 now holds the snapshot; gen 0 was pruned, so
        // recreate an older, still-valid generation to fall back to.
        let mut old = log.tenant("dave-old", None).unwrap();
        old.append_commit("unused").unwrap();
        // Rejecting every snapshot forces the ladder: with no older
        // generation, recovery reports nothing for dave.
        let recovered = log.recover(&|state| state != b"good");
        assert!(!recovered.iter().any(|r| r.name == "dave"));
        // Accepting it recovers normally.
        let recovered = log.recover(&|_| true);
        assert!(recovered.iter().any(|r| r.name == "dave"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_append_rolls_the_file_back() {
        use bsml_bsp::{StorageFault, StorageFaultKind, StorageOp, StoragePlan};
        let dir = tempdir("rollback");
        let disk = Arc::new(Disk::with_plan(StoragePlan::new().fault(StorageFault {
            op: StorageOp::Append,
            nth: 2, // header, first commit, then tear the second
            kind: StorageFaultKind::TornWrite { at: 7 },
        })));
        let log = DurableLog::open(&dir, disk, Telemetry::disabled()).unwrap();
        let mut wal = log.tenant("erin", None).unwrap();
        wal.append_commit("let ok = 1").unwrap();
        let err = wal.append_commit("let torn = 2").unwrap_err();
        assert!(matches!(err, StorageError::TornWrite { .. }));
        // The torn prefix was rolled back: recovery sees exactly the
        // committed prefix, nothing torn.
        let recovered = log.recover(&|_| true);
        let r = &recovered[0];
        assert_eq!(r.commits, vec!["let ok = 1"]);
        assert!(!r.truncated);
        // And the log keeps working.
        let mut wal = log.tenant("erin", Some(r)).unwrap();
        assert_eq!(wal.append_commit("let again = 3").unwrap(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rearm_writes_history_whole_into_a_new_generation() {
        let dir = tempdir("rearm");
        let log = log(&dir);
        let mut wal = log.tenant("fred", None).unwrap();
        wal.append_commit("let a = 1").unwrap();
        wal.append_commit("let b = 2").unwrap();
        // The host owning `wal` wedged; re-arm from the server's
        // in-memory history without touching the old generation.
        let commits = vec!["let a = 1".to_string(), "let b = 2".to_string()];
        let mut fresh = log.rearm("fred", None, &commits).unwrap();
        assert_eq!(fresh.next_seq(), 3);
        assert_eq!(fresh.append_commit("let c = 3").unwrap(), 3);
        // The zombie's late append lands in the old generation and is
        // ignored: recovery prefers the newest usable one.
        wal.append_commit("zombie write").unwrap();
        let recovered = log.recover(&|_| true);
        let r = recovered.iter().find(|r| r.name == "fred").unwrap();
        assert_eq!(r.commits, vec!["let a = 1", "let b = 2", "let c = 3"]);
        // With a base, sequence numbers continue past it.
        let rearmed = log.rearm("fred", Some((3, b"state")), &[]).unwrap();
        assert_eq!(rearmed.next_seq(), 4);
        let recovered = log.recover(&|_| true);
        let r = recovered.iter().find(|r| r.name == "fred").unwrap();
        assert_eq!(r.base.as_ref().unwrap(), &(3, b"state".to_vec()));
        assert_eq!(r.last_seq, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_names_parse_and_reject_foreigners() {
        assert_eq!(
            parse_wal_name("t-00000000deadbeef-00000003.wal"),
            Some((0xdead_beef, 3))
        );
        assert_eq!(parse_wal_name("t-xyz-00000003.wal"), None);
        assert_eq!(parse_wal_name("gen-00000001.ckpt"), None);
        assert_eq!(parse_wal_name("t-00000000deadbeef-3.wal"), None);
    }

    #[test]
    fn bit_flips_anywhere_stop_the_scan_cleanly() {
        let mut bytes = frame_record(
            &WalRecord::Commit {
                seq: 1,
                source: "let x = 1".to_string(),
            }
            .encode(),
        );
        bytes.extend_from_slice(&frame_record(
            &WalRecord::Commit {
                seq: 2,
                source: "let y = 2".to_string(),
            }
            .encode(),
        ));
        let first = reframed_len(&bytes, 1);
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                let (records, good, torn) = scan_records(&bad);
                assert!(torn, "flip at {byte}:{bit} went undetected");
                if byte < first {
                    assert!(records.is_empty());
                    assert_eq!(good, 0);
                } else {
                    assert_eq!(records.len(), 1);
                    assert_eq!(good, first);
                }
            }
        }
    }
}
