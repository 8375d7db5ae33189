//! Superstep-granularity checkpointing for the distributed machine.
//!
//! The frames of one superstep count form a globally-consistent cut:
//! a rank's frame after `s` completed supersteps holds everything it
//! received in them, and no message of a later superstep. The
//! distributed machine exploits this (DESIGN.md §9): every `k`
//! completed supersteps each rank *stages* a [`RankFrame`] — its
//! externally-visible state at the cut — and the stage of the `p`-th
//! frame *commits* the generation. A committed generation therefore
//! always contains all `p` frames of the same cut; a crash between
//! staging and commit leaves an invisible, harmless partial
//! generation.
//!
//! A frame records the rank's fuel remaining, its communication
//! statistics, and the ordered log of communication outcomes (the
//! rows delivered by each `put`, the boolean chosen by each
//! `if‥at‥`). Because mini-BSML is deterministic (paper §5, Thm. 2),
//! this log is a complete recovery recipe: a resumed rank re-runs its
//! local computation, consuming recorded outcomes instead of the
//! network for the checkpointed prefix, and goes live at the cut. The
//! fuel and statistics in the frame double as a divergence detector —
//! replay must land on them *exactly*, or the checkpoint is rejected
//! ([`bsml_eval::EvalError::CheckpointDiverged`]) and recovery falls
//! back to a full restart. A corrupted checkpoint can cost time, never
//! correctness.
//!
//! Frames embed the same [`crate::wire`] value codec the network
//! transport speaks, so there is one serialized form on the wire and
//! at rest, and end in the shared FNV-1a trailer
//! ([`bsml_eval::bytes::seal`]). The file-backed store writes one file
//! per generation under a run directory, each frame behind a length
//! prefix, with a commit-marker trailer, so any byte-flip is caught at
//! load and the loader can fall down the generation ladder.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use bsml_ast::Expr;
use bsml_eval::bytes::{fnv1a, open, put_u64, seal, ByteReader, CodecError};

use crate::lock;
use crate::storage::{Disk, StorageError};
use crate::wire::value_bytes;

/// Leading magic of a serialized frame.
const FRAME_MAGIC: u64 = 0x4253_4d4c_4652_414d; // "BSMLFRAM"
/// Leading magic of a generation file. Version 2 holds messages in the
/// session codec's tags; a version-1 file is refused as malformed.
const FILE_MAGIC: u64 = 0x4253_4d4c_434b_5032; // "BSMLCKP2"
/// Trailing commit marker of a generation file — its presence *is*
/// the commit: a file without it was interrupted mid-write and is
/// treated as never having existed.
const COMMIT_MAGIC: u64 = 0x4253_4d4c_444f_4e45; // "BSMLDONE"

/// Fingerprint binding a checkpoint to one (program, p) pair: frames
/// written for a different program or machine size never resume this
/// one. Same-program stale checkpoints are *sound* to resume by
/// determinism, so the store is never cleared implicitly.
#[must_use]
pub fn program_fingerprint(e: &Expr, p: usize) -> u64 {
    fnv1a(e.to_string().as_bytes()) ^ (p as u64)
}

/// One recorded communication outcome — everything a superstep's
/// synchronization contributed to this rank's state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SyncOutcome {
    /// A `put` barrier: the full delivered table (entry `j` is the
    /// message from rank `j`, self-message included).
    Put {
        /// The delivered messages, indexed by sender, each encoded
        /// with [`bsml_eval::persist::encode_value`]: the bytes the
        /// exchange carried.
        delivered: Vec<Vec<u8>>,
    },
    /// An `if‥at‥` barrier: the broadcast boolean.
    IfAt {
        /// The boolean chosen at the deciding rank.
        chosen: bool,
    },
}

/// One rank's state at a barrier cut.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankFrame {
    /// [`program_fingerprint`] of the run that wrote the frame.
    pub fingerprint: u64,
    /// The rank this frame belongs to.
    pub rank: usize,
    /// Completed supersteps at the cut (= the generation).
    pub superstep: u64,
    /// Evaluator fuel remaining at the cut — the replay fingerprint.
    pub fuel_left: u64,
    /// Words sent so far (self-messages excluded).
    pub sent_words: u64,
    /// Words received so far (self-messages excluded).
    pub received_words: u64,
    /// `put` barriers completed so far.
    pub puts: u64,
    /// `if‥at‥` barriers completed so far.
    pub ifats: u64,
    /// The ordered outcome log of supersteps `0..superstep`.
    pub outcomes: Vec<SyncOutcome>,
}

/// Why a checkpoint operation failed. Load-side failures make the
/// generation unusable; the caller falls back down the ladder.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The bytes do not parse as a frame/generation.
    Malformed(String),
    /// The frame's FNV trailer does not match its contents.
    ChecksumMismatch {
        /// The generation being loaded.
        generation: u64,
        /// The rank whose frame failed verification.
        rank: usize,
    },
    /// The frame belongs to a different (program, p) pair.
    FingerprintMismatch {
        /// The generation being loaded.
        generation: u64,
    },
    /// Commit was requested before all `p` frames were staged.
    Incomplete {
        /// The generation being committed.
        generation: u64,
        /// Frames staged so far.
        have: usize,
        /// Frames required.
        need: usize,
    },
    /// The generation was never committed (or its commit marker is
    /// missing — an interrupted write).
    NotCommitted {
        /// The requested generation.
        generation: u64,
    },
    /// The file backend hit an I/O error.
    Io(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
            CheckpointError::ChecksumMismatch { generation, rank } => write!(
                f,
                "checkpoint generation {generation}: rank {rank} frame checksum mismatch"
            ),
            CheckpointError::FingerprintMismatch { generation } => write!(
                f,
                "checkpoint generation {generation} belongs to a different program"
            ),
            CheckpointError::Incomplete {
                generation,
                have,
                need,
            } => write!(
                f,
                "checkpoint generation {generation} incomplete: {have}/{need} frames staged"
            ),
            CheckpointError::NotCommitted { generation } => {
                write!(f, "checkpoint generation {generation} was never committed")
            }
            CheckpointError::Io(what) => write!(f, "checkpoint I/O error: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<StorageError> for CheckpointError {
    /// Storage-backend failures (including injected faults) surface as
    /// [`CheckpointError::Io`]: typed, and always leaving the previous
    /// committed generation intact.
    fn from(e: StorageError) -> CheckpointError {
        CheckpointError::Io(e.to_string())
    }
}

impl From<CodecError> for CheckpointError {
    /// Codec-level failures (truncation, bad tags, count overflow)
    /// surface as [`CheckpointError::Malformed`]; checksum checking
    /// stays checkpoint-side so the error can carry its coordinates.
    fn from(e: CodecError) -> CheckpointError {
        CheckpointError::Malformed(e.to_string())
    }
}

/// How often the distributed machine checkpoints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointPolicy {
    interval: u64,
}

impl CheckpointPolicy {
    /// Checkpoint every `k` completed supersteps (`k = 1` checkpoints
    /// at every barrier).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn every(k: u64) -> CheckpointPolicy {
        assert!(k > 0, "a checkpoint interval must be at least 1");
        CheckpointPolicy { interval: k }
    }

    /// The interval `k`.
    #[must_use]
    pub fn interval(&self) -> u64 {
        self.interval
    }
}

impl Default for CheckpointPolicy {
    /// The default policy checkpoints at every barrier (`k = 1`).
    fn default() -> CheckpointPolicy {
        CheckpointPolicy::every(1)
    }
}

/// A consistent cut to resume from: the committed generation and all
/// `p` verified frames, indexed by rank.
#[derive(Clone, Debug)]
pub struct ResumePoint {
    /// The generation (= supersteps completed at the cut).
    pub superstep: u64,
    /// One verified frame per rank, in rank order.
    pub frames: Vec<RankFrame>,
}

/// Where checkpoint frames live.
///
/// Staging and commit are split so that every stager can try the
/// commit: a generation becomes visible to [`CheckpointStore::load`]
/// only once every rank's frame of the *same cut* is staged — the
/// consistency argument of DESIGN.md §9 — and only one commit takes
/// the frames.
pub trait CheckpointStore: fmt::Debug + Send + Sync {
    /// Stages one rank's frame for generation `frame.superstep`.
    /// Returns the staged frame's encoded size in bytes.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] from the backend.
    fn stage(&self, frame: &RankFrame) -> Result<u64, CheckpointError>;

    /// Commits generation `generation`, making it loadable. Returns
    /// the total committed bytes.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Incomplete`] if fewer than `p` frames are
    /// staged; [`CheckpointError::Io`] from the backend.
    fn commit(&self, generation: u64, p: usize) -> Result<u64, CheckpointError>;

    /// Committed generations, ascending.
    fn generations(&self) -> Vec<u64>;

    /// Loads and verifies all `p` frames of a committed generation:
    /// structure, per-frame checksum, fingerprint, and cut coherence
    /// (every frame at `generation` with `rank` = its index).
    ///
    /// # Errors
    ///
    /// Any [`CheckpointError`]; the caller treats the generation as
    /// unusable and falls back down the ladder.
    fn load(
        &self,
        generation: u64,
        p: usize,
        fingerprint: u64,
    ) -> Result<Vec<RankFrame>, CheckpointError>;

    /// Discards every staged and committed generation.
    fn clear(&self);
}

// ---------------------------------------------------------------------------
// Frame codec (value serialization shared with crate::wire)
// ---------------------------------------------------------------------------

impl RankFrame {
    /// Serializes the frame: magic, header, outcome log, sealed with
    /// the FNV-1a trailer over everything preceding it.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128);
        put_u64(&mut out, FRAME_MAGIC);
        put_u64(&mut out, self.fingerprint);
        put_u64(&mut out, self.rank as u64);
        put_u64(&mut out, self.superstep);
        put_u64(&mut out, self.fuel_left);
        put_u64(&mut out, self.sent_words);
        put_u64(&mut out, self.received_words);
        put_u64(&mut out, self.puts);
        put_u64(&mut out, self.ifats);
        put_u64(&mut out, self.outcomes.len() as u64);
        for outcome in &self.outcomes {
            match outcome {
                SyncOutcome::Put { delivered } => {
                    out.push(0);
                    put_u64(&mut out, delivered.len() as u64);
                    for message in delivered {
                        out.extend_from_slice(message);
                    }
                }
                SyncOutcome::IfAt { chosen } => {
                    out.push(1);
                    out.push(u8::from(*chosen));
                }
            }
        }
        seal(&mut out, 0);
        out
    }

    /// Parses and verifies one frame (magic, structure, checksum).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`] or a checksum mismatch (reported
    /// with `generation`/`rank` taken from the *claimed* header so the
    /// ladder can name the culprit).
    pub fn decode(bytes: &[u8]) -> Result<RankFrame, CheckpointError> {
        if bytes.len() < 8 + 8 {
            return Err(CheckpointError::Malformed("frame too short".into()));
        }
        let mut r = ByteReader::new(&bytes[..bytes.len() - 8]);
        if r.u64()? != FRAME_MAGIC {
            return Err(CheckpointError::Malformed("bad frame magic".into()));
        }
        let fingerprint = r.u64()?;
        let rank = r.u64()? as usize;
        let superstep = r.u64()?;
        // Opened after the header parse so the error can carry a
        // best-effort coordinate, but before trusting any count.
        open(bytes).map_err(|_| CheckpointError::ChecksumMismatch {
            generation: superstep,
            rank,
        })?;
        let fuel_left = r.u64()?;
        let sent_words = r.u64()?;
        let received_words = r.u64()?;
        let puts = r.u64()?;
        let ifats = r.u64()?;
        let n = r.count()?;
        let mut outcomes = Vec::with_capacity(n);
        for _ in 0..n {
            outcomes.push(match r.u8()? {
                0 => {
                    let m = r.count()?;
                    let mut delivered = Vec::with_capacity(m);
                    for _ in 0..m {
                        delivered.push(value_bytes(&mut r)?.to_vec());
                    }
                    SyncOutcome::Put { delivered }
                }
                1 => SyncOutcome::IfAt {
                    chosen: r.u8()? != 0,
                },
                tag => {
                    return Err(CheckpointError::Malformed(format!(
                        "unknown outcome tag {tag}"
                    )))
                }
            });
        }
        r.finish()?;
        Ok(RankFrame {
            fingerprint,
            rank,
            superstep,
            fuel_left,
            sent_words,
            received_words,
            puts,
            ifats,
            outcomes,
        })
    }
}

/// Verifies that decoded frames form the consistent cut they claim:
/// one frame per rank in order, all at `generation`, all of this
/// program, each with a complete outcome log (one outcome per
/// completed superstep).
fn verify_cut(
    frames: Vec<RankFrame>,
    generation: u64,
    p: usize,
    fingerprint: u64,
) -> Result<Vec<RankFrame>, CheckpointError> {
    if frames.len() != p {
        return Err(CheckpointError::Incomplete {
            generation,
            have: frames.len(),
            need: p,
        });
    }
    for (i, f) in frames.iter().enumerate() {
        if f.fingerprint != fingerprint {
            return Err(CheckpointError::FingerprintMismatch { generation });
        }
        if f.rank != i || f.superstep != generation {
            return Err(CheckpointError::Malformed(format!(
                "frame {i} claims (rank {}, superstep {}), expected (rank {i}, superstep \
                 {generation})",
                f.rank, f.superstep
            )));
        }
        if f.outcomes.len() as u64 != generation || f.puts + f.ifats != generation {
            return Err(CheckpointError::Malformed(format!(
                "rank {i}: outcome log of {} entries ({} puts + {} ifats) for {generation} \
                 supersteps",
                f.outcomes.len(),
                f.puts,
                f.ifats
            )));
        }
    }
    Ok(frames)
}

// ---------------------------------------------------------------------------
// In-memory store
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct MemoryState {
    /// Staged frame bytes per generation, indexed by rank.
    staged: BTreeMap<u64, BTreeMap<usize, Vec<u8>>>,
    /// Committed generations (bytes moved out of `staged`).
    committed: BTreeMap<u64, Vec<Vec<u8>>>,
}

/// A heap-backed [`CheckpointStore`] — the default for tests and
/// single-process runs. Frames are kept *encoded*, so load exercises
/// the same verification path as the file backend.
#[derive(Debug, Default)]
pub struct MemoryStore {
    state: Mutex<MemoryState>,
}

impl MemoryStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> MemoryStore {
        MemoryStore::default()
    }
}

impl CheckpointStore for MemoryStore {
    fn stage(&self, frame: &RankFrame) -> Result<u64, CheckpointError> {
        let bytes = frame.encode();
        let len = bytes.len() as u64;
        lock(&self.state)
            .staged
            .entry(frame.superstep)
            .or_default()
            .insert(frame.rank, bytes);
        Ok(len)
    }

    fn commit(&self, generation: u64, p: usize) -> Result<u64, CheckpointError> {
        let mut st = lock(&self.state);
        let have = st.staged.get(&generation).map_or(0, BTreeMap::len);
        if have != p {
            return Err(CheckpointError::Incomplete {
                generation,
                have,
                need: p,
            });
        }
        let staged = st.staged.remove(&generation).expect("checked non-empty");
        let frames: Vec<Vec<u8>> = staged.into_values().collect();
        let bytes = frames.iter().map(|f| f.len() as u64).sum();
        st.committed.insert(generation, frames);
        Ok(bytes)
    }

    fn generations(&self) -> Vec<u64> {
        lock(&self.state).committed.keys().copied().collect()
    }

    fn load(
        &self,
        generation: u64,
        p: usize,
        fingerprint: u64,
    ) -> Result<Vec<RankFrame>, CheckpointError> {
        let encoded = lock(&self.state)
            .committed
            .get(&generation)
            .cloned()
            .ok_or(CheckpointError::NotCommitted { generation })?;
        let frames = encoded
            .iter()
            .map(|bytes| RankFrame::decode(bytes))
            .collect::<Result<Vec<_>, _>>()?;
        verify_cut(frames, generation, p, fingerprint)
    }

    fn clear(&self) {
        let mut st = lock(&self.state);
        st.staged.clear();
        st.committed.clear();
    }
}

// ---------------------------------------------------------------------------
// File-backed store
// ---------------------------------------------------------------------------

/// A [`CheckpointStore`] writing one file per committed generation
/// under a run directory:
///
/// ```text
/// gen-00000002.ckpt :=
///     FILE_MAGIC  generation  p
///     (frame_len  frame_bytes) × p      frames in rank order, each
///                                       carrying its own FNV trailer
///     COMMIT_MAGIC                      present ⇔ committed
/// ```
///
/// Staged frames live in memory; `commit` writes the whole generation
/// to a `.tmp` sibling with the trailing marker last, fsyncs it, and
/// renames it into place ([`Disk::write_atomic`]) — so an interrupted
/// commit is indistinguishable from "no checkpoint" even across a
/// power cut, not merely across a process crash.
#[derive(Debug)]
pub struct FileStore {
    dir: PathBuf,
    disk: Arc<Disk>,
    staged: Mutex<BTreeMap<u64, BTreeMap<usize, Vec<u8>>>>,
}

impl FileStore {
    /// Opens (creating if needed) a run directory on a fault-free
    /// disk.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the directory cannot be created.
    pub fn open(dir: impl AsRef<Path>) -> Result<FileStore, CheckpointError> {
        FileStore::open_with_disk(dir, Arc::new(Disk::new()))
    }

    /// Opens a run directory over an injectable [`Disk`] — the hook
    /// the storage-fault grid uses to prove every disk fault degrades
    /// to a typed error or an older committed generation.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the directory cannot be created.
    pub fn open_with_disk(
        dir: impl AsRef<Path>,
        disk: Arc<Disk>,
    ) -> Result<FileStore, CheckpointError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| CheckpointError::Io(e.to_string()))?;
        Ok(FileStore {
            dir,
            disk,
            staged: Mutex::new(BTreeMap::new()),
        })
    }

    /// The path of a generation's file.
    #[must_use]
    pub fn generation_path(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("gen-{generation:08}.ckpt"))
    }

    fn read_generation(&self, generation: u64) -> Result<Vec<RankFrame>, CheckpointError> {
        let path = self.generation_path(generation);
        if !path.exists() {
            return Err(CheckpointError::NotCommitted { generation });
        }
        let bytes = self.disk.read(&path)?;
        if bytes.len() < 8 * 4 {
            return Err(CheckpointError::Malformed(
                "generation file too short".into(),
            ));
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        if u64::from_le_bytes(trailer.try_into().expect("8 bytes")) != COMMIT_MAGIC {
            // No commit marker: the write was interrupted. The
            // generation never happened.
            return Err(CheckpointError::NotCommitted { generation });
        }
        let mut r = ByteReader::new(body);
        if r.u64()? != FILE_MAGIC {
            return Err(CheckpointError::Malformed(
                "bad generation-file magic".into(),
            ));
        }
        let claimed_gen = r.u64()?;
        if claimed_gen != generation {
            return Err(CheckpointError::Malformed(format!(
                "file claims generation {claimed_gen}, expected {generation}"
            )));
        }
        let p = r.count()?;
        let mut frames = Vec::with_capacity(p);
        for _ in 0..p {
            let len = r.count()?;
            frames.push(RankFrame::decode(r.take(len)?)?);
        }
        r.finish()?;
        Ok(frames)
    }
}

impl CheckpointStore for FileStore {
    fn stage(&self, frame: &RankFrame) -> Result<u64, CheckpointError> {
        let bytes = frame.encode();
        let len = bytes.len() as u64;
        lock(&self.staged)
            .entry(frame.superstep)
            .or_default()
            .insert(frame.rank, bytes);
        Ok(len)
    }

    fn commit(&self, generation: u64, p: usize) -> Result<u64, CheckpointError> {
        let staged = {
            let mut st = lock(&self.staged);
            let have = st.get(&generation).map_or(0, BTreeMap::len);
            if have != p {
                return Err(CheckpointError::Incomplete {
                    generation,
                    have,
                    need: p,
                });
            }
            st.remove(&generation).expect("checked non-empty")
        };
        let mut out = Vec::new();
        put_u64(&mut out, FILE_MAGIC);
        put_u64(&mut out, generation);
        put_u64(&mut out, p as u64);
        for frame in staged.into_values() {
            put_u64(&mut out, frame.len() as u64);
            out.extend_from_slice(&frame);
        }
        put_u64(&mut out, COMMIT_MAGIC);
        let total = out.len() as u64;
        let path = self.generation_path(generation);
        // tmp + fsync + rename + parent-dir fsync: a "committed"
        // generation is durable, not merely written.
        self.disk.write_atomic(&path, &out)?;
        Ok(total)
    }

    fn generations(&self) -> Vec<u64> {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut gens: Vec<u64> = entries
            .filter_map(Result::ok)
            .filter_map(|entry| {
                let name = entry.file_name();
                let name = name.to_str()?;
                // Name-scan only: corrupt or uncommitted files stay on
                // the list so recovery can *observe* their corruption
                // (and count it) when `load` is attempted, instead of
                // silently skipping them.
                name.strip_prefix("gen-")?
                    .strip_suffix(".ckpt")?
                    .parse()
                    .ok()
            })
            .collect();
        gens.sort_unstable();
        gens
    }

    fn load(
        &self,
        generation: u64,
        p: usize,
        fingerprint: u64,
    ) -> Result<Vec<RankFrame>, CheckpointError> {
        verify_cut(
            self.read_generation(generation)?,
            generation,
            p,
            fingerprint,
        )
    }

    fn clear(&self) {
        lock(&self.staged).clear();
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for entry in entries.filter_map(Result::ok) {
                let name = entry.file_name();
                let is_gen = name
                    .to_str()
                    .is_some_and(|n| n.starts_with("gen-") && n.ends_with(".ckpt"));
                if is_gen {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsml_eval::Value;
    use std::rc::Rc;

    fn encoded(v: &Value) -> Vec<u8> {
        let mut out = Vec::new();
        bsml_eval::persist::encode_value(&mut out, v).expect("a first-order value");
        out
    }

    fn frame(rank: usize, superstep: u64) -> RankFrame {
        RankFrame {
            fingerprint: 0xF00D,
            rank,
            superstep,
            fuel_left: 9_000 + rank as u64,
            sent_words: 12,
            received_words: 8,
            puts: superstep,
            ifats: 0,
            outcomes: (0..superstep)
                .map(|s| SyncOutcome::Put {
                    delivered: vec![
                        encoded(&Value::Int(s as i64)),
                        encoded(&Value::pair(Value::Bool(true), Value::Nil)),
                    ],
                })
                .collect(),
        }
    }

    #[test]
    fn frame_codec_roundtrips() {
        let f = RankFrame {
            outcomes: vec![
                SyncOutcome::Put {
                    delivered: [
                        Value::NoComm,
                        Value::vector(vec![Value::Int(-7)]),
                        Value::list([Value::Int(1)]),
                        Value::Inl(Rc::new(Value::Unit)),
                        Value::Inr(Rc::new(Value::Bool(false))),
                    ]
                    .iter()
                    .map(encoded)
                    .collect(),
                },
                SyncOutcome::IfAt { chosen: true },
            ],
            puts: 1,
            ifats: 1,
            superstep: 2,
            ..frame(3, 0)
        };
        let decoded = RankFrame::decode(&f.encode()).unwrap();
        assert_eq!(decoded, f);
    }

    #[test]
    fn every_single_byte_flip_is_caught() {
        let f = frame(1, 2);
        let bytes = f.encode();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            let result = RankFrame::decode(&corrupt);
            assert!(
                result.is_err() || result.as_ref().ok() != Some(&f),
                "flip at byte {i} went unnoticed"
            );
        }
    }

    #[test]
    fn truncation_is_malformed_not_panic() {
        let bytes = frame(0, 3).encode();
        for cut in 0..bytes.len() {
            assert!(RankFrame::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn memory_store_commit_gates_visibility() {
        let store = MemoryStore::new();
        store.stage(&frame(0, 2)).unwrap();
        // One of two frames staged: not committable, not loadable.
        assert_eq!(
            store.commit(2, 2),
            Err(CheckpointError::Incomplete {
                generation: 2,
                have: 1,
                need: 2
            })
        );
        assert!(store.generations().is_empty());
        store.stage(&frame(1, 2)).unwrap();
        let bytes = store.commit(2, 2).unwrap();
        assert!(bytes > 0);
        assert_eq!(store.generations(), vec![2]);
        let frames = store.load(2, 2, 0xF00D).unwrap();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].rank, 0);
        assert_eq!(frames[1].rank, 1);
    }

    #[test]
    fn fingerprint_mismatch_rejects_foreign_checkpoints() {
        let store = MemoryStore::new();
        store.stage(&frame(0, 1)).unwrap();
        store.commit(1, 1).unwrap();
        assert_eq!(
            store.load(1, 1, 0xBEEF),
            Err(CheckpointError::FingerprintMismatch { generation: 1 })
        );
    }

    #[test]
    fn file_store_roundtrips_and_survives_reopen() {
        let dir = std::env::temp_dir().join(format!(
            "bsml-ckpt-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let store = FileStore::open(&dir).unwrap();
        for gen in [1u64, 2] {
            for rank in 0..2 {
                store.stage(&frame(rank, gen)).unwrap();
            }
            store.commit(gen, 2).unwrap();
        }
        assert_eq!(store.generations(), vec![1, 2]);
        // A different handle on the same directory sees the same
        // committed generations — resume survives a process restart.
        let reopened = FileStore::open(&dir).unwrap();
        assert_eq!(reopened.generations(), vec![1, 2]);
        let frames = reopened.load(2, 2, 0xF00D).unwrap();
        assert_eq!(frames[1].fuel_left, 9_001);
        store.clear();
        assert!(store.generations().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_store_corruption_is_detected() {
        let dir = std::env::temp_dir().join(format!(
            "bsml-ckpt-corrupt-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let store = FileStore::open(&dir).unwrap();
        store.stage(&frame(0, 1)).unwrap();
        store.commit(1, 1).unwrap();
        let path = store.generation_path(1);
        let mut bytes = fs::read(&path).unwrap();
        // Flip a byte in the middle of the frame payload.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(store.load(1, 1, 0xF00D).is_err());
        // The generation stays on the ladder (name-scan), so recovery
        // observes — and can count — the corruption when loading it.
        assert_eq!(store.generations(), vec![1]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_commit_marker_means_not_committed() {
        let dir = std::env::temp_dir().join(format!(
            "bsml-ckpt-marker-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let store = FileStore::open(&dir).unwrap();
        store.stage(&frame(0, 1)).unwrap();
        store.commit(1, 1).unwrap();
        let path = store.generation_path(1);
        let bytes = fs::read(&path).unwrap();
        // Drop the trailer: an interrupted write.
        fs::write(&path, &bytes[..bytes.len() - 8]).unwrap();
        assert_eq!(
            store.load(1, 1, 0xF00D),
            Err(CheckpointError::NotCommitted { generation: 1 })
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_generation_with_the_version_1_magic_is_malformed() {
        let dir = std::env::temp_dir().join(format!(
            "bsml-ckpt-magic-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let store = FileStore::open(&dir).unwrap();
        store.stage(&frame(0, 1)).unwrap();
        store.commit(1, 1).unwrap();
        let path = store.generation_path(1);
        let mut bytes = fs::read(&path).unwrap();
        // A version-1 file holds messages in other tags: it must not
        // be read as this version's.
        bytes[..8].copy_from_slice(&0x4253_4d4c_434b_5031_u64.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert_eq!(
            store.load(1, 1, 0xF00D),
            Err(CheckpointError::Malformed(
                "bad generation-file magic".into()
            ))
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn policy_default_is_every_barrier() {
        assert_eq!(CheckpointPolicy::default().interval(), 1);
        assert_eq!(CheckpointPolicy::every(4).interval(), 4);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_interval_rejected() {
        let _ = CheckpointPolicy::every(0);
    }

    #[test]
    fn fingerprint_separates_programs_and_sizes() {
        let a = bsml_syntax::parse("1 + 2").unwrap();
        let b = bsml_syntax::parse("1 + 3").unwrap();
        assert_ne!(program_fingerprint(&a, 4), program_fingerprint(&b, 4));
        assert_ne!(program_fingerprint(&a, 4), program_fingerprint(&a, 2));
        assert_eq!(program_fingerprint(&a, 4), program_fingerprint(&a, 4));
    }
}
