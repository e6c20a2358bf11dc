//! Durability for the multistore: an epoch-keyed write-ahead commit
//! log, columnar checkpoints, and crash recovery.
//!
//! The live store tower — sharded cores, [`MultiStore`], CIND indexes,
//! materialized views — is in-memory; this module makes it survive a
//! crash. [`DurableMultiStore`] wraps a [`MultiStore`] and persists,
//! inside one data directory:
//!
//! * a **commit log**: one CRC-checksummed, length-prefixed frame per
//!   applied commit, keyed by the store's global epoch clock. A frame
//!   carries the relation id, the code rows the batch *actually*
//!   applied (post set-semantics — the delta, never the raw batch), and
//!   the dictionary growth the commit caused, so replay never
//!   re-interns a value it has already seen;
//! * **columnar checkpoints**: the full [`SharedPool`] dictionary plus
//!   every relation's live code rows, column-major, at one epoch. Log
//!   segments older than the last durable checkpoint are truncated;
//! * **recovery**: load the newest valid checkpoint, rebuild the cores
//!   straight from code rows (no per-occurrence value hashing), and
//!   replay the log tail through the normal `apply` path — so the
//!   delta detectors, the CIND engine, and every materialized view
//!   rebuild their compiled state exactly. A torn or truncated final
//!   frame keeps the longest valid prefix; corruption anywhere earlier
//!   is a typed [`RecoveryError`], never a panic.
//!
//! # On-disk format
//!
//! All scalars are little-endian ([`cfd_relalg::wire`]); values use the
//! tagged codec documented there; every payload is covered by the IEEE
//! [`crc32`].
//!
//! **Log segment** `wal-<start_epoch>.log` — frames with epochs
//! `start_epoch + 1, start_epoch + 2, …` (a segment starts at each
//! checkpoint):
//!
//! ```text
//! "CFDWAL01"  start_epoch:u64          ── segment header
//! ┌ len:u32  crc:u32  payload[len] ┐   ── one frame per commit
//! │ payload := epoch:u64  rel:u32                                  │
//! │            growth_base:u32  growth_len:u32  value*growth_len   │
//! │            arity:u32                                           │
//! │            n_del:u32  code[n_del × arity]                      │
//! │            n_ins:u32  code[n_ins × arity]                      │
//! └─────────────────────────────────┘   (repeated)
//! ```
//!
//! `growth` lists the dictionary entries the commit interned, in code
//! order starting at `growth_base`; replay maintains its own code →
//! value table from the checkpoint dictionary plus these records, so
//! frame decoding never consults (or depends on) the recovering store's
//! pool.
//!
//! **Checkpoint** `ckpt-<epoch>.ckpt` — written to a temp file, synced,
//! then atomically renamed (a torn checkpoint write can never shadow a
//! valid older one):
//!
//! ```text
//! "CFDCKP01"  payload_len:u64  crc:u32
//! payload := epoch:u64
//!            dict_len:u32   value*dict_len          ── the SharedPool
//!            n_rels:u32
//!            per relation: arity:u32  n_rows:u32
//!                          code[n_rows] × arity     ── column-major
//! ```
//!
//! The checkpoint is encoded from the live rows under a shared borrow of
//! the store, so no commit and no GC can run while it is serialized; it
//! takes no snapshot, so checkpointing builds no violation sets.
//!
//! # Fsync policy
//!
//! [`FsyncPolicy`] trades durability for throughput: `EveryCommit`
//! fsyncs the log after every frame (a crash loses nothing that was
//! acknowledged — and costs a disk round-trip per commit);
//! `EveryN(n)` fsyncs every `n` commits (bounded loss window, most of
//! the throughput back); `Os` never fsyncs explicitly (the OS page
//! cache decides — survives process crashes, not power loss).
//! Checkpoints always sync regardless of policy.
//!
//! # Fault injection
//!
//! All byte-level logic is reachable without a filesystem: the log
//! writer targets the [`LogIo`] seam ([`FileIo`] in production,
//! [`MemIo`] and the short-write-at-byte-k [`FaultIo`] in tests), and
//! [`recover_from_parts`] recovers from in-memory checkpoint/segment
//! byte slices. The property suite (`crates/clean/tests/durable_props.rs`)
//! cuts random commit sequences at arbitrary byte offsets and requires
//! recovery to equal an in-memory twin at the last durable epoch.

use crate::catalog::CatalogError;
use crate::delta::UpdateBatch;
use crate::matview::ViewSpec;
use crate::multistore::{MultiCommit, MultiDiffFilter, MultiStore, RelationSpec};
use crate::sharded::{AppliedRows, GcStats, StoreCore};
use cfd_cind::Cind;
use cfd_relalg::instance::Tuple;
use cfd_relalg::pool::Code;
use cfd_relalg::schema::RelId;
use cfd_relalg::versioned::SharedPool;
use cfd_relalg::wire::{crc32, put_u32, put_u64, put_value, ByteReader, WireError};
use cfd_relalg::Value;
use std::fmt;
use std::fs;
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};

/// Magic bytes opening every log segment.
pub const WAL_MAGIC: [u8; 8] = *b"CFDWAL01";
/// Magic bytes opening every checkpoint.
pub const CKPT_MAGIC: [u8; 8] = *b"CFDCKP01";

/// When the commit log is fsynced. See the [module docs](self) for the
/// durability/throughput tradeoff.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync after every commit frame.
    EveryCommit,
    /// Sync after every `n` commit frames.
    EveryN(u64),
    /// Never sync explicitly; the OS flushes when it pleases.
    Os,
}

impl std::str::FromStr for FsyncPolicy {
    type Err = String;

    /// Parse `every-commit`, `os`, or `every-N` (e.g. `every-8`).
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "every-commit" => Ok(FsyncPolicy::EveryCommit),
            "os" => Ok(FsyncPolicy::Os),
            _ => match s.strip_prefix("every-").and_then(|n| n.parse::<u64>().ok()) {
                Some(n) if n > 0 => Ok(FsyncPolicy::EveryN(n)),
                _ => Err(format!(
                    "unknown fsync policy '{s}' (expected every-commit, every-N, or os)"
                )),
            },
        }
    }
}

impl fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsyncPolicy::EveryCommit => write!(f, "every-commit"),
            FsyncPolicy::EveryN(n) => write!(f, "every-{n}"),
            FsyncPolicy::Os => write!(f, "os"),
        }
    }
}

/// The byte sink the log writer appends to — the fault-injection seam.
pub trait LogIo: Send {
    /// Append `buf` in full (or fail having written some prefix of it).
    fn append(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Make everything appended so far durable.
    fn sync(&mut self) -> io::Result<()>;
}

/// The production [`LogIo`]: an append-mode file, synced with
/// `sync_data`.
pub struct FileIo {
    file: fs::File,
}

impl FileIo {
    /// Create (truncating) the log file at `path`.
    pub fn create(path: &Path) -> io::Result<FileIo> {
        Ok(FileIo {
            file: fs::File::create(path)?,
        })
    }
}

impl LogIo for FileIo {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        self.file.write_all(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

/// An in-memory [`LogIo`] whose buffer the test keeps a handle to.
pub struct MemIo {
    data: Arc<Mutex<Vec<u8>>>,
}

impl MemIo {
    /// A fresh buffer plus the shared handle to inspect it.
    pub fn new() -> (MemIo, Arc<Mutex<Vec<u8>>>) {
        let data = Arc::new(Mutex::new(Vec::new()));
        (
            MemIo {
                data: Arc::clone(&data),
            },
            data,
        )
    }
}

impl LogIo for MemIo {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        self.data.lock().expect("mem log").extend_from_slice(buf);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A [`LogIo`] that simulates a crash at byte `k`: it accepts exactly
/// `budget` bytes in total, short-writes the append that crosses the
/// budget (keeping the prefix — precisely what a torn write leaves on
/// disk), and fails every operation after that. The bytes written
/// survive in the shared buffer for recovery to chew on.
pub struct FaultIo {
    data: Arc<Mutex<Vec<u8>>>,
    budget: usize,
    tripped: bool,
}

impl FaultIo {
    /// A sink that crashes after `budget` bytes, plus the handle to
    /// what made it to "disk".
    pub fn new(budget: usize) -> (FaultIo, Arc<Mutex<Vec<u8>>>) {
        let data = Arc::new(Mutex::new(Vec::new()));
        (
            FaultIo {
                data: Arc::clone(&data),
                budget,
                tripped: false,
            },
            data,
        )
    }
}

impl LogIo for FaultIo {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        if self.tripped {
            return Err(io::Error::other("log writer crashed"));
        }
        let mut data = self.data.lock().expect("fault log");
        let room = self.budget - data.len();
        if buf.len() <= room {
            data.extend_from_slice(buf);
            return Ok(());
        }
        data.extend_from_slice(&buf[..room]);
        self.tripped = true;
        Err(io::Error::new(
            io::ErrorKind::WriteZero,
            format!("fault injected: short write at byte {}", self.budget),
        ))
    }

    fn sync(&mut self) -> io::Result<()> {
        if self.tripped {
            return Err(io::Error::other("log writer crashed"));
        }
        Ok(())
    }
}

/// A malformed frame, segment header, or checkpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The byte-level decode failed (truncation, bad tag, bad UTF-8,
    /// oversized length).
    Wire(WireError),
    /// The magic bytes are wrong (not a segment / checkpoint at all).
    BadMagic,
    /// The payload checksum does not match.
    BadCrc {
        /// Offset of the frame whose checksum failed.
        at: usize,
    },
    /// The payload parsed but is internally inconsistent.
    BadPayload {
        /// What was inconsistent.
        what: &'static str,
    },
}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Wire(e)
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Wire(e) => write!(f, "{e}"),
            FrameError::BadMagic => write!(f, "bad magic bytes"),
            FrameError::BadCrc { at } => write!(f, "checksum mismatch for frame at byte {at}"),
            FrameError::BadPayload { what } => write!(f, "inconsistent payload: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Why recovery could not produce a store. A torn *final* frame is not
/// an error (recovery keeps the longest valid prefix and reports it in
/// the [`RecoveryReport`]); these are the conditions that genuinely
/// lose data or indicate misuse.
#[derive(Debug)]
pub enum RecoveryError {
    /// The data directory could not be read or written.
    Io(io::Error),
    /// No checkpoint exists (the directory was never initialized).
    NoCheckpoint,
    /// Every checkpoint present failed to decode.
    BadCheckpoint {
        /// How many candidate checkpoints were tried.
        tried: usize,
    },
    /// A frame in a *non-final* position is corrupt — mid-log damage
    /// that a torn tail cannot explain.
    Corrupt {
        /// Start epoch of the segment holding the bad frame.
        segment_start: u64,
        /// Byte offset of the bad frame within the segment.
        offset: usize,
        /// What was wrong with it.
        error: FrameError,
    },
    /// Frame epochs are not the dense sequence the clock guarantees.
    EpochMismatch {
        /// The epoch the replay expected next.
        expected: u64,
        /// The epoch the frame carried.
        found: u64,
    },
    /// A segment needed for replay is missing.
    SegmentGap {
        /// The epoch replay had reached.
        expected: u64,
        /// The start epoch of the next segment found.
        found: u64,
    },
    /// The checkpoint's relation count disagrees with the schema given
    /// to recovery.
    SpecMismatch {
        /// Relations in the caller's schema.
        expected: usize,
        /// Relations in the checkpoint.
        found: usize,
    },
    /// A frame targets a relation the schema does not have.
    RelOutOfRange {
        /// The relation id the frame carried.
        rel: usize,
        /// How many relations exist.
        relations: usize,
    },
    /// The schema itself (CINDs, views) failed to compile.
    Spec(CatalogError),
}

impl From<io::Error> for RecoveryError {
    fn from(e: io::Error) -> Self {
        RecoveryError::Io(e)
    }
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Io(e) => write!(f, "io error: {e}"),
            RecoveryError::NoCheckpoint => write!(f, "no checkpoint in the data directory"),
            RecoveryError::BadCheckpoint { tried } => {
                write!(f, "all {tried} checkpoint(s) are corrupt")
            }
            RecoveryError::Corrupt {
                segment_start,
                offset,
                error,
            } => write!(
                f,
                "mid-log corruption in segment wal-{segment_start} at byte {offset}: {error}"
            ),
            RecoveryError::EpochMismatch { expected, found } => {
                write!(f, "expected frame epoch {expected}, found {found}")
            }
            RecoveryError::SegmentGap { expected, found } => write!(
                f,
                "log segment gap: replay reached epoch {expected} but the next segment starts at {found}"
            ),
            RecoveryError::SpecMismatch { expected, found } => write!(
                f,
                "checkpoint has {found} relations but the schema has {expected}"
            ),
            RecoveryError::RelOutOfRange { rel, relations } => {
                write!(f, "frame targets relation {rel} of {relations}")
            }
            RecoveryError::Spec(e) => write!(f, "schema error: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// What recovery found and did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Epoch of the checkpoint recovery loaded.
    pub checkpoint_epoch: u64,
    /// Epoch of the recovered store (checkpoint + replayed tail).
    pub recovered_epoch: u64,
    /// Log frames replayed on top of the checkpoint.
    pub frames_replayed: usize,
    /// A torn/truncated tail, if the final segment ended mid-frame:
    /// `(segment_start, byte_offset, what)`. Everything before it was
    /// recovered; everything from it on was discarded.
    pub torn_tail: Option<(u64, usize, FrameError)>,
}

// ---------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------

/// One decoded commit frame. Public because the log-shipping layer
/// ([`crate::replica`]) moves the exact on-disk frames over the wire
/// and the wire property suite round-trips them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// The global epoch the commit created.
    pub epoch: u64,
    /// The relation the commit targeted.
    pub rel: u32,
    /// Pool prefix already known to the reader; `growth` starts here.
    pub growth_base: u32,
    /// Dictionary entries the commit interned, in code order.
    pub growth: Vec<Value>,
    /// Arity of the code rows (0 only when both sides are empty).
    pub arity: usize,
    /// Deleted code rows, flattened row-major.
    pub dels: Vec<Code>,
    /// Inserted code rows, flattened row-major.
    pub ins: Vec<Code>,
}

/// Encode one commit frame (header + checksummed payload) onto `out`.
#[allow(clippy::too_many_arguments)]
pub fn encode_frame(
    out: &mut Vec<u8>,
    epoch: u64,
    rel: u32,
    growth_base: u32,
    growth: impl ExactSizeIterator<Item = impl std::borrow::Borrow<Value>>,
    arity: usize,
    dels: &[Box<[Code]>],
    ins: &[Box<[Code]>],
) {
    let mut payload = Vec::new();
    put_u64(&mut payload, epoch);
    put_u32(&mut payload, rel);
    put_u32(&mut payload, growth_base);
    put_u32(&mut payload, growth.len() as u32);
    for v in growth {
        put_value(&mut payload, v.borrow());
    }
    put_u32(&mut payload, arity as u32);
    for rows in [dels, ins] {
        put_u32(&mut payload, rows.len() as u32);
        for row in rows {
            debug_assert_eq!(row.len(), arity, "ragged frame row");
            for &c in row.iter() {
                put_u32(&mut payload, c);
            }
        }
    }
    put_u32(out, payload.len() as u32);
    put_u32(out, crc32(&payload));
    out.extend_from_slice(&payload);
}

/// Decode the next frame, or `Ok(None)` at a clean end of input. Any
/// malformation — truncation, checksum mismatch, inconsistent counts —
/// is a typed error; the reader position is left at the frame start.
pub fn decode_frame(r: &mut ByteReader<'_>) -> Result<Option<Frame>, FrameError> {
    if r.is_exhausted() {
        return Ok(None);
    }
    let start = r.pos();
    let mut attempt = r.clone();
    let len = attempt.u32()? as usize;
    if len > attempt.remaining() {
        return Err(WireError::UnexpectedEof { at: start }.into());
    }
    let crc = attempt.u32()?;
    let payload = attempt.take(len)?;
    if crc32(payload) != crc {
        return Err(FrameError::BadCrc { at: start });
    }
    let mut p = ByteReader::new(payload);
    let epoch = p.u64()?;
    let rel = p.u32()?;
    let growth_base = p.u32()?;
    let n_growth = p.count(2)?;
    let mut growth = Vec::with_capacity(n_growth);
    for _ in 0..n_growth {
        growth.push(p.value()?);
    }
    let arity = p.u32()? as usize;
    let mut rows = [Vec::new(), Vec::new()];
    for side in &mut rows {
        let n = p.count(arity.saturating_mul(4).max(4))?;
        if n > 0 && arity == 0 {
            return Err(FrameError::BadPayload {
                what: "rows with zero arity",
            });
        }
        side.reserve(n * arity);
        for _ in 0..n * arity {
            side.push(p.u32()?);
        }
    }
    if !p.is_exhausted() {
        return Err(FrameError::BadPayload {
            what: "trailing bytes in frame payload",
        });
    }
    let [dels, ins] = rows;
    *r = attempt;
    Ok(Some(Frame {
        epoch,
        rel,
        growth_base,
        growth,
        arity,
        dels,
        ins,
    }))
}

/// Parse a segment header, returning the declared start epoch.
fn decode_segment_header(r: &mut ByteReader<'_>) -> Result<u64, FrameError> {
    let magic = r.take(8)?;
    if magic != WAL_MAGIC {
        return Err(FrameError::BadMagic);
    }
    Ok(r.u64()?)
}

// ---------------------------------------------------------------------
// The log writer
// ---------------------------------------------------------------------

/// Appends commit frames to a [`LogIo`] under a fsync policy, tracking
/// how much of the shared pool earlier frames (or the base checkpoint)
/// already made durable.
struct WalWriter {
    io: Box<dyn LogIo>,
    policy: FsyncPolicy,
    /// Pool prefix already on disk; growth in the next frame starts
    /// here.
    logged_codes: usize,
    since_sync: u64,
    buf: Vec<u8>,
}

impl WalWriter {
    /// Open a segment starting at `start_epoch` (writes and, policy
    /// permitting, syncs the header).
    fn new(
        mut io: Box<dyn LogIo>,
        policy: FsyncPolicy,
        logged_codes: usize,
        start_epoch: u64,
    ) -> io::Result<WalWriter> {
        let mut header = Vec::with_capacity(16);
        header.extend_from_slice(&WAL_MAGIC);
        put_u64(&mut header, start_epoch);
        io.append(&header)?;
        if !matches!(policy, FsyncPolicy::Os) {
            io.sync()?;
        }
        Ok(WalWriter {
            io,
            policy,
            logged_codes,
            since_sync: 0,
            buf: Vec::new(),
        })
    }

    /// Append the frame for one applied commit and sync per policy.
    fn log_commit(
        &mut self,
        epoch: u64,
        rel: RelId,
        applied: &AppliedRows,
        pool: &SharedPool,
    ) -> io::Result<()> {
        let arity = applied
            .deletes
            .first()
            .or(applied.inserts.first())
            .map_or(0, |r| r.len());
        let growth = (self.logged_codes..pool.len()).map(|c| pool.value(c as Code));
        self.buf.clear();
        encode_frame(
            &mut self.buf,
            epoch,
            rel.0 as u32,
            self.logged_codes as u32,
            growth,
            arity,
            &applied.deletes,
            &applied.inserts,
        );
        let buf = std::mem::take(&mut self.buf);
        let res = self.io.append(&buf);
        self.buf = buf;
        res?;
        self.logged_codes = pool.len();
        self.since_sync += 1;
        match self.policy {
            FsyncPolicy::EveryCommit => self.sync(),
            FsyncPolicy::EveryN(n) if self.since_sync >= n => self.sync(),
            _ => Ok(()),
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        self.io.sync()?;
        self.since_sync = 0;
        Ok(())
    }

    /// The encoded bytes of the last frame appended — the log-shipping
    /// tap: what went to disk is exactly what followers receive.
    fn last_frame(&self) -> &[u8] {
        &self.buf
    }
}

// ---------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------

/// A decoded checkpoint: the dictionary and every relation's live code
/// rows (row-major after decode, column-major on the wire).
pub struct CheckpointData {
    /// The epoch the checkpoint captured.
    pub epoch: u64,
    /// The full dictionary pool at that epoch, in code order.
    pub dict: Vec<Value>,
    /// Per relation: `(arity, row-major code rows)`.
    pub rels: Vec<(usize, Vec<Code>)>,
}

/// Serialize the current state of `store` as checkpoint bytes. The
/// encoding walks the live rows directly: the shared borrow keeps every
/// commit and [`MultiStore::gc`] out until it is done, so it takes no
/// snapshot (and builds no violation set the checkpoint does not need).
pub fn checkpoint_bytes(store: &MultiStore) -> Vec<u8> {
    let pool = store.shared_pool();
    let mut payload = Vec::new();
    put_u64(&mut payload, store.epoch());
    put_u32(&mut payload, pool.len() as u32);
    for c in 0..pool.len() as Code {
        put_value(&mut payload, pool.value(c));
    }
    put_u32(&mut payload, store.rel_count() as u32);
    let mut flat: Vec<Code> = Vec::new();
    for i in 0..store.rel_count() {
        let arity = store.rel_arity(RelId(i));
        flat.clear();
        store.for_each_live_code_row(RelId(i), |codes| flat.extend_from_slice(codes));
        let n_rows = flat.len().checked_div(arity).unwrap_or(0);
        put_u32(&mut payload, arity as u32);
        put_u32(&mut payload, n_rows as u32);
        for col in 0..arity {
            for row in 0..n_rows {
                put_u32(&mut payload, flat[row * arity + col]);
            }
        }
    }
    let mut out = Vec::with_capacity(payload.len() + 20);
    out.extend_from_slice(&CKPT_MAGIC);
    put_u64(&mut out, payload.len() as u64);
    put_u32(&mut out, crc32(&payload));
    out.extend_from_slice(&payload);
    out
}

/// Decode and fully validate checkpoint bytes (magic, length, checksum,
/// internal consistency — including that every code is within the
/// dictionary).
pub fn decode_checkpoint(bytes: &[u8]) -> Result<CheckpointData, FrameError> {
    let mut r = ByteReader::new(bytes);
    let magic = r.take(8)?;
    if magic != CKPT_MAGIC {
        return Err(FrameError::BadMagic);
    }
    let len = r.u64()?;
    let crc = r.u32()?;
    if len != r.remaining() as u64 {
        return Err(WireError::Oversize { at: 8, len }.into());
    }
    let payload = r.take(len as usize)?;
    if crc32(payload) != crc {
        return Err(FrameError::BadCrc { at: 0 });
    }
    let mut p = ByteReader::new(payload);
    let epoch = p.u64()?;
    let n_dict = p.count(2)?;
    let mut dict = Vec::with_capacity(n_dict);
    for _ in 0..n_dict {
        dict.push(p.value()?);
    }
    let n_rels = p.count(8)?;
    let mut rels = Vec::with_capacity(n_rels);
    for _ in 0..n_rels {
        let arity = p.u32()? as usize;
        let n_rows = p.count(arity.saturating_mul(4).max(4))?;
        if n_rows > 0 && arity == 0 {
            return Err(FrameError::BadPayload {
                what: "rows with zero arity",
            });
        }
        // Read column-major, store row-major for core seeding.
        let mut flat = vec![0 as Code; n_rows * arity];
        for col in 0..arity {
            for row in 0..n_rows {
                let c = p.u32()?;
                if c as usize >= dict.len() {
                    return Err(FrameError::BadPayload {
                        what: "code outside the checkpoint dictionary",
                    });
                }
                flat[row * arity + col] = c;
            }
        }
        rels.push((arity, flat));
    }
    if !p.is_exhausted() {
        return Err(FrameError::BadPayload {
            what: "trailing bytes in checkpoint payload",
        });
    }
    Ok(CheckpointData { epoch, dict, rels })
}

// ---------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------

/// Recover a [`MultiStore`] from raw checkpoint and log-segment bytes.
///
/// `specs` supplies each relation's name and Σ (`base` is ignored —
/// contents come from the checkpoint); `views` are re-registered before
/// replay so their compiled state rebuilds from the same commits that
/// built it originally. `checkpoints` are candidate checkpoint files,
/// **newest first** — the first one that validates wins. `segments` are
/// `(start_epoch, bytes)` pairs in **ascending** start order; segments
/// older than the chosen checkpoint are skipped, and a torn tail in the
/// final segment truncates recovery to the longest valid prefix (see
/// [`RecoveryReport::torn_tail`]).
pub fn recover_from_parts(
    specs: &[RelationSpec],
    cinds: &[Cind],
    n_shards: usize,
    views: &[ViewSpec],
    checkpoints: &[&[u8]],
    segments: &[(u64, &[u8])],
) -> Result<(MultiStore, RecoveryReport), RecoveryError> {
    // Newest valid checkpoint wins.
    if checkpoints.is_empty() {
        return Err(RecoveryError::NoCheckpoint);
    }
    let Some(ck) = checkpoints.iter().find_map(|b| decode_checkpoint(b).ok()) else {
        return Err(RecoveryError::BadCheckpoint {
            tried: checkpoints.len(),
        });
    };
    if ck.rels.len() != specs.len() {
        return Err(RecoveryError::SpecMismatch {
            expected: specs.len(),
            found: ck.rels.len(),
        });
    }

    // Rebuild the pool with the checkpoint's exact code assignment,
    // then the cores straight from code rows — the recovery fast path:
    // one intern per *distinct* value instead of one per occurrence.
    let mut pool = SharedPool::new();
    for v in &ck.dict {
        pool.intern(v);
    }
    let mut names = Vec::with_capacity(specs.len());
    let mut cores = Vec::with_capacity(specs.len());
    for (spec, (arity, flat)) in specs.iter().zip(&ck.rels) {
        names.push(spec.name.clone());
        static EMPTY: &[Code] = &[];
        let rows = if *arity == 0 {
            EMPTY.chunks_exact(1)
        } else {
            flat.chunks_exact(*arity)
        };
        cores.push(StoreCore::from_code_rows(
            spec.sigma.clone(),
            rows,
            n_shards,
            &mut pool,
        ));
    }
    let mut store = MultiStore::from_parts(pool, names, cores, cinds.to_vec())
        .map_err(|e| RecoveryError::Spec(e.into()))?;
    store.advance_clock(ck.epoch);
    for v in views {
        store
            .register_view(v.clone())
            .map_err(RecoveryError::Spec)?;
    }

    // Replay the tail through the normal apply path, decoding frames
    // against the log's own dictionary (checkpoint dict + per-frame
    // growth) — never the recovering store's pool.
    let mut report = RecoveryReport {
        checkpoint_epoch: ck.epoch,
        recovered_epoch: ck.epoch,
        frames_replayed: 0,
        torn_tail: None,
    };
    let mut log_dict = ck.dict;
    // Drop segments wholly folded into the checkpoint, but keep the
    // last one starting at or before it — its tail may hold the first
    // frames past the checkpoint (frames at or below it are skipped
    // frame-by-frame below).
    let first = segments
        .iter()
        .rposition(|(s, _)| *s <= ck.epoch)
        .unwrap_or(0);
    let relevant: Vec<&(u64, &[u8])> = segments[first..].iter().collect();
    for (si, (start, bytes)) in relevant.iter().enumerate() {
        let last = si + 1 == relevant.len();
        if *start > report.recovered_epoch {
            return Err(RecoveryError::SegmentGap {
                expected: report.recovered_epoch,
                found: *start,
            });
        }
        let mut r = ByteReader::new(bytes);
        match decode_segment_header(&mut r) {
            Ok(declared) if declared == *start => {}
            Ok(_) => {
                return Err(RecoveryError::Corrupt {
                    segment_start: *start,
                    offset: 0,
                    error: FrameError::BadPayload {
                        what: "segment header epoch disagrees with its name",
                    },
                })
            }
            Err(e) => {
                // A header torn mid-write can only happen to the newest
                // segment; anywhere else it is mid-log damage.
                if last && matches!(e, FrameError::Wire(WireError::UnexpectedEof { .. })) {
                    report.torn_tail = Some((*start, 0, e));
                    break;
                }
                return Err(RecoveryError::Corrupt {
                    segment_start: *start,
                    offset: 0,
                    error: e,
                });
            }
        }
        loop {
            let at = r.pos();
            match decode_frame(&mut r) {
                Ok(None) => break,
                Ok(Some(frame)) => {
                    // Frames at or below the recovered epoch can occur
                    // in the checkpoint's own segment when recovery
                    // restarted mid-directory; they were already folded
                    // into the checkpoint.
                    if frame.epoch <= report.recovered_epoch {
                        continue;
                    }
                    if frame.epoch != report.recovered_epoch + 1 {
                        return Err(RecoveryError::EpochMismatch {
                            expected: report.recovered_epoch + 1,
                            found: frame.epoch,
                        });
                    }
                    replay_frame(&mut store, &mut log_dict, &frame).map_err(|error| {
                        RecoveryError::Corrupt {
                            segment_start: *start,
                            offset: at,
                            error,
                        }
                    })?;
                    report.recovered_epoch = frame.epoch;
                    report.frames_replayed += 1;
                }
                Err(error) => {
                    if last {
                        report.torn_tail = Some((*start, at, error));
                        break;
                    }
                    return Err(RecoveryError::Corrupt {
                        segment_start: *start,
                        offset: at,
                        error,
                    });
                }
            }
        }
    }
    Ok((store, report))
}

/// Apply one decoded frame to the recovering store: extend the log
/// dictionary by the frame's growth, decode the code rows to tuples,
/// and commit through the normal apply path (which re-interns the
/// growth values into the store's pool in the same order, keeping the
/// two dictionaries aligned).
pub(crate) fn replay_frame(
    store: &mut MultiStore,
    log_dict: &mut Vec<Value>,
    frame: &Frame,
) -> Result<(), FrameError> {
    if frame.rel as usize >= store.rel_count() {
        return Err(FrameError::BadPayload {
            what: "relation id out of range",
        });
    }
    if frame.growth_base as usize != log_dict.len() {
        return Err(FrameError::BadPayload {
            what: "dictionary growth discontinuity",
        });
    }
    log_dict.extend(frame.growth.iter().cloned());
    let decode_rows = |codes: &[Code]| -> Result<Vec<Tuple>, FrameError> {
        codes
            .chunks_exact(frame.arity.max(1))
            .map(|row| {
                row.iter()
                    .map(|&c| {
                        log_dict
                            .get(c as usize)
                            .cloned()
                            .ok_or(FrameError::BadPayload {
                                what: "code outside the log dictionary",
                            })
                    })
                    .collect()
            })
            .collect()
    };
    let batch = UpdateBatch {
        deletes: decode_rows(&frame.dels)?,
        inserts: decode_rows(&frame.ins)?,
    };
    store.apply(RelId(frame.rel as usize), &batch);
    Ok(())
}

// ---------------------------------------------------------------------
// The data directory
// ---------------------------------------------------------------------

fn ckpt_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("ckpt-{epoch:020}.ckpt"))
}

fn wal_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("wal-{epoch:020}.log"))
}

fn parse_epoch(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// `(epoch, path)` pairs, ascending by epoch.
pub(crate) type EpochFiles = Vec<(u64, PathBuf)>;

/// List `(epoch, path)` pairs of the directory's checkpoints and
/// segments, both ascending by epoch.
pub(crate) fn list_dir(dir: &Path) -> io::Result<(EpochFiles, EpochFiles)> {
    let mut ckpts = Vec::new();
    let mut segs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(e) = parse_epoch(name, "ckpt-", ".ckpt") {
            ckpts.push((e, entry.path()));
        } else if let Some(e) = parse_epoch(name, "wal-", ".log") {
            segs.push((e, entry.path()));
        }
    }
    ckpts.sort_unstable_by_key(|(e, _)| *e);
    segs.sort_unstable_by_key(|(e, _)| *e);
    Ok((ckpts, segs))
}

/// Write checkpoint bytes durably: temp file, data sync, atomic rename,
/// directory sync.
pub(crate) fn write_checkpoint_file(dir: &Path, epoch: u64, bytes: &[u8]) -> io::Result<()> {
    let tmp = dir.join("ckpt.tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
    }
    fs::rename(&tmp, ckpt_path(dir, epoch))?;
    // Make the rename itself durable where the platform allows it.
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Delete checkpoints and segments strictly older than `keep_epoch`
/// (the newest durable checkpoint bounds log truncation).
fn truncate_older(dir: &Path, keep_epoch: u64) -> io::Result<()> {
    truncate_with_floor(dir, keep_epoch, keep_epoch)
}

/// Delete checkpoints older than `ckpt_epoch` and segments no pinned
/// reader needs: every segment up to (but not including) the last one
/// starting at or before `floor` goes — that last segment holds the
/// first frames past `floor`, so a follower cursor parked at `floor`
/// can still be tail-served from disk. With `floor == ckpt_epoch`
/// (no registered cursor behind the checkpoint) this is exactly the
/// classic truncate-everything-older rule.
fn truncate_with_floor(dir: &Path, ckpt_epoch: u64, floor: u64) -> io::Result<()> {
    let (ckpts, segs) = list_dir(dir)?;
    for (e, p) in ckpts {
        if e < ckpt_epoch {
            fs::remove_file(p)?;
        }
    }
    let keep_from = segs
        .iter()
        .filter(|(s, _)| *s <= floor)
        .map(|(s, _)| *s)
        .max();
    if let Some(keep_from) = keep_from {
        for (s, p) in segs {
            if s < keep_from {
                fs::remove_file(p)?;
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// DurableMultiStore
// ---------------------------------------------------------------------

/// Knobs of a [`DurableMultiStore`].
#[derive(Clone, Copy, Debug)]
pub struct DurableOptions {
    /// When the commit log is fsynced.
    pub fsync: FsyncPolicy,
    /// Take a checkpoint automatically after this many commits
    /// (0 = only when [`DurableMultiStore::checkpoint`] is called).
    pub checkpoint_every: u64,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            fsync: FsyncPolicy::EveryCommit,
            checkpoint_every: 0,
        }
    }
}

/// A [`MultiStore`] whose every commit is logged to a write-ahead log
/// and whose state checkpoints to a data directory — the durable
/// serving store. See the [module docs](self) for the format and the
/// recovery protocol.
///
/// Dereferences to the inner [`MultiStore`] for all read APIs; the
/// mutating paths (`apply*`, `gc`, `subscribe`) are wrapped so nothing
/// commits without a log frame.
pub struct DurableMultiStore {
    store: MultiStore,
    wal: WalWriter,
    dir: Option<PathBuf>,
    opts: DurableOptions,
    commits_since_ckpt: u64,
    last_ckpt_epoch: u64,
    /// Manual retention pin ([`DurableMultiStore::retain_from`]).
    manual_floor: Option<u64>,
    /// The attached log shipper, if any (see [`crate::replica`]).
    shipper: Option<crate::replica::LogShipper>,
}

impl std::ops::Deref for DurableMultiStore {
    type Target = MultiStore;

    fn deref(&self) -> &MultiStore {
        &self.store
    }
}

impl DurableMultiStore {
    /// Open (or initialize) the durable store in `dir`.
    ///
    /// An empty or absent directory seeds a fresh store from `specs`
    /// (bases included) and writes its epoch-0 checkpoint. A non-empty
    /// directory is **recovered** — `spec.base` contents are ignored in
    /// favor of the checkpoint + log tail — after which a fresh
    /// checkpoint at the recovered epoch is written, a new segment
    /// opened, and everything older truncated. Either way the store is
    /// durable from the first commit after this returns.
    pub fn open(
        dir: &Path,
        specs: Vec<RelationSpec>,
        cinds: Vec<Cind>,
        n_shards: usize,
        views: Vec<ViewSpec>,
        opts: DurableOptions,
    ) -> Result<(DurableMultiStore, RecoveryReport), RecoveryError> {
        fs::create_dir_all(dir)?;
        let (ckpts, segs) = list_dir(dir)?;
        let (store, report) = if ckpts.is_empty() {
            let mut store = MultiStore::new(specs, cinds, n_shards)
                .map_err(|e| RecoveryError::Spec(e.into()))?;
            for v in views {
                store.register_view(v).map_err(RecoveryError::Spec)?;
            }
            (store, RecoveryReport::default())
        } else {
            let mut ckpt_bytes: Vec<Vec<u8>> = Vec::with_capacity(ckpts.len());
            for (_, p) in ckpts.iter().rev() {
                let mut buf = Vec::new();
                fs::File::open(p)?.read_to_end(&mut buf)?;
                ckpt_bytes.push(buf);
            }
            let mut seg_bytes: Vec<(u64, Vec<u8>)> = Vec::with_capacity(segs.len());
            for (e, p) in &segs {
                let mut buf = Vec::new();
                fs::File::open(p)?.read_to_end(&mut buf)?;
                seg_bytes.push((*e, buf));
            }
            let ckpt_refs: Vec<&[u8]> = ckpt_bytes.iter().map(Vec::as_slice).collect();
            let seg_refs: Vec<(u64, &[u8])> =
                seg_bytes.iter().map(|(e, b)| (*e, b.as_slice())).collect();
            recover_from_parts(&specs, &cinds, n_shards, &views, &ckpt_refs, &seg_refs)?
        };
        // Re-anchor: checkpoint the opened state, start a new segment,
        // truncate history. (After recovery the store's pool order can
        // differ from the old log's dictionary, so old segments must
        // not be extended — a new checkpoint + segment re-bases both.)
        let epoch = store.epoch();
        let ckpt = Arc::new(checkpoint_bytes(&store));
        write_checkpoint_file(dir, epoch, &ckpt)?;
        let io = FileIo::create(&wal_path(dir, epoch))?;
        let wal = WalWriter::new(Box::new(io), opts.fsync, store.shared_pool().len(), epoch)?;
        truncate_older(dir, epoch)?;
        Ok((
            DurableMultiStore {
                store,
                wal,
                dir: Some(dir.to_path_buf()),
                opts,
                commits_since_ckpt: 0,
                last_ckpt_epoch: epoch,
                manual_floor: None,
                shipper: None,
            },
            report,
        ))
    }

    /// Build a durable store over an injected [`LogIo`] — the test and
    /// bench seam, no filesystem involved. Returns the store plus the
    /// bytes of its initial checkpoint (what `open` would have written
    /// to disk); recovery tests feed those and the captured log bytes
    /// to [`recover_from_parts`]. Checkpointing requires a directory,
    /// so [`DurableMultiStore::checkpoint`] is unsupported here.
    pub fn with_io(
        specs: Vec<RelationSpec>,
        cinds: Vec<Cind>,
        n_shards: usize,
        views: Vec<ViewSpec>,
        io: Box<dyn LogIo>,
        opts: DurableOptions,
    ) -> Result<(DurableMultiStore, Vec<u8>), RecoveryError> {
        let mut store =
            MultiStore::new(specs, cinds, n_shards).map_err(|e| RecoveryError::Spec(e.into()))?;
        for v in views {
            store.register_view(v).map_err(RecoveryError::Spec)?;
        }
        let ckpt = checkpoint_bytes(&store);
        let epoch = store.epoch();
        let wal = WalWriter::new(io, opts.fsync, store.shared_pool().len(), epoch)?;
        Ok((
            DurableMultiStore {
                store,
                wal,
                dir: None,
                opts,
                commits_since_ckpt: 0,
                last_ckpt_epoch: epoch,
                manual_floor: None,
                shipper: None,
            },
            ckpt,
        ))
    }

    /// The wrapped store (read APIs are also available through deref).
    pub fn store(&self) -> &MultiStore {
        &self.store
    }

    /// Epoch of the last durable checkpoint.
    pub fn last_checkpoint_epoch(&self) -> u64 {
        self.last_ckpt_epoch
    }

    /// Apply one batch and log it durably (write-behind within the
    /// commit: the in-memory apply happens first, then the frame — a
    /// failure between them surfaces as the `Err`, and recovery simply
    /// replays to the last durable epoch).
    pub fn apply(&mut self, rel: RelId, batch: &UpdateBatch) -> io::Result<Arc<MultiCommit>> {
        let (commit, applied) = self.store.apply_with_rows(rel, batch);
        self.wal
            .log_commit(commit.epoch, rel, &applied, self.store.shared_pool())?;
        if let Some(shipper) = &self.shipper {
            // Ship the exact bytes the WAL accepted: the frame only
            // reaches followers once the leader acknowledged it.
            shipper.offer(commit.epoch, Arc::from(self.wal.last_frame()));
        }
        self.commits_since_ckpt += 1;
        if self.opts.checkpoint_every > 0
            && self.commits_since_ckpt >= self.opts.checkpoint_every
            && self.dir.is_some()
        {
            self.checkpoint()?;
        }
        Ok(commit)
    }

    /// Apply one `.upd` batch (grouped per relation exactly as
    /// [`MultiStore::apply_grouped`]), logging each commit.
    pub fn apply_grouped(
        &mut self,
        stmts: &[(RelId, bool, Tuple)],
    ) -> io::Result<Vec<Arc<MultiCommit>>> {
        MultiStore::group_stmts(stmts)
            .into_iter()
            .map(|(rel, upd)| self.apply(rel, &upd))
            .collect()
    }

    /// Subscribe to the commit bus (see [`MultiStore::subscribe`]).
    pub fn subscribe(
        &mut self,
        filter: MultiDiffFilter,
        capacity: usize,
    ) -> Receiver<Arc<MultiCommit>> {
        self.store.subscribe(filter, capacity)
    }

    /// Garbage-collect the wrapped store (a checkpoint is serialized
    /// within one call, so this can run freely between commits).
    pub fn gc(&mut self) -> GcStats {
        self.store.gc()
    }

    /// Sync the log now, regardless of policy.
    pub fn sync(&mut self) -> io::Result<()> {
        self.wal.sync()
    }

    /// Take a checkpoint at the current epoch: serialize the live rows,
    /// write it durably (temp + rename), rotate to a fresh
    /// log segment, and truncate history — but never the segments a
    /// registered follower cursor or a [`DurableMultiStore::retain_from`]
    /// pin still needs (those survive until the cursor advances or is
    /// released). Returns the checkpoint epoch.
    pub fn checkpoint(&mut self) -> io::Result<u64> {
        let Some(dir) = self.dir.clone() else {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "checkpointing requires a data directory",
            ));
        };
        let epoch = self.store.epoch();
        self.wal.sync()?;
        let ckpt = Arc::new(checkpoint_bytes(&self.store));
        write_checkpoint_file(&dir, epoch, &ckpt)?;
        let io = FileIo::create(&wal_path(&dir, epoch))?;
        self.wal = WalWriter::new(
            Box::new(io),
            self.opts.fsync,
            self.store.shared_pool().len(),
            epoch,
        )?;
        if let Some(shipper) = &self.shipper {
            shipper.on_checkpoint(epoch, Arc::clone(&ckpt));
        }
        truncate_with_floor(&dir, epoch, self.retain_floor().unwrap_or(epoch).min(epoch))?;
        self.commits_since_ckpt = 0;
        self.last_ckpt_epoch = epoch;
        Ok(epoch)
    }

    /// Pin log retention at `epoch`: segments holding frames past it
    /// survive [`DurableMultiStore::checkpoint`] truncation until the
    /// pin is lifted with `retain_from(None)`. Registered follower
    /// cursors (via the attached [`crate::replica::LogShipper`]) pin
    /// retention the same way without this call.
    pub fn retain_from(&mut self, epoch: Option<u64>) {
        self.manual_floor = epoch;
        if let Some(shipper) = &self.shipper {
            shipper.retain_from(epoch);
        }
    }

    /// The oldest epoch some reader still needs frames after: the
    /// minimum over the manual pin and every registered follower
    /// cursor. `None` when nothing pins retention.
    pub fn retain_floor(&self) -> Option<u64> {
        let ship = self.shipper.as_ref().and_then(|s| s.retain_floor());
        match (self.manual_floor, ship) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Attach a [`crate::replica::LogShipper`] serving checkpoint +
    /// frame streams from this store. Every subsequent acknowledged
    /// commit is offered to the shipper; checkpoints refresh its
    /// snapshot-mode payload. One shipper per store — attaching again
    /// replaces the previous one (its followers see a closed stream).
    pub fn attach_shipper(
        &mut self,
        opts: crate::replica::ShipOptions,
    ) -> crate::replica::LogShipper {
        // Serialize a fresh checkpoint at the *current* epoch (the last
        // durable checkpoint may trail it, and the shipper only retains
        // frames from here on — snapshot-mode catch-up must cover
        // everything older).
        let epoch = self.store.epoch();
        let ckpt = Arc::new(checkpoint_bytes(&self.store));
        let shipper = crate::replica::LogShipper::new(epoch, ckpt, epoch, opts);
        if self.manual_floor.is_some() {
            shipper.retain_from(self.manual_floor);
        }
        self.shipper = Some(shipper.clone());
        shipper
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_model::cfd::Cfd;
    use cfd_relalg::instance::Relation;

    fn tup(vs: &[i64]) -> Tuple {
        vs.iter().map(|v| Value::int(*v)).collect()
    }

    fn base(rows: &[&[i64]]) -> Relation {
        rows.iter().map(|r| tup(r)).collect()
    }

    fn specs() -> Vec<RelationSpec> {
        vec![
            RelationSpec::new(
                "orders",
                vec![Cfd::fd(&[0], 1).unwrap()],
                base(&[&[1, 2], &[7, 5]]),
            ),
            RelationSpec::new("customers", vec![], base(&[&[1, 9]])),
        ]
    }

    fn cinds() -> Vec<Cind> {
        vec![Cind::ind(RelId(0), RelId(1), vec![(0, 0)]).unwrap()]
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!("every-commit".parse(), Ok(FsyncPolicy::EveryCommit));
        assert_eq!("os".parse(), Ok(FsyncPolicy::Os));
        assert_eq!("every-8".parse(), Ok(FsyncPolicy::EveryN(8)));
        assert!("every-0".parse::<FsyncPolicy>().is_err());
        assert!("nope".parse::<FsyncPolicy>().is_err());
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        encode_frame(
            &mut buf,
            7,
            1,
            3,
            [Value::int(42), Value::str("x")].iter(),
            2,
            &[vec![0, 1].into_boxed_slice()],
            &[vec![3, 4].into_boxed_slice(), vec![1, 2].into_boxed_slice()],
        );
        let mut r = ByteReader::new(&buf);
        let f = decode_frame(&mut r).unwrap().unwrap();
        assert_eq!(f.epoch, 7);
        assert_eq!(f.rel, 1);
        assert_eq!(f.growth_base, 3);
        assert_eq!(f.growth, vec![Value::int(42), Value::str("x")]);
        assert_eq!(f.arity, 2);
        assert_eq!(f.dels, vec![0, 1]);
        assert_eq!(f.ins, vec![3, 4, 1, 2]);
        assert!(decode_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn torn_and_flipped_frames_are_typed_errors() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, 1, 0, 0, std::iter::empty::<&Value>(), 1, &[], &[]);
        for cut in 1..buf.len() {
            let mut r = ByteReader::new(&buf[..cut]);
            assert!(decode_frame(&mut r).is_err(), "cut {cut} must not parse");
        }
        for bit in 0..buf.len() * 8 {
            let mut bad = buf.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let mut r = ByteReader::new(&bad);
            // Either a typed error or (for flips in the length field
            // that still point at a valid-looking region) a decode that
            // fails the checksum — never a panic, never silent success.
            match decode_frame(&mut r) {
                Err(_) => {}
                Ok(f) => panic!("bit flip {bit} parsed as {f:?}"),
            }
        }
    }

    #[test]
    fn checkpoint_round_trips_store_state() {
        let store = MultiStore::new(specs(), cinds(), 2).unwrap();
        let bytes = checkpoint_bytes(&store);
        let ck = decode_checkpoint(&bytes).unwrap();
        assert_eq!(ck.epoch, 0);
        assert_eq!(ck.rels.len(), 2);
        let (rec, report) = recover_from_parts(&specs(), &cinds(), 2, &[], &[&bytes], &[]).unwrap();
        assert_eq!(report.recovered_epoch, 0);
        assert_eq!(rec.relation(RelId(0)), store.relation(RelId(0)));
        assert_eq!(rec.relation(RelId(1)), store.relation(RelId(1)));
        assert_eq!(rec.cfd_violations(RelId(0)), store.cfd_violations(RelId(0)));
        assert_eq!(rec.cind_violations(), store.cind_violations());
    }

    #[test]
    fn log_replay_reaches_the_final_epoch() {
        let (io, data) = MemIo::new();
        let (mut durable, ckpt) = DurableMultiStore::with_io(
            specs(),
            cinds(),
            2,
            vec![],
            Box::new(io),
            DurableOptions::default(),
        )
        .unwrap();
        durable
            .apply(RelId(0), &UpdateBatch::inserts(vec![tup(&[1, 3])]))
            .unwrap();
        durable
            .apply(RelId(1), &UpdateBatch::deletes(vec![tup(&[1, 9])]))
            .unwrap();
        durable
            .apply(RelId(0), &UpdateBatch::inserts(vec![tup(&[8, 8])]))
            .unwrap();
        let log = data.lock().unwrap().clone();
        let (rec, report) =
            recover_from_parts(&specs(), &cinds(), 2, &[], &[&ckpt], &[(0, &log)]).unwrap();
        assert_eq!(report.frames_replayed, 3);
        assert_eq!(report.recovered_epoch, 3);
        assert!(report.torn_tail.is_none());
        assert_eq!(rec.epoch(), 3);
        assert_eq!(rec.relation(RelId(0)), durable.relation(RelId(0)));
        assert_eq!(rec.relation(RelId(1)), durable.relation(RelId(1)));
        assert_eq!(
            rec.cfd_violations(RelId(0)),
            durable.cfd_violations(RelId(0))
        );
        assert_eq!(rec.cind_violations(), durable.cind_violations());
    }

    #[test]
    fn torn_tail_recovers_longest_valid_prefix() {
        let (io, data) = MemIo::new();
        let (mut durable, ckpt) = DurableMultiStore::with_io(
            specs(),
            cinds(),
            1,
            vec![],
            Box::new(io),
            DurableOptions::default(),
        )
        .unwrap();
        durable
            .apply(RelId(0), &UpdateBatch::inserts(vec![tup(&[1, 3])]))
            .unwrap();
        let after_one = data.lock().unwrap().len();
        durable
            .apply(RelId(0), &UpdateBatch::inserts(vec![tup(&[2, 4])]))
            .unwrap();
        let log = data.lock().unwrap().clone();
        // Cut mid-way through the second frame.
        let cut = &log[..(after_one + log.len()) / 2];
        let (rec, report) =
            recover_from_parts(&specs(), &cinds(), 1, &[], &[&ckpt], &[(0, cut)]).unwrap();
        assert_eq!(report.recovered_epoch, 1);
        assert_eq!(report.frames_replayed, 1);
        assert!(report.torn_tail.is_some());
        assert_eq!(rec.live_len(RelId(0)), 3);
    }

    #[test]
    fn mid_log_corruption_is_an_error_not_a_prefix() {
        let (io, data) = MemIo::new();
        let (mut durable, ckpt) = DurableMultiStore::with_io(
            specs(),
            cinds(),
            1,
            vec![],
            Box::new(io),
            DurableOptions::default(),
        )
        .unwrap();
        for i in 0..3i64 {
            durable
                .apply(RelId(0), &UpdateBatch::inserts(vec![tup(&[10 + i, i])]))
                .unwrap();
        }
        let seg0 = data.lock().unwrap().clone();
        // Same bytes split as [segment 0][segment claiming to continue]:
        // corrupt a frame inside the *non-final* segment.
        let mut corrupt = seg0.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0xFF;
        let mut tail = Vec::new();
        tail.extend_from_slice(&WAL_MAGIC);
        put_u64(&mut tail, 3);
        let err = match recover_from_parts(
            &specs(),
            &cinds(),
            1,
            &[],
            &[&ckpt],
            &[(0, &corrupt), (3, &tail)],
        ) {
            Err(e) => e,
            Ok(_) => panic!("mid-log corruption must not recover"),
        };
        assert!(
            matches!(
                err,
                RecoveryError::Corrupt {
                    segment_start: 0,
                    ..
                }
            ),
            "got {err}"
        );
    }

    #[test]
    fn fault_injected_writer_keeps_the_durable_prefix() {
        // Whatever byte the writer dies at, recovery of the surviving
        // bytes equals a twin at the number of fully-logged commits.
        let batches: Vec<UpdateBatch> = (0..4)
            .map(|i| UpdateBatch::inserts(vec![tup(&[i, i + 100]), tup(&[1, i])]))
            .collect();
        // First pass: measure the full log to know the byte range.
        let (io, data) = MemIo::new();
        let (mut durable, ckpt) = DurableMultiStore::with_io(
            specs(),
            cinds(),
            2,
            vec![],
            Box::new(io),
            DurableOptions::default(),
        )
        .unwrap();
        for b in &batches {
            durable.apply(RelId(0), b).unwrap();
        }
        let full = data.lock().unwrap().clone();
        for budget in (16..full.len()).step_by(23) {
            let (io, data) = FaultIo::new(budget);
            let (mut d, ckpt_f) = DurableMultiStore::with_io(
                specs(),
                cinds(),
                2,
                vec![],
                Box::new(io),
                DurableOptions::default(),
            )
            .unwrap();
            assert_eq!(ckpt_f, ckpt);
            let mut ok_commits = 0usize;
            for b in &batches {
                match d.apply(RelId(0), b) {
                    Ok(_) => ok_commits += 1,
                    Err(_) => break,
                }
            }
            let survived = data.lock().unwrap().clone();
            let (rec, report) =
                recover_from_parts(&specs(), &cinds(), 2, &[], &[&ckpt], &[(0, &survived)])
                    .unwrap();
            assert!(
                report.recovered_epoch >= ok_commits as u64,
                "budget {budget}: acknowledged commits must be recoverable"
            );
            // Twin at the recovered epoch.
            let mut twin = MultiStore::new(specs(), cinds(), 2).unwrap();
            for b in batches.iter().take(report.recovered_epoch as usize) {
                twin.apply(RelId(0), b);
            }
            assert_eq!(rec.relation(RelId(0)), twin.relation(RelId(0)));
            assert_eq!(
                rec.cfd_violations(RelId(0)),
                twin.cfd_violations(RelId(0)),
                "budget {budget}"
            );
            assert_eq!(rec.cind_violations(), twin.cind_violations());
        }
    }

    #[test]
    fn missing_checkpoint_and_gaps_are_typed() {
        assert!(matches!(
            recover_from_parts(&specs(), &cinds(), 1, &[], &[], &[]),
            Err(RecoveryError::NoCheckpoint)
        ));
        let garbage = vec![0u8; 64];
        assert!(matches!(
            recover_from_parts(&specs(), &cinds(), 1, &[], &[&garbage], &[]),
            Err(RecoveryError::BadCheckpoint { tried: 1 })
        ));
        let store = MultiStore::new(specs(), cinds(), 1).unwrap();
        let ckpt = checkpoint_bytes(&store);
        let mut seg = Vec::new();
        seg.extend_from_slice(&WAL_MAGIC);
        put_u64(&mut seg, 5);
        assert!(matches!(
            recover_from_parts(&specs(), &cinds(), 1, &[], &[&ckpt], &[(5, &seg)]),
            Err(RecoveryError::SegmentGap {
                expected: 0,
                found: 5
            })
        ));
    }
}
