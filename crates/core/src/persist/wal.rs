//! The context-event write-ahead log: every service mutation as a
//! checksummed, epoch-stamped record, appended through a pluggable
//! [`WalSink`] with a configurable flush policy.
//!
//! ## File format
//!
//! The log is a chain of *segment* files named `wal-<first_seq>.log`,
//! where `<first_seq>` is the sequence number of the segment's first
//! record. Each segment carries the same framing:
//!
//! ```text
//! [8B magic "CAPRAWAL"][u16 version]          — header, written once
//! repeated records:
//!   [u32 len][u32 crc32(payload)][payload]
//!   payload = [u64 seq][u64 epoch][op]
//! ```
//!
//! `seq` increases by exactly 1 per record across segments (a gap means
//! lost records); `epoch` is the KB epoch *after* applying the operation,
//! giving replay a per-record consistency check on top of the CRC. When
//! the active segment crosses a [`SegmentLimit`] threshold it is sealed
//! (synced, never written again) and a fresh `wal-<next_seq>.log` starts —
//! so compaction can delete whole covered prefix segments without ever
//! rewriting a file, and a replica can tail the chain by name. Recovery
//! scans the segments in order, keeps the longest valid record chain,
//! replays the records newer than the snapshot, and truncates back to that
//! chain — a torn tail or a bit-flipped record costs the suffix, never the
//! service.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write as _};
use std::iter::Sum;
use std::ops::{Add, AddAssign};
use std::path::{Path, PathBuf};
use std::sync::Arc;
#[cfg(test)]
use std::sync::Mutex;

use capra_dl::{IndividualId, Vocabulary};

use super::codec::{crc32, Reader, Writer};
use super::snapshot::{put_concept, read_concept};
use super::{sync_dir, PersistError};
use crate::serve::Fact;
use crate::{Kb, PreferenceRule, RuleRepository, Score};

/// Magic bytes opening every WAL file.
pub(crate) const WAL_MAGIC: &[u8; 8] = b"CAPRAWAL";
/// The single WAL format version this build reads and writes.
pub(crate) const WAL_VERSION: u16 = 1;
/// Header length: magic + version.
pub(crate) const WAL_HEADER_LEN: usize = 10;
/// A record payload is at least `seq + epoch`.
const MIN_PAYLOAD: usize = 16;
/// Upper bound on a single record payload — a length prefix beyond this is
/// framing corruption, not a real record.
const MAX_PAYLOAD: usize = 1 << 28;

/// The WAL header bytes (magic + version).
pub(crate) fn wal_header() -> [u8; WAL_HEADER_LEN] {
    let mut h = [0u8; WAL_HEADER_LEN];
    h[..8].copy_from_slice(WAL_MAGIC);
    h[8..].copy_from_slice(&WAL_VERSION.to_le_bytes());
    h
}

// ---------------------------------------------------------------------------
// Segment naming
// ---------------------------------------------------------------------------

/// File name of the segment whose first record carries `first_seq`.
pub(crate) fn segment_file_name(first_seq: u64) -> String {
    format!("wal-{first_seq}.log")
}

/// Parses a `wal-<first_seq>.log` file name back into its first sequence
/// number.
pub(crate) fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// WAL segment files in `dir`, ascending by first sequence number. Only
/// `wal-<first_seq>.log` names are listed.
pub(crate) fn segment_paths(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut out = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(first_seq) = parse_segment_name(name) {
                out.push((first_seq, entry.path()));
            }
        }
    }
    out.sort_by_key(|&(first_seq, _)| first_seq);
    out
}

// ---------------------------------------------------------------------------
// Flush policy and stats
// ---------------------------------------------------------------------------

/// When the WAL forces its sink to make appended records durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushPolicy {
    /// `fsync` after every record — maximum durability, one sync per
    /// mutation.
    EveryRecord,
    /// `fsync` after every `n` records (clamped to ≥ 1). A crash can lose
    /// up to `n - 1` synced-but-not-yet-flushed records; recovery reports
    /// them in the truncation counter.
    EveryN(u32),
}

/// WAL traffic counters, aggregated exactly like the cache counters in
/// [`crate::SessionStats`] (component-wise `Add` / `Sum`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended since the service opened (or was last cleared).
    pub records_appended: u64,
    /// Bytes appended, including per-record framing.
    pub bytes_appended: u64,
    /// Records replayed from the log during the last recovery.
    pub records_replayed: u64,
    /// Records dropped during the last recovery because they were torn,
    /// failed their checksum, or sat after a corrupt record.
    pub records_truncated: u64,
    /// Active-segment rotations: times the log sealed its current segment
    /// and started a fresh `wal-<next_seq>.log` (threshold crossings plus
    /// pre-snapshot seals under a compacting service).
    pub rotations: u64,
    /// Whole prefix segments deleted by compaction.
    pub segments_deleted: u64,
    /// On-disk bytes reclaimed by compaction (lengths of the deleted
    /// segment files).
    pub bytes_reclaimed: u64,
}

impl Add for WalStats {
    type Output = WalStats;

    fn add(self, rhs: WalStats) -> WalStats {
        WalStats {
            records_appended: self.records_appended + rhs.records_appended,
            bytes_appended: self.bytes_appended + rhs.bytes_appended,
            records_replayed: self.records_replayed + rhs.records_replayed,
            records_truncated: self.records_truncated + rhs.records_truncated,
            rotations: self.rotations + rhs.rotations,
            segments_deleted: self.segments_deleted + rhs.segments_deleted,
            bytes_reclaimed: self.bytes_reclaimed + rhs.bytes_reclaimed,
        }
    }
}

impl AddAssign for WalStats {
    fn add_assign(&mut self, rhs: WalStats) {
        *self = *self + rhs;
    }
}

impl Sum for WalStats {
    fn sum<I: Iterator<Item = WalStats>>(iter: I) -> Self {
        iter.fold(WalStats::default(), Add::add)
    }
}

// ---------------------------------------------------------------------------
// Operations
// ---------------------------------------------------------------------------

/// One mutation of the service state. A live writer builds the op,
/// applies it ([`WalOp::apply`]) and logs that same value, so what is
/// logged is what was applied; recovery and replicas decode it and run the
/// same apply. Individuals are [`IndividualId`]s here: names exist only on
/// disk, where [`decode_op`] resolves them against the recovered
/// vocabulary, reproducing the exact interning the original process
/// performed.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WalOp {
    /// `Kb::individual`, logged only when it registered a new individual.
    Individual {
        /// The individual's name.
        name: String,
    },
    /// A fact about `subject` (tags 1–4, one per [`Fact`] kind).
    Assert {
        /// The individual the fact is about.
        subject: IndividualId,
        /// The fact; probabilities travel as raw bits.
        fact: Fact,
    },
    /// A rule added to the repository (sigma as raw bits).
    AddRule(PreferenceRule),
    /// A rule removed from the repository.
    RemoveRule {
        /// Rule name.
        name: String,
    },
}

/// What an applied [`WalOp`] hands back to the writer that built it.
#[derive(Debug)]
pub(crate) enum Applied {
    /// An assert or an added rule.
    Done,
    /// The individual a registration names.
    Individual(IndividualId),
    /// The rule a removal took out.
    Removed(PreferenceRule),
}

impl WalOp {
    /// Applies the operation to `(kb, rules)`: the one mutation behind
    /// every live writer, crash recovery and replica tailing. The rules
    /// are copy-on-write, so only a rule edit clones a shared repository.
    /// The KB's and the repository's primitives validate before they
    /// mutate, so a rejected op leaves nothing scoring or replay can see.
    pub(crate) fn apply(
        &self,
        kb: &mut Kb,
        rules: &mut Arc<RuleRepository>,
    ) -> crate::Result<Applied> {
        Ok(match self {
            WalOp::Individual { name } => Applied::Individual(kb.individual(name)),
            WalOp::Assert { subject, fact } => {
                match fact {
                    Fact::Concept(concept) => kb.assert_concept(*subject, concept),
                    Fact::ConceptProb(concept, p) => {
                        kb.assert_concept_prob(*subject, concept, *p)?;
                    }
                    Fact::Role(role, object) => kb.assert_role(*subject, role, *object),
                    Fact::RoleProb(role, object, p) => {
                        kb.assert_role_prob(*subject, role, *object, *p)?;
                    }
                }
                Applied::Done
            }
            WalOp::AddRule(rule) => {
                Arc::make_mut(rules).add(rule.clone())?;
                Applied::Done
            }
            WalOp::RemoveRule { name } => Applied::Removed(Arc::make_mut(rules).remove(name)?),
        })
    }
}

fn put_op(w: &mut Writer, op: &WalOp, voc: &Vocabulary) {
    match op {
        WalOp::Individual { name } => {
            w.u8(0);
            w.str(name);
        }
        WalOp::Assert { subject, fact } => {
            let (tag, name, object, p) = match fact {
                Fact::Concept(concept) => (1, concept, None, None),
                Fact::ConceptProb(concept, p) => (2, concept, None, Some(p)),
                Fact::Role(role, object) => (3, role, Some(object), None),
                Fact::RoleProb(role, object, p) => (4, role, Some(object), Some(p)),
            };
            w.u8(tag);
            w.str(voc.individual_name(*subject));
            w.str(name);
            if let Some(&object) = object {
                w.str(voc.individual_name(object));
            }
            if let Some(&p) = p {
                w.f64(p);
            }
        }
        WalOp::AddRule(rule) => {
            w.u8(5);
            w.str(&rule.name);
            put_concept(w, &rule.context, voc);
            put_concept(w, &rule.preference, voc);
            w.f64(rule.sigma.get());
        }
        WalOp::RemoveRule { name } => {
            w.u8(6);
            w.str(name);
        }
    }
}

/// Decodes one operation body (the payload after `seq` and `epoch`),
/// resolving individual names through `voc`: a record may only name an
/// individual an earlier record (or the snapshot) registered.
pub(crate) fn decode_op(body: &[u8], voc: &mut Vocabulary) -> Result<WalOp, PersistError> {
    fn find(r: &mut Reader<'_>, voc: &Vocabulary) -> Result<IndividualId, PersistError> {
        let name = r.str()?;
        voc.find_individual(&name).ok_or_else(|| {
            PersistError::Invalid(format!("WAL references unknown individual `{name}`"))
        })
    }
    let mut r = Reader::new(body);
    let op = match r.u8()? {
        0 => WalOp::Individual { name: r.str()? },
        tag @ 1..=4 => {
            let subject = find(&mut r, voc)?;
            let fact = match tag {
                1 => Fact::Concept(r.str()?),
                2 => Fact::ConceptProb(r.str()?, r.f64()?),
                3 => Fact::Role(r.str()?, find(&mut r, voc)?),
                _ => Fact::RoleProb(r.str()?, find(&mut r, voc)?, r.f64()?),
            };
            WalOp::Assert { subject, fact }
        }
        5 => WalOp::AddRule(PreferenceRule::new(
            r.str()?,
            read_concept(&mut r, voc, 0)?,
            read_concept(&mut r, voc, 0)?,
            Score::new(r.f64()?).map_err(|e| PersistError::Invalid(e.to_string()))?,
        )),
        6 => WalOp::RemoveRule { name: r.str()? },
        t => {
            return Err(PersistError::Invalid(format!(
                "unknown WAL operation tag {t}"
            )))
        }
    };
    r.finish()?;
    Ok(op)
}

/// Replays one record: decodes its body against `kb`'s vocabulary,
/// applies it, and checks the post-apply epoch against the record's stamp
/// — the step crash recovery and replica tailing share.
pub(crate) fn replay(
    kb: &mut Kb,
    rules: &mut Arc<RuleRepository>,
    epoch: u64,
    body: &[u8],
) -> Result<(), PersistError> {
    let op = decode_op(body, &mut kb.voc)?;
    op.apply(kb, rules)
        .map_err(|e| PersistError::Invalid(e.to_string()))?;
    if kb.epoch() != epoch {
        return Err(PersistError::Invalid(format!(
            "replayed record's epoch stamp {epoch} does not match the post-apply epoch {}",
            kb.epoch()
        )));
    }
    Ok(())
}

/// Encodes one complete record frame (`[len][crc][seq, epoch, op]`).
pub(crate) fn encode_record(seq: u64, epoch: u64, op: &WalOp, voc: &Vocabulary) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(seq);
    w.u64(epoch);
    put_op(&mut w, op, voc);
    let payload = w.into_bytes();
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

// ---------------------------------------------------------------------------
// Scanning
// ---------------------------------------------------------------------------

/// One well-framed, checksum-valid record from a WAL scan. The operation
/// body stays encoded — decoding needs the recovered vocabulary, which
/// recovery only has once the snapshot is restored.
#[derive(Debug, Clone)]
pub(crate) struct RawRecord {
    /// Sequence number.
    pub seq: u64,
    /// KB epoch after the original apply (replay consistency check).
    pub epoch: u64,
    /// Encoded operation body.
    pub body: Vec<u8>,
    /// Byte offset of the end of this record's frame in the file.
    pub end_offset: usize,
}

/// Result of scanning a WAL file's bytes: the longest valid record prefix,
/// where the file should be truncated to, and how many records were lost.
#[derive(Debug, Default)]
pub(crate) struct WalScan {
    /// Valid records, in file order.
    pub records: Vec<RawRecord>,
    /// End offset of the last valid frame (where to truncate the file).
    pub valid_len: usize,
    /// Records dropped: torn tails, checksum failures, and every frame
    /// after the first bad one (replay cannot skip a gap).
    pub dropped: u64,
    /// Whether the file header itself was intact. When false the whole
    /// log is unusable (`records` is empty, `valid_len` is 0).
    pub header_ok: bool,
}

/// One parsed step of a frame scan (see [`next_frame`]).
pub(crate) enum Frame {
    /// A complete, checksum-valid record.
    Ok(RawRecord),
    /// The bytes end before a complete frame. For a crashed log this is a
    /// torn tail; for a live tail another process is appending to, it
    /// simply means "not yet" — the replica retries on its next poll.
    Torn,
    /// A complete frame that fails its checksum or minimum length, or a
    /// length prefix too large to be real. `resume_at` is the offset after
    /// the frame when the length prefix itself was plausible (`None` when
    /// the rest of the bytes cannot be re-framed at all).
    Corrupt {
        /// Offset of the next frame, if the framing can still be trusted.
        resume_at: Option<usize>,
    },
}

/// Parses the frame starting at `pos`; `None` at the exact end of the
/// bytes. The shared primitive under [`scan_wal`] (crash recovery) and the
/// replica's incremental tail cursor.
pub(crate) fn next_frame(bytes: &[u8], pos: usize) -> Option<Frame> {
    let remaining = bytes.len().saturating_sub(pos);
    if remaining == 0 {
        return None;
    }
    if remaining < 8 {
        return Some(Frame::Torn);
    }
    let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("len 4")) as usize;
    let stored_crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("len 4"));
    if len > MAX_PAYLOAD {
        // A corrupt length prefix: nothing after it can be re-framed.
        return Some(Frame::Corrupt { resume_at: None });
    }
    if len > remaining - 8 {
        return Some(Frame::Torn);
    }
    let payload = &bytes[pos + 8..pos + 8 + len];
    if len < MIN_PAYLOAD || crc32(payload) != stored_crc {
        return Some(Frame::Corrupt {
            resume_at: Some(pos + 8 + len),
        });
    }
    let seq = u64::from_le_bytes(payload[..8].try_into().expect("len 8"));
    let epoch = u64::from_le_bytes(payload[8..16].try_into().expect("len 8"));
    Some(Frame::Ok(RawRecord {
        seq,
        epoch,
        body: payload[16..].to_vec(),
        end_offset: pos + 8 + len,
    }))
}

/// Scans one segment's bytes, validating framing and checksums only
/// (operation bodies are decoded later, during replay). Never fails:
/// corruption shortens the valid prefix and bumps the drop counter.
pub(crate) fn scan_wal(bytes: &[u8]) -> WalScan {
    let mut scan = WalScan::default();
    if bytes.len() < WAL_HEADER_LEN || bytes[..WAL_HEADER_LEN] != wal_header() {
        // A damaged header forfeits the whole segment; count it as one
        // dropped unit (individual records can no longer be trusted or
        // counted).
        scan.dropped = 1;
        return scan;
    }
    scan.header_ok = true;
    scan.valid_len = WAL_HEADER_LEN;
    let mut pos = WAL_HEADER_LEN;
    let mut intact = true;
    while let Some(frame) = next_frame(bytes, pos) {
        match frame {
            Frame::Ok(rec) => {
                pos = rec.end_offset;
                if intact {
                    scan.valid_len = rec.end_offset;
                    scan.records.push(rec);
                } else {
                    // A frame after the first bad one — even a
                    // checksum-valid one — cannot be applied across the
                    // gap and only contributes to the drop count.
                    scan.dropped += 1;
                }
            }
            Frame::Torn => {
                scan.dropped += 1;
                break;
            }
            Frame::Corrupt { resume_at } => {
                intact = false;
                scan.dropped += 1;
                match resume_at {
                    Some(next) => pos = next,
                    None => break,
                }
            }
        }
    }
    scan
}

/// One scanned segment file.
#[derive(Debug)]
pub(crate) struct SegmentScan {
    /// First sequence number the segment's file name claims.
    pub first_seq: u64,
    /// The segment file.
    pub path: PathBuf,
    /// Frame-level scan of the segment's bytes.
    pub scan: WalScan,
}

/// A whole log directory, scanned: the per-segment scans plus the longest
/// valid record chain across segments. Like [`scan_wal`], never fails on
/// corruption — only on I/O errors reading a listed file.
#[derive(Debug, Default)]
pub(crate) struct LogScan {
    /// Every segment found, ascending by first sequence number.
    pub segments: Vec<SegmentScan>,
    /// The valid chain: `(segment index, record)` pairs in log order.
    /// Sequence continuity *within* the chain is the replay loop's check;
    /// the scan only refuses segments whose first record contradicts
    /// their file name, or that sit after a break.
    pub records: Vec<(usize, RawRecord)>,
    /// Frames dropped: torn or corrupt frames, plus every record in
    /// segments that no longer connect to the chain.
    pub dropped: u64,
}

/// Scans every WAL segment in `dir`, chaining the valid records across
/// segment boundaries.
pub(crate) fn scan_segments(dir: &Path) -> Result<LogScan, PersistError> {
    let mut log = LogScan::default();
    let mut intact = true;
    for (i, (first_seq, path)) in segment_paths(dir).into_iter().enumerate() {
        let bytes = std::fs::read(&path)?;
        let mut scan = scan_wal(&bytes);
        // The first record must carry the sequence number the file name
        // claims, or the segment cannot be trusted (a misnamed segment
        // would resume appends under the wrong name).
        let name_ok = scan.records.first().is_none_or(|r| r.seq == first_seq);
        if intact && scan.header_ok && name_ok {
            for rec in std::mem::take(&mut scan.records) {
                log.records.push((i, rec));
            }
            log.dropped += scan.dropped;
            // A torn or corrupt frame ends the chain: records in later
            // segments cannot be applied across the gap.
            intact = scan.dropped == 0;
        } else {
            // The whole segment is off the chain; every frame it holds
            // is lost.
            log.dropped += scan.records.len() as u64 + scan.dropped;
            scan.records.clear();
            intact = false;
        }
        log.segments.push(SegmentScan {
            first_seq,
            path,
            scan,
        });
    }
    Ok(log)
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Destination for WAL bytes. The two implementations are a real file
/// ([`FileSink`]) and the fault-injecting test double ([`FaultSink`]).
pub(crate) trait WalSink: Send {
    /// Appends bytes to the log (buffered until [`WalSink::sync`]).
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<()>;
    /// Makes everything written so far durable.
    fn sync(&mut self) -> std::io::Result<()>;
}

/// A [`WalSink`] over a real file, syncing with `fdatasync`.
pub(crate) struct FileSink {
    file: File,
}

impl WalSink for FileSink {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.file.write_all(bytes)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_data()
    }
}

/// Shared state behind a [`FaultSink`] handle.
#[cfg(test)]
#[derive(Default)]
struct FaultState {
    /// Bytes that survived a sync — what a crash leaves behind.
    durable: Vec<u8>,
    /// Bytes written but not yet synced.
    buffered: Vec<u8>,
    /// Total bytes accepted so far (drives the fault offsets).
    written: u64,
    /// Fail any write that would push `written` past this budget,
    /// accepting only the prefix (a short write).
    short_write_after: Option<u64>,
    /// Flip this absolute bit offset as it passes through.
    flip_bit: Option<u64>,
    /// Silently drop syncs (report success, persist nothing).
    drop_syncs: bool,
    /// Number of syncs dropped.
    dropped_syncs: u64,
}

/// An injectable in-memory [`WalSink`] that models the classic torn-write
/// failure modes: short writes past a byte budget, a flipped bit at a
/// chosen offset, and dropped fsyncs. Cloning shares state, so a test
/// keeps a handle while the [`Wal`] owns the sink, then reads back
/// [`FaultSink::durable_bytes`] as "what the disk held at the crash".
#[cfg(test)]
#[derive(Clone, Default)]
pub(crate) struct FaultSink {
    state: Arc<Mutex<FaultState>>,
}

#[cfg(test)]
impl FaultSink {
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Accept at most `bytes` total, then fail writes with a short write.
    pub fn short_write_after(&self, bytes: u64) {
        self.lock().short_write_after = Some(bytes);
    }

    /// Flip the given absolute bit offset as it is written.
    pub fn flip_bit(&self, bit: u64) {
        self.lock().flip_bit = Some(bit);
    }

    /// Toggle silent fsync dropping.
    pub fn drop_syncs(&self, on: bool) {
        self.lock().drop_syncs = on;
    }

    /// What a crash would leave on disk: synced bytes only.
    pub fn durable_bytes(&self) -> Vec<u8> {
        self.lock().durable.clone()
    }

    /// Synced plus still-buffered bytes (a clean shutdown).
    pub fn all_bytes(&self) -> Vec<u8> {
        let s = self.lock();
        let mut out = s.durable.clone();
        out.extend_from_slice(&s.buffered);
        out
    }

    /// Number of syncs silently dropped so far.
    pub fn dropped_syncs(&self) -> u64 {
        self.lock().dropped_syncs
    }
}

#[cfg(test)]
impl WalSink for FaultSink {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let mut s = self.lock();
        let start = s.written;
        let mut chunk = bytes.to_vec();
        if let Some(bit) = s.flip_bit {
            let byte = bit / 8;
            if byte >= start && byte < start + chunk.len() as u64 {
                chunk[(byte - start) as usize] ^= 1 << (bit % 8);
            }
        }
        if let Some(budget) = s.short_write_after {
            if start + chunk.len() as u64 > budget {
                let keep = budget.saturating_sub(start) as usize;
                let kept = &chunk[..keep.min(chunk.len())];
                s.buffered.extend_from_slice(kept);
                s.written += kept.len() as u64;
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "injected short write",
                ));
            }
        }
        s.written += chunk.len() as u64;
        s.buffered.extend_from_slice(&chunk);
        Ok(())
    }

    fn sync(&mut self) -> std::io::Result<()> {
        let mut s = self.lock();
        if s.drop_syncs {
            s.dropped_syncs += 1;
        } else {
            let pending = std::mem::take(&mut s.buffered);
            s.durable.extend_from_slice(&pending);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Byte/record thresholds after which the active segment is sealed and a
/// fresh one started. Rotation keeps segments bounded so compaction can
/// delete covered prefixes file-by-file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SegmentLimit {
    /// Rotate once the active segment reaches this many bytes (header
    /// included).
    pub max_bytes: u64,
    /// Rotate once the active segment holds this many records.
    pub max_records: u64,
}

impl Default for SegmentLimit {
    /// 8 MiB segments, unbounded record count.
    fn default() -> Self {
        Self {
            max_bytes: 8 * 1024 * 1024,
            max_records: u64::MAX,
        }
    }
}

/// Where recovery tells the writer to resume appending (see
/// [`Wal::open_dir`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ResumeSegment {
    /// First sequence number of the segment to resume into (its name).
    pub first_seq: u64,
    /// Bytes of the segment to keep — the end of the valid record chain;
    /// anything after is physically truncated.
    pub keep_len: u64,
    /// Records the kept portion holds (rotation accounting).
    pub records: u64,
}

/// Rotation context of a file-backed log.
struct SegmentState {
    /// Directory the segments live in.
    dir: PathBuf,
    /// First sequence number of the active segment.
    first_seq: u64,
    /// Bytes in the active segment, header included.
    bytes: u64,
    /// Records in the active segment.
    records: u64,
    /// Thresholds that trigger rotation.
    limit: SegmentLimit,
}

/// Outcome of one [`Wal::append`].
pub(crate) struct Appended {
    /// Frame bytes written.
    pub bytes: u64,
    /// Whether the append sealed the active segment and started a new one.
    pub rotated: bool,
}

/// The WAL appender: frames, checksums and sequence-stamps operations into
/// a [`WalSink`], syncing per the [`FlushPolicy`] and rotating the active
/// segment at the [`SegmentLimit`].
pub(crate) struct Wal {
    sink: Box<dyn WalSink>,
    policy: FlushPolicy,
    /// Records appended since the last sync.
    unsynced: u32,
    /// Sequence number the next record gets.
    next_seq: u64,
    /// Rotation context; `None` for in-memory test sinks (no files to
    /// rotate).
    seg: Option<SegmentState>,
}

impl Wal {
    /// A fresh log over `sink`: writes and syncs the header, starts at
    /// sequence 1. Test-only — a sink-backed log never rotates.
    #[cfg(test)]
    pub fn create(mut sink: Box<dyn WalSink>, policy: FlushPolicy) -> Result<Self, PersistError> {
        sink.write(&wal_header())?;
        sink.sync()?;
        Ok(Self {
            sink,
            policy,
            unsynced: 0,
            next_seq: 1,
            seg: None,
        })
    }

    /// Opens the log in `dir` for appending. With `active`, resumes into
    /// the named segment after truncating it to the valid chain's end
    /// (the torn suffix is physically removed); without, starts a fresh
    /// `wal-<next_seq>.log`. Either way the segment file and its
    /// directory entry are durable before this returns.
    pub fn open_dir(
        dir: &Path,
        policy: FlushPolicy,
        next_seq: u64,
        active: Option<ResumeSegment>,
        limit: SegmentLimit,
    ) -> Result<Self, PersistError> {
        let (first_seq, keep, records) = match active {
            Some(a) => (
                a.first_seq,
                a.keep_len.max(WAL_HEADER_LEN as u64),
                a.records,
            ),
            None => (next_seq, 0, 0),
        };
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join(segment_file_name(first_seq)))?;
        file.set_len(keep)?;
        file.seek(SeekFrom::End(0))?;
        let mut sink = FileSink { file };
        let bytes = if keep == 0 {
            sink.write(&wal_header())?;
            WAL_HEADER_LEN as u64
        } else {
            keep
        };
        sink.sync()?;
        sync_dir(dir)?;
        Ok(Self {
            sink: Box::new(sink),
            policy,
            unsynced: 0,
            next_seq,
            seg: Some(SegmentState {
                dir: dir.to_path_buf(),
                first_seq,
                bytes,
                records,
                limit,
            }),
        })
    }

    /// Appends one operation with the given post-apply KB epoch stamp.
    /// Returns the bytes written (frame included) and whether the append
    /// crossed a segment threshold and rotated. On error the record must
    /// be considered lost — the in-memory state the caller already
    /// mutated stays ahead of the log until the next successful append.
    pub fn append(
        &mut self,
        epoch: u64,
        op: &WalOp,
        voc: &Vocabulary,
    ) -> Result<Appended, PersistError> {
        let frame = encode_record(self.next_seq, epoch, op, voc);
        self.sink.write(&frame)?;
        self.next_seq += 1;
        self.unsynced += 1;
        let sync_now = match self.policy {
            FlushPolicy::EveryRecord => true,
            FlushPolicy::EveryN(n) => self.unsynced >= n.max(1),
        };
        if sync_now {
            self.sink.sync()?;
            self.unsynced = 0;
        }
        let mut rotated = false;
        if let Some(seg) = &mut self.seg {
            seg.bytes += frame.len() as u64;
            seg.records += 1;
            if seg.bytes >= seg.limit.max_bytes || seg.records >= seg.limit.max_records {
                rotated = self.rotate()?;
            }
        }
        Ok(Appended {
            bytes: frame.len() as u64,
            rotated,
        })
    }

    /// Seals the active segment (sync; it is never written again) and
    /// starts a fresh `wal-<next_seq>.log`. Returns whether a rotation
    /// happened — a record-less active segment or an in-memory test log
    /// is a no-op, so rotation never produces empty sealed segments.
    pub fn rotate(&mut self) -> Result<bool, PersistError> {
        let can = self.seg.as_ref().is_some_and(|s| s.records > 0);
        if !can {
            return Ok(false);
        }
        // Seal: every record of the old segment is durable before the new
        // file's directory entry appears.
        self.sink.sync()?;
        self.unsynced = 0;
        let seg = self.seg.as_mut().expect("checked above");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(seg.dir.join(segment_file_name(self.next_seq)))?;
        let mut sink = FileSink { file };
        sink.write(&wal_header())?;
        sink.sync()?;
        sync_dir(&seg.dir)?;
        self.sink = Box::new(sink);
        seg.first_seq = self.next_seq;
        seg.bytes = WAL_HEADER_LEN as u64;
        seg.records = 0;
        Ok(true)
    }

    /// Forces buffered records to durable storage regardless of policy.
    pub fn flush(&mut self) -> Result<(), PersistError> {
        self.sink.sync()?;
        self.unsynced = 0;
        Ok(())
    }

    /// The sequence number the next appended record will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // Best-effort: don't leave policy-buffered records in page cache
        // on a clean shutdown. (A crash skips Drop — that's what recovery
        // is for.)
        let _ = self.sink.sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> (Kb, Vec<(u64, WalOp)>) {
        // (epoch stamps are arbitrary here; scanning does not check them.)
        let mut kb = Kb::new();
        let user = kb.individual("user");
        let ops = vec![
            (
                1,
                WalOp::Individual {
                    name: "user".into(),
                },
            ),
            (
                2,
                WalOp::Assert {
                    subject: user,
                    fact: Fact::ConceptProb("Ctx".into(), 0.25),
                },
            ),
            (3, WalOp::RemoveRule { name: "R0".into() }),
        ];
        (kb, ops)
    }

    fn write_log(sink: &FaultSink, policy: FlushPolicy) -> Result<(), PersistError> {
        let (kb, ops) = sample_ops();
        let mut wal = Wal::create(Box::new(sink.clone()), policy)?;
        for (epoch, op) in &ops {
            wal.append(*epoch, op, &kb.voc)?;
        }
        wal.flush()
    }

    #[test]
    fn records_round_trip_through_scan_and_decode() {
        let sink = FaultSink::new();
        write_log(&sink, FlushPolicy::EveryRecord).unwrap();
        let bytes = sink.durable_bytes();
        let scan = scan_wal(&bytes);
        assert!(scan.header_ok);
        assert_eq!(scan.dropped, 0);
        assert_eq!(scan.valid_len, bytes.len());
        let (mut kb, ops) = sample_ops();
        assert_eq!(scan.records.len(), ops.len());
        for (rec, (seq, (epoch, op))) in scan.records.iter().zip((1u64..).zip(ops)) {
            assert_eq!((rec.seq, rec.epoch), (seq, epoch));
            assert_eq!(decode_op(&rec.body, &mut kb.voc).unwrap(), op);
        }
    }

    #[test]
    fn torn_tail_truncates_to_last_valid_record() {
        let sink = FaultSink::new();
        write_log(&sink, FlushPolicy::EveryRecord).unwrap();
        let bytes = sink.durable_bytes();
        let full = scan_wal(&bytes);
        let keep = full.records[1].end_offset;
        // Cut mid-way through the last record.
        let torn = &bytes[..keep + 5];
        let scan = scan_wal(torn);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.valid_len, keep);
        assert_eq!(scan.dropped, 1);
    }

    #[test]
    fn bit_flip_drops_the_record_and_everything_after() {
        let sink = FaultSink::new();
        write_log(&sink, FlushPolicy::EveryRecord).unwrap();
        let clean = sink.durable_bytes();
        let full = scan_wal(&clean);
        // Flip one payload bit inside the *first* record.
        let sink = FaultSink::new();
        sink.flip_bit((full.records[0].end_offset as u64 - 2) * 8);
        write_log(&sink, FlushPolicy::EveryRecord).unwrap();
        let scan = scan_wal(&sink.durable_bytes());
        assert!(scan.header_ok);
        assert_eq!(scan.records.len(), 0, "nothing before the corruption");
        assert_eq!(scan.dropped, 3, "the flipped record and both after it");
        assert_eq!(scan.valid_len, WAL_HEADER_LEN);
    }

    #[test]
    fn dropped_syncs_lose_unflushed_suffix_only() {
        let sink = FaultSink::new();
        // Header flushes normally, then all syncs get dropped.
        let (kb, ops) = sample_ops();
        let mut wal = Wal::create(Box::new(sink.clone()), FlushPolicy::EveryRecord).unwrap();
        wal.append(ops[0].0, &ops[0].1, &kb.voc).unwrap();
        sink.drop_syncs(true);
        wal.append(ops[1].0, &ops[1].1, &kb.voc).unwrap();
        wal.append(ops[2].0, &ops[2].1, &kb.voc).unwrap();
        assert!(sink.dropped_syncs() >= 2);
        let scan = scan_wal(&sink.durable_bytes());
        assert_eq!(scan.records.len(), 1, "only the synced record survives");
        assert_eq!(scan.dropped, 0, "a cleanly missing suffix is not torn");
    }

    #[test]
    fn short_write_leaves_a_scannable_prefix() {
        let sink = FaultSink::new();
        // Find the clean length of two records, then replay with a budget
        // that tears the third one mid-frame.
        write_log(&sink, FlushPolicy::EveryRecord).unwrap();
        let two = scan_wal(&sink.durable_bytes()).records[1].end_offset;
        let sink = FaultSink::new();
        sink.short_write_after(two as u64 + 3);
        let err = write_log(&sink, FlushPolicy::EveryRecord);
        assert!(matches!(err, Err(PersistError::Io(_))));
        // The crash image: everything synced plus the torn buffered bytes.
        let scan = scan_wal(&sink.all_bytes());
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.valid_len, two);
        assert_eq!(scan.dropped, 1);
    }

    #[test]
    fn bad_header_forfeits_the_log() {
        let sink = FaultSink::new();
        write_log(&sink, FlushPolicy::EveryRecord).unwrap();
        let mut bytes = sink.durable_bytes();
        bytes[3] ^= 0xFF;
        let scan = scan_wal(&bytes);
        assert!(!scan.header_ok);
        assert!(scan.records.is_empty());
        assert_eq!((scan.valid_len, scan.dropped), (0, 1));
    }

    #[test]
    fn corrupt_op_bodies_error_instead_of_panicking() {
        let (mut kb, ops) = sample_ops();
        for (_, op) in &ops {
            let frame = encode_record(1, 1, op, &kb.voc);
            let body = &frame[24..]; // skip len+crc+seq+epoch
            for cut in 0..body.len() {
                assert!(decode_op(&body[..cut], &mut kb.voc).is_err());
            }
        }
        assert!(matches!(
            decode_op(&[99], &mut kb.voc),
            Err(PersistError::Invalid(_))
        ));
    }

    /// The log bytes of one record per operation tag, as the live service
    /// writes them: two registrations (tag 0), the four fact kinds (1–4),
    /// a rule whose concepts nest (5) and its removal (6). Pinned, so a
    /// change to how an operation is built, encoded or applied cannot move
    /// a byte on disk; each record also decodes and re-encodes to itself.
    #[test]
    fn every_op_tag_writes_pinned_bytes() {
        use crate::persist::digest;
        use crate::serve::{Fact, RankingService};
        use crate::{NaiveViewEngine, PreferenceRule};

        let dir = std::env::temp_dir().join(format!("capra-wal-golden-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let flush = FlushPolicy::EveryRecord;
        let service =
            RankingService::open_durable(NaiveViewEngine::new(), Default::default(), &dir, flush)
                .unwrap();
        let user = service.individual("user");
        let genre = service.individual("genre");
        let facts = [
            (user, Fact::Concept("Weekend".into())),
            (user, Fact::ConceptProb("Home".into(), 0.25)),
            (user, Fact::Role("likes".into(), genre)),
            (genre, Fact::RoleProb("near".into(), user, 0.625)),
        ];
        for (subject, fact) in facts {
            service.assert(subject, fact).unwrap();
        }
        let context = service.parse("Weekend AND NOT Home").unwrap();
        let preference = service
            .parse("EXISTS likes.({genre} OR FORALL near.TOP)")
            .unwrap();
        let sigma = Score::new(0.75).unwrap();
        let rule = PreferenceRule::new("R", context, preference, sigma);
        service.add_rule(rule).unwrap();
        service.remove_rule("R").unwrap();
        let kb = service.kb();
        drop(service);

        let bytes = std::fs::read(dir.join(segment_file_name(1))).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let scan = scan_wal(&bytes);
        assert_eq!((scan.dropped, scan.valid_len), (0, bytes.len()));
        let stamp = |r: &RawRecord| (r.seq, r.epoch, r.body[0]);
        let stamps: Vec<_> = scan.records.iter().map(stamp).collect();
        // (seq, post-apply epoch, op tag): a rule edit leaves the epoch.
        let want = [
            (1, 1, 0),
            (2, 2, 0),
            (3, 3, 1),
            (4, 5, 2),
            (5, 6, 3),
            (6, 8, 4),
            (7, 8, 5),
            (8, 8, 6),
        ];
        assert_eq!(stamps, want);
        let mut voc = kb.voc.clone();
        let mut start = WAL_HEADER_LEN;
        for rec in &scan.records {
            let op = decode_op(&rec.body, &mut voc).unwrap();
            let frame = encode_record(rec.seq, rec.epoch, &op, &voc);
            assert_eq!(frame, bytes[start..rec.end_offset], "record {}", rec.seq);
            start = rec.end_offset;
        }
        assert_eq!((bytes.len(), digest(&bytes)), (385, 0x61b6_e810_a5b6_4c13));
    }

    #[test]
    fn every_n_policy_syncs_in_batches() {
        let sink = FaultSink::new();
        let (kb, ops) = sample_ops();
        let mut wal = Wal::create(Box::new(sink.clone()), FlushPolicy::EveryN(2)).unwrap();
        wal.append(ops[0].0, &ops[0].1, &kb.voc).unwrap();
        assert_eq!(
            scan_wal(&sink.durable_bytes()).records.len(),
            0,
            "first record still buffered"
        );
        wal.append(ops[1].0, &ops[1].1, &kb.voc).unwrap();
        assert_eq!(
            scan_wal(&sink.durable_bytes()).records.len(),
            2,
            "second record crossed the batch"
        );
    }
}
