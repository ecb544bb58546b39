//! # Durable serving: snapshot + write-ahead-log persistence
//!
//! Hand-rolled, versioned, length-prefixed binary formats for the pieces a
//! [`crate::serve::RankingService`] needs to survive a crash:
//!
//! * **Snapshots** (`snapshot.rs`) — the full [`crate::Kb`] (universe, ABox,
//!   TBox, vocabulary, epochs), the [`crate::RuleRepository`], and the set
//!   of warm tenants — state only; caches are rebuilt on first touch.
//! * **The context-event WAL** (`wal.rs`) — every mutation the service
//!   applies (individual registrations, probabilistic assertions, rule
//!   adds/removes) as a checksummed, epoch-stamped record, so recovery is
//!   "newest valid snapshot + replay the WAL suffix".
//!
//! ## Design rules
//!
//! * **No serde.** Every format is written byte-by-byte through
//!   `codec::Writer` and read back through `codec::Reader`; all
//!   multi-byte integers are little-endian and floats travel as raw IEEE-754
//!   bits, so replayed scores are *bit-identical* to the uninterrupted run.
//! * **Names, not ids.** Interned handles ([`capra_events::VarId`],
//!   [`capra_dl::ConceptName`], …) are process-local; the formats store
//!   *names* and decode by re-interning into a fresh process, rebuilding the
//!   exact same handle order.
//! * **Checksummed framing.** Snapshot sections and WAL records both use a
//!   `[len][crc32][payload]` frame; a failed CRC, short read, or unknown tag
//!   surfaces as a typed [`PersistError`] — decode paths never panic on
//!   corrupt input. WAL recovery truncates at the first bad record instead
//!   of failing, reporting the dropped suffix in the service stats.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

pub(crate) mod codec;
pub(crate) mod compact;
pub(crate) mod snapshot;
pub(crate) mod wal;
pub mod workload;

pub use compact::CompactionPolicy;
pub use snapshot::{decode_kb, decode_rules, encode_kb, encode_rules};
pub use wal::{FlushPolicy, WalStats};
pub use workload::{digest, Fnv64, Workload, WorkloadFact, WorkloadMeta, WorkloadRecord};

/// Errors raised by the persistence layer (snapshot and WAL encode/decode).
#[derive(Debug, Clone, PartialEq)]
pub enum PersistError {
    /// An operating-system I/O failure (message of the underlying error —
    /// kept as a string so the error type stays `Clone + PartialEq`).
    Io(String),
    /// The input does not start with the expected magic bytes.
    BadMagic {
        /// Which format was expected (`"snapshot"` or `"wal"`).
        format: &'static str,
    },
    /// The format version is one this build does not understand.
    BadVersion {
        /// Which format carried the version (`"snapshot"` or `"wal"`).
        format: &'static str,
        /// The version found in the file.
        found: u16,
        /// The version this build writes (and the newest it reads).
        supported: u16,
    },
    /// A CRC32 check over a section or record payload failed.
    ChecksumMismatch {
        /// The checksum stored alongside the payload.
        expected: u32,
        /// The checksum recomputed over the payload actually read.
        found: u32,
    },
    /// The input ended before a complete value could be read.
    Truncated {
        /// Bytes the next value needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// Structurally readable but semantically invalid data (unknown tag,
    /// dangling name reference, out-of-range probability, …).
    Invalid(String),
    /// A replica's read cursor can no longer follow the writer's log —
    /// the segment it needed was compacted away, or the log was rewritten
    /// under it (the writer crash-recovered and truncated). Not data
    /// corruption: the replica re-opens from the newest snapshot via
    /// `ReplicaService::resnapshot` and catches up from there.
    Resnapshot {
        /// The sequence number the replica needed next.
        next_seq: u64,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(msg) => write!(f, "persistence I/O error: {msg}"),
            PersistError::BadMagic { format } => {
                write!(f, "not a capra {format} file (bad magic bytes)")
            }
            PersistError::BadVersion {
                format,
                found,
                supported,
            } => write!(
                f,
                "{format} format version {found} is not supported (this build reads version \
                 {supported})"
            ),
            PersistError::ChecksumMismatch { expected, found } => write!(
                f,
                "checksum mismatch: stored {expected:#010x}, computed {found:#010x}"
            ),
            PersistError::Truncated { needed, available } => write!(
                f,
                "truncated input: needed {needed} more byte(s), only {available} available"
            ),
            PersistError::Invalid(msg) => write!(f, "invalid persisted data: {msg}"),
            PersistError::Resnapshot { next_seq } => write!(
                f,
                "WAL record {next_seq} is no longer available to this replica; re-open from \
                 the newest snapshot (ReplicaService::resnapshot)"
            ),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e.to_string())
    }
}

/// Fsyncs a directory, making renames and unlinks inside it durable —
/// without this, a crash after `rename`/`remove_file` can resurrect the
/// old directory entry (or lose the new one) even though the file data
/// itself was synced.
pub(crate) fn sync_dir(dir: &Path) -> std::io::Result<()> {
    std::fs::File::open(dir)?.sync_all()
}

/// Snapshot files inside a durable directory, newest first. Names follow
/// `snapshot-<seq>.snap` where `<seq>` is the last WAL sequence number
/// the snapshot covers.
pub(crate) fn snapshot_paths(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut out = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(seq) = name
                .strip_prefix("snapshot-")
                .and_then(|s| s.strip_suffix(".snap"))
            else {
                continue;
            };
            if let Ok(seq) = seq.parse::<u64>() {
                out.push((seq, entry.path()));
            }
        }
    }
    out.sort_by_key(|&(seq, _)| std::cmp::Reverse(seq));
    out
}

/// The snapshots of `dir` that read and decode, newest first, with their
/// sequence numbers and bytes (older snapshots and the log cover the rest).
pub(crate) fn decodable_snapshots(
    dir: &Path,
) -> impl Iterator<Item = (u64, Vec<u8>, snapshot::RecoveredSnapshot)> {
    snapshot_paths(dir).into_iter().filter_map(|(seq, path)| {
        let bytes = std::fs::read(path).ok()?;
        let snap = snapshot::decode_snapshot(&bytes).ok()?;
        Some((seq, bytes, snap))
    })
}

/// Everything one read-only recovery pass derives from a durable
/// directory: the restored state, the replay/truncation counters, and
/// where the log's valid chain ends — as both a writer resume point and a
/// replica read cursor. Shared by `RankingService::open_durable` (which
/// then applies [`Recovered::resume`] to disk) and
/// `ReplicaService::open_follow` (which touches nothing).
pub(crate) struct Recovered {
    /// The recovered knowledge base.
    pub kb: crate::Kb,
    /// The recovered rule repository.
    pub rules: crate::RuleRepository,
    /// Tenants that were live at snapshot time (re-seeded warm at boot).
    pub warm_users: Vec<String>,
    /// Records replayed from the log past the snapshot.
    pub replayed: u64,
    /// Records lost: torn/corrupt frames, disconnected segments, and
    /// semantically unreplayable suffixes.
    pub truncated: u64,
    /// Sequence number the next appended record gets.
    pub next_seq: u64,
    /// Where a writer resumes appending (`None` → fresh segment), plus
    /// segments past the valid chain it must delete.
    pub resume: WriterResume,
    /// Replica read cursor: `(active segment first_seq, byte offset)`
    /// just past the last record the recovered state reflects.
    pub cursor: (u64, u64),
}

/// The disk fix-up a writer performs after recovery (a replica performs
/// none of it).
#[derive(Debug, Default)]
pub(crate) struct WriterResume {
    /// Segment to keep appending into; `None` → start a fresh segment at
    /// `next_seq`.
    pub active: Option<wal::ResumeSegment>,
    /// Segment files recovery invalidated (they sit after the valid
    /// chain, or cannot be resumed under their name) — deleted before the
    /// log reopens.
    pub delete: Vec<PathBuf>,
}

/// Recovers a durable directory without writing anything: picks the
/// newest fully-decodable snapshot, scans the segment chain, and replays
/// the suffix of records the snapshot does not cover.
///
/// Replay is deliberately forgiving:
/// a record that passes its CRC but fails semantic replay (undecodable
/// operation, sequence gap, post-apply epoch mismatch) cannot be
/// un-applied in place, so the pass restarts from the snapshot with the
/// replay limit shortened to just before the failure; the records
/// replayed so far are deterministic, so the loop runs at most twice. A
/// chain whose first surviving record sits *past* `base_seq + 1` (its
/// prefix was compacted away, and every snapshot that covered the gap is
/// gone) is unusable from the snapshot — it truncates entirely rather
/// than silently replaying across the hole. The epoch stamps alone could
/// not catch that: rule operations don't move the KB epoch.
pub(crate) fn recover(dir: &Path) -> Result<Recovered, PersistError> {
    use wal::{ResumeSegment, WAL_HEADER_LEN};

    // The newest snapshot that decodes seeds the first replay pass; only a
    // restarted pass decodes its bytes again.
    let (snapshot_bytes, mut decoded) = match decodable_snapshots(dir).next() {
        Some((_, bytes, snap)) => (Some(bytes), Some(snap)),
        None => (None, None),
    };

    let log = wal::scan_segments(dir)?;
    let mut truncated = log.dropped;
    let mut limit = log.records.len();
    let (snap, rules, replayed) = loop {
        let mut snap = match (decoded.take(), &snapshot_bytes) {
            (Some(snap), _) => snap,
            (None, Some(bytes)) => snapshot::decode_snapshot(bytes).expect("decoded before"),
            (None, None) => Default::default(),
        };
        let mut rules = Arc::new(std::mem::take(&mut snap.rules));
        let base_seq = snap.last_applied_seq;
        let mut applied = 0u64;
        let mut prev_seq = None;
        let mut failed_at = None;
        for (j, (_, rec)) in log.records[..limit].iter().enumerate() {
            match prev_seq {
                Some(prev) if rec.seq != prev + 1 => {
                    failed_at = Some(j);
                    break;
                }
                None if rec.seq > base_seq + 1 => {
                    // Compacted-away prefix this snapshot cannot bridge.
                    failed_at = Some(j);
                    break;
                }
                _ => {}
            }
            prev_seq = Some(rec.seq);
            if rec.seq <= base_seq {
                // Already reflected in the snapshot.
                continue;
            }
            if wal::replay(&mut snap.kb, &mut rules, rec.epoch, &rec.body).is_ok() {
                applied += 1;
            } else {
                failed_at = Some(j);
                break;
            }
        }
        match failed_at {
            Some(j) => {
                truncated += (limit - j) as u64;
                limit = j;
            }
            None => break (snap, rules, applied),
        }
    };

    let base_seq = snap.last_applied_seq;
    let next_seq = log.records[..limit]
        .last()
        .map(|(_, r)| r.seq)
        .unwrap_or(base_seq)
        .max(base_seq)
        + 1;

    // Writer resume point and replica cursor. Appends may only continue
    // in a segment whose kept contents match its name: either the chain
    // ends inside it, or it is an empty (header-only) segment named for
    // exactly the next sequence number. Anything else restarts in a fresh
    // segment, and every segment past the resume point is invalidated.
    let (active, keep_segments) = match log.records[..limit].last() {
        Some((si, rec)) => {
            let records = log.records[..limit].iter().filter(|(i, _)| i == si).count() as u64;
            (
                Some(ResumeSegment {
                    first_seq: log.segments[*si].first_seq,
                    keep_len: rec.end_offset as u64,
                    records,
                }),
                si + 1,
            )
        }
        None => {
            let fresh_active = log.segments.first().is_some_and(|s| {
                s.scan.header_ok && s.scan.dropped == 0 && s.first_seq == next_seq
            });
            if fresh_active {
                (
                    Some(ResumeSegment {
                        first_seq: next_seq,
                        keep_len: WAL_HEADER_LEN as u64,
                        records: 0,
                    }),
                    1,
                )
            } else {
                (None, 0)
            }
        }
    };
    let cursor = active
        .map(|a| (a.first_seq, a.keep_len))
        .unwrap_or((next_seq, WAL_HEADER_LEN as u64));
    let delete = log.segments[keep_segments..]
        .iter()
        .map(|s| s.path.clone())
        .collect();

    Ok(Recovered {
        kb: snap.kb,
        rules: Arc::unwrap_or_clone(rules),
        warm_users: snap.warm_users,
        replayed,
        truncated,
        next_seq,
        resume: WriterResume { active, delete },
        cursor,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{Fact, RankingService, ServiceConfig};
    use crate::{
        FactorizedEngine, LineageEngine, NaiveEnumEngine, NaiveViewEngine, PreferenceRule, Score,
        ScoringEngine, ScoringEnv,
    };

    /// A `Covered` directory from a build that wrote version 1: its only
    /// snapshot carries the memo section and the WAL prefix it covers is
    /// gone. Refusing the snapshot would truncate the whole log.
    #[test]
    fn version_1_snapshot_bridges_a_compacted_prefix() {
        let dir = std::env::temp_dir().join(format!("capra-persist-v1-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServiceConfig {
            segment_records: 3,
            compaction: CompactionPolicy::Covered,
            ..ServiceConfig::default()
        };
        let flush = FlushPolicy::EveryRecord;
        let service =
            RankingService::open_durable(LineageEngine::new(), config, &dir, flush).unwrap();
        let users = ["u0", "u1"].map(|name| service.individual(name));
        let docs = ["d0", "d1", "d2"].map(|name| service.individual(name));
        for (i, &x) in users.iter().chain(&docs).enumerate() {
            let p = 0.2 + 0.15 * i as f64;
            for (f, p) in [(0, p), (1, 1.0 - p)] {
                let name = format!("{}{f}", if i < 2 { "Ctx" } else { "Feat" });
                service.assert(x, Fact::ConceptProb(name, p)).unwrap();
            }
        }
        for (i, sigma) in [0.7, 0.3].into_iter().enumerate() {
            let parse = |text: String| service.parse(&text).unwrap();
            let (context, preference) = (parse(format!("Ctx{i}")), parse(format!("Feat{i}")));
            let sigma = Score::new(sigma).unwrap();
            let rule = PreferenceRule::new(format!("R{i}"), context, preference, sigma);
            service.add_rule(rule).unwrap();
            service.rank(users[i], &docs, docs.len()).unwrap();
        }
        service.save_snapshot().unwrap();
        let drift = Fact::ConceptProb("Ctx1".into(), 0.9);
        service.assert(users[0], drift).unwrap();
        let want = service.snapshot();
        drop(service);

        let (seq, path) = &snapshot_paths(&dir)[0];
        let current = std::fs::read(path).unwrap();
        std::fs::write(path, snapshot::as_version_1(&current, b"\x03memo")).unwrap();
        let segments = wal::segment_paths(&dir);
        let covered: Vec<_> = segments.windows(2).filter(|s| s[1].0 - 1 <= *seq).collect();
        assert!(!covered.is_empty(), "no sealed prefix to delete");
        for pair in covered {
            std::fs::remove_file(&pair[0].1).unwrap();
        }

        let got = recover(&dir).unwrap();
        assert_eq!((got.truncated, got.replayed), (0, 1));
        assert_eq!(got.kb.epoch(), want.kb().epoch());
        assert_eq!(got.warm_users.len(), users.len());
        let engines: [Box<dyn ScoringEngine>; 4] = [
            Box::new(NaiveViewEngine::new()),
            Box::new(NaiveEnumEngine::new()),
            Box::new(FactorizedEngine::new()),
            Box::new(LineageEngine::new()),
        ];
        for (engine, user) in engines.iter().flat_map(|e| users.map(|u| (e, u))) {
            let bits = |kb, rules| -> Vec<u64> {
                let scores = engine.score_all(&ScoringEnv { kb, rules, user }, &docs);
                scores.unwrap().iter().map(|s| s.score.to_bits()).collect()
            };
            let (a, b) = (bits(want.kb(), want.rules()), bits(&got.kb, &got.rules));
            assert_eq!(a, b, "{}", engine.name());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
