//! Read-only replica serving: a [`ReplicaService`] opens a writer's
//! durable directory, restores the newest valid snapshot, replays the WAL
//! suffix, and then *tails* the segment chain incrementally — serving warm
//! `rank`/`rank_group` requests at whatever epoch it has reached.
//!
//! The replica never writes to the directory (no truncation, no
//! compaction); the one writer retains full ownership of the files. The
//! tail cursor is `(active segment, byte offset)` plus the next expected
//! sequence number, and each [`ReplicaService::poll`] walks the chain from
//! it — the same walk, on a copy of the cursor and applying nothing,
//! measures [`ReplicaStats::lag_records`]:
//!
//! * A **torn or checksum-failing frame at the tail** is "not yet", not
//!   corruption — the writer may be mid-append, so the poll counts a
//!   [`ReplicaStats::torn_reads`] and retries from the same offset next
//!   time. Only a bad frame in a *sealed* segment (its successor exists,
//!   so the writer will never finish that frame) is treated as real
//!   divergence.
//! * A **rotation** is followed by exact name: when the chain ends cleanly
//!   and `wal-<next_seq>.log` exists, the cursor advances into it. The
//!   check is by the *exact* next sequence number, so glimpsing a newer
//!   segment mid-rotation can never skip records.
//! * A **compacted-away cursor segment** (the file is gone but later
//!   segments exist) raises [`crate::PersistError::Resnapshot`]: the
//!   replica's state is still consistent — just too far behind for the log
//!   that remains — so `rank` keeps serving at the reached epoch while the
//!   caller decides when to pay the [`ReplicaService::resnapshot`] re-open.
//!   A replica that polls at least once per writer snapshot interval never
//!   hits this path (compaction only deletes segments covered by the two
//!   newest snapshots).
//!
//! A record replays through the step crash recovery runs (decode, the
//! writer's own [`WalOp::apply`](crate::persist::wal::WalOp::apply), the
//! post-apply epoch check), so a caught-up replica's scores are
//! bit-identical to the writer's for every engine.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use capra_dl::IndividualId;

use crate::engines::{DocScore, ScoringEngine};
use crate::multiuser::GroupStrategy;
use crate::persist::wal::{
    next_frame, segment_file_name, segment_paths, wal_header, Frame, RawRecord, WAL_HEADER_LEN,
};
use crate::persist::{recover, PersistError, Recovered};
use crate::serve::service::{RankingService, ServiceConfig, ServiceStats, SharedSnapshot};
use crate::{Kb, Result, RuleRepository};

/// Replication progress counters of a [`ReplicaService`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Sequence number of the last record applied (0 = none yet).
    pub applied_seq: u64,
    /// Valid records currently on disk past the cursor — how far behind
    /// the writer's *durable* log the replica is, as of the last poll.
    pub lag_records: u64,
    /// Polls that ended at an incomplete or checksum-failing tail frame
    /// (the writer mid-append; retried, never fatal).
    pub torn_reads: u64,
    /// Times [`ReplicaService::resnapshot`] re-opened from the newest
    /// snapshot.
    pub resnapshots: u64,
}

/// A read-only follower of a durable [`RankingService`] directory: restores
/// the newest snapshot + WAL suffix at open, tails new records on
/// [`ReplicaService::poll`], and serves warm ranking requests at the epoch
/// it has reached — the degradation contract is spelled out below.
///
/// ```
/// use capra_core::serve::{Fact, RankingService, ReplicaService};
/// use capra_core::{FlushPolicy, LineageEngine};
///
/// let dir = std::env::temp_dir().join(format!("capra-replica-doc-{}", std::process::id()));
/// std::fs::remove_dir_all(&dir).ok();
/// let mut writer = RankingService::open_durable(
///     LineageEngine::new(), Default::default(), &dir, FlushPolicy::EveryRecord).unwrap();
/// let peter = writer.individual("peter");
/// writer.assert(peter, Fact::ConceptProb("Weekend".into(), 0.7)).unwrap();
///
/// let mut follower = ReplicaService::open_follow(
///     LineageEngine::new(), Default::default(), &dir).unwrap();
/// assert_eq!(follower.kb().epoch(), writer.kb().epoch());
///
/// // The writer keeps appending; the follower catches up on poll().
/// writer.assert(peter, Fact::ConceptProb("Weekend".into(), 0.9)).unwrap();
/// assert_eq!(follower.poll().unwrap(), 1);
/// assert_eq!(follower.kb().epoch(), writer.kb().epoch());
/// assert_eq!(follower.stats().lag_records, 0);
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
pub struct ReplicaService<E> {
    inner: RankingService<E>,
    /// The directory being followed (never written).
    dir: PathBuf,
    /// Just past the last applied record.
    cursor: Cursor,
    /// Valid on-disk records past the cursor, as of the last poll.
    lag_records: u64,
    /// Tail reads that ended at an in-flight frame.
    torn_reads: u64,
    /// Resnapshot re-opens performed.
    resnapshots: u64,
    /// The cursor's segment was compacted away: polling is pointless until
    /// [`ReplicaService::resnapshot`], but serving stays consistent.
    needs_resnapshot: bool,
    /// The on-disk log contradicted the replica's applied history (bad
    /// frame in a sealed segment, sequence jump, shrinking file, failed
    /// apply): the state may no longer match the writer's, so serving is
    /// poisoned until [`ReplicaService::resnapshot`].
    diverged: bool,
}

impl<E: ScoringEngine + Sync> ReplicaService<E> {
    /// Opens `dir` as a read-only follower: newest valid snapshot + WAL
    /// suffix, exactly like [`RankingService::open_durable`]'s recovery —
    /// but touching nothing on disk. An empty or still-cold directory
    /// opens as an empty replica that starts applying once the writer's
    /// first records land.
    ///
    /// The restored state is installed into the same epoch-published
    /// [`SharedSnapshot`] the writer serves from, so replica reads
    /// ([`ReplicaService::rank`], [`ReplicaService::snapshot`]) take
    /// `&self` and go through the identical one-load read path; only
    /// [`ReplicaService::poll`] needs the exclusive `&mut self`.
    pub fn open_follow(engine: E, config: ServiceConfig, dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let recovered = recover(&dir)?;
        let mut inner =
            RankingService::with_config(engine, Kb::new(), RuleRepository::new(), config);
        let cursor = Cursor::recovered(&recovered);
        inner.reinstall(recovered);
        let mut replica = Self {
            inner,
            dir,
            cursor,
            lag_records: 0,
            torn_reads: 0,
            resnapshots: 0,
            needs_resnapshot: false,
            diverged: false,
        };
        replica.recount_lag();
        Ok(replica)
    }

    /// Applies every record currently readable past the cursor. Returns
    /// the number applied; see [`ReplicaService::poll_n`] for the error
    /// contract.
    pub fn poll(&mut self) -> Result<u64> {
        self.poll_n(u64::MAX)
    }

    /// Applies at most `max` records past the cursor, following segment
    /// rotations. Returns the number applied — 0 simply means "nothing
    /// new yet".
    ///
    /// Errors with [`PersistError::Resnapshot`] when the segment under the
    /// cursor was compacted away (serving continues at the reached epoch;
    /// call [`ReplicaService::resnapshot`] to catch up), and with
    /// [`PersistError::Invalid`] when the log contradicts the applied
    /// history — after which serving is poisoned until a resnapshot.
    pub fn poll_n(&mut self, max: u64) -> Result<u64> {
        if self.diverged {
            return self.diverge("replica already diverged");
        }
        if self.needs_resnapshot {
            return Err(PersistError::Resnapshot {
                next_seq: self.cursor.next_seq,
            }
            .into());
        }
        let start = self.cursor.next_seq;
        let end = self.cursor.walk(&self.dir, max, |rec| {
            let applied = self.inner.apply_replayed(rec.epoch, &rec.body);
            applied.map_err(|e| format!("record {} failed: {e}", rec.seq))
        });
        match end.map_err(PersistError::from)? {
            WalkEnd::CaughtUp => {}
            WalkEnd::Torn => self.torn_reads += 1,
            WalkEnd::Compacted => {
                self.needs_resnapshot = true;
                return Err(PersistError::Resnapshot {
                    next_seq: self.cursor.next_seq,
                }
                .into());
            }
            WalkEnd::Diverged(why) => return self.diverge(&why),
        }
        self.recount_lag();
        Ok(self.cursor.next_seq - start)
    }

    /// Re-opens from the newest valid snapshot + WAL suffix — the recovery
    /// path for a replica whose cursor segment was compacted away (or that
    /// diverged). Clears both degradation flags, replaces the state, and
    /// returns the sequence number caught up to.
    pub fn resnapshot(&mut self) -> Result<u64> {
        let recovered = recover(&self.dir)?;
        self.cursor = Cursor::recovered(&recovered);
        self.inner.reinstall(recovered);
        self.needs_resnapshot = false;
        self.diverged = false;
        self.resnapshots += 1;
        self.recount_lag();
        Ok(self.cursor.next_seq - 1)
    }

    /// Ranks `docs` for `user` at the epoch the replica has reached (see
    /// [`RankingService::rank`] for the ranking contract). Serves even
    /// when the replica needs a resnapshot — the state is merely stale —
    /// but errors after divergence, when it may be *wrong*. Takes
    /// `&self`: replica reads go through the same epoch-published
    /// snapshot load as writer reads, so any number of threads can serve
    /// from one replica while a separate owner thread `poll`s.
    pub fn rank(
        &self,
        user: IndividualId,
        docs: &[IndividualId],
        k: usize,
    ) -> Result<Vec<DocScore>> {
        self.check_poisoned()?;
        self.inner.rank(user, docs, k)
    }

    /// Ranks `docs` for a group of users at the reached epoch (see
    /// [`RankingService::rank_group`]).
    pub fn rank_group(
        &self,
        users: &[IndividualId],
        docs: &[IndividualId],
        k: usize,
        strategy: &GroupStrategy,
    ) -> Result<Vec<DocScore>> {
        self.check_poisoned()?;
        self.inner.rank_group(users, docs, k, strategy)
    }

    /// The consistent `(kb, rules)` view at the epoch the replica has
    /// reached — the *same* [`SharedSnapshot`] type the writer publishes,
    /// so code written against the writer's read layer serves from a
    /// replica unchanged. Applied records publish a successor snapshot;
    /// one already loaded stays immutable.
    pub fn snapshot(&self) -> SharedSnapshot {
        self.inner.snapshot()
    }

    /// The knowledge base at the epoch the replica has reached (use
    /// `kb().voc.find_individual(..)` to resolve request IDs — a replica
    /// has no mutating `individual` call). A stable `Arc` snapshot, like
    /// [`RankingService::kb`].
    pub fn kb(&self) -> Arc<Kb> {
        self.inner.kb()
    }

    /// Replication progress counters.
    pub fn stats(&self) -> ReplicaStats {
        ReplicaStats {
            applied_seq: self.cursor.next_seq - 1,
            lag_records: self.lag_records,
            torn_reads: self.torn_reads,
            resnapshots: self.resnapshots,
        }
    }

    /// The underlying service's counters (cache traffic, replay counts).
    pub fn service_stats(&self) -> ServiceStats {
        self.inner.stats()
    }

    /// Whether [`ReplicaService::resnapshot`] is required before polling
    /// can make progress again.
    pub fn needs_resnapshot(&self) -> bool {
        self.needs_resnapshot
    }

    /// Poisons serving and returns the divergence error.
    fn diverge<T>(&mut self, why: &str) -> Result<T> {
        self.diverged = true;
        Err(PersistError::Invalid(format!(
            "replica diverged from the writer's log ({why}); \
             re-open from the newest snapshot (resnapshot)"
        ))
        .into())
    }

    /// Errors when serving is poisoned by divergence.
    fn check_poisoned(&self) -> Result<()> {
        if self.diverged {
            Err(PersistError::Invalid(
                "replica diverged from the writer's log; \
                 re-open from the newest snapshot (resnapshot)"
                    .into(),
            )
            .into())
        } else {
            Ok(())
        }
    }

    /// Counts the valid records on disk past the cursor — the
    /// [`ReplicaStats::lag_records`] gauge: the tail walk of a copy of the
    /// cursor, applying nothing.
    fn recount_lag(&mut self) {
        let mut ahead = self.cursor;
        let _ = ahead.walk(&self.dir, u64::MAX, |_| Ok(()));
        self.lag_records = ahead.next_seq - self.cursor.next_seq;
    }
}

/// Why a walk of the segment chain stopped.
enum WalkEnd {
    /// Past the last complete record the chain holds, or at the budget.
    CaughtUp,
    /// At an incomplete or checksum-failing frame at the tail, or a
    /// segment header still in flight: the writer is mid-append.
    Torn,
    /// The cursor's segment was compacted away while later ones remain.
    Compacted,
    /// The log contradicts the walked history (or a visit failed).
    Diverged(String),
}

/// The tail cursor: `(segment, byte offset)` just past the last visited
/// record, and the sequence number the next one must carry.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    /// First sequence number (= file name) of the segment being tailed.
    seg_first: u64,
    /// Byte offset just past the last visited frame in that segment.
    offset: u64,
    /// Sequence number the next visited record must carry.
    next_seq: u64,
}

impl Cursor {
    /// Just past the last record a recovery reflects.
    fn recovered(recovered: &Recovered) -> Self {
        let (seg_first, offset) = recovered.cursor;
        Self {
            seg_first,
            offset,
            next_seq: recovered.next_seq,
        }
    }

    /// Walks the segment chain in `dir` from this cursor, handing at most
    /// `budget` records, in sequence, to `visit` and moving past each one
    /// it accepts. A rotation is followed only into the *exact* successor
    /// (`wal-<next_seq>.log`), so glimpsing a newer segment mid-rotation
    /// never skips records, and a cursor segment compacted away after all
    /// its records were visited is left the same way. An I/O error other
    /// than a missing segment is returned as is.
    fn walk(
        &mut self,
        dir: &Path,
        budget: u64,
        mut visit: impl FnMut(&RawRecord) -> std::result::Result<(), String>,
    ) -> std::io::Result<WalkEnd> {
        // When the cursor segment has no visited records yet, `next_seq ==
        // seg_first` and that "successor" would be the segment itself.
        let successor = |c: &Cursor| {
            c.next_seq != c.seg_first && dir.join(segment_file_name(c.next_seq)).exists()
        };
        let diverged = |why: String| Ok(WalkEnd::Diverged(why));
        let mut visited = 0u64;
        while visited < budget {
            let bytes = match std::fs::read(dir.join(segment_file_name(self.seg_first))) {
                Ok(bytes) => bytes,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    if successor(self) {
                        self.enter_successor();
                        continue;
                    }
                    // Later segments without ours: compaction outran the
                    // cursor. None: the writer has not created it yet.
                    let later = segment_paths(dir).iter().any(|&(s, _)| s > self.seg_first);
                    return Ok(if later {
                        WalkEnd::Compacted
                    } else {
                        WalkEnd::CaughtUp
                    });
                }
                Err(e) => return Err(e),
            };
            if (bytes.len() as u64) < self.offset {
                return diverged("the active segment shrank beneath the cursor".into());
            }
            if self.offset == WAL_HEADER_LEN as u64 {
                if bytes.len() < WAL_HEADER_LEN {
                    return Ok(WalkEnd::Torn);
                }
                if bytes[..WAL_HEADER_LEN] != wal_header() {
                    return diverged("segment header mismatch".into());
                }
            }
            while visited < budget {
                match next_frame(&bytes, self.offset as usize) {
                    None => break,
                    Some(Frame::Ok(rec)) => {
                        if rec.seq != self.next_seq {
                            let (want, got) = (self.next_seq, rec.seq);
                            return diverged(format!(
                                "expected sequence {want}, segment holds {got}"
                            ));
                        }
                        if let Err(why) = visit(&rec) {
                            return diverged(why);
                        }
                        self.offset = rec.end_offset as u64;
                        self.next_seq += 1;
                        visited += 1;
                    }
                    // A successor means this segment is sealed, and the
                    // writer will never complete the frame; otherwise it
                    // is an append in flight — "not yet".
                    Some(Frame::Torn | Frame::Corrupt { .. }) if successor(self) => {
                        return diverged("torn frame in a sealed segment".into());
                    }
                    Some(Frame::Torn | Frame::Corrupt { .. }) => return Ok(WalkEnd::Torn),
                }
            }
            if visited == budget || !successor(self) {
                break;
            }
            self.enter_successor();
        }
        Ok(WalkEnd::CaughtUp)
    }

    /// Moves to the start of the successor segment, `wal-<next_seq>.log`.
    fn enter_successor(&mut self) {
        self.seg_first = self.next_seq;
        self.offset = WAL_HEADER_LEN as u64;
    }
}
