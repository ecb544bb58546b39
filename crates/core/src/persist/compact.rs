//! Bounded durability: covered-prefix WAL compaction.
//!
//! Segmented logging (see [`super::wal`]) makes compaction a pure
//! *deletion* problem — no segment is ever rewritten. The invariant is:
//!
//! > A sealed prefix segment may be deleted only when **every** record it
//! > holds is covered by at least the **two** newest fully-valid
//! > snapshots.
//!
//! Two covering snapshots (not one) is what keeps the PR 7 recovery
//! guarantee intact: recovery tolerates one corrupt/half-renamed snapshot
//! by falling back to the next older one, and that fallback must still
//! reach the start of the surviving log. Deletion runs oldest-first with a
//! directory fsync after every unlink, so a crash between any two deletes
//! leaves a *contiguous* segment chain — exactly the state recovery
//! already handles, with zero record loss.
//!
//! Everything here is plan/execute split so fault-injection tests can
//! stop the execution between any two deletes.

use std::path::{Path, PathBuf};

use super::wal::segment_paths;
use super::{decodable_snapshots, sync_dir, PersistError};

/// When (and whether) a durable service deletes covered WAL prefix
/// segments after a snapshot.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum CompactionPolicy {
    /// Keep the whole log. The WAL stays the full authoritative history —
    /// recovery then survives *every* snapshot being lost. This is the
    /// default and preserves the pre-compaction semantics bit-for-bit.
    #[default]
    Never,
    /// After each snapshot, delete sealed prefix segments whose every
    /// record is covered by both of the two newest fully-valid snapshots.
    /// Bounds the log to roughly the traffic between two snapshots, at
    /// the cost of only tolerating the loss of one snapshot.
    Covered,
}

/// What one compaction pass deleted.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CompactionOutcome {
    /// Whole segment files unlinked.
    pub segments_deleted: u64,
    /// Total length of the deleted files in bytes.
    pub bytes_reclaimed: u64,
}

/// Plans a compaction pass: the sealed prefix segments of `dir` that are
/// safe to delete, oldest first.
///
/// A segment qualifies only when a *younger* segment exists (the last
/// segment is the active one and is never deleted — even when covered —
/// so the writer's append target survives) and its records all sit at or
/// below the cover point: the `last_applied_seq` of the **second**-newest
/// fully-decodable snapshot. Fewer than two valid snapshots → nothing
/// qualifies. Only file names are consulted for segment extents
/// (`wal-<first_seq>.log`; a segment's last record is the next segment's
/// `first_seq - 1`), so planning never reads log bytes.
pub(crate) fn covered_prefix(dir: &Path) -> Vec<PathBuf> {
    let Some((cover, ..)) = decodable_snapshots(dir).nth(1) else {
        return Vec::new();
    };
    segment_paths(dir)
        .windows(2)
        .take_while(|pair| pair[1].0.saturating_sub(1) <= cover)
        .map(|pair| pair[0].1.clone())
        .collect()
}

/// Executes a compaction plan: unlinks the planned segments oldest-first,
/// fsyncing the directory after each unlink so every intermediate state
/// is itself durable. `stop_after` caps the number of deletes — the
/// fault-injection hook that models a crash mid-pass.
pub(crate) fn delete_segments(
    dir: &Path,
    prefix: &[PathBuf],
    stop_after: Option<usize>,
) -> Result<CompactionOutcome, PersistError> {
    let mut out = CompactionOutcome::default();
    let take = stop_after.unwrap_or(prefix.len());
    for path in prefix.iter().take(take) {
        let len = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        std::fs::remove_file(path)?;
        sync_dir(dir)?;
        out.segments_deleted += 1;
        out.bytes_reclaimed += len;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::snapshot::encode_snapshot;
    use crate::persist::wal::{segment_file_name, wal_header};
    use crate::{Kb, RuleRepository};

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("capra-compact-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Writes a decodable (empty-state) snapshot covering `seq`.
    fn put_snapshot(dir: &Path, seq: u64) {
        let bytes = encode_snapshot(&Kb::new(), &RuleRepository::new(), &[], seq);
        std::fs::write(dir.join(format!("snapshot-{seq}.snap")), bytes).unwrap();
    }

    /// Creates a header-only segment file (planning only reads names).
    fn put_segment(dir: &Path, first_seq: u64) {
        std::fs::write(dir.join(segment_file_name(first_seq)), wal_header()).unwrap();
    }

    #[test]
    fn fewer_than_two_valid_snapshots_plans_nothing() {
        let dir = scratch("one-snap");
        for first in [1, 10, 20] {
            put_segment(&dir, first);
        }
        assert!(covered_prefix(&dir).is_empty(), "no snapshots");
        put_snapshot(&dir, 25);
        assert!(covered_prefix(&dir).is_empty(), "one snapshot");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cover_is_the_second_newest_snapshot() {
        let dir = scratch("cover");
        for first in [1, 10, 20, 30] {
            put_segment(&dir, first);
        }
        put_snapshot(&dir, 19); // second-newest: covers records 1..=19
        put_snapshot(&dir, 29); // newest
        let plan = covered_prefix(&dir);
        // Segments [1..=9] and [10..=19] are covered by both snapshots;
        // [20..=29] is only covered by the newest, [30..] is active.
        assert_eq!(
            plan,
            vec![
                dir.join(segment_file_name(1)),
                dir.join(segment_file_name(10))
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn active_segment_never_qualifies() {
        let dir = scratch("active");
        put_segment(&dir, 1);
        put_snapshot(&dir, 50);
        put_snapshot(&dir, 60);
        assert!(
            covered_prefix(&dir).is_empty(),
            "a lone segment is the active one, covered or not"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_snapshot_shrinks_the_cover() {
        let dir = scratch("corrupt");
        for first in [1, 10, 20, 30] {
            put_segment(&dir, first);
        }
        put_snapshot(&dir, 9);
        put_snapshot(&dir, 19);
        // Newest snapshot is garbage: the plan must fall back to the pair
        // (19, 9) — cover 9 — not trust the broken file's name.
        std::fs::write(dir.join("snapshot-29.snap"), b"garbage").unwrap();
        assert_eq!(covered_prefix(&dir), vec![dir.join(segment_file_name(1))]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stop_after_leaves_a_contiguous_prefix_deleted() {
        let dir = scratch("stop");
        for first in [1, 10, 20, 30] {
            put_segment(&dir, first);
        }
        put_snapshot(&dir, 29);
        put_snapshot(&dir, 35);
        let plan = covered_prefix(&dir);
        assert_eq!(plan.len(), 3);
        // Crash after one delete: exactly the oldest segment is gone.
        let out = delete_segments(&dir, &plan, Some(1)).unwrap();
        assert_eq!(out.segments_deleted, 1);
        assert!(out.bytes_reclaimed >= wal_header().len() as u64);
        assert!(!dir.join(segment_file_name(1)).exists());
        assert!(dir.join(segment_file_name(10)).exists());
        // The re-planned remainder finishes the job.
        let rest = covered_prefix(&dir);
        assert_eq!(rest.len(), 2);
        delete_segments(&dir, &rest, None).unwrap();
        assert!(dir.join(segment_file_name(30)).exists(), "active survives");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
