//! Read-only replica coverage: a [`ReplicaService`] tailing a live
//! writer's durable directory must converge to the writer's ranking —
//! same top-k, same score bits, for all four engines — through segment
//! rotations and compaction passes; and every way the tail can look
//! wrong (an in-flight frame, a compacted-away cursor segment, a log
//! that contradicts applied history) must degrade exactly as documented:
//! "not yet", an explicit `Resnapshot` request, or poisoned serving.

use capra::dl::IndividualId;
use capra::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Fresh scratch directory, unique per test and per process.
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("capra-replica-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn engines() -> Vec<(&'static str, Box<dyn ScoringEngine + Sync>)> {
    vec![
        ("naive-view", Box::new(NaiveViewEngine::new())),
        ("naive-enum", Box::new(NaiveEnumEngine::new())),
        ("factorized", Box::new(FactorizedEngine::new())),
        ("lineage", Box::new(LineageEngine::new())),
    ]
}

fn engine(name: &str) -> Box<dyn ScoringEngine + Sync> {
    engines().into_iter().find(|(n, _)| *n == name).unwrap().1
}

fn writer(
    engine: Box<dyn ScoringEngine + Sync>,
    dir: &PathBuf,
    config: ServiceConfig,
) -> RankingService<Box<dyn ScoringEngine + Sync>> {
    RankingService::open_durable(engine, config, dir, FlushPolicy::EveryRecord).unwrap()
}

fn follower(
    engine: Box<dyn ScoringEngine + Sync>,
    dir: &PathBuf,
    config: ServiceConfig,
) -> ReplicaService<Box<dyn ScoringEngine + Sync>> {
    ReplicaService::open_follow(engine, config, dir).unwrap()
}

/// Same 24-record scenario as `tests/durability.rs`: two users, three
/// documents, three rules, per-rule-independent features so all four
/// engines accept it.
fn populate<E: ScoringEngine + Sync>(
    service: &mut RankingService<E>,
) -> (Vec<IndividualId>, Vec<IndividualId>) {
    let users: Vec<_> = (0..2)
        .map(|u| {
            let user = service.individual(&format!("user{u}"));
            for (i, p) in [0.3 + 0.2 * u as f64, 0.55, 0.7 - 0.3 * u as f64]
                .into_iter()
                .enumerate()
            {
                service
                    .assert(user, Fact::ConceptProb(format!("Ctx{i}"), p))
                    .unwrap();
            }
            user
        })
        .collect();
    let genre = service.individual("HUMAN-INTEREST");
    let docs: Vec<_> = (0..3)
        .map(|d| {
            let doc = service.individual(&format!("doc{d}"));
            service
                .assert(doc, Fact::Concept("TvProgram".into()))
                .unwrap();
            service
                .assert(
                    doc,
                    Fact::ConceptProb("Feat0".into(), 0.1 + 0.25 * d as f64),
                )
                .unwrap();
            service
                .assert(
                    doc,
                    Fact::ConceptProb("Feat1".into(), 0.85 - 0.2 * d as f64),
                )
                .unwrap();
            service
                .assert(
                    doc,
                    Fact::RoleProb("hasGenre".into(), genre, 0.2 + 0.3 * d as f64),
                )
                .unwrap();
            doc
        })
        .collect();
    for (i, (preference, sigma)) in [
        ("TvProgram AND Feat0", 0.8),
        ("TvProgram AND Feat1", 0.35),
        ("EXISTS hasGenre.{HUMAN-INTEREST}", 0.5),
    ]
    .into_iter()
    .enumerate()
    {
        let context = service.parse(&format!("Ctx{i}")).unwrap();
        let preference = service.parse(preference).unwrap();
        service
            .add_rule(PreferenceRule::new(
                format!("R{i}"),
                context,
                preference,
                Score::new(sigma).unwrap(),
            ))
            .unwrap();
    }
    (users, docs)
}

/// Asserts two rankings agree to the bit.
fn assert_same(name: &str, want: &[DocScore], got: &[DocScore]) {
    assert_eq!(want.len(), got.len(), "{name}");
    for (a, b) in want.iter().zip(got) {
        assert_eq!(a.doc, b.doc, "{name}");
        assert_eq!(
            a.score.to_bits(),
            b.score.to_bits(),
            "{name}: {} vs {}",
            a.score,
            b.score
        );
    }
}

/// The tentpole: a follower opened against a cold directory tails the
/// writer through the whole populate stream, a snapshot + compaction
/// pass, rotations, and post-snapshot traffic — converging to the
/// writer's exact ranking at every checkpoint, for all four engines.
#[test]
fn follower_converges_through_rotation_and_compaction_for_all_engines() {
    let config = ServiceConfig {
        segment_records: 4,
        compaction: CompactionPolicy::Covered,
        ..ServiceConfig::default()
    };
    for (name, eng) in engines() {
        let dir = scratch(&format!("converge-{name}"));
        let mut w = writer(eng, &dir, config);
        // The follower opens before any traffic: an empty replica.
        let mut f = follower(engine(name), &dir, config);
        assert_eq!(f.stats().applied_seq, 0, "{name}");

        let (users, docs) = populate(&mut w);
        let applied = f.poll().unwrap();
        assert_eq!(
            applied,
            w.stats().wal.records_appended,
            "{name}: the follower applies every appended record"
        );
        assert_eq!(f.kb().epoch(), w.kb().epoch(), "{name}");
        assert_eq!(f.stats().lag_records, 0, "{name}");
        for &u in &users {
            let want = w.rank(u, &docs, docs.len()).unwrap();
            let got = f.rank(u, &docs, docs.len()).unwrap();
            assert_same(name, &want, &got);
        }

        // Snapshots (rotating + compacting) plus post-snapshot traffic:
        // the follower keeps tailing the surviving segments.
        w.save_snapshot().unwrap();
        w.assert(users[0], Fact::ConceptProb("Ctx0".into(), 0.85))
            .unwrap();
        w.save_snapshot().unwrap();
        assert!(
            w.stats().wal.segments_deleted > 0,
            "{name}: the second snapshot must compact the covered prefix"
        );
        w.assert(users[1], Fact::ConceptProb("Ctx2".into(), 0.15))
            .unwrap();
        f.poll().unwrap();
        assert_eq!(f.kb().epoch(), w.kb().epoch(), "{name}");
        assert_eq!(f.stats().lag_records, 0, "{name}");
        let strategy = GroupStrategy::Product;
        let want = w.rank_group(&users, &docs, docs.len(), &strategy).unwrap();
        let got = f.rank_group(&users, &docs, docs.len(), &strategy).unwrap();
        assert_same(name, &want, &got);
        assert_eq!(f.stats().resnapshots, 0, "{name}: never fell behind");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A torn tail frame is "not yet", not corruption: the poll reports zero
/// applied and a torn read, and once the writer's bytes are whole the
/// same poll applies the record.
#[test]
fn torn_tail_frame_is_retried_not_fatal() {
    let dir = scratch("torn-tail");
    let config = ServiceConfig::default();
    let mut w = writer(engine("lineage"), &dir, config);
    let (users, _docs) = populate(&mut w);
    let mut f = follower(engine("lineage"), &dir, config);
    let caught_up = f.stats().applied_seq;

    // One more record, then tear its tail off on disk — exactly what a
    // concurrent read mid-append can observe.
    w.assert(users[0], Fact::ConceptProb("Ctx0".into(), 0.95))
        .unwrap();
    let wal_path = dir.join("wal-1.log");
    let whole = std::fs::read(&wal_path).unwrap();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&wal_path)
        .unwrap();
    file.set_len(whole.len() as u64 - 3).unwrap();
    drop(file);

    assert_eq!(f.poll().unwrap(), 0, "a torn frame applies nothing");
    let stats = f.stats();
    assert!(stats.torn_reads >= 1, "{stats:?}");
    assert_eq!(stats.applied_seq, caught_up, "{stats:?}");

    // The "writer" finishes the append; the retry picks it up.
    std::fs::write(&wal_path, &whole).unwrap();
    assert_eq!(f.poll().unwrap(), 1);
    assert_eq!(f.stats().lag_records, 0);
    assert_eq!(f.kb().epoch(), w.kb().epoch());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A replica that stops polling while the writer compacts past its
/// cursor gets an explicit `Resnapshot` error — while `rank` keeps
/// serving the stale-but-consistent epoch — and `resnapshot()` catches
/// it back up to the writer.
#[test]
fn compacted_away_cursor_requires_resnapshot_but_keeps_serving() {
    let config = ServiceConfig {
        segment_records: 2,
        compaction: CompactionPolicy::Covered,
        ..ServiceConfig::default()
    };
    let dir = scratch("compacted-gap");
    let mut w = writer(engine("factorized"), &dir, config);
    let (users, docs) = populate(&mut w);
    let mut f = follower(engine("factorized"), &dir, config);
    let stale_epoch = f.kb().epoch();
    let stale_want = f.rank(users[0], &docs, docs.len()).unwrap();

    // The writer appends and snapshots twice while the follower sleeps:
    // with two-record segments, compaction deletes not just the
    // follower's cursor segment but its exact successor too, so the
    // surviving log genuinely starts past everything the follower can
    // stitch to.
    w.assert(users[0], Fact::ConceptProb("Ctx0".into(), 0.75))
        .unwrap();
    w.assert(users[1], Fact::ConceptProb("Ctx1".into(), 0.45))
        .unwrap();
    w.save_snapshot().unwrap();
    w.assert(users[0], Fact::ConceptProb("Ctx1".into(), 0.65))
        .unwrap();
    w.assert(users[1], Fact::ConceptProb("Ctx0".into(), 0.35))
        .unwrap();
    w.save_snapshot().unwrap();
    assert!(w.stats().wal.segments_deleted > 0);
    w.assert(users[0], Fact::ConceptProb("Ctx2".into(), 0.55))
        .unwrap();

    let err = f.poll().unwrap_err();
    assert!(
        matches!(err, CoreError::Persist(PersistError::Resnapshot { .. })),
        "compaction outran the replica: {err}"
    );
    assert!(f.needs_resnapshot());
    // Still serving, at the stale epoch — consistent, just behind.
    assert_eq!(f.kb().epoch(), stale_epoch);
    let still = f.rank(users[0], &docs, docs.len()).unwrap();
    assert_same("stale-serve", &stale_want, &still);

    f.resnapshot().unwrap();
    f.poll().unwrap();
    assert_eq!(f.stats().resnapshots, 1);
    assert_eq!(f.stats().lag_records, 0);
    assert_eq!(f.kb().epoch(), w.kb().epoch());
    for &u in &users {
        let want = w.rank(u, &docs, docs.len()).unwrap();
        let got = f.rank(u, &docs, docs.len()).unwrap();
        assert_same("post-resnapshot", &want, &got);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `poll_n` applies an exact budget and leaves the rest as measured lag,
/// so callers can amortize catch-up across serving — and across segment
/// rotations, one record at a time.
#[test]
fn poll_n_applies_incrementally_and_tracks_lag() {
    let dir = scratch("poll-n");
    // Four records a segment: one-record polls cross every rotation, and
    // the lag walk counts across the segments ahead of the cursor.
    let config = ServiceConfig {
        segment_records: 4,
        ..ServiceConfig::default()
    };
    let mut w = writer(engine("naive-view"), &dir, config);
    let mut f = follower(engine("naive-view"), &dir, config);
    let (users, docs) = populate(&mut w);
    let total = w.stats().wal.records_appended;
    assert!(w.stats().wal.rotations >= total / 4, "{:?}", w.stats().wal);

    for applied in 1..=total {
        assert_eq!(f.poll_n(1).unwrap(), 1, "poll {applied}");
        let stats = f.stats();
        assert_eq!(stats.applied_seq, applied, "{stats:?}");
        assert_eq!(stats.lag_records, total - stats.applied_seq, "{stats:?}");
    }
    assert_eq!(f.poll().unwrap(), 0);
    assert_eq!(f.stats().lag_records, 0);
    let want = w.rank(users[0], &docs, docs.len()).unwrap();
    let got = f.rank(users[0], &docs, docs.len()).unwrap();
    assert_same("poll-n", &want, &got);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A log that contradicts the replica's applied history (here: the
/// active segment shrinking beneath the cursor, as after a writer
/// restore-from-backup) poisons serving — rank errors too, because the
/// state may be *wrong*, not merely stale — until `resnapshot()`.
#[test]
fn contradicted_history_poisons_serving_until_resnapshot() {
    let dir = scratch("diverge");
    let config = ServiceConfig::default();
    let mut w = writer(engine("lineage"), &dir, config);
    let (users, docs) = populate(&mut w);
    let mut f = follower(engine("lineage"), &dir, config);
    drop(w); // the writer "restores a backup": a shorter log

    let wal_path = dir.join("wal-1.log");
    let len = std::fs::metadata(&wal_path).unwrap().len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&wal_path)
        .unwrap();
    file.set_len(len / 2).unwrap();
    drop(file);

    let err = f.poll().unwrap_err();
    assert!(
        matches!(err, CoreError::Persist(PersistError::Invalid(_))),
        "{err}"
    );
    assert!(
        f.rank(users[0], &docs, docs.len()).is_err(),
        "diverged state must not serve"
    );

    // A resnapshot realigns the replica with the valid prefix of
    // whatever log remains.
    f.resnapshot().unwrap();
    assert!(f.rank(users[0], &docs, docs.len()).is_ok());
    assert_eq!(f.stats().resnapshots, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A follower's warm full page follows what it applies: a page served
/// twice (the second time from the tenant's score entry), then a polled
/// record that changes it — an assert, then a rule edit — answers the
/// writer's new page, and so does the page after a resnapshot reinstalls
/// a later state, for all four engines.
#[test]
fn a_followers_warm_page_follows_polls_and_resnapshots() {
    let config = ServiceConfig::default();
    for (name, eng) in engines() {
        let dir = scratch(&format!("warm-page-{name}"));
        let mut w = writer(eng, &dir, config);
        let (users, docs) = populate(&mut w);
        let mut f = follower(engine(name), &dir, config);
        let user = users[0];
        let same_page = |w: &RankingService<_>, f: &ReplicaService<_>, step: &str| {
            let want = w.rank(user, &docs, docs.len()).unwrap();
            for _ in 0..2 {
                let got = f.rank(user, &docs, docs.len()).unwrap();
                assert_same(&format!("{name}: {step}"), &want, &got);
            }
        };
        same_page(&w, &f, "opened");
        w.assert(user, Fact::ConceptProb("Ctx0".into(), 0.9))
            .unwrap();
        assert_eq!(f.poll().unwrap(), 1, "{name}");
        same_page(&w, &f, "polled assert");
        w.remove_rule("R1").unwrap();
        assert_eq!(f.poll().unwrap(), 1, "{name}");
        same_page(&w, &f, "polled rule edit");
        w.assert(user, Fact::ConceptProb("Ctx2".into(), 0.2))
            .unwrap();
        w.save_snapshot().unwrap();
        f.resnapshot().unwrap();
        assert_eq!(f.stats().resnapshots, 1, "{name}");
        same_page(&w, &f, "resnapshot");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
