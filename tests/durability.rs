//! Durability coverage: kill/restart/replay and fault injection against
//! the real on-disk formats.
//!
//! A durable [`RankingService`] must come back from a crash serving
//! bit-identical scores — for all four engines — with its warm tenants
//! paying no cold bind on their first post-boot rank. And whatever a
//! crash leaves on disk (a torn WAL tail, a flipped bit mid-log, a
//! truncated snapshot file, a half-finished compaction pass), recovery
//! degrades to the last durable prefix, reports the loss in
//! [`ServiceStats`], and never panics. With
//! [`CompactionPolicy::Covered`], recovery after *any* crash point must
//! be bit-identical to a never-compacted log's.

use capra::core::persist::{encode_kb, encode_rules};
use capra::dl::IndividualId;
use capra::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Fresh scratch directory, unique per test and per process.
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("capra-durability-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Builds a small TVTouch-flavored state entirely through the durable
/// mutation API, so every step lands in the WAL: two users with three
/// context concepts, three documents with independent feature and genre
/// probabilities, and three rules — one per context — including an
/// `EXISTS hasGenre.{HUMAN-INTEREST}` preference so role assertions and
/// nested concept codecs ride the log too. Per-rule features are
/// independent, so all four engines accept the scenario.
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

fn engines() -> Vec<(&'static str, Box<dyn ScoringEngine + Sync>)> {
    vec![
        ("naive-view", Box::new(NaiveViewEngine::new())),
        ("naive-enum", Box::new(NaiveEnumEngine::new())),
        ("factorized", Box::new(FactorizedEngine::new())),
        ("lineage", Box::new(LineageEngine::new())),
    ]
}

fn engine_named(name: &str) -> Box<dyn ScoringEngine + Sync> {
    engines().into_iter().find(|(n, _)| *n == name).unwrap().1
}

fn open(
    engine: Box<dyn ScoringEngine + Sync>,
    dir: &PathBuf,
) -> RankingService<Box<dyn ScoringEngine + Sync>> {
    open_with(engine, dir, ServiceConfig::default())
}

fn open_with(
    engine: Box<dyn ScoringEngine + Sync>,
    dir: &PathBuf,
    config: ServiceConfig,
) -> RankingService<Box<dyn ScoringEngine + Sync>> {
    RankingService::open_durable(engine, config, dir, FlushPolicy::EveryRecord).unwrap()
}

/// Path of the single WAL segment a default-config writer produces (fresh
/// logs start at sequence 1, and 8 MiB segments never rotate here).
fn first_segment(dir: &Path) -> PathBuf {
    dir.join("wal-1.log")
}

/// WAL segment files in `dir`, ascending by first sequence number.
fn segments(dir: &PathBuf) -> Vec<(u64, PathBuf)> {
    let mut out: Vec<(u64, PathBuf)> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name();
            let first = name
                .to_str()?
                .strip_prefix("wal-")?
                .strip_suffix(".log")?
                .parse()
                .ok()?;
            Some((first, e.path()))
        })
        .collect();
    out.sort_by_key(|&(first, _)| first);
    out
}

/// Snapshot sequence numbers in `dir`, newest first.
fn snapshot_seqs(dir: &PathBuf) -> Vec<u64> {
    let mut out: Vec<u64> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            e.file_name()
                .to_str()?
                .strip_prefix("snapshot-")?
                .strip_suffix(".snap")?
                .parse()
                .ok()
        })
        .collect();
    out.sort_by(|a, b| b.cmp(a));
    out
}

/// Replicates a crash image: flat copy of the durable directory.
fn copy_dir(src: &PathBuf, dst: &PathBuf) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap().filter_map(|e| e.ok()) {
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// The tentpole: populate → rank → snapshot → keep mutating → kill.
/// Restart must replay only the WAL suffix, serve bit-identical scores
/// for every engine, and warm tenants must not cold-bind on their first
/// post-boot rank.
#[test]
fn kill_restart_replay_is_bit_identical_for_all_engines() {
    for (name, engine) in engines() {
        let dir = scratch(&format!("replay-{name}"));
        let mut service = open(engine, &dir);
        let (users, docs) = populate(&mut service);
        for &u in &users {
            service.rank(u, &docs, docs.len()).unwrap();
        }
        service.save_snapshot().unwrap();
        // Post-snapshot traffic: context drift, a rule swap — WAL only.
        service
            .assert(users[0], Fact::ConceptProb("Ctx0".into(), 0.9))
            .unwrap();
        let dropped = service.remove_rule("R1").unwrap();
        service.add_rule(dropped).unwrap();
        let want: Vec<Vec<DocScore>> = users
            .iter()
            .map(|&u| service.rank(u, &docs, docs.len()).unwrap())
            .collect();
        let epoch = service.kb().epoch();
        drop(service); // kill

        let (_, engine) = engines().into_iter().find(|(n, _)| *n == name).unwrap();
        let restored = open(engine, &dir);
        assert_eq!(restored.kb().epoch(), epoch, "{name}");
        let wal = restored.stats().wal;
        assert_eq!(wal.records_truncated, 0, "{name}: {wal:?}");
        assert_eq!(
            wal.records_replayed, 3,
            "{name}: only the post-snapshot suffix replays: {wal:?}"
        );
        for (&u, want) in users.iter().zip(&want) {
            let misses_at_boot = restored
                .tenant_stats(u)
                .expect("snapshot-covered tenant boots live")
                .bindings
                .misses;
            let got = restored.rank(u, &docs, docs.len()).unwrap();
            assert_eq!(
                restored.tenant_stats(u).unwrap().bindings.misses,
                misses_at_boot,
                "{name}: warm tenant must not cold-bind on its first rank"
            );
            for (a, b) in want.iter().zip(&got) {
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
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Every operation kind through a kill and a log-only restart: after
/// `populate`, one record of each of the seven kinds — a registration,
/// the four fact kinds (the certain role, tag 3, is written nowhere
/// else), a rule removal and a rule add — with two out-of-range
/// probabilities asserted between them. Each of those is an error that
/// appends nothing and leaves the epoch where it was. The reopened KB and
/// rules encode to the live service's bytes, and rank bit-identically.
#[test]
fn every_op_kind_replays_and_rejected_facts_log_nothing() {
    for (name, engine) in engines() {
        let dir = scratch(&format!("op-kinds-{name}"));
        let mut service = open(engine, &dir);
        let (users, docs) = populate(&mut service);
        let genre = service.individual("HUMAN-INTEREST");
        let reject = |service: &RankingService<_>, subject, fact: Fact| {
            let state = |s: &RankingService<_>| (s.stats().wal.records_appended, s.kb().epoch());
            let before = state(service);
            assert!(
                service.assert(subject, fact.clone()).is_err(),
                "{name}: {fact:?}"
            );
            assert_eq!(state(service), before, "{name}: {fact:?} left a trace");
        };
        let late = service.individual("late");
        service.assert(late, Fact::Concept("Ctx0".into())).unwrap();
        reject(&service, users[0], Fact::ConceptProb("Ctx1".into(), 1.5));
        service
            .assert(users[1], Fact::ConceptProb("Ctx2".into(), 0.45))
            .unwrap();
        service
            .assert(docs[0], Fact::Role("hasGenre".into(), genre))
            .unwrap();
        reject(
            &service,
            docs[1],
            Fact::RoleProb("hasGenre".into(), genre, -0.25),
        );
        service
            .assert(docs[2], Fact::RoleProb("hasGenre".into(), genre, 0.6))
            .unwrap();
        let rule = service.remove_rule("R0").unwrap();
        service.add_rule(rule).unwrap();
        let appended = service.stats().wal.records_appended;
        let users = [users[0], users[1], late];
        let want: Vec<Vec<DocScore>> = users
            .iter()
            .map(|&u| service.rank(u, &docs, docs.len()).unwrap())
            .collect();
        let (kb, rules) = (service.kb(), service.rules());
        drop(service); // kill

        let restored = open(engine_named(name), &dir);
        let wal = restored.stats().wal;
        assert_eq!(
            (wal.records_replayed, wal.records_truncated),
            (appended, 0),
            "{name}"
        );
        assert_eq!(encode_kb(&restored.kb()), encode_kb(&kb), "{name}");
        let encoded = |kb: &Kb, rules: &RuleRepository| encode_rules(rules, &kb.voc);
        let got = encoded(&restored.kb(), &restored.rules());
        assert_eq!(got, encoded(&kb, &rules), "{name}");
        for (&u, want) in users.iter().zip(&want) {
            let got = restored.rank(u, &docs, docs.len()).unwrap();
            let bits = |ranked: &[DocScore]| -> Vec<(IndividualId, u64)> {
                ranked.iter().map(|s| (s.doc, s.score.to_bits())).collect()
            };
            assert_eq!(bits(&got), bits(want), "{name}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A snapshot is a function of state: two services driven through the
/// same mutations and binding the same tenants write identical bytes,
/// though only one evaluated anything — its tenants hold computed score
/// entries, while at `k = 0` a rank binds and returns before any engine
/// call.
#[test]
fn snapshot_bytes_do_not_depend_on_cached_evaluations() {
    let dirs = [scratch("filled-pool"), scratch("empty-pool")];
    let mut files = Vec::new();
    for (dir, k) in dirs.iter().zip([usize::MAX, 0]) {
        let mut service = open(Box::new(NaiveViewEngine::new()), dir);
        let (users, docs) = populate(&mut service);
        for &u in &users {
            service.rank(u, &docs, k).unwrap(); // k = 0 binds, evaluates nothing
        }
        let computed = service.stats().sessions.scores.misses;
        assert_eq!(
            computed == 0,
            k == 0,
            "{computed} scores computed at k = {k}"
        );
        service.save_snapshot().unwrap();
        let seq = snapshot_seqs(dir)[0];
        files.push(std::fs::read(dir.join(format!("snapshot-{seq}.snap"))).unwrap());
        drop(service);
        let _ = std::fs::remove_dir_all(dir);
    }
    assert!(files[0] == files[1], "the snapshot bytes differ");
}

/// A torn final write (the classic crash-mid-append) loses exactly the
/// torn record: recovery truncates to the valid prefix, reports one
/// dropped record, and re-applying the lost operation converges back to
/// the uninterrupted run bit-for-bit.
#[test]
fn torn_wal_tail_recovers_to_last_valid_prefix() {
    let dir = scratch("torn-tail");
    let mut service = open(engines().remove(3).1, &dir);
    let (users, docs) = populate(&mut service);
    let want: Vec<Vec<DocScore>> = users
        .iter()
        .map(|&u| service.rank(u, &docs, docs.len()).unwrap())
        .collect();
    drop(service);

    // Tear the tail: the last record (R2's AddRule) loses its final bytes.
    let wal_path = first_segment(&dir);
    let len = std::fs::metadata(&wal_path).unwrap().len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&wal_path)
        .unwrap();
    file.set_len(len - 3).unwrap();
    drop(file);

    let restored = open(engines().remove(3).1, &dir);
    let wal = restored.stats().wal;
    assert_eq!(wal.records_truncated, 1, "{wal:?}");
    assert_eq!(
        restored.rules().len(),
        2,
        "the torn AddRule record is gone; everything before it survives"
    );
    // The torn suffix was physically removed: a second restart is clean.
    // Re-adding the lost rule converges back to the uninterrupted scores.
    let context = restored.parse("Ctx2").unwrap();
    let preference = restored.parse("EXISTS hasGenre.{HUMAN-INTEREST}").unwrap();
    restored
        .add_rule(PreferenceRule::new(
            "R2",
            context,
            preference,
            Score::new(0.5).unwrap(),
        ))
        .unwrap();
    drop(restored);
    let clean = open(engines().remove(3).1, &dir);
    assert_eq!(clean.stats().wal.records_truncated, 0);
    for (&u, want) in users.iter().zip(&want) {
        let got = clean.rank(u, &docs, docs.len()).unwrap();
        for (a, b) in want.iter().zip(&got) {
            assert_eq!(a.doc, b.doc);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Walks the WAL's framing from the outside: 10-byte header, then
/// `[u32 len][u32 crc][payload]` frames. Returns each frame's payload
/// start offset.
fn frame_payload_offsets(bytes: &[u8]) -> Vec<usize> {
    let mut offsets = Vec::new();
    let mut pos = 10;
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        offsets.push(pos + 8);
        pos += 8 + len;
    }
    offsets
}

/// A bit flip inside a mid-log record's payload fails that record's
/// checksum: recovery keeps the prefix before it, drops it and everything
/// after (replay must not leap a hole), surfaces the exact count — and
/// never panics.
#[test]
fn bit_flip_mid_log_truncates_from_that_record() {
    let dir = scratch("bit-flip");
    let mut service = open(engines().remove(3).1, &dir);
    let (users, _docs) = populate(&mut service);
    let appended = service.stats().wal.records_appended;
    drop(service);

    // Flip one bit inside the middle record's payload: framing stays
    // intact, so the scanner can still account for every later record.
    let wal_path = first_segment(&dir);
    let mut bytes = std::fs::read(&wal_path).unwrap();
    let offsets = frame_payload_offsets(&bytes);
    assert_eq!(offsets.len() as u64, appended);
    let target = offsets[offsets.len() / 2];
    bytes[target] ^= 0x10;
    std::fs::write(&wal_path, &bytes).unwrap();

    let restored = open(engines().remove(3).1, &dir);
    let wal = restored.stats().wal;
    assert_eq!(
        wal.records_replayed,
        offsets.len() as u64 / 2,
        "exactly the records before the flipped one replay: {wal:?}"
    );
    assert_eq!(
        wal.records_replayed + wal.records_truncated,
        appended,
        "every record is either replayed or reported dropped: {wal:?}"
    );
    // The surviving prefix still serves: re-resolve by name (pre-crash
    // handles past the truncation point no longer exist) and rank.
    let docs: Vec<_> = (0..3)
        .filter_map(|d| restored.kb().voc.find_individual(&format!("doc{d}")))
        .collect();
    if let Some(user) = restored.kb().voc.find_individual("user0") {
        if !docs.is_empty() {
            restored.rank(user, &docs, docs.len()).unwrap();
        }
    }
    let _ = users;
    let _ = std::fs::remove_dir_all(&dir);
}

/// A truncated snapshot file is detected (section checksums) and skipped;
/// because snapshots never truncate the WAL, recovery falls back to a
/// full cold replay with zero data loss — only the warm-tenant seeding is
/// gone, which is exactly the documented cold-bind fallback.
#[test]
fn truncated_snapshot_falls_back_to_full_replay_with_zero_loss() {
    let dir = scratch("bad-snapshot");
    let mut service = open(engines().remove(3).1, &dir);
    let (users, docs) = populate(&mut service);
    for &u in &users {
        service.rank(u, &docs, docs.len()).unwrap();
    }
    service.save_snapshot().unwrap();
    service
        .assert(users[1], Fact::ConceptProb("Ctx1".into(), 0.95))
        .unwrap();
    let appended = service.stats().wal.records_appended;
    let want: Vec<Vec<DocScore>> = users
        .iter()
        .map(|&u| service.rank(u, &docs, docs.len()).unwrap())
        .collect();
    let epoch = service.kb().epoch();
    drop(service);

    // Truncate the snapshot to half: its section checksums cannot hold.
    let snap = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "snap"))
        .expect("save_snapshot wrote a snapshot file");
    let len = std::fs::metadata(&snap).unwrap().len();
    let file = std::fs::OpenOptions::new().write(true).open(&snap).unwrap();
    file.set_len(len / 2).unwrap();
    drop(file);

    let restored = open(engines().remove(3).1, &dir);
    let wal = restored.stats().wal;
    assert_eq!(wal.records_truncated, 0, "nothing is lost: {wal:?}");
    assert_eq!(
        wal.records_replayed, appended,
        "cold fallback replays the whole log: {wal:?}"
    );
    assert_eq!(restored.kb().epoch(), epoch);
    // Cold-bind fallback: no tenant was seeded from the bad snapshot.
    assert!(
        restored.tenant_stats(users[0]).is_none(),
        "no warm seeding without a snapshot"
    );
    for (&u, want) in users.iter().zip(&want) {
        let got = restored.rank(u, &docs, docs.len()).unwrap();
        for (a, b) in want.iter().zip(&got) {
            assert_eq!(a.doc, b.doc);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sweeping a single-bit flip across *every* bit of a small WAL: recovery
/// must never panic, and must always account for all records (replayed +
/// truncated = appended) — whatever the flip hits (magic, version, a
/// length field, a checksum, a payload byte).
#[test]
fn every_single_bit_flip_recovers_without_panic() {
    let dir = scratch("flip-sweep");
    let service = open(engines().remove(3).1, &dir);
    let u = service.individual("u");
    service
        .assert(u, Fact::ConceptProb("Ctx0".into(), 0.4))
        .unwrap();
    let d = service.individual("d");
    service
        .assert(d, Fact::ConceptProb("Feat0".into(), 0.6))
        .unwrap();
    let appended = service.stats().wal.records_appended;
    drop(service);
    let wal_path = first_segment(&dir);
    let pristine = std::fs::read(&wal_path).unwrap();

    for bit in 0..pristine.len() * 8 {
        let mut bytes = pristine.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(&wal_path, &bytes).unwrap();
        let restored = open(engines().remove(3).1, &dir);
        let wal = restored.stats().wal;
        // Every byte of the file is covered by a check (magic, version,
        // length bound, checksum), so a flip is always *detected*: some
        // loss is reported, and the flipped record never replays. (The
        // drop count is measured in frames; a flipped length field breaks
        // re-framing, so it need not equal the original record count.)
        assert!(
            wal.records_truncated >= 1 && wal.records_replayed < appended,
            "bit {bit}: the flip must be detected and reported: {wal:?}"
        );
        drop(restored);
        // Recovery rewrites the file (truncation); restore the pristine
        // image for the next flip.
        std::fs::write(&wal_path, &pristine).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tight rotation (four records per segment) spreads the log over many
/// segment files; a kill/restart must stitch the whole chain back
/// together — zero truncation, every record replayed, bit-identical
/// scores — for all four engines.
#[test]
fn segment_rotation_restart_is_bit_identical_for_all_engines() {
    let config = ServiceConfig {
        segment_records: 4,
        ..ServiceConfig::default()
    };
    for (name, engine) in engines() {
        let dir = scratch(&format!("rotation-{name}"));
        let mut service = open_with(engine, &dir, config);
        let (users, docs) = populate(&mut service);
        let stats = service.stats().wal;
        assert!(
            stats.rotations > 0,
            "{name}: 24 records over 4-record segments must rotate: {stats:?}"
        );
        let appended = stats.records_appended;
        let want: Vec<Vec<DocScore>> = users
            .iter()
            .map(|&u| service.rank(u, &docs, docs.len()).unwrap())
            .collect();
        let epoch = service.kb().epoch();
        drop(service); // kill

        assert!(
            segments(&dir).len() > 1,
            "{name}: rotation must leave multiple segment files on disk"
        );
        let (_, engine) = engines().into_iter().find(|(n, _)| *n == name).unwrap();
        let restored = open_with(engine, &dir, config);
        let wal = restored.stats().wal;
        assert_eq!(wal.records_truncated, 0, "{name}: {wal:?}");
        assert_eq!(wal.records_replayed, appended, "{name}: {wal:?}");
        assert_eq!(restored.kb().epoch(), epoch, "{name}");
        for (&u, want) in users.iter().zip(&want) {
            let got = restored.rank(u, &docs, docs.len()).unwrap();
            for (a, b) in want.iter().zip(&got) {
                assert_eq!(a.doc, b.doc, "{name}");
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "{name}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Twin runs of the same mutation stream, one with
/// [`CompactionPolicy::Covered`] and one with the default `Never`: the
/// covered run reclaims prefix segments (fewer files, bytes accounted in
/// [`WalStats`]) yet restarts bit-identical to the never-compacted twin,
/// with zero truncation and a shorter replay.
#[test]
fn covered_compaction_reclaims_segments_and_stays_bit_identical() {
    let never_cfg = ServiceConfig {
        segment_records: 3,
        ..ServiceConfig::default()
    };
    let covered_cfg = ServiceConfig {
        compaction: CompactionPolicy::Covered,
        ..never_cfg
    };
    let covered_dir = scratch("covered-twin");
    let never_dir = scratch("never-twin");
    let mut covered = open_with(engines().remove(2).1, &covered_dir, covered_cfg);
    let mut never = open_with(engines().remove(2).1, &never_dir, never_cfg);

    // Identical mutation streams, snapshot for snapshot.
    let (users, docs) = populate(&mut covered);
    let (users2, docs2) = populate(&mut never);
    assert_eq!(users, users2);
    assert_eq!(docs, docs2);
    for service in [&mut covered, &mut never] {
        service.save_snapshot().unwrap();
        for (i, &u) in users.iter().enumerate() {
            service
                .assert(u, Fact::ConceptProb("Ctx1".into(), 0.15 + 0.2 * i as f64))
                .unwrap();
        }
        service.save_snapshot().unwrap();
        service
            .assert(users[0], Fact::ConceptProb("Ctx2".into(), 0.35))
            .unwrap();
    }

    // The second snapshot makes the first one the cover point: every
    // segment sealed before it is reclaimable.
    let cs = covered.stats().wal;
    assert!(cs.segments_deleted > 0, "{cs:?}");
    assert!(cs.bytes_reclaimed > 0, "{cs:?}");
    assert_eq!(never.stats().wal.segments_deleted, 0);
    assert!(
        segments(&covered_dir).len() < segments(&never_dir).len(),
        "compaction must keep fewer segments on disk: {:?} vs {:?}",
        segments(&covered_dir),
        segments(&never_dir),
    );
    // Exact on-disk log bytes (fixed codec, names in the records): the
    // covered total growing means compaction stopped reclaiming, the
    // never-compacted total moving means the frame codec changed.
    let wal_bytes = |dir| -> u64 {
        segments(dir)
            .iter()
            .map(|(_, path)| std::fs::metadata(path).unwrap().len())
            .sum()
    };
    assert_eq!(
        (
            wal_bytes(&covered_dir),
            wal_bytes(&never_dir),
            cs.bytes_reclaimed
        ),
        (170, 1659, 1489),
        "WAL bytes on disk (covered, never-compacted) and bytes reclaimed"
    );
    let want: Vec<Vec<DocScore>> = users
        .iter()
        .map(|&u| never.rank(u, &docs, docs.len()).unwrap())
        .collect();
    let epoch = never.kb().epoch();
    drop(covered);
    drop(never);

    let mut covered = open_with(engines().remove(2).1, &covered_dir, covered_cfg);
    let mut never = open_with(engines().remove(2).1, &never_dir, never_cfg);
    let (cw, nw) = (covered.stats().wal, never.stats().wal);
    assert_eq!(cw.records_truncated, 0, "{cw:?}");
    assert_eq!(nw.records_truncated, 0, "{nw:?}");
    assert!(
        cw.records_replayed <= nw.records_replayed,
        "compaction never lengthens replay: {cw:?} vs {nw:?}"
    );
    assert_eq!(covered.kb().epoch(), epoch);
    assert_eq!(never.kb().epoch(), epoch);
    for (&u, want) in users.iter().zip(&want) {
        for service in [&mut covered, &mut never] {
            let got = service.rank(u, &docs, docs.len()).unwrap();
            for (a, b) in want.iter().zip(&got) {
                assert_eq!(a.doc, b.doc);
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
    }
    let _ = std::fs::remove_dir_all(&covered_dir);
    let _ = std::fs::remove_dir_all(&never_dir);
}

/// The crash-mid-compaction sweep: compaction deletes covered prefix
/// segments oldest-first, so a kill between any two deletes leaves the
/// first `k` gone. For every `k` — including the completed pass — and for
/// all four engines, recovery from that image must be bit-identical with
/// `records_truncated == 0`, because the second-newest snapshot still
/// covers everything deleted.
#[test]
fn crash_between_compaction_deletes_recovers_with_zero_loss() {
    let config = ServiceConfig {
        segment_records: 3,
        ..ServiceConfig::default()
    };
    let dir = scratch("compaction-crash");
    let mut service = open_with(engines().remove(2).1, &dir, config);
    let (users, docs) = populate(&mut service);
    service.save_snapshot().unwrap();
    service
        .assert(users[0], Fact::ConceptProb("Ctx0".into(), 0.45))
        .unwrap();
    service
        .assert(users[1], Fact::ConceptProb("Ctx2".into(), 0.25))
        .unwrap();
    service.save_snapshot().unwrap();
    service
        .assert(users[0], Fact::ConceptProb("Ctx1".into(), 0.6))
        .unwrap();
    let epoch = service.kb().epoch();
    drop(service); // kill — this run never compacted, both snapshots stand

    // Recompute the deletable prefix exactly as the compactor does, from
    // file names alone: a sealed segment goes iff its last record (the
    // next segment's first sequence minus one) is covered by the
    // *second-newest* snapshot.
    let cover = snapshot_seqs(&dir)[1];
    let mut deletable = Vec::new();
    for pair in segments(&dir).windows(2) {
        if pair[1].0.saturating_sub(1) <= cover {
            deletable.push(pair[0].1.clone());
        } else {
            break;
        }
    }
    assert!(
        deletable.len() >= 2,
        "the scenario must leave a multi-segment deletable prefix: {deletable:?}"
    );

    for (name, _) in engines() {
        // `want` is the k = 0 (crash before any delete) recovery; every
        // later crash point must match it bit-for-bit.
        let mut want: Option<Vec<Vec<DocScore>>> = None;
        for k in 0..=deletable.len() {
            let copy = scratch(&format!("compaction-crash-{name}-{k}"));
            copy_dir(&dir, &copy);
            for path in &deletable[..k] {
                std::fs::remove_file(copy.join(path.file_name().unwrap())).unwrap();
            }
            let (_, engine) = engines().into_iter().find(|(n, _)| *n == name).unwrap();
            let restored = open_with(engine, &copy, config);
            let wal = restored.stats().wal;
            assert_eq!(
                wal.records_truncated, 0,
                "{name} k={k}: a half-finished compaction never loses records: {wal:?}"
            );
            assert_eq!(restored.kb().epoch(), epoch, "{name} k={k}");
            let got: Vec<Vec<DocScore>> = users
                .iter()
                .map(|&u| restored.rank(u, &docs, docs.len()).unwrap())
                .collect();
            match &want {
                None => want = Some(got),
                Some(want) => {
                    for (w, g) in want.iter().zip(&got) {
                        for (a, b) in w.iter().zip(g) {
                            assert_eq!(a.doc, b.doc, "{name} k={k}");
                            assert_eq!(a.score.to_bits(), b.score.to_bits(), "{name} k={k}");
                        }
                    }
                }
            }
            let _ = std::fs::remove_dir_all(&copy);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Why compaction covers to the *second*-newest snapshot: the newest one
/// can vanish (crash between the tmp rename and the directory sync on a
/// non-journaling filesystem). With the newest snapshot gone — and a
/// stray half-written `snapshot.tmp` left behind — an already-compacted
/// directory must still recover with zero loss from the older snapshot.
#[test]
fn losing_the_newest_snapshot_after_compaction_still_recovers() {
    let config = ServiceConfig {
        segment_records: 3,
        compaction: CompactionPolicy::Covered,
        ..ServiceConfig::default()
    };
    let dir = scratch("lost-snapshot");
    let mut service = open_with(engines().remove(3).1, &dir, config);
    let (users, docs) = populate(&mut service);
    service.save_snapshot().unwrap();
    service
        .assert(users[0], Fact::ConceptProb("Ctx0".into(), 0.65))
        .unwrap();
    service.save_snapshot().unwrap();
    assert!(
        service.stats().wal.segments_deleted > 0,
        "must have compacted"
    );
    service
        .assert(users[1], Fact::ConceptProb("Ctx1".into(), 0.4))
        .unwrap();
    let want: Vec<Vec<DocScore>> = users
        .iter()
        .map(|&u| service.rank(u, &docs, docs.len()).unwrap())
        .collect();
    let epoch = service.kb().epoch();
    drop(service);

    let newest = snapshot_seqs(&dir)[0];
    std::fs::remove_file(dir.join(format!("snapshot-{newest}.snap"))).unwrap();
    std::fs::write(dir.join("snapshot.tmp"), b"half-written garbage").unwrap();

    let restored = open_with(engines().remove(3).1, &dir, config);
    let wal = restored.stats().wal;
    assert_eq!(wal.records_truncated, 0, "{wal:?}");
    assert_eq!(restored.kb().epoch(), epoch);
    for (&u, want) in users.iter().zip(&want) {
        let got = restored.rank(u, &docs, docs.len()).unwrap();
        for (a, b) in want.iter().zip(&got) {
            assert_eq!(a.doc, b.doc);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// [`ServiceConfig::snapshot_retain`] replaces the old hardcoded
/// keep-two: retention is honored as configured, and clamped up to two
/// when compaction is on (the invariant needs a second-newest snapshot
/// as its cover point).
#[test]
fn snapshot_retain_is_honored_and_clamped_under_compaction() {
    let dir = scratch("retain");
    let config = ServiceConfig {
        snapshot_retain: 3,
        ..ServiceConfig::default()
    };
    let mut service = open_with(engines().remove(2).1, &dir, config);
    let (users, _docs) = populate(&mut service);
    for i in 0..5 {
        service
            .assert(
                users[0],
                Fact::ConceptProb("Ctx0".into(), 0.2 + 0.1 * i as f64),
            )
            .unwrap();
        service.save_snapshot().unwrap();
    }
    assert_eq!(
        snapshot_seqs(&dir).len(),
        3,
        "retain = 3 keeps exactly the three newest snapshots"
    );
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);

    // snapshot_retain: 0 under Covered clamps to 2 — never fewer
    // snapshots than the compaction invariant requires.
    let dir = scratch("retain-clamped");
    let config = ServiceConfig {
        snapshot_retain: 0,
        segment_records: 2,
        compaction: CompactionPolicy::Covered,
        ..ServiceConfig::default()
    };
    let mut service = open_with(engines().remove(2).1, &dir, config);
    let (users, docs) = populate(&mut service);
    for i in 0..3 {
        service
            .assert(
                users[0],
                Fact::ConceptProb("Ctx1".into(), 0.25 + 0.1 * i as f64),
            )
            .unwrap();
        service.save_snapshot().unwrap();
    }
    assert_eq!(
        snapshot_seqs(&dir).len(),
        2,
        "Covered compaction clamps retention to two snapshots"
    );
    assert!(service.stats().wal.segments_deleted > 0);
    let want = service.rank(users[0], &docs, docs.len()).unwrap();
    drop(service);
    let restored = open_with(engines().remove(2).1, &dir, config);
    assert_eq!(restored.stats().wal.records_truncated, 0);
    let got = restored.rank(users[0], &docs, docs.len()).unwrap();
    for (a, b) in want.iter().zip(&got) {
        assert_eq!(a.doc, b.doc);
        assert_eq!(a.score.to_bits(), b.score.to_bits());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
