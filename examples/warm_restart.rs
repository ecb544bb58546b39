//! Durable serving — crash, restart, and carry on warm.
//!
//! A [`RankingService`] opened with `open_durable` journals every
//! mutation (context events, rule changes, new individuals) to a
//! checksummed write-ahead log and can checkpoint its whole state — KB,
//! rules, and the set of live tenants, no caches — into a snapshot file.
//! After a crash, `open_durable` finds the newest valid snapshot, replays
//! the WAL suffix, and re-derives the warm tenants' rule bindings, so the
//! first post-boot request pays no cold bind and every score is
//! bit-identical to the uninterrupted run.
//!
//! The same directory also feeds read-only followers: the last section
//! opens a [`ReplicaService`] against the live writer, tails its WAL,
//! and verifies the follower serves the writer's exact scores.
//!
//! Run with: `cargo run --example warm_restart`

use capra::prelude::*;

fn main() -> Result<(), CoreError> {
    let dir = std::env::temp_dir().join(format!("capra-warm-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // ── Boot a durable service and build the world through it ──────────
    // Every call below lands in a `wal-<seq>.log` segment before the
    // function returns (FlushPolicy::EveryRecord = one fsync per
    // mutation; EveryN trades a bounded tail-loss window for fewer
    // syncs).
    let service = RankingService::open_durable(
        LineageEngine::new(),
        ServiceConfig::default(),
        &dir,
        FlushPolicy::EveryRecord,
    )?;

    let viewers: Vec<_> = (0..3)
        .map(|i| {
            let v = service.individual(&format!("viewer-{i}"));
            service
                .assert(v, Fact::ConceptProb("Weekend".into(), 0.3 + 0.2 * i as f64))
                .unwrap();
            v
        })
        .collect();
    let programs: Vec<_> = (0..5)
        .map(|i| {
            let p = service.individual(&format!("programme-{i}"));
            service
                .assert(p, Fact::Concept("TvProgram".into()))
                .unwrap();
            service
                .assert(
                    p,
                    Fact::ConceptProb("HumanInterest".into(), 0.15 + 0.15 * i as f64),
                )
                .unwrap();
            p
        })
        .collect();
    let context = service.parse("Weekend")?;
    let preference = service.parse("TvProgram AND HumanInterest")?;
    service.add_rule(PreferenceRule::new(
        "weekend-hi",
        context,
        preference,
        Score::new(0.8)?,
    ))?;

    // Serve some traffic (this warms the tenants' binding caches), then
    // checkpoint: the snapshot records who is live, not what they cached.
    for &v in &viewers {
        service.rank(v, &programs, 3)?;
    }
    service.save_snapshot()?;

    // Post-snapshot traffic lands only in the WAL.
    service.assert(viewers[0], Fact::ConceptProb("Weekend".into(), 0.95))?;
    let before: Vec<DocScore> = service.rank(viewers[0], &programs, 3)?;
    let wal = service.stats().wal;
    println!("── before the crash ──");
    println!(
        "  {} WAL records appended ({} bytes), snapshot on disk",
        wal.records_appended, wal.bytes_appended
    );

    // ── Crash. ─────────────────────────────────────────────────────────
    drop(service);

    // ── Restart: snapshot + WAL suffix → the same service, warm ────────
    let service = RankingService::open_durable(
        LineageEngine::new(),
        ServiceConfig::default(),
        &dir,
        FlushPolicy::EveryRecord,
    )?;
    let wal = service.stats().wal;
    println!("\n── after restart ──");
    println!(
        "  replayed {} WAL records past the snapshot, {} lost",
        wal.records_replayed, wal.records_truncated
    );

    // The tenants that were live at snapshot time booted warm: their
    // first rank re-derives nothing.
    let misses_at_boot = service
        .tenant_stats(viewers[0])
        .expect("snapshot tenants boot live")
        .bindings
        .misses;
    let after = service.rank(viewers[0], &programs, 3)?;
    let misses_after = service.tenant_stats(viewers[0]).unwrap().bindings.misses;
    println!(
        "  first post-boot rank: {} new cold binds",
        misses_after - misses_at_boot
    );

    // And the ranking is bit-identical to the uninterrupted run.
    for (a, b) in before.iter().zip(&after) {
        assert_eq!(a.doc, b.doc);
        assert_eq!(a.score.to_bits(), b.score.to_bits());
    }
    println!("  top-3 bit-identical to the pre-crash run:");
    for s in &after {
        println!(
            "    {} ({:.4})",
            service.kb().voc.individual_name(s.doc),
            s.score
        );
    }

    // ── A read-only follower tails the live writer ─────────────────────
    // `open_follow` restores the same snapshot + WAL suffix without
    // touching the directory; `poll()` then applies whatever the writer
    // fsyncs next, following segment rotations by name.
    let mut follower =
        ReplicaService::open_follow(LineageEngine::new(), ServiceConfig::default(), &dir)?;
    assert_eq!(follower.kb().epoch(), service.kb().epoch());

    // The writer keeps serving; the follower catches up on its own clock.
    service.assert(viewers[1], Fact::ConceptProb("Weekend".into(), 0.65))?;
    service.assert(viewers[2], Fact::ConceptProb("Weekend".into(), 0.15))?;
    let applied = follower.poll()?;
    let stats = follower.stats();
    println!("\n── replica ──");
    println!(
        "  follower applied {applied} new records (applied_seq {}, lag {})",
        stats.applied_seq, stats.lag_records
    );
    assert_eq!(stats.lag_records, 0);

    // And it serves the writer's exact scores, for every tenant.
    for &v in &viewers {
        let at_writer = service.rank(v, &programs, 3)?;
        let at_follower = follower.rank(v, &programs, 3)?;
        for (a, b) in at_writer.iter().zip(&at_follower) {
            assert_eq!(a.doc, b.doc);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }
    println!("  follower top-3 bit-identical to the writer's, all tenants");

    drop(follower);
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
