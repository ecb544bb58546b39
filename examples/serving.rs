//! The serving layer — a multi-tenant [`RankingService`] running a small
//! TV-guide front-end: many viewers, one shared programme list, context
//! switches arriving between requests.
//!
//! Demonstrates the typed request API (`rank`, `rank_group`, `assert`,
//! batched `submit`), per-tenant session reuse (warm hit rates), LRU
//! session eviction, per-tenant batch counters, and — since the
//! serving surface takes `&self` — producer threads sharing one service
//! through a batching [`ServiceQueue`].
//!
//! Run with: `cargo run --example serving`

use std::sync::Arc;

use capra::prelude::*;

fn main() -> Result<(), CoreError> {
    // ── Build the shared world: programmes + rules ─────────────────────
    let mut kb = Kb::new();
    let programs: Vec<_> = (0..8)
        .map(|i| {
            let p = kb.individual(&format!("programme-{i}"));
            kb.assert_concept(p, "TvProgram");
            // Half the guide is certain about its genres, half carries its
            // own uncertainty — independent either way, so every programme
            // is scored in closed form.
            if i % 2 == 0 {
                kb.assert_concept(p, "HumanInterest");
                kb.assert_concept(p, "News");
            } else {
                kb.assert_concept_prob(p, "HumanInterest", 0.15 + 0.1 * i as f64)
                    .unwrap();
                kb.assert_concept_prob(p, "News", 0.9 - 0.1 * i as f64)
                    .unwrap();
            }
            p
        })
        .collect();
    let viewers: Vec<_> = (0..6)
        .map(|i| {
            let v = kb.individual(&format!("viewer-{i}"));
            kb.assert_concept_prob(v, "Weekend", 0.2 + 0.12 * i as f64)
                .unwrap();
            kb.assert_concept(v, "Breakfast");
            v
        })
        .collect();
    let mut rules = RuleRepository::new();
    rules.add(PreferenceRule::new(
        "weekend-hi",
        kb.parse("Weekend")?,
        kb.parse("TvProgram AND HumanInterest")?,
        Score::new(0.8)?,
    ))?;
    rules.add(PreferenceRule::new(
        "breakfast-news",
        kb.parse("Breakfast")?,
        kb.parse("TvProgram AND News")?,
        Score::new(0.9)?,
    ))?;

    // ── One service serves every viewer ────────────────────────────────
    // A small session cap so this demo shows LRU eviction in action; a
    // real deployment sizes this to its active-user working set.
    let service = RankingService::with_config(
        LineageEngine::new(),
        kb,
        rules,
        ServiceConfig {
            max_sessions: 4,
            ..ServiceConfig::default()
        },
    );

    println!("── top-3 per viewer (cold) ──");
    for &viewer in &viewers {
        let top = service.rank(viewer, &programs, 3)?;
        let names: Vec<String> = top
            .iter()
            .map(|s| {
                format!(
                    "{} ({:.3})",
                    service.kb().voc.individual_name(s.doc),
                    s.score
                )
            })
            .collect();
        println!(
            "  {:<10} {}",
            service.kb().voc.individual_name(viewer),
            names.join(", ")
        );
    }

    // Warm repeats for the viewers whose sessions are still live (the
    // cold round evicted the two least recently seen): all cache hits.
    for &viewer in &viewers[2..] {
        service.rank(viewer, &programs, 3)?;
    }
    let stats = service.stats();
    println!("\n── service stats after one warm round ──");
    println!(
        "  sessions: {} live / {} evicted (cap 4 for 6 viewers)",
        stats.sessions_live, stats.sessions_evicted
    );
    let batch = stats.sessions.batch;
    println!(
        "  binding cache hit rate {:.0}%, {} sweep(s) over {} lane(s), {} exact fallback(s)",
        100.0 * stats.sessions.bindings.hit_rate(),
        batch.sweeps,
        batch.lanes,
        batch.fallbacks,
    );

    // ── A batched burst: context switch + re-ranks in one submit ───────
    let burst = vec![
        Request::Assert {
            subject: viewers[0],
            fact: Fact::ConceptProb("Weekend".into(), 0.95),
        },
        Request::Rank {
            user: viewers[0],
            docs: programs.clone(),
            k: 3,
        },
        Request::RankGroup {
            users: viewers[..3].to_vec(),
            docs: programs.clone(),
            k: 3,
            strategy: GroupStrategy::LeastMisery,
        },
    ];
    println!("\n── batched burst: assert + rank + group rank ──");
    for (i, response) in service.submit(burst).into_iter().enumerate() {
        match response {
            Ok(Response::Asserted) => println!("  [{i}] asserted"),
            Ok(Response::Ranked(top)) => {
                let names: Vec<String> = top
                    .iter()
                    .map(|s| {
                        format!(
                            "{} ({:.3})",
                            service.kb().voc.individual_name(s.doc),
                            s.score
                        )
                    })
                    .collect();
                println!("  [{i}] {}", names.join(", "));
            }
            Err(e) => println!("  [{i}] error: {e}"),
        }
    }
    let stats = service.stats();
    println!(
        "\n{} rank requests and {} asserts served",
        stats.rank_requests, stats.asserts
    );

    // ── A direct group request, and how its lanes were scored ──────────
    // Everyone watches together: one ranking the least-happy member can
    // live with. Each engine run is a sweep with a lane per programme —
    // the batch counters show how many lanes a sweep served and how few
    // needed an exact evaluation of their own.
    let family = service.rank_group(&viewers[3..], &programs, 3, &GroupStrategy::LeastMisery)?;
    let names: Vec<String> = family
        .iter()
        .map(|s| {
            format!(
                "{} ({:.3})",
                service.kb().voc.individual_name(s.doc),
                s.score
            )
        })
        .collect();
    println!("\n── family top-3 (least misery) ──");
    println!("  {}", names.join(", "));
    let batch = service.stats().sessions.batch;
    println!(
        "  batch path: {} sweeps, {:.1} lanes/sweep, {} fallbacks ({:.0}% closed form)",
        batch.sweeps,
        batch.lanes_per_sweep(),
        batch.fallbacks,
        100.0 * batch.broadcast_rate(),
    );

    // ── Many threads, one service: the batching front-end ──────────────
    // Every request path takes `&self`, so producer threads could call
    // `service.rank` directly through a shared reference. A bounded
    // ServiceQueue adds backpressure on top: producers enqueue typed
    // requests and wait on tickets, and whichever waiter finds no drain in
    // progress runs the next batch of arrivals, in order, through
    // `submit`, which answers each through the direct call.
    let service = Arc::new(service);
    let queue = ServiceQueue::start(
        Arc::clone(&service),
        QueueConfig {
            capacity: 16,
            batch: 4,
        },
    );
    std::thread::scope(|scope| {
        for chunk in viewers.chunks(2) {
            let handle = queue.handle();
            let programs = programs.clone();
            scope.spawn(move || {
                for &viewer in chunk {
                    let response = handle
                        .enqueue(Request::Rank {
                            user: viewer,
                            docs: programs.clone(),
                            k: 3,
                        })
                        .expect("enqueue drains rather than fails on a full queue")
                        .wait()
                        .expect("ranking a warm viewer succeeds");
                    assert!(response.ranked().is_some());
                }
            });
        }
    });
    let stats = queue.stats();
    println!("\n── queued round: 3 producer threads draining their own batches ──");
    println!(
        "  {} enqueued / {} drained (depth high-water {}), {} rank requests total",
        stats.queue.enqueued,
        stats.queue.drained,
        stats.queue.depth_high_water,
        stats.rank_requests,
    );
    queue.shutdown();
    Ok(())
}
