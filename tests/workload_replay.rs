//! Workload replay determinism, property-tested end to end:
//!
//! * **Codec**: for proptest-chosen generator configs across all three
//!   domain packs, `Workload::decode(encode(w))` round-trips to the
//!   exact same bytes (and the same FNV file digest).
//! * **Replay**: replaying one file twice — same engine, fresh services
//!   — produces *identical transcript hashes*, for every engine and
//!   under randomized session caps small enough to evict tenants: caches
//!   and eviction may change who pays to derive a score, never the
//!   transcript.
//! * **Pins**: the tiny pack of each domain replays to a recorded
//!   transcript hash, so a response that changes *between commits* fails
//!   here instead of passing two self-consistent replays.

use capra::prelude::*;
use proptest::prelude::*;

/// Builds the proptest-selected domain's tiny workload with a custom
/// request-stream seed.
fn build(domain: u8, seed: u64) -> Workload {
    match domain % 3 {
        0 => {
            let mut config = capra::commerce::workload::WorkloadConfig::tiny();
            config.seed = seed;
            capra::commerce::workload::build_workload(config)
        }
        1 => {
            let mut config = capra::teamctx::workload::WorkloadConfig::tiny();
            config.seed = seed;
            capra::teamctx::workload::build_workload(config)
        }
        _ => {
            let mut config = capra::tvtouch::workload::WorkloadConfig::tiny();
            config.seed = seed;
            capra::tvtouch::workload::build_workload(config)
        }
    }
}

fn engine(sel: u8) -> Box<dyn ScoringEngine + Sync> {
    match sel % 4 {
        0 => Box::new(NaiveViewEngine::new()),
        1 => Box::new(NaiveEnumEngine::new()),
        2 => Box::new(FactorizedEngine::new()),
        _ => Box::new(LineageEngine::new()),
    }
}

/// Random draw → service configuration with a session cap small enough to
/// evict tenants mid-replay.
fn config(sessions_sel: u8) -> ServiceConfig {
    ServiceConfig {
        max_sessions: 1 + (sessions_sel % 4) as usize,
        ..ServiceConfig::default()
    }
}

/// The transcript of every domain's `WorkloadConfig::tiny()` pack on the
/// two serving engines, as recorded (`xtask generate --tiny` + `replay`
/// print the same hashes). On these packs the factorized engine answers
/// every request with the lineage engine's bits — its closed form is
/// lineage's column pass — so one hash stands for both. tvtouch and
/// commerce rank with `k < docs.len()`, so they hold the top-k path still
/// as well as the full rank. A change that means to alter a response
/// updates its constant and says so.
#[test]
fn tiny_pack_transcripts_are_pinned() {
    let packs = [
        (
            "commerce",
            capra::commerce::workload::build_workload(
                capra::commerce::workload::WorkloadConfig::tiny(),
            ),
            0xfcbd4e42fc2a4bed,
        ),
        (
            "teamctx",
            capra::teamctx::workload::build_workload(
                capra::teamctx::workload::WorkloadConfig::tiny(),
            ),
            0xda60c1478bb19f86,
        ),
        (
            "tvtouch",
            capra::tvtouch::workload::build_workload(
                capra::tvtouch::workload::WorkloadConfig::tiny(),
            ),
            0xd9c9fed683b78f22,
        ),
    ];
    for (pack, workload, want) in packs {
        let replay = |engine: Box<dyn ScoringEngine + Sync>| {
            let service = workload_service(engine, ServiceConfig::default(), &workload);
            replay_workload(&service, &workload)
                .unwrap()
                .transcript_hash
        };
        let got = replay(Box::new(LineageEngine::new()));
        assert_eq!(got, want, "{pack} on lineage: {got:#018x}");
        let got = replay(Box::new(FactorizedEngine::new()));
        assert_eq!(got, want, "{pack} on factorized: {got:#018x}");
    }
}

/// `file_digest` hashes the file as it is produced, without building it:
/// it is the digest of what `encode` writes, on every pack's tiny
/// workload.
#[test]
fn the_file_digest_is_the_digest_of_the_encoded_file() {
    for domain in 0..3 {
        let w = match domain {
            0 => capra::commerce::workload::build_workload(
                capra::commerce::workload::WorkloadConfig::tiny(),
            ),
            1 => capra::teamctx::workload::build_workload(
                capra::teamctx::workload::WorkloadConfig::tiny(),
            ),
            _ => capra::tvtouch::workload::build_workload(
                capra::tvtouch::workload::WorkloadConfig::tiny(),
            ),
        };
        let encoded = capra::core::persist::digest(&w.encode());
        assert_eq!(w.file_digest(), encoded, "{}", w.meta.domain);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Encode/decode round-trips to byte-identical files.
    #[test]
    fn encode_decode_is_byte_identical(domain in 0u8..3, seed in 0u64..1000) {
        let w = build(domain, seed);
        let bytes = w.encode();
        let back = Workload::decode(&bytes).unwrap();
        prop_assert_eq!(back.encode(), bytes);
        prop_assert_eq!(back.file_digest(), w.file_digest());
        prop_assert_eq!(&back.meta, &w.meta);
        prop_assert_eq!(&back.records, &w.records);
    }

    /// Two replays of one file agree bit-for-bit, whatever engine or
    /// session cap serves them — and a
    /// decode of the encoded file replays to the same transcript as the
    /// in-memory original.
    #[test]
    fn replay_is_deterministic(
        domain in 0u8..3,
        seed in 0u64..1000,
        engine_sel in 0u8..4,
        sessions_a in 0u8..4,
        sessions_b in 0u8..4,
    ) {
        let w = build(domain, seed);
        let decoded = Workload::decode(&w.encode()).unwrap();

        let replay = |w: &Workload, sessions: u8| {
            let svc = workload_service(engine(engine_sel), config(sessions), w);
            replay_workload(&svc, w).unwrap()
        };
        let a = replay(&w, sessions_a);
        let b = replay(&w, sessions_b);
        let c = replay(&decoded, sessions_a);
        prop_assert_eq!(a, b);
        prop_assert_eq!(a, c);
        prop_assert_eq!(a.requests as usize, w.records.len());
    }
}
