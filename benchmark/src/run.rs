//! One run of one workload: the timed run (`--trace 0`, the end-to-end
//! metrics) or the traced run (`--trace 1`, the per-layer metrics).
//!
//! A run is made of *passes*: a fixed list of operations (a warm-up, then
//! `Spec::pass_ops` measured ones per client) issued to a fresh service,
//! over and over, so that the figures can be taken position by position
//! over the passes (see [`Passes`]).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use capra_core::serve::Request;
use capra_core::{
    group_scores, rank, LineageEngine, QueueConfig, RankingService, ScoringEnv, ScoringSession,
    ServiceQueue, ServiceStats,
};

use crate::bench::{self, Bench, Op, Variant};
use crate::driver::{self, median, quantile, Options, Passes, PhaseRun, WalMirror};
use crate::oracle;
use crate::spec::{Metric, END_TO_END, PER_LAYER};
use crate::trace::{self, Attribution, NoTrace, Recorder, Tracer, LAYERS};
use crate::workloads::{Spec, SNAPSHOT};
use crate::yardstick;

pub struct RunArgs {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: u64,
    /// Multiplies every operation count; below 1 (`--smoke`) the run also
    /// stops after two passes whatever `seconds` says.
    pub scale: f64,
    pub trace: bool,
    pub corrupt: bool,
}

/// Slices to a pass: busy time is kept per slice and the yardstick is
/// read between them, every 3 ms or so (see [`Passes`]).
const SLICES: usize = 500;
/// A timed run makes at least this many passes.
const MIN_PASSES: usize = 3;
/// Oracle checks aimed for in the pass that verifies.
const CHECKS: usize = 300;
/// Decomposed requests aimed for per client (the issue asks for ≥ 200).
const SAMPLES: usize = 240;

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static Metric, f64)>,
    /// Exact facts about the run: what `compare` requires to be equal.
    pub digest: u64,
    pub transcript: u64,
    /// Context printed with the metrics (counts, sample sizes).
    pub notes: Vec<(String, String)>,
    /// Traced run only: per layer, the median self time (µs) over the
    /// decomposed requests and the mean over the same requests.
    pub self_time: Vec<(&'static str, f64, f64)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

struct Counts {
    warmup: usize,
    measured: usize,
    /// Schedule positions per slice of busy time.
    slice: usize,
}

fn counts(args: &RunArgs) -> Counts {
    let scaled = |n: usize, by: f64| ((n as f64 * by).round() as usize).max(1);
    Counts {
        warmup: scaled(args.spec.warmup_ops, args.scale.min(1.0)),
        measured: scaled(args.spec.pass_ops, args.scale),
        // The unscaled pass cut into `SLICES`: a scaled-down pass has
        // fewer slices, not shorter ones.
        slice: args.spec.pass_ops.div_ceil(SLICES),
    }
}

/// One pass: the warm-up and the measured phase on a fresh service.
struct Measured {
    phase: PhaseRun,
    before: ServiceStats,
    after: ServiceStats,
}

fn measure<T: Tracer>(
    bench: &Bench,
    warmup: usize,
    measured: usize,
    mut options: Options,
    tracers: &mut [T],
) -> Measured {
    let mirror: Option<WalMirror> = bench
        .dir
        .as_ref()
        .map(|_| driver::wal_mirror(bench, &bench.schedules[0]));
    let end = warmup + measured;
    if let (Some(mirror), true) = (&mirror, options.crash_image) {
        // The last assert of the measured phase that ends with an fsync:
        // right after it, every record in the directory is flushed.
        options.crash_at = (warmup..end).rev().find(|&at| mirror.syncs[at]);
    }
    let mut idle: Vec<NoTrace> = tracers.iter().map(|_| NoTrace).collect();
    driver::run_phase(
        bench,
        0..warmup,
        &Options::default(),
        mirror.as_ref(),
        &mut idle,
    );
    let before = bench.service.stats();
    let mut phase = driver::run_phase(bench, warmup..end, &options, mirror.as_ref(), tracers);
    let after = bench.service.stats();
    if let Some(mirror) = &mirror {
        let expected = mirror.rotates[warmup..end].iter().filter(|&&r| r).count() as u64;
        let seen = after.wal.rotations - before.wal.rotations;
        phase.checks += 1;
        if expected != seen {
            eprintln!(
                "WAL mirror diverged: expected {expected} rotations, the service made {seen}"
            );
            phase.mismatches += 1;
        }
    }
    Measured {
        phase,
        before,
        after,
    }
}

fn verify_stride(measured: usize) -> usize {
    (measured / CHECKS).max(1)
}

/// What reopening the crash image showed.
#[derive(Default)]
struct Restart {
    /// `open_durable` until the first rank returned, per reopen.
    restart_s: Vec<f64>,
    /// `open_durable` alone, per reopen.
    recover_ms: Vec<f64>,
    records_replayed: u64,
    records_truncated: u64,
}

/// Reopens copies of the crash image: recovery must lose nothing, reach
/// the same KB epoch, and rank bit-identically for every tenant.
fn restart_check(threads: usize, reopens: usize, phase: &mut PhaseRun) -> Restart {
    let mut out = Restart::default();
    let Some(image) = phase.crash.take() else {
        eprintln!("no crash image was taken");
        phase.mismatches += 1;
        return out;
    };
    for round in 0..reopens {
        let dir = bench::fresh_dir("restart");
        let reopened = driver::copy_dir(&image.dir, &dir)
            .map_err(|e| e.to_string())
            .and_then(|()| {
                let t0 = Instant::now();
                let service = RankingService::open_durable(
                    LineageEngine::new(),
                    bench::service_config(threads),
                    &dir,
                    bench::FLUSH,
                )
                .map_err(|e| e.to_string())?;
                out.recover_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                let first = service
                    .rank(image.users[0], &image.docs, image.docs.len())
                    .map_err(|e| e.to_string())?;
                out.restart_s.push(t0.elapsed().as_secs_f64());
                Ok((service, first))
            });
        match reopened {
            Ok((service, first)) if round == 0 => {
                let wal = service.stats().wal;
                out.records_replayed = wal.records_replayed;
                out.records_truncated = wal.records_truncated;
                phase.checks += 2 + image.users.len() as u64;
                if wal.records_truncated != 0 {
                    eprintln!("recovery truncated {} records", wal.records_truncated);
                    phase.mismatches += 1;
                }
                if service.kb().epoch() != image.epoch {
                    eprintln!("recovered epoch differs from the live one");
                    phase.mismatches += 1;
                }
                for (i, (&user, want)) in image.users.iter().zip(&image.ranks).enumerate() {
                    let got = if i == 0 {
                        Ok(first.clone())
                    } else {
                        service.rank(user, &image.docs, image.docs.len())
                    };
                    if !got.is_ok_and(|got| oracle::bit_identical(want, &got)) {
                        phase.mismatches += 1;
                    }
                }
            }
            Ok(_) => {}
            Err(e) => {
                eprintln!("reopening the crash image failed: {e}");
                phase.checks += 1;
                phase.mismatches += 1;
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    out
}

/// After the clients have joined: every tenant's served ranking of the
/// whole catalog against the cold oracle on the final KB.
fn final_sweep(bench: &Bench, phase: &mut PhaseRun) {
    let snap = bench.service.snapshot();
    let (users, docs) = oracle::population(&bench.ops);
    phase.checks += users.len() as u64;
    let Ok(want) = oracle::full_ranks(&snap, &users, &docs) else {
        phase.mismatches += users.len() as u64;
        return;
    };
    for (&user, want) in users.iter().zip(&want) {
        let served = bench.service.rank(user, &docs, docs.len());
        if !served.is_ok_and(|got| oracle::bit_identical(want, &got)) {
            phase.mismatches += 1;
        }
    }
}

fn end_checks(spec: &Spec, bench: &Bench, reopens: usize, phase: &mut PhaseRun) -> Restart {
    if spec.clients > 1 {
        final_sweep(bench, phase);
    }
    if spec.durable {
        restart_check(spec.threads, reopens, phase)
    } else {
        Restart::default()
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn us(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e3).collect()
}

/// Of the assert latencies `us`, those of asserts that did, or did not,
/// end with an fsync (`flags` says which did).
fn assert_us(us: &[f64], flags: &[bool], synced: bool) -> Vec<f64> {
    us.iter()
        .zip(flags)
        .filter(|(_, &s)| s == synced)
        .map(|(&us, _)| us)
        .collect()
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn note(notes: &mut Vec<(String, String)>, key: &str, value: impl ToString) {
    notes.push((key.to_string(), value.to_string()));
}

fn phase_notes(notes: &mut Vec<(String, String)>, args: &RunArgs, c: &Counts, phase: &PhaseRun) {
    let spec = args.spec;
    note(notes, "clients", spec.clients);
    note(notes, "service_threads", spec.threads);
    note(
        notes,
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    note(notes, "warmup_ops_per_client", c.warmup);
    note(notes, "pass_ops_per_client", c.measured);
    note(
        notes,
        "pass_wall_s",
        format!("{:.3}", phase.wall.as_secs_f64()),
    );
    note(notes, "rank_samples", phase.rank_ns.len());
    note(notes, "assert_samples", phase.assert_ns.len());
    note(notes, "snapshots", phase.snapshot_ns.len());
    note(notes, "verification_checks", phase.checks);
    if spec.durable {
        note(
            notes,
            "flush_policy",
            format!(
                "EveryN({}), segment_records {}, CompactionPolicy::Covered",
                bench::FLUSH_EVERY,
                bench::SEGMENT_RECORDS
            ),
        );
    }
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    std::fs::create_dir_all(bench::out_dir()).map_err(|e| e.to_string())?;
    if args.trace {
        traced(args)
    } else {
        timed(args)
    }
}

/// Generates the inputs and builds the service, timing every set-up (at
/// the yardstick's reference speed: a reading is taken before and after
/// each). One that takes milliseconds is repeated (up to 32 times, until
/// 100 ms have gone into it) so that a run collects enough of them; the
/// last service built is returned.
fn set_up(args: &RunArgs, c: &Counts, setups: &mut Vec<(f64, f64)>) -> Result<Bench, String> {
    let (mut spent, mut reps) = (0.0, 0);
    let mut reading = yardstick::read();
    loop {
        let t0 = Instant::now();
        let bench = bench::setup(
            args.spec,
            args.seed,
            c.warmup + c.measured,
            Variant::of(args.spec),
        )?;
        let took = t0.elapsed().as_secs_f64();
        let before = std::mem::replace(&mut reading, yardstick::read());
        setups.push((took, (before + reading) / 2.0));
        spent += took;
        reps += 1;
        if spent >= 0.1 || reps >= 32 {
            return Ok(bench);
        }
    }
}

fn timed(args: &RunArgs) -> Result<Outcome, String> {
    let spec = args.spec;
    let c = counts(args);
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let smoke = args.scale < 1.0;

    let mut passes = Passes::default();
    let mut setups = Vec::new();
    let mut notes = Vec::new();
    let mut first = None;
    let mut peak_rss = 0.0;
    loop {
        let pass_started = Instant::now();
        let bench = set_up(args, &c, &mut setups)?;
        // The first pass verifies: oracle checks, the crash image, the
        // end-of-run sweeps. Every later pass must repeat its transcript.
        let verifies = first.is_none();
        let options = Options {
            transcript: spec.clients == 1,
            verify_stride: if verifies && spec.clients == 1 {
                verify_stride(c.measured)
            } else {
                0
            },
            chunk_len: c.slice,
            crash_image: verifies,
            corrupt: args.corrupt && verifies,
            ..Options::default()
        };
        let mut idle: Vec<NoTrace> = (0..spec.clients).map(|_| NoTrace).collect();
        let Measured { mut phase, .. } = measure(&bench, c.warmup, c.measured, options, &mut idle);
        match first {
            None => {
                peak_rss = peak_rss_mb();
                end_checks(spec, &bench, 1, &mut phase);
                phase_notes(&mut notes, args, &c, &phase);
                first = Some((bench.digest, phase.transcript));
            }
            Some(first) => {
                phase.checks += 1;
                if first != (bench.digest, phase.transcript) {
                    eprintln!(
                        "pass {}: inputs or responses differ from the first pass",
                        passes.runs.len()
                    );
                    phase.mismatches += 1;
                }
            }
        }
        passes.runs.push(phase);
        // Stop when another pass as long as this one would overrun.
        let done = passes.runs.len();
        if (smoke && done >= 2)
            || (done >= MIN_PASSES && started.elapsed() + pass_started.elapsed() > budget)
        {
            break;
        }
    }

    let mut attempted = 1;
    let mut failed = u64::from(!passes.same_shape());
    if failed > 0 {
        eprintln!("the passes did not make the same calls");
    }
    for run in &passes.runs {
        attempted += run.calls + run.checks;
        failed += run.errors + run.mismatches;
    }
    let raw_setups: Vec<f64> = setups.iter().map(|s| s.0).collect();
    let at_reference: Vec<f64> = setups
        .iter()
        .map(|(took, yard)| took * yardstick::REFERENCE_NS / yard)
        .collect();
    let values = [
        median(&at_reference),
        passes.ops_per_s(),
        passes.rank_p50_us(),
        peak_rss,
    ];
    note(&mut notes, "passes", passes.runs.len());
    note(
        &mut notes,
        "pass_ops_per_s",
        passes
            .runs
            .iter()
            .map(|run| format!("{:.0}", run.raw_ops_per_s()))
            .collect::<Vec<_>>()
            .join(" "),
    );
    note(&mut notes, "setups", setups.len());
    note(
        &mut notes,
        "yardstick_ns",
        format!("{:.3}", passes.yardstick_ns()),
    );
    note(
        &mut notes,
        "yardstick_reference_ns",
        format!("{:.3}", yardstick::REFERENCE_NS),
    );
    note(
        &mut notes,
        "raw_ops_per_s",
        format!("{:.1}", passes.raw_ops_per_s()),
    );
    note(
        &mut notes,
        "raw_setup_s",
        format!("{:.5}", median(&raw_setups)),
    );
    let (digest, transcript) = first.expect("at least one pass ran");
    Ok(Outcome {
        attempted,
        failed,
        metrics: END_TO_END.iter().zip(values).collect(),
        digest,
        transcript,
        notes,
        self_time: Vec::new(),
    })
}

/// One client issuing both clients' streams alternately — the one-client
/// side of `serve.concurrent_speedup`.
fn interleave(bench: &mut Bench) {
    let len = bench.schedules[0].len();
    let merged = (0..len)
        .flat_map(|i| bench.schedules.iter().map(move |s| s[i]))
        .collect();
    bench.schedules = vec![merged];
}

/// Medians of a warm rank issued directly, through a `ServiceQueue` with
/// one producer, and answered by hand-held `ScoringSession`s with no
/// service around them, over up to 64 of the workload's rank requests.
struct Probes {
    direct_us: f64,
    session_us: f64,
    queued_us: f64,
    depth_high_water: u64,
}

fn probe_serve(bench: &Bench) -> Probes {
    const REPEATS: usize = 16;
    let picks: Vec<Request> = bench
        .ops
        .iter()
        .filter_map(|op| match op {
            Op::Rank { user, docs, .. } => Some(Request::Rank {
                user: *user,
                docs: docs.clone(),
                k: docs.len(),
            }),
            Op::Group {
                users,
                docs,
                k,
                strategy,
            } => Some(Request::RankGroup {
                users: users.clone(),
                docs: docs.clone(),
                k: *k,
                strategy: strategy.clone(),
            }),
            Op::Assert { .. } => None,
        })
        .take(64)
        .collect();
    let service = &bench.service;
    let direct = |request: &Request| match request {
        Request::Rank { user, docs, k } => service.rank(*user, docs, *k),
        Request::RankGroup {
            users,
            docs,
            k,
            strategy,
        } => service.rank_group(users, docs, *k, strategy),
        Request::Assert { .. } => unreachable!("only rank-shaped requests are picked"),
    };
    let mut direct_ns = Vec::new();
    for request in &picks {
        let _ = direct(request);
        for _ in 0..REPEATS {
            let t0 = Instant::now();
            let _ = std::hint::black_box(direct(request));
            direct_ns.push(t0.elapsed().as_nanos() as u64);
        }
    }
    let snap = service.snapshot();
    let mut session_ns = Vec::new();
    for request in &picks {
        let (users, docs, strategy) = match request {
            Request::Rank { user, docs, .. } => (std::slice::from_ref(user), docs, None),
            Request::RankGroup {
                users,
                docs,
                strategy,
                ..
            } => (users.as_slice(), docs, Some(strategy)),
            Request::Assert { .. } => unreachable!("only rank-shaped requests are picked"),
        };
        let mut sessions: Vec<ScoringSession> = users.iter().map(|_| Default::default()).collect();
        for round in 0..=REPEATS {
            let t0 = Instant::now();
            let per_user: Vec<_> = users
                .iter()
                .zip(&mut sessions)
                .map(|(&user, session)| {
                    let env = ScoringEnv {
                        kb: snap.kb(),
                        rules: snap.rules(),
                        user,
                    };
                    session.score_all(service.engine(), &env, docs)
                })
                .collect::<Result<_, _>>()
                .unwrap_or_default();
            let _ = std::hint::black_box(match strategy {
                Some(strategy) => group_scores(&per_user, strategy).map(rank),
                None => Ok(rank(per_user.into_iter().next().unwrap_or_default())),
            });
            if round > 0 {
                session_ns.push(t0.elapsed().as_nanos() as u64);
            }
        }
    }
    drop(snap);
    let queue = ServiceQueue::start(Arc::clone(service), QueueConfig::default());
    let handle = queue.handle();
    let mut queued_ns = Vec::new();
    for request in &picks {
        for _ in 0..REPEATS {
            let request = request.clone();
            let t0 = Instant::now();
            let _ = std::hint::black_box(handle.enqueue(request).and_then(|t| t.wait()));
            queued_ns.push(t0.elapsed().as_nanos() as u64);
        }
    }
    let depth_high_water = queue.stats().queue.depth_high_water;
    queue.shutdown();
    Probes {
        direct_us: median(&us(&direct_ns)),
        session_us: median(&us(&session_ns)),
        queued_us: median(&us(&queued_ns)),
        depth_high_water,
    }
}

fn rank_count(bench: &Bench, client: usize, range: std::ops::Range<usize>) -> usize {
    bench.schedules[client][range]
        .iter()
        .filter(|&&e| e != SNAPSHOT && !matches!(bench.ops[e as usize], Op::Assert { .. }))
        .count()
}

/// `n` untimed-by-the-tracer passes of the workload's operations on fresh
/// services of `variant`'s shape; with several clients in the schedule
/// and `one_client` set, one client issues all of them alternately.
fn untraced(
    args: &RunArgs,
    c: &Counts,
    variant: Variant,
    one_client: bool,
    n: usize,
) -> Result<Passes, String> {
    let mut passes = Passes::default();
    for _ in 0..n {
        let mut bench = bench::setup(args.spec, args.seed, c.warmup + c.measured, variant)?;
        let merged = if one_client {
            let clients = bench.schedules.len();
            interleave(&mut bench);
            clients
        } else {
            1
        };
        let options = Options {
            chunk_len: c.slice * merged,
            ..Options::default()
        };
        let mut idle: Vec<NoTrace> = bench.schedules.iter().map(|_| NoTrace).collect();
        let measured = measure(
            &bench,
            c.warmup * merged,
            c.measured * merged,
            options,
            &mut idle,
        );
        passes.runs.push(measured.phase);
    }
    Ok(passes)
}

/// One traced pass on a fresh service: a span around every call, every
/// Nth rank decomposed, and everything verified.
fn traced_pass(args: &RunArgs, c: &Counts) -> Result<(Bench, Vec<Recorder>, Measured), String> {
    let spec = args.spec;
    let total = c.warmup + c.measured;
    let t0 = Instant::now();
    let bench = bench::setup(spec, args.seed, total, Variant::of(spec))?;
    let setup_end = Instant::now();
    let mut recorders: Vec<Recorder> = (0..spec.clients)
        .map(|client| {
            let ranks = rank_count(&bench, client, c.warmup..total);
            Recorder::new(t0, ranks / SAMPLES)
        })
        .collect();
    recorders[0].call("harness.setup", t0, setup_end, u64::MAX);
    let options = Options {
        transcript: spec.clients == 1,
        verify_stride: if spec.clients == 1 {
            verify_stride(c.measured)
        } else {
            0
        },
        chunk_len: c.slice,
        crash_image: true,
        corrupt: args.corrupt,
        ..Options::default()
    };
    let measured = measure(&bench, c.warmup, c.measured, options, &mut recorders);
    Ok((bench, recorders, measured))
}

fn traced(args: &RunArgs) -> Result<Outcome, String> {
    let spec = args.spec;
    let c = counts(args);
    let own = Variant::of(spec);
    // Passes per comparison run: three when `--seconds` leaves room.
    let n = if args.scale < 1.0 {
        1
    } else {
        (args.seconds / 12).clamp(1, 3) as usize
    };

    // A: the workload's own shape, untraced — the reference for the
    // tracing overhead and the ratio metrics, and the source of the
    // latency percentiles.
    let a = untraced(args, &c, own, false, n)?;

    // C: the same operations with one thing changed — in-request threads,
    // client count, or durability — where the workload has such a twin.
    let twin = if spec.threads > 1 {
        Some(Variant { threads: 1, ..own })
    } else if spec.clients > 1 || spec.durable {
        Some(Variant {
            durable: false,
            ..own
        })
    } else {
        None
    };
    let c_run = match twin {
        Some(variant) => Some(untraced(args, &c, variant, spec.clients > 1, n)?),
        None => None,
    };

    // B: traced passes over the timed run's exact operations. The last
    // one is reported; an earlier one only steadies the overhead figure.
    let mut b = Passes::default();
    for _ in 1..n.min(2) {
        b.runs.push(traced_pass(args, &c)?.2.phase);
    }
    let (
        bench,
        recorders,
        Measured {
            mut phase,
            before,
            after,
        },
    ) = traced_pass(args, &c)?;
    let disk_bytes = bench.dir.as_deref().map_or(0, driver::dir_bytes);
    let restart = end_checks(spec, &bench, 3, &mut phase);
    let probes = probe_serve(&bench);
    let attribution = trace::attribute(&recorders);
    trace::write_file(
        &bench::out_dir().join(format!("trace-{}.json", spec.name)),
        &recorders,
    )
    .map_err(|e| format!("writing the trace: {e}"))?;

    let mut m: BTreeMap<&str, f64> = BTreeMap::new();
    let span = |name: &str| median(attribution.by_name.get(name).map_or(&[][..], |v| v));
    let rules = bench.service.rules().len() as f64;

    m.insert("dl.membership_us", span("dl.membership"));
    m.insert("dl.instances_us", span("dl.instances"));
    m.insert("bind.bind_rules_us", span("bind.bind_rules"));
    m.insert("bind.rules_per_request", rules);

    let sessions = |s: &ServiceStats| s.sessions;
    let (s0, s1) = (sessions(&before), sessions(&after));
    let ratio = |hits: u64, misses: u64| {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    let binding_hits = s1.bindings.hits - s0.bindings.hits;
    let binding_misses = s1.bindings.misses - s0.bindings.misses;
    let score_hits = s1.scores.hits - s0.scores.hits;
    let score_misses = s1.scores.misses - s0.scores.misses;
    m.insert(
        "session.binding_hit_ratio",
        ratio(binding_hits, binding_misses),
    );
    m.insert("session.binding_misses", binding_misses as f64);
    m.insert("session.score_hit_ratio", ratio(score_hits, score_misses));
    m.insert("session.score_misses", score_misses as f64);
    m.insert("session.warm_rank_us", span("session.rank_warm"));

    let cold = attribution
        .by_name
        .get("engines.score_cold")
        .map_or(&[][..], |v| v);
    m.insert("engines.score_cold_us", median(cold));
    m.insert("engines.score_memo_us", span("engines.score_memo"));
    let docs_per_request = mean(
        &bench
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::Rank { docs, .. } => Some(docs.len() as f64),
                Op::Group { users, docs, .. } => Some((docs.len() * users.len()) as f64),
                Op::Assert { .. } => None,
            })
            .collect::<Vec<_>>(),
    );
    m.insert(
        "engines.us_per_doc",
        if docs_per_request > 0.0 {
            median(cold) / docs_per_request
        } else {
            0.0
        },
    );

    let sweeps = s1.batch.sweeps - s0.batch.sweeps;
    let lanes = s1.batch.lanes - s0.batch.lanes;
    m.insert("events.batch_sweeps", sweeps as f64);
    m.insert("events.batch_lanes", lanes as f64);
    m.insert(
        "events.batch_fallbacks",
        (s1.batch.fallbacks - s0.batch.fallbacks) as f64,
    );
    m.insert(
        "events.lanes_per_sweep",
        if sweeps == 0 {
            0.0
        } else {
            lanes as f64 / sweeps as f64
        },
    );
    m.insert("events.tier_entries", s1.footprint.entries as f64);
    m.insert("events.tier_count", s1.footprint.tiers as f64);
    m.insert("events.pinned_nodes", s1.footprint.pinned_nodes as f64);

    m.insert("topk.scan_us", span("topk.scan"));
    let (evaluated, offered) = recorders
        .iter()
        .fold((0, 0), |(e, d), r| (e + r.topk_evaluated, d + r.topk_docs));
    m.insert(
        "topk.docs_pruned_ratio",
        if offered == 0 {
            0.0
        } else {
            1.0 - evaluated as f64 / offered as f64
        },
    );

    m.insert("multiuser.combine_us", span("multiuser.combine"));
    m.insert(
        "multiuser.members_per_request",
        mean(
            &bench
                .ops
                .iter()
                .filter_map(|op| match op {
                    Op::Group { users, .. } => Some(users.len() as f64),
                    _ => None,
                })
                .collect::<Vec<_>>(),
        ),
    );
    let speedup = |c_run: &Option<Passes>| {
        c_run
            .as_ref()
            .map_or(0.0, |c| a.ops_per_s() / c.ops_per_s())
    };
    m.insert(
        "parallel.group_speedup",
        if spec.threads > 1 {
            speedup(&c_run)
        } else {
            0.0
        },
    );

    m.insert("serve.rank_p99_us", quantile(&a.rank_us(), 0.99));
    m.insert("serve.overhead_us", probes.direct_us - probes.session_us);
    let requests = (phase.rank_ns.len() + phase.assert_ns.len()) as f64;
    let own_locks = recorders.iter().map(|r| r.own_shard_locks).sum::<u64>()
        + bench::service_config(spec.threads).shards as u64;
    m.insert(
        "serve.shard_locks_per_request",
        (after.shard_lock_acquisitions - before.shard_lock_acquisitions - own_locks) as f64
            / requests,
    );
    m.insert(
        "serve.sessions_evicted",
        (after.sessions_evicted - before.sessions_evicted) as f64,
    );
    let own_asserts = a.assert_us();
    let memory_asserts = match (&c_run, spec.durable) {
        (Some(c), true) => c.assert_us(),
        _ => own_asserts.clone(),
    };
    m.insert("serve.assert_p50_us", median(&own_asserts));
    m.insert("serve.assert_us", median(&memory_asserts));
    m.insert(
        "serve.concurrent_speedup",
        if spec.clients > 1 {
            speedup(&c_run)
        } else {
            0.0
        },
    );
    m.insert(
        "serve.queue_overhead_us",
        probes.queued_us - probes.direct_us,
    );
    m.insert(
        "serve.queue_depth_high_water",
        probes.depth_high_water as f64,
    );

    if spec.durable {
        m.insert(
            "persist.wal_append_us",
            median(&assert_us(&own_asserts, &a.runs[0].assert_synced, false))
                - median(&memory_asserts),
        );
        m.insert(
            "persist.fsync_assert_us",
            median(&assert_us(&own_asserts, &a.runs[0].assert_synced, true)),
        );
        m.insert("persist.snapshot_ms", median(&us(&phase.snapshot_ns)) / 1e3);
        m.insert("persist.recover_ms", median(&restart.recover_ms));
        m.insert("persist.restart_s", median(&restart.restart_s));
        let (w0, w1) = (before.wal, after.wal);
        let records = w1.records_appended - w0.records_appended;
        m.insert("persist.wal_records", records as f64);
        m.insert(
            "persist.wal_bytes_per_record",
            if records == 0 {
                0.0
            } else {
                (w1.bytes_appended - w0.bytes_appended) as f64 / records as f64
            },
        );
        m.insert("persist.rotations", (w1.rotations - w0.rotations) as f64);
        m.insert(
            "persist.segments_deleted",
            (w1.segments_deleted - w0.segments_deleted) as f64,
        );
        m.insert(
            "persist.bytes_reclaimed",
            (w1.bytes_reclaimed - w0.bytes_reclaimed) as f64,
        );
        m.insert("persist.records_replayed", restart.records_replayed as f64);
        m.insert(
            "persist.records_truncated",
            restart.records_truncated as f64,
        );
        m.insert("persist.disk_bytes", disk_bytes as f64);
    }

    m.insert("gen.workload_build_ms", bench.generate_ms);
    // The low 48 bits: exact in a JSON number (the full digest is in the
    // notes and the result file).
    m.insert(
        "gen.workload_digest",
        (bench.digest & ((1 << 48) - 1)) as f64,
    );

    m.insert("trace.samples", attribution.requests as f64);

    let mut notes = Vec::new();
    phase_notes(&mut notes, args, &c, &phase);
    note(&mut notes, "comparison_passes", n);
    note(
        &mut notes,
        "untraced_ops_per_s",
        format!("{:.1}", a.ops_per_s()),
    );
    if let Some(c_run) = &c_run {
        note(
            &mut notes,
            "twin_ops_per_s",
            format!("{:.1}", c_run.ops_per_s()),
        );
    }
    note(
        &mut notes,
        "warm_rank_direct_us",
        format!("{:.3}", probes.direct_us),
    );
    note(
        &mut notes,
        "warm_rank_queued_us",
        format!("{:.3}", probes.queued_us),
    );
    note(
        &mut notes,
        "warm_rank_sessions_only_us",
        format!("{:.3}", probes.session_us),
    );
    note(
        &mut notes,
        "spans",
        recorders.iter().map(|r| r.spans.len()).sum::<usize>(),
    );

    let transcript = phase.transcript;
    b.runs.push(phase);
    let (mut attempted, mut failed) = (0, 0);
    for run in &b.runs {
        attempted += run.calls + run.checks;
        failed += run.errors + run.mismatches;
    }
    m.insert("trace.overhead_share", a.ops_per_s() / b.ops_per_s() - 1.0);

    Ok(Outcome {
        attempted,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|metric| (metric, m.get(metric.name).copied().unwrap_or(0.0)))
            .collect(),
        digest: bench.digest,
        transcript,
        notes,
        self_time: self_time(&attribution),
    })
}

fn self_time(attribution: &Attribution) -> Vec<(&'static str, f64, f64)> {
    LAYERS
        .iter()
        .map(|&layer| {
            let values = attribution.self_by_layer.get(layer).map_or(&[][..], |v| v);
            (layer, median(values), mean(values))
        })
        .collect()
}
