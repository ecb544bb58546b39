//! The closed request loop: each client issues its next request when the
//! previous one has returned. Latencies are taken around the public call;
//! hashing, verification and trace re-enactments run between calls with
//! the clock stopped.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use capra_core::{CoreError, DocScore};
use capra_dl::IndividualId;

use crate::bench::{Bench, Op, FLUSH_EVERY, SEGMENT_RECORDS};
use crate::oracle::{self, Transcript};
use crate::trace::Tracer;
use crate::workloads::SNAPSHOT;
use crate::yardstick;

/// What one phase should do besides issuing requests.
#[derive(Clone, Default)]
pub struct Options {
    /// Hash every response into the transcript. Only meaningful with one
    /// client: two clients interleave freely.
    pub transcript: bool,
    /// Check every `verify_stride`-th rank against the cold oracle
    /// (0 = never).
    pub verify_stride: usize,
    /// On a durable service: copy the directory after the last assert of
    /// the phase that ends with an fsync (see [`CrashImage`]).
    pub crash_image: bool,
    /// Schedule position of that assert; `run::measure` works it out.
    pub crash_at: Option<usize>,
    /// Positions per slice of busy time (0 = the whole phase is one).
    pub chunk_len: usize,
    /// Flip a score bit in the first verified response (shows that a
    /// failed check fails the run).
    pub corrupt: bool,
}

/// The copy of a durable directory at a moment when everything in it was
/// flushed, with what the service answered at that moment.
pub struct CrashImage {
    pub dir: PathBuf,
    pub epoch: u64,
    pub users: Vec<IndividualId>,
    pub docs: Vec<IndividualId>,
    pub ranks: Vec<Vec<DocScore>>,
}

impl Drop for CrashImage {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[derive(Default)]
pub struct PhaseRun {
    /// The slowest client's elapsed time minus its stopped-clock time.
    pub wall: Duration,
    /// Latencies around the public call, rescaled slice by slice to the
    /// yardstick's reference speed (see [`crate::yardstick`]).
    pub rank_ns: Vec<u64>,
    pub assert_ns: Vec<u64>,
    /// Parallel to `assert_ns`: whether that assert ended with an fsync.
    pub assert_synced: Vec<bool>,
    /// `save_snapshot` latencies, as the clock read them (they wait for
    /// the disk, which the yardstick knows nothing about).
    pub snapshot_ns: Vec<u64>,
    /// Calls into the service, and how many returned `Err`.
    pub calls: u64,
    pub errors: u64,
    /// Verification checks made, and how many found a difference.
    pub checks: u64,
    pub mismatches: u64,
    pub transcript: u64,
    pub crash: Option<CrashImage>,
    /// Calls made and busy time per slice of `Options::chunk_len`
    /// schedule positions, as the clock read them.
    pub chunks: Vec<(u64, Duration)>,
    /// Per slice: the yardstick (ns per lookup) around it — the mean of
    /// the readings taken just before and just after.
    pub yard: Vec<f64>,
}

impl PhaseRun {
    /// Calls per second of busy time over the whole phase, as the clock
    /// read it.
    pub fn raw_ops_per_s(&self) -> f64 {
        self.calls as f64 / self.wall.as_secs_f64()
    }

    /// Per slice: busy nanoseconds at the yardstick's reference speed.
    fn busy_at_reference(&self) -> Vec<f64> {
        self.chunks
            .iter()
            .zip(&self.yard)
            .map(|((_, busy), yard)| busy.as_nanos() as f64 * yardstick::REFERENCE_NS / yard)
            .collect()
    }

    /// Ends the slice that began at `start` (calls, busy time, rank and
    /// assert samples so far) and begins the next. `yard` is the
    /// yardstick around the slice: its latency samples are rescaled to
    /// the yardstick's reference speed here, once and for all.
    fn close_chunk(
        &mut self,
        start: &mut (u64, Duration, usize, usize),
        busy: Duration,
        yard: f64,
    ) {
        let scale = yardstick::REFERENCE_NS / yard;
        for ns in self.rank_ns[start.2..]
            .iter_mut()
            .chain(&mut self.assert_ns[start.3..])
        {
            *ns = (*ns as f64 * scale).round() as u64;
        }
        self.chunks.push((self.calls - start.0, busy - start.1));
        self.yard.push(yard);
        *start = (self.calls, busy, self.rank_ns.len(), self.assert_ns.len());
    }

    fn merge(&mut self, other: PhaseRun) {
        self.wall = self.wall.max(other.wall);
        self.rank_ns.extend(other.rank_ns);
        self.assert_ns.extend(other.assert_ns);
        self.assert_synced.extend(other.assert_synced);
        self.snapshot_ns.extend(other.snapshot_ns);
        self.calls += other.calls;
        self.errors += other.errors;
        self.checks += other.checks;
        self.mismatches += other.mismatches;
        // Clients run the same slice at about the same time: its calls
        // add up, and it lasts as long as the slower client took.
        if self.chunks.is_empty() {
            self.chunks = other.chunks;
            self.yard = other.yard;
        } else {
            for (mine, theirs) in self.chunks.iter_mut().zip(other.chunks) {
                *mine = (mine.0 + theirs.0, mine.1.max(theirs.1));
            }
            for (mine, theirs) in self.yard.iter_mut().zip(other.yard) {
                *mine = (*mine + theirs) / 2.0;
            }
        }
    }
}

/// The same operations measured several times over, each time on a fresh
/// service: pass `r` makes exactly the calls pass 0 made, so slice `j` of
/// one pass and slice `j` of another are the same work, and request `i`
/// is the same request. Every figure is therefore taken position by
/// position — the median over the passes of that slice's busy time, of
/// that request's latency — which drops a disturbed slice without
/// dropping the work it stands for. All times are at the yardstick's
/// reference speed.
#[derive(Default)]
pub struct Passes {
    pub runs: Vec<PhaseRun>,
}

impl Passes {
    /// Whether every pass made the same calls, slice by slice.
    pub fn same_shape(&self) -> bool {
        let shape = |run: &PhaseRun| {
            let calls: Vec<u64> = run.chunks.iter().map(|c| c.0).collect();
            (calls, run.rank_ns.len(), run.assert_ns.len())
        };
        self.runs.windows(2).all(|w| shape(&w[0]) == shape(&w[1]))
    }

    /// Calls of one pass per second of its slices' busy times.
    pub fn ops_per_s(&self) -> f64 {
        let Some(first) = self.runs.first() else {
            return 0.0;
        };
        let busy: Vec<Vec<f64>> = self.runs.iter().map(PhaseRun::busy_at_reference).collect();
        let ns: f64 = across(&busy).iter().sum();
        let calls: u64 = first.chunks.iter().map(|c| c.0).sum();
        calls as f64 / (ns / 1e9)
    }

    /// The same with nothing divided out: the median pass as the clock
    /// read it.
    pub fn raw_ops_per_s(&self) -> f64 {
        let rates: Vec<f64> = self.runs.iter().map(PhaseRun::raw_ops_per_s).collect();
        median(&rates)
    }

    /// Median over the passes and their slices of the yardstick, ns per
    /// lookup.
    pub fn yardstick_ns(&self) -> f64 {
        let all: Vec<f64> = self
            .runs
            .iter()
            .flat_map(|r| r.yard.iter().copied())
            .collect();
        median(&all)
    }

    /// Median over the rank requests of each request's latency.
    pub fn rank_p50_us(&self) -> f64 {
        median(&self.rank_us())
    }

    /// Each rank request's latency (µs), in request order.
    pub fn rank_us(&self) -> Vec<f64> {
        self.latency_us(|run| &run.rank_ns)
    }

    /// Each assert's latency (µs), in request order.
    pub fn assert_us(&self) -> Vec<f64> {
        self.latency_us(|run| &run.assert_ns)
    }

    fn latency_us(&self, pick: fn(&PhaseRun) -> &Vec<u64>) -> Vec<f64> {
        let rows: Vec<Vec<f64>> = self
            .runs
            .iter()
            .map(|run| pick(run).iter().map(|&ns| ns as f64 / 1e3).collect())
            .collect();
        across(&rows)
    }
}

/// Per position, the median of what the rows have there (rows are cut to
/// the shortest).
fn across(rows: &[Vec<f64>]) -> Vec<f64> {
    let len = rows.iter().map(Vec::len).min().unwrap_or(0);
    let mut column = Vec::with_capacity(rows.len());
    (0..len)
        .map(|i| {
            column.clear();
            column.extend(rows.iter().map(|row| row[i]));
            median(&column)
        })
        .collect()
}

/// Where the WAL syncs and rotates, worked out from the schedule alone by
/// mirroring `FlushPolicy::EveryN` and the segment record limit from the
/// flushed, freshly rotated state set-up leaves behind.
pub struct WalMirror {
    /// Per schedule position: the assert there ends with an fsync.
    pub syncs: Vec<bool>,
    /// Per schedule position: the operation there rotates the segment.
    pub rotates: Vec<bool>,
}

pub fn wal_mirror(bench: &Bench, schedule: &[u32]) -> WalMirror {
    let mut unsynced = 0u32;
    let mut segment = 0u64;
    let mut syncs = vec![false; schedule.len()];
    let mut rotates = vec![false; schedule.len()];
    for (at, &entry) in schedule.iter().enumerate() {
        if entry == SNAPSHOT {
            // flush, then seal the active segment if it holds records.
            unsynced = 0;
            rotates[at] = segment > 0;
            segment = 0;
        } else if matches!(bench.ops[entry as usize], Op::Assert { .. }) {
            unsynced += 1;
            segment += 1;
            if unsynced >= FLUSH_EVERY {
                syncs[at] = true;
                unsynced = 0;
            }
            if segment >= SEGMENT_RECORDS {
                // Sealing syncs the old segment too.
                syncs[at] = true;
                rotates[at] = true;
                unsynced = 0;
                segment = 0;
            }
        }
    }
    WalMirror { syncs, rotates }
}

/// Runs schedule positions `range` of every client's schedule, one thread
/// per client, and merges what they measured.
pub fn run_phase<T: Tracer>(
    bench: &Bench,
    range: Range<usize>,
    options: &Options,
    mirror: Option<&WalMirror>,
    tracers: &mut [T],
) -> PhaseRun {
    if let [tracer] = tracers {
        return run_client(bench, 0, range, options, mirror, tracer);
    }
    let barrier = Barrier::new(tracers.len());
    let runs: Vec<PhaseRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = tracers
            .iter_mut()
            .enumerate()
            .map(|(client, tracer)| {
                let (barrier, range) = (&barrier, range.clone());
                scope.spawn(move || {
                    barrier.wait();
                    run_client(bench, client, range, options, None, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut merged = PhaseRun::default();
    for run in runs {
        merged.merge(run);
    }
    merged
}

fn run_client<T: Tracer>(
    bench: &Bench,
    client: usize,
    range: Range<usize>,
    options: &Options,
    mirror: Option<&WalMirror>,
    tracer: &mut T,
) -> PhaseRun {
    let service = &*bench.service;
    let schedule = &bench.schedules[client];
    let mut run = PhaseRun::default();
    let mut transcript = Transcript::new();
    let hashing = options.transcript;
    let mut ranks_seen = 0usize;
    let mut corrupt = options.corrupt;
    let mut paused = Duration::ZERO;
    // The yardstick is read at every slice boundary, clock stopped.
    let mut reading = yardstick::read();
    let started = Instant::now();
    let chunk_len = if options.chunk_len == 0 {
        range.len().max(1)
    } else {
        options.chunk_len
    };
    let first = range.start;
    // Calls, busy time and latency samples at the start of the current
    // slice.
    let mut chunk_start = (0u64, Duration::ZERO, 0usize, 0usize);

    for at in range {
        if at > first && (at - first).is_multiple_of(chunk_len) {
            let busy = started.elapsed() - paused;
            let p = Instant::now();
            let before = std::mem::replace(&mut reading, yardstick::read());
            run.close_chunk(&mut chunk_start, busy, (before + reading) / 2.0);
            paused += p.elapsed();
        }
        let request = ((client as u64) << 32) | at as u64;
        let entry = schedule[at];
        if entry == SNAPSHOT && bench.dir.is_none() {
            // The in-memory twin of a durable workload has nothing to save.
            continue;
        }
        run.calls += 1;
        if entry == SNAPSHOT {
            let t0 = Instant::now();
            let out = service.save_snapshot();
            let t1 = Instant::now();
            run.snapshot_ns.push((t1 - t0).as_nanos() as u64);
            tracer.call("persist.save_snapshot", t0, t1, request);
            match out {
                Ok(()) => transcript.done(b"S"),
                Err(e) => {
                    run.errors += 1;
                    transcript.error(b"S", &e);
                }
            }
            continue;
        }
        let op = &bench.ops[entry as usize];
        if let Op::Assert { subject, fact } = op {
            let fact = fact.clone();
            let t0 = Instant::now();
            let out = service.assert(*subject, fact);
            let t1 = Instant::now();
            run.assert_ns.push((t1 - t0).as_nanos() as u64);
            run.assert_synced.push(mirror.is_some_and(|m| m.syncs[at]));
            tracer.call("serve.assert", t0, t1, request);
            match out {
                Ok(()) => transcript.done(b"A"),
                Err(e) => {
                    run.errors += 1;
                    transcript.error(b"A", &e);
                }
            }
            if options.crash_at == Some(at) {
                let p = Instant::now();
                match crash_image(bench) {
                    Ok(image) => run.crash = Some(image),
                    Err(e) => {
                        eprintln!("crash image failed: {e}");
                        run.mismatches += 1;
                    }
                }
                paused += p.elapsed();
            }
            continue;
        }

        let sampled = tracer.due();
        if sampled {
            let p = Instant::now();
            tracer.observe(bench, op);
            paused += p.elapsed();
        }
        let t0 = Instant::now();
        let (tag, name, out): (&[u8], _, Result<Vec<DocScore>, CoreError>) = match op {
            Op::Rank { user, docs, k } => (b"R", "serve.rank", service.rank(*user, docs, *k)),
            Op::Group {
                users,
                docs,
                k,
                strategy,
            } => (
                b"G",
                "serve.rank_group",
                service.rank_group(users, docs, *k, strategy),
            ),
            Op::Assert { .. } => unreachable!("asserts are handled above"),
        };
        let t1 = Instant::now();
        run.rank_ns.push((t1 - t0).as_nanos() as u64);
        tracer.call(name, t0, t1, request);

        let p = Instant::now();
        match out {
            Ok(mut scores) => {
                if hashing {
                    transcript.ranked(tag, &bench.names, &scores);
                }
                if options.verify_stride > 0 && ranks_seen.is_multiple_of(options.verify_stride) {
                    if std::mem::take(&mut corrupt) {
                        if let Some(s) = scores.first_mut() {
                            s.score = f64::from_bits(s.score.to_bits() ^ 1);
                        }
                    }
                    run.checks += 1;
                    let snap = service.snapshot();
                    match oracle::expected(&snap, op) {
                        Ok(want) if oracle::bit_identical(&want, &scores) => {}
                        _ => {
                            eprintln!("position {at}: the response differs from the cold oracle");
                            run.mismatches += 1;
                        }
                    }
                }
            }
            Err(e) => {
                run.errors += 1;
                transcript.error(tag, &e);
            }
        }
        ranks_seen += 1;
        if sampled {
            tracer.decompose(bench, op);
        }
        paused += p.elapsed();
    }
    run.wall = started.elapsed() - paused;
    let busy = run.wall;
    run.close_chunk(&mut chunk_start, busy, (reading + yardstick::read()) / 2.0);
    run.transcript = transcript.finish();
    run
}

/// Copies the durable directory and notes what the live service answers
/// for every tenant, derived cold so the service's caches stay as the
/// workload left them.
fn crash_image(bench: &Bench) -> Result<CrashImage, String> {
    let from = bench.dir.as_ref().ok_or("not a durable service")?;
    let dir = crate::bench::fresh_dir("crash");
    copy_dir(from, &dir).map_err(|e| e.to_string())?;
    let snap = bench.service.snapshot();
    let (users, docs) = oracle::population(&bench.ops);
    let ranks = oracle::full_ranks(&snap, &users, &docs).map_err(|e| e.to_string())?;
    Ok(CrashImage {
        dir,
        epoch: snap.kb().epoch(),
        users,
        docs,
        ranks,
    })
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `p`-quantile of `values`, interpolating between neighbours; 0 for
/// no values.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = p * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
