//! The traced run: a span around every call into the service, and for
//! every Nth rank an outside-in decomposition of what that request had to
//! do, re-enacted layer by layer on the snapshot the request saw.
//!
//! Nothing inside the program is instrumented. A decomposed request's
//! children are therefore *re-enactments*: the same public functions the
//! request path calls (`bind_rules_shared`, `score_all_bound`,
//! `rank_top_k_bound`, `ScoringSession::rank`, `group_scores`), timed on
//! the same snapshot right after the request returned. A re-enactment is
//! hung under the request's span when the request's own counters show it
//! did that work (a binding miss, score misses, the top-k path), and
//! under a sibling `harness.probe` span otherwise, so self time — a
//! span's duration minus its children's — only ever subtracts work the
//! request performed. The request span's own self time is what no
//! re-enactment explains; it is reported as `serve`.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use capra_core::{
    bind_rules_shared, group_scores, rank_top_k_bound, DocScore, EvalScratch, LineageEngine,
    RuleBinding, ScoringEngine, ScoringEnv, ScoringSession, SessionStats,
};
use capra_dl::IndividualId;

use capra_core::serve::Fact;

use crate::bench::{Bench, Op};

/// `parent` of a span nothing caused.
pub const ROOT: u32 = u32::MAX;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// Spans of one request share this.
    pub request: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }

    /// The module a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// What the driver needs from a tracer; [`NoTrace`] compiles to nothing.
pub trait Tracer: Send {
    /// Whether this rank request is one of the decomposed ones.
    fn due(&mut self) -> bool {
        false
    }
    /// Reads the tenants' counters before a decomposed request.
    fn observe(&mut self, _bench: &Bench, _op: &Op) {}
    /// Records the span of one call into the service.
    fn call(&mut self, _name: &'static str, _start: Instant, _end: Instant, _request: u64) {}
    /// Re-enacts the request just recorded (see the module docs).
    fn decompose(&mut self, _bench: &Bench, _op: &Op) {}
}

pub struct NoTrace;

impl Tracer for NoTrace {}

/// One client's in-memory trace.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
    /// Decompose every `stride`-th rank request.
    stride: usize,
    ranks_seen: usize,
    /// Request ids that were decomposed.
    pub sampled: Vec<u64>,
    /// Shard locks the recorder itself took (`tenant_stats` takes one).
    pub own_shard_locks: u64,
    before: Vec<Option<SessionStats>>,
    /// Documents handed to the engine / documents in the request, summed
    /// over decomposed top-k requests.
    pub topk_evaluated: u64,
    pub topk_docs: u64,
}

impl Recorder {
    pub fn new(origin: Instant, stride: usize) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            stride: stride.max(1),
            ranks_seen: 0,
            sampled: Vec::new(),
            own_shard_locks: 0,
            before: Vec::new(),
            topk_evaluated: 0,
            topk_docs: 0,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, start: Instant, parent: u32, request: u64) -> u32 {
        let end = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        });
        self.spans.len() as u32 - 1
    }

    /// Times `f` as a span.
    fn timed<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u32) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        (out, self.push(name, start, parent, request))
    }

    fn tenant_stats(&mut self, bench: &Bench, op: &Op) -> Vec<Option<SessionStats>> {
        let users = members(op);
        self.own_shard_locks += users.len() as u64;
        users
            .iter()
            .map(|&u| bench.service.tenant_stats(u))
            .collect()
    }

    /// Re-enacts one member's share of the request. `bound` and `scored`
    /// say whether the request itself had to bind and to score for this
    /// member; returns the member's cold scores (the group combine needs
    /// them).
    #[allow(clippy::too_many_arguments)]
    fn member(
        &mut self,
        bench: &Bench,
        env: &ScoringEnv<'_>,
        docs: &[IndividualId],
        k: usize,
        request_span: u32,
        probe: u32,
        request: u64,
        bound: bool,
        scored: bool,
    ) -> Vec<DocScore> {
        let engine = bench.service.engine();
        let under = |did: bool| if did { request_span } else { probe };

        let (bindings, bind): (Vec<Arc<RuleBinding>>, u32) =
            self.timed("bind.bind_rules", under(bound), request, || {
                bind_rules_shared(env)
            });
        // The two halves of that bind, rule by rule, on a reasoner of
        // their own (one reasoner serves a whole rule set, as in
        // `bind_rules`).
        let reasoner = env.kb.reasoner();
        for rule in env.rules.rules() {
            self.timed("dl.membership", bind, request, || {
                reasoner.membership(env.user, &rule.context)
            });
            self.timed("dl.instances", bind, request, || {
                reasoner.instances_shared(&rule.preference)
            });
        }

        let top_k = k < docs.len();
        let mut scratch = EvalScratch::new();
        let (cold, _) = self.timed(
            "engines.score_cold",
            under(scored && !top_k),
            request,
            || engine.score_all_bound(env, &bindings, docs, &mut scratch),
        );
        let _ = self.timed("engines.score_memo", probe, request, || {
            engine.score_all_bound(env, &bindings, docs, &mut scratch)
        });
        if top_k {
            let counting = CountingEngine {
                inner: engine,
                docs: Cell::new(0),
            };
            let _ = self.timed("topk.scan", request_span, request, || {
                rank_top_k_bound(env, &counting, &bindings, docs, k, &mut scratch)
            });
            self.topk_evaluated += counting.docs.get();
            self.topk_docs += docs.len() as u64;
        } else {
            let mut session = ScoringSession::new();
            let _ = self.timed("session.rank_cold", probe, request, || {
                session.rank(engine, env, docs)
            });
            // The request ran with the processor's caches as the stream
            // left them; the cold passes above emptied them. A few untimed
            // repeats put the warm path's own lines back.
            for _ in 0..3 {
                let _ = std::hint::black_box(session.rank(engine, env, docs));
            }
            let _ = self.timed("session.rank_warm", request_span, request, || {
                session.rank(engine, env, docs)
            });
        }
        cold.unwrap_or_default()
    }
}

impl Tracer for Recorder {
    fn due(&mut self) -> bool {
        self.ranks_seen += 1;
        (self.ranks_seen - 1).is_multiple_of(self.stride)
    }

    fn observe(&mut self, bench: &Bench, op: &Op) {
        self.before = self.tenant_stats(bench, op);
    }

    fn call(&mut self, name: &'static str, start: Instant, end: Instant, request: u64) {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: ROOT,
            request,
        });
    }

    fn decompose(&mut self, bench: &Bench, op: &Op) {
        let request_span = self.spans.len() as u32 - 1;
        let request = self.spans[request_span as usize].request;
        self.sampled.push(request);
        let after = self.tenant_stats(bench, op);
        let before = std::mem::take(&mut self.before);
        // Dropped at the end of this function, before the next request:
        // a pinned snapshot would push the next assert onto its
        // clone-and-swap path.
        let (users, docs, k) = match op {
            Op::Rank { user, docs, k } => (std::slice::from_ref(user), docs, *k),
            Op::Group { users, docs, .. } => (users.as_slice(), docs, docs.len()),
            Op::Assert { .. } => return,
        };
        let snap = bench.service.snapshot();
        let started = Instant::now();
        let probe = self.push("harness.probe", started, ROOT, request);
        // A request that follows its own tenant's context event evaluates
        // expressions nobody has built yet. Re-enacting it on the request's
        // snapshot would find them all hash-consed already, so that member
        // is re-enacted on a private copy of the KB with the same event
        // asserted once more: new variable, new expressions, first touch.
        let (client, at) = ((request >> 32) as usize, (request & 0xffff_ffff) as usize);
        let fresh = at
            .checked_sub(1)
            .map(|prev| bench.schedules[client][prev])
            .filter(|&entry| entry != crate::workloads::SNAPSHOT)
            .and_then(|entry| match &bench.ops[entry as usize] {
                Op::Assert {
                    subject,
                    fact: Fact::ConceptProb(concept, p),
                } if users.contains(subject) => Some((*subject, concept, *p)),
                _ => None,
            });
        let mut per_user = Vec::with_capacity(users.len());
        for (i, &user) in users.iter().enumerate() {
            let delta = |pick: fn(&SessionStats) -> u64| {
                let was = before[i].as_ref().map_or(0, pick);
                after[i].as_ref().map_or(0, pick) - was
            };
            let bound = delta(|s| s.bindings.misses) > 0;
            let scored = delta(|s| s.scores.misses) > 0;
            let retouched = fresh.filter(|f| f.0 == user).map(|(_, concept, p)| {
                let mut kb = snap.kb().clone();
                kb.assert_concept_prob(user, concept, p)
                    .expect("the service accepted this fact");
                kb
            });
            let env = ScoringEnv {
                kb: retouched.as_ref().unwrap_or(snap.kb()),
                rules: snap.rules(),
                user,
            };
            per_user.push(self.member(
                bench,
                &env,
                docs,
                k,
                request_span,
                probe,
                request,
                bound,
                scored,
            ));
        }
        if let Op::Group { strategy, .. } = op {
            let _ = self.timed("multiuser.combine", request_span, request, || {
                group_scores(&per_user, strategy)
            });
        }
        let end = self.ns(Instant::now());
        self.spans[probe as usize].end_ns = end;
    }
}

fn members(op: &Op) -> &[IndividualId] {
    match op {
        Op::Rank { user, .. } => std::slice::from_ref(user),
        Op::Group { users, .. } => users,
        Op::Assert { subject, .. } => std::slice::from_ref(subject),
    }
}

/// Counts the documents `rank_top_k_bound` hands to the engine; the rest
/// were pruned on their bounds.
struct CountingEngine<'a> {
    inner: &'a LineageEngine,
    docs: Cell<u64>,
}

impl ScoringEngine for CountingEngine<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn config_tag(&self) -> u64 {
        self.inner.config_tag()
    }

    fn validate_workload(
        &self,
        env: &ScoringEnv<'_>,
        bindings: &[Arc<RuleBinding>],
        docs: &[IndividualId],
    ) -> capra_core::Result<()> {
        self.inner.validate_workload(env, bindings, docs)
    }

    fn score_all_bound(
        &self,
        env: &ScoringEnv<'_>,
        bindings: &[Arc<RuleBinding>],
        docs: &[IndividualId],
        scratch: &mut EvalScratch,
    ) -> capra_core::Result<Vec<DocScore>> {
        self.docs.set(self.docs.get() + docs.len() as u64);
        self.inner.score_all_bound(env, bindings, docs, scratch)
    }
}

/// What the spans of the decomposed requests add up to.
pub struct Attribution {
    /// Per span name: one value per decomposed request, the summed
    /// duration (µs) of that request's spans of that name.
    pub by_name: BTreeMap<&'static str, Vec<f64>>,
    /// Per layer: one value per decomposed request, the summed self time
    /// (µs) of that request's accounted spans in that layer.
    pub self_by_layer: BTreeMap<&'static str, Vec<f64>>,
    pub requests: usize,
}

/// Layers of the self-time table, in stack order.
pub const LAYERS: [&str; 8] = [
    "serve",
    "session",
    "bind",
    "dl",
    "engines",
    "topk",
    "multiuser",
    "persist",
];

/// Sums the decomposed requests' spans by name and their self times by
/// layer. A span is *accounted* when following its parents reaches the
/// request's own span; spans under `harness.probe` measure a layer
/// without charging the request for it.
pub fn attribute(recorders: &[Recorder]) -> Attribution {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut self_by_layer: BTreeMap<&'static str, Vec<f64>> =
        LAYERS.iter().map(|&l| (l, Vec::new())).collect();
    let mut requests = 0;
    for rec in recorders {
        let slot: HashMap<u64, usize> = rec
            .sampled
            .iter()
            .enumerate()
            .map(|(i, &r)| (r, i))
            .collect();
        let n = slot.len();
        let mut children_us = vec![0.0; rec.spans.len()];
        for span in &rec.spans {
            if span.parent != ROOT {
                children_us[span.parent as usize] += span.us();
            }
        }
        let mut names: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut layers: BTreeMap<&'static str, Vec<f64>> =
            LAYERS.iter().map(|&l| (l, vec![0.0; n])).collect();
        for (i, span) in rec.spans.iter().enumerate() {
            let Some(&at) = slot.get(&span.request) else {
                continue;
            };
            names.entry(span.name).or_insert_with(|| vec![0.0; n])[at] += span.us();
            let mut top = span;
            while top.parent != ROOT {
                top = &rec.spans[top.parent as usize];
            }
            if top.layer() == "harness" {
                continue;
            }
            if let Some(layer) = layers.get_mut(span.layer()) {
                layer[at] += (span.us() - children_us[i]).max(0.0);
            }
        }
        for (name, values) in names {
            by_name.entry(name).or_default().extend(values);
        }
        for (layer, values) in layers {
            self_by_layer.entry(layer).or_default().extend(values);
        }
        requests += n;
    }
    Attribution {
        by_name,
        self_by_layer,
        requests,
    }
}

/// Writes every span as `[name, start_ns, end_ns, parent, request]`, one
/// client after another (`parent` indexes within a client's list).
pub fn write_file(path: &std::path::Path, recorders: &[Recorder]) -> std::io::Result<()> {
    use std::io::Write;
    let mut names: Vec<&'static str> = Vec::new();
    let mut index: HashMap<&'static str, usize> = HashMap::new();
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"clients\":[")?;
    for (c, rec) in recorders.iter().enumerate() {
        if c > 0 {
            write!(out, ",")?;
        }
        write!(out, "[")?;
        for (i, span) in rec.spans.iter().enumerate() {
            let name = *index.entry(span.name).or_insert_with(|| {
                names.push(span.name);
                names.len() - 1
            });
            let parent = if span.parent == ROOT {
                -1
            } else {
                span.parent as i64
            };
            if i > 0 {
                write!(out, ",")?;
            }
            write!(
                out,
                "[{name},{},{},{parent},{}]",
                span.start_ns, span.end_ns, span.request
            )?;
        }
        write!(out, "]")?;
    }
    write!(
        out,
        "],\"span\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"request\"],\"names\":["
    )?;
    for (i, name) in names.iter().enumerate() {
        if i > 0 {
            write!(out, ",")?;
        }
        write!(out, "\"{name}\"")?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}
