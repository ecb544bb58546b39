//! The metric tables: the single source `BENCHMARK.json`, the run output
//! and `compare` are all generated from.

#[derive(Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How `compare` treats a per-layer metric.
#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    /// A duration or a ratio of durations: reported, never compared.
    Timing,
    /// A count made by the program, or a ratio of such counts: repeats
    /// exactly on a single-client workload with a fixed seed.
    Count,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen.
    pub bound: f64,
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        kind: Kind::Timing,
    }
}

const fn time(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
        kind: Kind::Timing,
    }
}

const fn speedup(name: &'static str) -> Metric {
    Metric {
        name,
        unit: "ratio",
        better: Better::Higher,
        bound: 0.0,
        kind: Kind::Timing,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        kind: Kind::Count,
    }
}

use Better::{Higher, Lower};

/// What a user of the service sees. Every workload reports every one.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("rank_p50_us", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
];

/// One module each; reported by the traced run.
pub const PER_LAYER: &[Metric] = &[
    time("dl.membership_us", "us"),
    time("dl.instances_us", "us"),
    time("bind.bind_rules_us", "us"),
    count("bind.rules_per_request", "count", Lower),
    count("session.binding_hit_ratio", "ratio", Higher),
    count("session.binding_misses", "count", Lower),
    count("session.score_hit_ratio", "ratio", Higher),
    count("session.score_misses", "count", Lower),
    time("session.warm_rank_us", "us"),
    time("engines.score_cold_us", "us"),
    time("engines.score_memo_us", "us"),
    time("engines.us_per_doc", "us"),
    count("events.batch_sweeps", "count", Lower),
    count("events.batch_lanes", "count", Lower),
    count("events.batch_fallbacks", "count", Lower),
    count("events.lanes_per_sweep", "ratio", Higher),
    count("events.tier_entries", "count", Lower),
    count("events.tier_count", "count", Lower),
    count("events.pinned_nodes", "count", Lower),
    time("topk.scan_us", "us"),
    count("topk.docs_pruned_ratio", "ratio", Higher),
    time("multiuser.combine_us", "us"),
    count("multiuser.members_per_request", "count", Lower),
    speedup("parallel.group_speedup"),
    time("serve.rank_p99_us", "us"),
    time("serve.overhead_us", "us"),
    count("serve.shard_locks_per_request", "ratio", Lower),
    count("serve.sessions_evicted", "count", Lower),
    time("serve.assert_p50_us", "us"),
    time("serve.assert_us", "us"),
    speedup("serve.concurrent_speedup"),
    time("serve.queue_overhead_us", "us"),
    count("serve.queue_depth_high_water", "count", Lower),
    time("persist.wal_append_us", "us"),
    time("persist.fsync_assert_us", "us"),
    time("persist.snapshot_ms", "ms"),
    time("persist.recover_ms", "ms"),
    time("persist.restart_s", "s"),
    count("persist.wal_records", "count", Lower),
    count("persist.wal_bytes_per_record", "ratio", Lower),
    count("persist.rotations", "count", Lower),
    count("persist.segments_deleted", "count", Higher),
    count("persist.bytes_reclaimed", "count", Higher),
    count("persist.records_replayed", "count", Lower),
    count("persist.records_truncated", "count", Lower),
    count("persist.disk_bytes", "count", Lower),
    time("gen.workload_build_ms", "ms"),
    count("gen.workload_digest", "count", Lower),
    time("trace.overhead_share", "ratio"),
    count("trace.samples", "count", Higher),
];
