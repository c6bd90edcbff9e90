//! The metric and workload names — the vocabulary later issues cite
//! verbatim. `BENCHMARK.json` at the repository root lists the same names;
//! a unit test keeps the two in step.

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
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

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The share of the base's median by which the metric may get worse
    /// before a change counts as a regression. Sized to this host: three
    /// times the run-to-run spread measured over ten seeds, up to the 25%
    /// the driver's contract allows (README, "Noise").
    pub bound: f64,
    /// A count, not a time: under the same seed it must repeat bit for bit,
    /// and any rise is a regression. Its `bound` only absorbs the
    /// difference between the streams of different seeds.
    pub exact: bool,
    /// Reported by every workload, and so listed in `BENCHMARK.json`, whose
    /// contract wants every end-to-end metric from every workload.
    pub universal: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
    universal: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact,
        universal,
    }
}

/// The ten end-to-end metrics.
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", Better::Lower, 0.25, false, true),
    e2e("txn_per_s", "1/s", Better::Higher, 0.25, false, true),
    e2e("lat_p50_us", "us", Better::Lower, 0.25, false, true),
    e2e("lat_p99_us", "us", Better::Lower, 0.25, false, true),
    e2e("fail_ratio", "ratio", Better::Lower, 0.0, true, false),
    e2e("io_per_txn", "pages", Better::Lower, 0.05, true, true),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.25, false, true),
    e2e("recovery_s", "s", Better::Lower, 0.25, false, false),
    e2e("log_bytes_per_txn", "B", Better::Lower, 0.05, true, false),
    e2e("search_s", "s", Better::Lower, 0.25, false, false),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Per-layer counts that, like the `exact` end-to-end metrics, must be
/// bit-identical between two runs of the same seed. The untraced pass
/// reports them too, so `--repeat` can check them.
pub const EXACT_PER_LAYER: [&str; 2] = [
    "engine.queries_posed_per_txn",
    "optimizer.best_weighted_cost",
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// The per-layer metrics of the traced pass.
pub const PER_LAYER: [PerLayer; 62] = [
    pl(
        "storage.index_probe_ns",
        "ns",
        Lower,
        "lat_p50_us on point_engine",
    ),
    pl(
        "storage.rows_resident",
        "count",
        Lower,
        "peak_rss_mb everywhere",
    ),
    pl(
        "storage.aux_rows_per_base_row",
        "ratio",
        Lower,
        "peak_rss_mb everywhere",
    ),
    pl(
        "delta.apply_undo_ns_per_row",
        "ns",
        Lower,
        "txn_per_s on bulk_engine; database.abort_us on serve_mem",
    ),
    pl(
        "algebra.kernel_ns_per_row",
        "ns",
        Lower,
        "txn_per_s on bulk_engine; flat on serve_*",
    ),
    pl(
        "engine.plan_us_per_txn",
        "us",
        Lower,
        "lat_p50_us, txn_per_s on point_engine",
    ),
    pl(
        "engine.gate_us_per_txn",
        "us",
        Lower,
        "lat_p50_us on serve_*",
    ),
    pl(
        "engine.commit_us_per_txn",
        "us",
        Lower,
        "lat_p50_us, txn_per_s on point_engine",
    ),
    pl(
        "engine.phase_cover",
        "ratio",
        Higher,
        "none: >= 0.95 on point_engine keeps the split honest",
    ),
    pl(
        "engine.queries_posed_per_txn",
        "count",
        Lower,
        "io_per_txn, and must not",
    ),
    pl("engine.kind.modify.p50_us", "us", Lower, "lat_p50_us"),
    pl("engine.kind.hire.p50_us", "us", Lower, "lat_p50_us"),
    pl("engine.kind.leave.p50_us", "us", Lower, "lat_p50_us"),
    pl("engine.kind.budget.p50_us", "us", Lower, "lat_p50_us"),
    pl(
        "engine.kind.raise.p50_us",
        "us",
        Lower,
        "lat_p99_us (the multi-row tail)",
    ),
    pl(
        "engine.kind.transfer.p50_us",
        "us",
        Lower,
        "lat_p99_us on serve_*",
    ),
    pl(
        "engine.kind.violate.p50_us",
        "us",
        Lower,
        "lat_p99_us on serve_*",
    ),
    pl(
        "engine.rows_per_s.k1",
        "1/s",
        Higher,
        "txn_per_s on point_engine",
    ),
    pl(
        "engine.rows_per_s.k16",
        "1/s",
        Higher,
        "txn_per_s on point_engine (raises)",
    ),
    pl(
        "engine.rows_per_s.k64",
        "1/s",
        Higher,
        "txn_per_s on bulk_engine",
    ),
    pl(
        "engine.rows_per_s.k512",
        "1/s",
        Higher,
        "txn_per_s on bulk_engine",
    ),
    pl(
        "engine.rows_per_s.k4096",
        "1/s",
        Higher,
        "txn_per_s on bulk_engine",
    ),
    pl(
        "engine.recompute_ms",
        "ms",
        Lower,
        "none: the baseline the paper argues against",
    ),
    pl(
        "engine.crossover_rows",
        "count",
        Higher,
        "none: delta size where maintenance costs one recompute",
    ),
    pl(
        "database.txn_overhead_us",
        "us",
        Lower,
        "txn_per_s on serve_mem, serve_durable; flat elsewhere",
    ),
    pl("database.abort_us", "us", Lower, "lat_p99_us on serve_*"),
    pl(
        "shard.route_ns_per_txn",
        "ns",
        Lower,
        "lat_p50_us on serve_*",
    ),
    pl(
        "shard.cross_shard_ratio",
        "ratio",
        Lower,
        "lat_p99_us on serve_*",
    ),
    pl(
        "shard.skew",
        "ratio",
        Lower,
        "lat_p99_us on serve_* (a round waits for its slowest shard)",
    ),
    pl(
        "sched.waves_per_round",
        "count",
        Lower,
        "lat_p50_us on serve_mem",
    ),
    pl(
        "sched.deferrals_per_txn",
        "count",
        Lower,
        "txn_per_s on serve_mem; toward 0",
    ),
    pl(
        "sched.concurrent_ratio",
        "ratio",
        Higher,
        "txn_per_s on serve_mem",
    ),
    pl(
        "sched.max_wave_width",
        "count",
        Higher,
        "txn_per_s on serve_mem",
    ),
    pl(
        "sched.dispatch_to_commit_p50_us",
        "us",
        Lower,
        "lat_p50_us on serve_mem",
    ),
    pl(
        "sched.overhead_us_per_txn",
        "us",
        Lower,
        "txn_per_s, lat_p50_us on serve_mem",
    ),
    pl(
        "sched.shard_speedup",
        "ratio",
        Higher,
        "txn_per_s on serve_mem; above 1",
    ),
    pl(
        "wal.encode_ns_per_txn",
        "ns",
        Lower,
        "txn_per_s on serve_durable",
    ),
    pl(
        "wal.append_ns_per_txn",
        "ns",
        Lower,
        "txn_per_s on serve_durable",
    ),
    pl(
        "wal.amplification",
        "ratio",
        Lower,
        "log_bytes_per_txn on serve_durable",
    ),
    pl(
        "wal.log_bytes_per_txn",
        "B",
        Lower,
        "the end-to-end log_bytes_per_txn of serve_durable",
    ),
    pl(
        "durability.tax",
        "ratio",
        Higher,
        "txn_per_s on serve_durable; toward 1, serve_mem flat",
    ),
    pl(
        "durability.ckpt_ms",
        "ms",
        Lower,
        "lat_p99_us on serve_durable",
    ),
    pl(
        "durability.ckpt_bytes",
        "B",
        Lower,
        "recovery_s on serve_durable",
    ),
    pl(
        "durability.ckpt_stall_share",
        "ratio",
        Lower,
        "txn_per_s on serve_durable",
    ),
    pl(
        "durability.replayed_txns",
        "count",
        Lower,
        "recovery_s on serve_durable",
    ),
    pl(
        "durability.replay_txn_per_s",
        "1/s",
        Higher,
        "recovery_s on serve_durable",
    ),
    pl(
        "durability.recovery_s",
        "s",
        Lower,
        "the end-to-end recovery_s of serve_durable",
    ),
    pl("memo.explore_ms", "ms", Lower, "setup_s on view_search"),
    pl(
        "optimizer.search_s",
        "s",
        Lower,
        "the end-to-end search_s of view_search",
    ),
    pl(
        "optimizer.sets_considered",
        "count",
        Lower,
        "search_s on view_search",
    ),
    pl(
        "optimizer.sets_pruned",
        "count",
        Higher,
        "search_s on view_search",
    ),
    pl(
        "optimizer.tracks_truncated",
        "count",
        Lower,
        "search_s on view_search",
    ),
    pl(
        "optimizer.query_cache_hit_ratio",
        "ratio",
        Higher,
        "search_s on view_search",
    ),
    pl(
        "optimizer.best_weighted_cost",
        "pages",
        Lower,
        "none: exact",
    ),
    pl(
        "optimizer.serial_search_s",
        "s",
        Lower,
        "search_s on view_search",
    ),
    pl(
        "optimizer.parallel_speedup",
        "ratio",
        Higher,
        "search_s on view_search",
    ),
    pl(
        "optimizer.ddl_ms_per_view",
        "ms",
        Lower,
        "setup_s on the four transaction workloads",
    ),
    pl(
        "harness.gen_s",
        "s",
        Lower,
        "none: the generator's own cost",
    ),
    pl(
        "harness.setup_peak_rss_mb",
        "MiB",
        Lower,
        "none: VmHWM when set-up is done, before peak_rss_mb starts it again",
    ),
    pl(
        "harness.trace_overhead",
        "ratio",
        Lower,
        "none: 1 - traced / untraced txn_per_s, <= 0.05",
    ),
    pl("harness.spans", "count", Lower, "none: spans recorded"),
    pl(
        "harness.prefix_txn_per_s",
        "1/s",
        Higher,
        "none: untraced txn_per_s on the traced prefix",
    ),
];

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// How many samples the value summarises, where that means something.
    pub samples: Option<u64>,
}

/// A metric list that refuses names the tables above do not know.
#[derive(Default, Clone, Debug)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    fn push(&mut self, name: &str, unit: &'static str, value: f64, samples: Option<u64>) {
        assert!(value.is_finite(), "{name} is not a number: {value}");
        assert!(
            !self.0.iter().any(|m| m.name == name),
            "{name} reported twice"
        );
        self.0.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    pub fn e2e(&mut self, name: &str, value: f64, samples: Option<u64>) {
        let def = end_to_end(name).unwrap_or_else(|| panic!("unknown end-to-end metric {name}"));
        self.push(name, def.unit, value, samples);
    }

    pub fn layer(&mut self, name: &str, value: f64, samples: Option<u64>) {
        let def = per_layer(name).unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        self.push(name, def.unit, value, samples);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::Workload;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
    }

    fn names(j: &Json, key: &str) -> Vec<(String, String, String)> {
        j.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics_and_workloads() {
        let j = benchmark_json();
        let want: Vec<_> = END_TO_END
            .iter()
            .filter(|m| m.universal)
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                )
            })
            .collect();
        assert_eq!(names(&j, "end_to_end"), want);
        let want: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                )
            })
            .collect();
        assert_eq!(names(&j, "per_layer"), want);
        let workloads: Vec<String> = names(&j, "workloads").into_iter().map(|w| w.0).collect();
        let want: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, want);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for n in END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(seen.insert(n), "{n} used twice");
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        assert!(PER_LAYER.len() <= 128);
        for m in &END_TO_END {
            assert!(m.bound <= 0.25, "the contract allows no bound above 25%");
        }
        for e in EXACT_PER_LAYER {
            assert!(per_layer(e).is_some(), "{e}");
        }
    }
}
