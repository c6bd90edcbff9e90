//! The five workloads: sizing, the untraced pass that yields the
//! end-to-end metrics, the traced pass that yields the per-layer ones, and
//! the oracles both end on.
//!
//! All five are closed loop, driven from this one process, and never keep
//! more than `nproc` (2) threads busy: the engine workloads and the
//! generator are single-threaded, the serve workloads dispatch onto a
//! two-thread pool while this thread waits, and the search uses one worker
//! per core.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::gen::{BulkSizes, FinalState, GenTxn, Kind, Shape, Source};
use crate::metrics::Metrics;
use crate::probes;
use crate::stats::{median, median_u64, percentile};
use crate::sut::{
    self, BuiltTxn, DbSpec, Declared, Engine, Io, Phases, Rejected, Resident, RoundStats,
    SearchOutcome, Serve, Views,
};
use crate::trace::{Tracer, NO_PARENT};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    PointEngine,
    BulkEngine,
    ServeMem,
    ServeDurable,
    ViewSearch,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PointEngine,
        Workload::BulkEngine,
        Workload::ServeMem,
        Workload::ServeDurable,
        Workload::ViewSearch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointEngine => "point_engine",
            Workload::BulkEngine => "bulk_engine",
            Workload::ServeMem => "serve_mem",
            Workload::ServeDurable => "serve_durable",
            Workload::ViewSearch => "view_search",
        }
    }

    /// Why the workload is in the benchmark: the layers it stresses, and
    /// the ones it bypasses.
    pub fn why(self) -> &'static str {
        match self {
            Workload::PointEngine => "unsharded apply_delta, 1000x10 paper schema, four paper views, single-delta transactions: the raw data plane (engine plan and commit); bypasses transaction, shard, scheduler and WAL",
            Workload::BulkEngine => "same front door, 128-row deltas and a 1024-row one in every fifty, 4000x10 rows, ten views: per-row work (batched probes, fused kernels, copy-on-write, undo log) is all, per-transaction cost nothing",
            Workload::ServeMem => "64 closed-loop clients in rounds through TxnScheduler over 2 in-memory shards, with transfers and 5% expected violations: route, admit, dispatch, apply_transaction, cross-shard commit, abort",
            Workload::ServeDurable => "the serve_mem stream through DurableSharded under SyncPolicy::Flush with 19 checkpoints, a crash-stop and five recoveries: adds WAL append and flush, global commit, checkpoint stalls, recovery",
            Workload::ViewSearch => "optimal_view_set_over on the frozen scaling scenario (28 candidates, 407 view sets): memo, cost and optimizer do all the work here and almost none in the other four workloads",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

// ------------------------------------------------------------------ sizing
//
// Counts are a fixed multiple of `--seconds`, not time-boxed, so the exact
// metrics repeat: the same `--seed` and `--seconds` give the same stream,
// the same page counts and the same log bytes on any host. The rates are
// what this 2-core host sustains (README, "Sizing"), so `--seconds 10`
// gives a timed window of about ten seconds here.

/// `point_engine`: single-delta transactions per second of `--seconds`.
const POINT_TXNS_PER_S: f64 = 19_000.0;
/// `bulk_engine`: transactions per second of `--seconds`.
const BULK_TXNS_PER_S: f64 = 165.0;
/// 128-row deltas, and one of 1024 rows in every fifty: the slowest 2% of
/// the transactions are the large ones, so `lat_p99_us` is their median —
/// the latency of a large delta — and not whichever stall of the host was
/// the longest, which is all the tail of a stream of equal transactions
/// shows.
const BULK_SIZES: BulkSizes = BulkSizes {
    rows: 128,
    large_every: 50,
    large_rows: 1024,
};
/// `serve_*`: rounds of 64 per second of `--seconds`.
const SERVE_MEM_ROUNDS_PER_S: f64 = 72.0;
const SERVE_DURABLE_ROUNDS_PER_S: f64 = 71.0;
/// `view_search`: timed `optimal_view_set_over` calls per second.
const SEARCHES_PER_S: f64 = 1.0;

const PAPER_SHAPE: Shape = Shape {
    depts: 1000,
    emps_per_dept: 10,
};
const BULK_SHAPE: Shape = Shape {
    depts: 4000,
    emps_per_dept: 10,
};
const SERVE_SHAPE: Shape = Shape {
    depts: 1024,
    emps_per_dept: 10,
};
pub const CLIENTS: u16 = 64;
const SHARDS: usize = 2;

/// Fresh set-ups per run (`setup_s` is their median) and cold opens of
/// byte-identical copies of the crash image (`recovery_s` is theirs).
pub const REPEATS: usize = 5;
/// A set-up that takes milliseconds is repeated until this much time has
/// been spent on it.
const SETUP_FLOOR: Duration = Duration::from_millis(400);
const MAX_SETUPS: usize = 400;
/// The first 5% of every stream is untimed warm-up (plan caches, arenas,
/// allocator).
const WARMUP_SHARE: f64 = 0.05;
/// The traced pass re-runs the first 25% of the stream.
const TRACED_SHARE: f64 = 0.25;
/// `serve_durable` checkpoints every 1/20 of the rounds, first at 3/40: 19
/// cycles, 2% of the rounds stalled — clear of the 1% that `lat_p99_us`
/// sits on — and 1/40 of the stream left in the log for recovery to replay.
const CKPT_CYCLES: usize = 20;

/// Row operations converted to the product's deltas at a time (2048
/// single-row transactions, 16 bulk ones; the serve workloads take 8 rounds,
/// 512 transactions). The stream is kept in the generator's compact form
/// and converted a chunk ahead of the clock, so `peak_rss_mb` is the
/// program's memory and not the harness's; and a chunk (about 0.1 s) is
/// the turn lanes take when several run the same stream.
const CHUNK_ROWS: usize = 2048;
const ROUNDS_PER_CHUNK: usize = 8;

pub struct RunCfg {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Directory for WAL files (inside the checkout).
    pub scratch: PathBuf,
    /// Directory the trace is written to.
    pub results: PathBuf,
    /// Set-ups and recoveries to take the median of: [`REPEATS`], or 1
    /// under `--smoke`.
    pub repeats: usize,
}

impl RunCfg {
    fn count(&self, per_s: f64, at_least: usize) -> usize {
        ((per_s * self.seconds).round() as usize).max(at_least)
    }
}

pub struct RunResult {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Oracle mismatches, in words. Any entry makes the run incorrect.
    pub oracle_failures: Vec<String>,
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.oracle_failures.is_empty()
    }
}

/// Transactions whose outcome differed from what the generator expected.
#[derive(Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    examples: Vec<String>,
}

impl Tally {
    /// Count one acknowledged transaction; `Some(io)` when it committed as
    /// expected.
    fn check(&mut self, i: usize, t: &GenTxn, r: &Result<Io, Rejected>) -> Option<Io> {
        self.attempted += 1;
        let what = match (t.expect_violation, r) {
            (false, Ok(io)) => return Some(*io),
            (true, Err(Rejected::Violation)) => return None,
            (true, Ok(_)) => "committed, but breaches DeptConstraint".to_string(),
            (_, Err(Rejected::Violation)) => "rejected as a violation, but is valid".to_string(),
            (_, Err(Rejected::Other(e))) => format!("failed: {e}"),
        };
        self.fail(format!("txn {i} ({}) {what}", t.kind.name()));
        None
    }

    /// Count a failure outside the stream (a probe, a search).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.examples.len() < 5 {
            self.examples.push(what);
        }
    }

    fn finish(
        self,
        metrics: Metrics,
        mut oracle_failures: Vec<String>,
        notes: Vec<String>,
    ) -> RunResult {
        oracle_failures.extend(self.examples);
        RunResult {
            metrics,
            attempted: self.attempted,
            failed: self.failed,
            oracle_failures,
            notes,
        }
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .expect("VmHWM in /proc/self/status")
}

#[cfg(target_env = "gnu")]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Set-up is done: read its high-water mark, give the memory it freed back
/// to the system and start the mark again. Set-up's mark is the
/// transient of the `Exhaustive` view-set search, 30 MiB over the tables,
/// and how much of it the allocator keeps is luck; from here on
/// `peak_rss_mb` is the stream's — the tables and what transactions need on
/// top of them.
fn setup_done(notes: &mut Vec<String>) -> f64 {
    let setup_peak = peak_rss_mib();
    #[cfg(target_env = "gnu")]
    // SAFETY: glibc's `malloc_trim` takes any pad and touches only free
    // chunks of the allocator's own arenas.
    unsafe {
        malloc_trim(0);
    }
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        notes.push(format!(
            "VmHWM not reset ({e}): peak_rss_mb includes set-up's transient"
        ));
    }
    setup_peak
}

/// Build from nothing `repeats` times (more, if a build takes
/// milliseconds); the median time, how many times, and the last product.
fn timed_setups<T>(repeats: usize, mut build: impl FnMut(usize) -> T) -> (f64, u64, T) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    let started = Instant::now();
    let floor = SETUP_FLOOR.mul_f64(repeats as f64 / REPEATS as f64);
    while times.len() < repeats || (started.elapsed() < floor && times.len() < MAX_SETUPS) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build(times.len()));
        times.push(secs(t0.elapsed()));
    }
    (
        median(&times),
        times.len() as u64,
        last.expect("repeats > 0"),
    )
}

fn latency_metrics(m: &mut Metrics, latencies_ns: &mut [u64]) {
    let n = latencies_ns.len() as u64;
    latencies_ns.sort_unstable();
    m.e2e(
        "lat_p50_us",
        us(percentile(latencies_ns, 50.0) as f64),
        Some(n),
    );
    m.e2e(
        "lat_p99_us",
        us(percentile(latencies_ns, 99.0) as f64),
        Some(n),
    );
}

/// What every transaction workload reports of its timed window.
fn window_metrics(m: &mut Metrics, w: &mut Window) {
    m.e2e("txn_per_s", w.txn_per_s(), Some(w.txns));
    m.e2e("io_per_txn", w.pages as f64 / w.txns as f64, Some(w.txns));
    m.layer(
        "engine.queries_posed_per_txn",
        w.queries_posed as f64 / w.txns as f64,
        Some(w.txns),
    );
    latency_metrics(m, &mut w.latencies_ns);
}

fn resident_metrics(m: &mut Metrics, r: Resident) {
    m.layer(
        "storage.rows_resident",
        (r.base_rows + r.derived_rows) as f64,
        None,
    );
    m.layer(
        "storage.aux_rows_per_base_row",
        r.derived_rows as f64 / r.base_rows as f64,
        None,
    );
}

fn phase_metrics(m: &mut Metrics, p: Phases, txns: u64, wall: Duration) {
    let per = |ns: u64| us(ns as f64) / txns as f64;
    m.layer("engine.plan_us_per_txn", per(p.plan_ns), Some(txns));
    m.layer("engine.gate_us_per_txn", per(p.gate_ns), Some(txns));
    m.layer("engine.commit_us_per_txn", per(p.commit_ns), Some(txns));
    m.layer(
        "engine.phase_cover",
        p.sum_ns() as f64 / wall.as_nanos() as f64,
        None,
    );
}

/// Per-kind latency samples of the traced pass.
#[derive(Default)]
struct KindLatencies([Vec<u64>; Kind::ALL.len()]);

impl KindLatencies {
    fn push(&mut self, k: Kind, ns: u64) {
        self.0[k as usize].push(ns);
    }

    fn report(self, m: &mut Metrics) {
        for (k, v) in Kind::ALL.into_iter().zip(self.0) {
            if !v.is_empty() && k != Kind::Bulk {
                let name = format!("engine.kind.{}.p50_us", k.name());
                m.layer(&name, us(median_u64(&v)), Some(v.len() as u64));
            }
        }
    }
}

fn write_trace(cfg: &RunCfg, tracer: &Tracer, m: &mut Metrics, notes: &mut Vec<String>) {
    m.layer("harness.spans", tracer.len() as f64, None);
    let path = cfg
        .results
        .join(format!("trace-{}.json", cfg.workload.name()));
    match std::fs::create_dir_all(&cfg.results)
        .and_then(|_| std::fs::write(&path, tracer.to_json()))
    {
        Ok(()) => notes.push(format!(
            "trace: {} spans in {}",
            tracer.len(),
            path.display()
        )),
        Err(e) => notes.push(format!("trace not written to {}: {e}", path.display())),
    }
    for (name, count, total_ns, self_ns) in tracer.summary() {
        notes.push(format!(
            "span {name}: n={count} total={:.3}ms self={:.3}ms",
            total_ns as f64 / 1e6,
            self_ns as f64 / 1e6
        ));
    }
}

// -------------------------------------------------------- engine workloads

fn engine_spec(w: Workload) -> DbSpec {
    match w {
        Workload::PointEngine => DbSpec {
            shape: PAPER_SHAPE,
            views: Views::Paper,
            assertion: false,
        },
        _ => DbSpec {
            shape: BULK_SHAPE,
            views: Views::Wide,
            assertion: false,
        },
    }
}

/// The workload's stream, how many transactions of it to run, and how
/// many rows a transaction has (16-row raises and large deltas aside).
fn engine_source(cfg: &RunCfg) -> (Source, usize, usize) {
    match cfg.workload {
        Workload::PointEngine => (
            Source::point(cfg.seed, PAPER_SHAPE),
            cfg.count(POINT_TXNS_PER_S, 200),
            1,
        ),
        _ => (
            Source::bulk_mixed(cfg.seed, BULK_SHAPE, BULK_SIZES),
            cfg.count(BULK_TXNS_PER_S, 20),
            BULK_SIZES.rows,
        ),
    }
}

/// The sizes a stream of `total` is pulled in — at most `chunk`, never
/// across the end of the `warm` untimed transactions — and whether each
/// piece is timed.
fn chunk_plan(total: usize, warm: usize, chunk: usize) -> Vec<(bool, usize)> {
    let mut plan = Vec::new();
    for (timed, mut left) in [(false, warm), (true, total - warm)] {
        while left > 0 {
            let n = left.min(chunk);
            plan.push((timed, n));
            left -= n;
        }
    }
    plan
}

#[derive(Default)]
struct Window {
    /// The clock runs only while transactions are submitted, not while the
    /// next chunk is converted.
    wall: Duration,
    latencies_ns: Vec<u64>,
    txns: u64,
    pages: u64,
    queries_posed: u64,
    /// Time spent generating (outside the clock).
    gen: Duration,
}

impl Window {
    fn txn_per_s(&self) -> f64 {
        self.txns as f64 / secs(self.wall)
    }
}

/// One copy of the database taking the stream.
///
/// Several lanes take the same stream a chunk at a time in turn, so two
/// ways of running the same transactions (untraced and traced, WAL on and
/// off, two shards and one) see the same seconds of this host's wandering
/// speed, and their ratio is not an artefact of when each ran.
struct EngineLane<'a> {
    engine: &'a mut Engine,
    /// With a tracer, every call gets a span with the product's own
    /// plan/gate/commit split laid out beneath it.
    traced: Option<(&'a mut Tracer, &'a mut KindLatencies)>,
    w: Window,
    before: Phases,
}

impl<'a> EngineLane<'a> {
    fn new(
        engine: &'a mut Engine,
        traced: Option<(&'a mut Tracer, &'a mut KindLatencies)>,
        timed_txns: usize,
    ) -> Self {
        let before = engine.phases();
        let w = Window {
            latencies_ns: Vec::with_capacity(timed_txns),
            ..Window::default()
        };
        EngineLane {
            engine,
            traced,
            w,
            before,
        }
    }

    /// Submit one chunk, one `apply_delta` at a time.
    fn run_chunk(&mut self, chunk: &[GenTxn], base: usize, timed: bool, tally: &mut Tally) {
        let built: Vec<_> = chunk
            .iter()
            .map(|t| sut::build_delta(&t.updates[0]))
            .collect();
        let c0 = Instant::now();
        for (k, (t, d)) in chunk.iter().zip(built).enumerate() {
            let i = base + k;
            let (r, ns) = match self.traced.as_mut() {
                None => {
                    let t0 = Instant::now();
                    let r = self.engine.apply(d);
                    (r, t0.elapsed().as_nanos() as u64)
                }
                Some((tracer, kinds)) => {
                    let span = tracer.begin("engine.apply_delta", NO_PARENT, i as u64);
                    let r = self.engine.apply(d);
                    let ns = tracer.end(span);
                    let now = self.engine.phases();
                    let p = now.since(&self.before);
                    self.before = now;
                    tracer.derived("engine.plan", span, 0, p.plan_ns);
                    tracer.derived("engine.gate", span, p.plan_ns, p.gate_ns);
                    tracer.derived("engine.commit", span, p.plan_ns + p.gate_ns, p.commit_ns);
                    if timed {
                        kinds.push(t.kind, ns);
                    }
                    (r, ns)
                }
            };
            let io = tally.check(i, t, &r);
            if timed {
                self.w.latencies_ns.push(ns);
                self.w.txns += 1;
                if let Some(io) = io {
                    self.w.pages += io.pages;
                    self.w.queries_posed += io.queries_posed;
                }
            }
        }
        if timed {
            self.w.wall += c0.elapsed();
        }
    }
}

/// Pull `total` transactions of `source` a chunk at a time and give every
/// chunk to every lane, the lane that goes first rotating; the first `warm`
/// transactions are untimed.
fn drive_engine(
    lanes: &mut [EngineLane],
    source: &mut Source,
    (total, warm, chunk): (usize, usize, usize),
    tally: &mut Tally,
) {
    let mut base = 0;
    for (c, (timed, n)) in chunk_plan(total, warm, chunk).into_iter().enumerate() {
        let g0 = Instant::now();
        let chunk = source.take(n);
        let gen = g0.elapsed();
        for k in 0..lanes.len() {
            let lane = &mut lanes[(c + k) % lanes.len()];
            lane.w.gen += gen;
            lane.run_chunk(&chunk, base, timed, tally);
        }
        base += n;
    }
}

fn engine_oracles(engine: &Engine, end: &FinalState, failures: &mut Vec<String>) {
    match engine.verify() {
        Ok(0) => {}
        Ok(n) => failures.push(format!(
            "verify_all_views: {n} tables differ from recomputation"
        )),
        Err(e) => failures.push(format!("verify_all_views failed: {e}")),
    }
    if !engine.base_matches(&end.emps, &end.budgets) {
        failures.push("Emp/Dept differ from the state the generator ended on".into());
    }
}

fn warmup(n: usize) -> usize {
    ((n as f64 * WARMUP_SHARE).round() as usize).clamp(1, n - 1)
}

fn run_engine(cfg: &RunCfg) -> RunResult {
    let spec = engine_spec(cfg.workload);
    let (mut source, total, rows) = engine_source(cfg);
    let chunk = CHUNK_ROWS / rows;
    let (setup_s, setups, mut engine) = timed_setups(cfg.repeats, |_| Engine::setup(&spec));
    let mut tally = Tally::default();
    let warm = warmup(total);
    let mut notes = Vec::new();
    let setup_peak = setup_done(&mut notes);
    let mut lanes = [EngineLane::new(&mut engine, None, total - warm)];
    drive_engine(&mut lanes, &mut source, (total, warm, chunk), &mut tally);
    let [EngineLane { mut w, .. }] = lanes;
    let peak = peak_rss_mib();
    let mut failures = Vec::new();
    let hash = source.hash();
    engine_oracles(&engine, &source.finish(), &mut failures);

    let mut m = Metrics::default();
    m.e2e("setup_s", setup_s, Some(setups));
    m.layer("harness.setup_peak_rss_mb", setup_peak, None);
    window_metrics(&mut m, &mut w);
    m.e2e("peak_rss_mb", peak, None);
    notes.push(format!(
        "{total} transactions ({warm} warm-up), stream hash {hash:016x}, window {:.3}s",
        secs(w.wall)
    ));
    tally.finish(m, failures, notes)
}

fn trace_engine(cfg: &RunCfg) -> RunResult {
    let spec = engine_spec(cfg.workload);
    let (mut source, total, rows) = engine_source(cfg);
    let chunk = CHUNK_ROWS / rows;
    let prefix = (total as f64 * TRACED_SHARE) as usize;
    let warm = warmup(prefix);
    // Four spans per transaction; reserved so the trace never reallocates
    // inside the window it is measuring.
    let mut tracer = Tracer::with_capacity(4 * prefix + 16_384);
    let mut m = Metrics::default();
    let mut notes = Vec::new();
    let mut tally = Tally::default();

    // Set-up, one span per step; the view DDL is where the optimizer runs.
    let root = tracer.begin("setup", NO_PARENT, 0);
    let s = tracer.begin("sql.schema_ddl", root, 0);
    let mut pristine = Engine::create_schema();
    tracer.end(s);
    let s = tracer.begin("storage.load", root, 0);
    pristine.load(spec.shape);
    tracer.end(s);
    let mut ddl_ns = Vec::new();
    for sql in spec.view_ddl() {
        let s = tracer.begin("optimizer.view_ddl", root, 0);
        pristine.execute_ddl(sql);
        ddl_ns.push(tracer.end(s));
    }
    if spec.views == Views::Wide {
        let s = tracer.begin("optimizer.view_group", root, 0);
        pristine.create_payroll_group();
        tracer.end(s);
    }
    tracer.end(root);
    m.layer("harness.setup_peak_rss_mb", setup_done(&mut notes), None);
    m.layer(
        "optimizer.ddl_ms_per_view",
        ddl_ns.iter().sum::<u64>() as f64 / 1e6 / ddl_ns.len() as f64,
        Some(ddl_ns.len() as u64),
    );

    // The same prefix untraced and traced, chunk by chunk in turn, on two
    // copies of one set-up.
    let mut plain = pristine.clone();
    let mut engine = pristine.clone();
    engine.set_phase_stats(true);
    let mut kinds = KindLatencies::default();
    let mut lanes = [
        EngineLane::new(&mut plain, None, prefix - warm),
        EngineLane::new(&mut engine, Some((&mut tracer, &mut kinds)), prefix - warm),
    ];
    drive_engine(&mut lanes, &mut source, (prefix, warm, chunk), &mut tally);
    let [EngineLane { w: untraced, .. }, EngineLane { w, .. }] = lanes;
    drop(plain);
    // Phase totals cover the warm-up too; so does the wall they are set against.
    let (_, apply_ns, _) = tracer.of("engine.apply_delta");
    phase_metrics(
        &mut m,
        engine.phases(),
        prefix as u64,
        Duration::from_nanos(apply_ns),
    );
    m.layer(
        "engine.queries_posed_per_txn",
        w.queries_posed as f64 / w.txns as f64,
        Some(w.txns),
    );
    kinds.report(&mut m);
    resident_metrics(&mut m, engine.resident());
    m.layer("harness.gen_s", secs(w.gen), None);
    m.layer(
        "harness.prefix_txn_per_s",
        untraced.txn_per_s(),
        Some(untraced.txns),
    );
    m.layer(
        "harness.trace_overhead",
        1.0 - w.txn_per_s() / untraced.txn_per_s(),
        None,
    );
    let mut failures = Vec::new();
    match engine.verify() {
        Ok(0) => {}
        other => failures.push(format!(
            "verify_all_views after the traced prefix: {other:?}"
        )),
    }
    drop(engine);

    // The probes draw their inputs from the head of the same stream.
    let sample = engine_source(cfg)
        .0
        .take((probes::SAMPLE / rows).min(prefix));
    probes::storage(&mut m, &mut tracer, &pristine, &sample);
    probes::delta_undo(&mut m, &mut tracer, &pristine, cfg.seed, spec.shape);
    probes::kernel(&mut m, &mut tracer, &sample);
    if cfg.workload == Workload::PointEngine {
        probes::txn_overhead(&mut m, &mut tracer, &pristine, &sample, &mut tally);
    } else {
        probes::delta_size_sweep(
            &mut m,
            &mut tracer,
            &pristine,
            cfg.seed,
            spec.shape,
            &mut tally,
        );
    }
    write_trace(cfg, &tracer, &mut m, &mut notes);
    tally.finish(m, failures, notes)
}

// --------------------------------------------------------- serve workloads

fn serve_spec() -> DbSpec {
    DbSpec {
        shape: SERVE_SHAPE,
        views: Views::Paper,
        assertion: true,
    }
}

fn serve_rounds(cfg: &RunCfg) -> usize {
    let per_s = if cfg.workload == Workload::ServeDurable {
        SERVE_DURABLE_ROUNDS_PER_S
    } else {
        SERVE_MEM_ROUNDS_PER_S
    };
    cfg.count(per_s, 2 * CKPT_CYCLES)
}

/// Rounds after which `serve_durable` checkpoints.
fn checkpoint_rounds(rounds: usize) -> Vec<usize> {
    let every = rounds / CKPT_CYCLES;
    (0..CKPT_CYCLES - 1)
        .map(|k| every * 3 / 2 + k * every)
        .collect()
}

#[derive(Default)]
struct ServeWindow {
    /// The latency samples are per round, submit to acknowledge, a
    /// checkpoint's stall charged to the round that waited for it.
    core: Window,
    rounds: u64,
    stats: RoundStats,
    run_ns: u64,
    route_ns: u64,
    dispatch_to_commit_ns: Vec<u64>,
    abort_ns: Vec<u64>,
    per_shard: [u64; SHARDS],
    ckpt_ns: Vec<u64>,
    /// Log bytes appended over the whole stream, warm-up included.
    log_bytes: u64,
    encoded_bytes: u64,
}

fn absorb(into: &mut RoundStats, s: &RoundStats) {
    into.waves += s.waves;
    into.conflict_deferrals += s.conflict_deferrals;
    into.admitted_concurrent += s.admitted_concurrent;
    into.cross_shard_txns += s.cross_shard_txns;
    into.max_wave_width = into.max_wave_width.max(s.max_wave_width);
    into.committed += s.committed;
    into.aborted += s.aborted;
    into.shard_participations += s.shard_participations;
}

/// One serving stack taking the stream (see [`EngineLane`]).
struct ServeLane<'a> {
    serve: &'a mut Serve,
    /// The rounds after which the harness calls `checkpoint()`; empty for
    /// an in-memory stack.
    checkpoints: &'a [usize],
    traced: Option<(&'a mut Tracer, &'a mut KindLatencies)>,
    w: ServeWindow,
    log_base: u64,
    stall_ns: u64,
    phases_before: Phases,
    encode_buf: Vec<u8>,
}

impl<'a> ServeLane<'a> {
    fn new(
        serve: &'a mut Serve,
        checkpoints: &'a [usize],
        traced: Option<(&'a mut Tracer, &'a mut KindLatencies)>,
    ) -> Self {
        let log_base = if checkpoints.is_empty() {
            0
        } else {
            serve.log_bytes()
        };
        let phases_before = serve.phases();
        ServeLane {
            serve,
            checkpoints,
            traced,
            w: ServeWindow::default(),
            log_base,
            stall_ns: 0,
            phases_before,
            encode_buf: Vec::new(),
        }
    }

    /// Submit round `r` as one `TxnScheduler::run`, then checkpoint if the
    /// schedule says so.
    fn run_round(
        &mut self,
        r: usize,
        gen_round: &[GenTxn],
        round: &[BuiltTxn],
        timed: bool,
        tally: &mut Tally,
    ) {
        let w = &mut self.w;
        let (raw, ns) = match self.traced.as_mut() {
            None => {
                let t0 = Instant::now();
                let raw = self.serve.run_round(round);
                (raw, t0.elapsed().as_nanos() as u64)
            }
            Some((tracer, _)) => {
                // The scheduler routes again inside `run`; this span
                // prices that step on its own.
                let span = tracer.begin("shard.route", NO_PARENT, r as u64);
                for t in round {
                    let footprint = self.serve.route(t);
                    for (s, n) in w.per_shard.iter_mut().enumerate() {
                        *n += footprint >> s & 1;
                    }
                }
                let route_ns = tracer.end(span);
                let span = tracer.begin("sched.run", NO_PARENT, r as u64);
                let raw = self.serve.run_round(round);
                let ns = tracer.end(span);
                let now = self.serve.phases();
                tracer.derived(
                    "engine.phases",
                    span,
                    0,
                    now.since(&self.phases_before).sum_ns(),
                );
                self.phases_before = now;
                if timed {
                    w.route_ns += route_ns;
                }
                (raw, ns)
            }
        };
        let out = raw.digest();
        if timed {
            w.core.wall += Duration::from_nanos(ns);
            w.run_ns += ns;
            w.core
                .latencies_ns
                .push(ns + std::mem::take(&mut self.stall_ns));
            w.rounds += 1;
            w.core.txns += round.len() as u64;
            absorb(&mut w.stats, &out.stats);
        }
        for (k, (t, res)) in gen_round.iter().zip(&out.outcomes).enumerate() {
            let io = tally.check(r * round.len() + k, t, res);
            if timed {
                if let Some(io) = io {
                    w.core.pages += io.pages;
                    w.core.queries_posed += io.queries_posed;
                }
            }
            if let (true, Some((_, kinds))) = (timed, self.traced.as_mut()) {
                let d2c = out.dispatch_to_commit_ns[k];
                kinds.push(t.kind, d2c);
                w.dispatch_to_commit_ns.push(d2c);
                if t.expect_violation {
                    w.abort_ns.push(d2c);
                }
            }
        }
        let durable = !self.checkpoints.is_empty();
        if self.traced.is_some() && durable {
            for t in round {
                w.encoded_bytes += sut::encode_txn(&mut self.encode_buf, t) as u64;
            }
        }
        if self.checkpoints.contains(&(r + 1)) {
            w.log_bytes += self.serve.log_bytes() - self.log_base;
            let span = self
                .traced
                .as_mut()
                .map(|(tracer, _)| tracer.begin("durability.checkpoint", NO_PARENT, r as u64));
            let t0 = Instant::now();
            self.serve.checkpoint();
            let ns = t0.elapsed().as_nanos() as u64;
            if let (Some(span), Some((tracer, _))) = (span, self.traced.as_mut()) {
                tracer.end(span);
            }
            self.log_base = self.serve.log_bytes();
            if timed {
                w.core.wall += Duration::from_nanos(ns);
                w.ckpt_ns.push(ns);
                self.stall_ns = ns;
            }
        }
    }

    /// The window, with the log bytes appended since the last checkpoint.
    fn finish(mut self) -> ServeWindow {
        if !self.checkpoints.is_empty() {
            self.w.log_bytes += self.serve.log_bytes() - self.log_base;
        }
        self.w
    }
}

/// Pull `rounds` rounds (one transaction per client each) of `source` a
/// chunk at a time and give every chunk to every lane, the lane that goes
/// first rotating; the first `warm` rounds are untimed.
fn drive_rounds(
    lanes: &mut [ServeLane],
    source: &mut Source,
    rounds: usize,
    warm: usize,
    tally: &mut Tally,
) {
    let clients = CLIENTS as usize;
    for (c, chunk_start) in (0..rounds).step_by(ROUNDS_PER_CHUNK).enumerate() {
        let chunk_end = (chunk_start + ROUNDS_PER_CHUNK).min(rounds);
        let g0 = Instant::now();
        let txns = source.take((chunk_end - chunk_start) * clients);
        let gen = g0.elapsed();
        let built: Vec<BuiltTxn> = txns.iter().map(sut::build_txn).collect();
        for k in 0..lanes.len() {
            let lane = &mut lanes[(c + k) % lanes.len()];
            lane.w.core.gen += gen;
            for r in chunk_start..chunk_end {
                let at = (r - chunk_start) * clients..(r - chunk_start + 1) * clients;
                lane.run_round(r, &txns[at.clone()], &built[at], r >= warm, tally);
            }
        }
    }
}

/// Replay every transaction the generator expected to commit on an
/// unsharded copy of the template (outside any timed window) and compare
/// each table's shard union with it. Expected violations are skipped: the
/// program must have left no trace of them.
fn control_replay(
    template: &Engine,
    mut source: Source,
    total: usize,
    serve: &Serve,
    failures: &mut Vec<String>,
) {
    let mut control = template.clone();
    for (_, n) in chunk_plan(total, 0, CHUNK_ROWS) {
        for t in source.take(n).iter().filter(|t| !t.expect_violation) {
            for u in &t.updates {
                if let Err(e) = control.apply(sut::build_delta(u)) {
                    failures.push(format!(
                        "control replay rejected a {}: {e:?}",
                        t.kind.name()
                    ));
                    return;
                }
            }
        }
    }
    let diff = serve.diff_control(&control);
    if !diff.is_empty() {
        failures.push(format!(
            "shard unions differ from the unsharded control: {diff:?}"
        ));
    }
}

fn verify_shards(serve: &Serve, what: &str, failures: &mut Vec<String>) {
    match serve.verify() {
        Ok(0) => {}
        Ok(n) => failures.push(format!(
            "verify_all_shards {what}: {n} tables differ from recomputation"
        )),
        Err(e) => failures.push(format!("verify_all_shards {what} failed: {e}")),
    }
}

fn copy_dir(src: &Path, dst: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &to)?;
        } else {
            std::fs::copy(entry.path(), &to)?;
        }
    }
    Ok(())
}

/// A scratch directory of this process, emptied on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(cfg: &RunCfg) -> Scratch {
        let dir = cfg
            .scratch
            .join(format!("{}-{}", cfg.workload.name(), std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }

    /// A path inside the directory, which is made on first use (an
    /// in-memory workload never asks).
    fn path(&self, name: &str) -> PathBuf {
        std::fs::create_dir_all(&self.0).expect("create scratch directory");
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Recovered {
    seconds: Vec<f64>,
    replayed_txns: u64,
}

/// Crash-stop `serve`, then time `repeats` cold opens of byte-identical
/// copies of what it left on disk; every recovered table must equal the
/// pre-crash one.
fn crash_and_recover(
    serve: Serve,
    repeats: usize,
    scratch: &Scratch,
    mut tracer: Option<&mut Tracer>,
    failures: &mut Vec<String>,
) -> Recovered {
    let image = serve.image();
    let crashed = serve.durable_dir().to_path_buf();
    serve.crash();
    let mut out = Recovered {
        seconds: Vec::new(),
        replayed_txns: 0,
    };
    for i in 0..repeats {
        let copy = scratch.path(&format!("crash-image-{i}"));
        copy_dir(&crashed, &copy).expect("copy the crash image");
        let span = tracer
            .as_mut()
            .map(|t| t.begin("durability.recover", NO_PARENT, i as u64));
        let t0 = Instant::now();
        let opened = Serve::recover(&copy, SHARDS);
        out.seconds.push(secs(t0.elapsed()));
        if let (Some(span), Some(t)) = (span, tracer.as_mut()) {
            t.end(span);
        }
        match opened {
            Err(e) => failures.push(format!("recovery {i} failed: {e}")),
            Ok((recovered, stats)) => {
                out.replayed_txns = stats.replayed_txns;
                let diff = recovered.diff_image(&image);
                if !diff.is_empty() {
                    failures.push(format!(
                        "recovery {i}: tables differ from pre-crash: {diff:?}"
                    ));
                }
                if stats.discarded_bytes != 0 {
                    failures.push(format!(
                        "recovery {i} discarded {} bytes of a cleanly flushed log",
                        stats.discarded_bytes
                    ));
                }
                if i == 0 {
                    verify_shards(&recovered, "after recovery", failures);
                }
            }
        }
        let _ = std::fs::remove_dir_all(&copy);
    }
    out
}

fn run_serve(cfg: &RunCfg) -> RunResult {
    let durable = cfg.workload == Workload::ServeDurable;
    let spec = serve_spec();
    let rounds = serve_rounds(cfg);
    let total = rounds * CLIENTS as usize;
    let new_source = || Source::serve(cfg.seed, SERVE_SHAPE, CLIENTS);
    let mut source = new_source();
    let scratch = Scratch::new(cfg);
    let (setup_s, setups, (template, mut serve)) = timed_setups(cfg.repeats, |i| {
        let template = Engine::setup(&spec);
        let serve = if durable {
            Serve::create_durable(&template, SHARDS, &scratch.path(&format!("setup-{i}")))
        } else {
            Serve::partition(&template, SHARDS)
        };
        (template, serve)
    });
    let checkpoints = if durable {
        checkpoint_rounds(rounds)
    } else {
        Vec::new()
    };
    let warm = warmup(rounds);
    let mut tally = Tally::default();
    let mut notes = Vec::new();
    let setup_peak = setup_done(&mut notes);
    let mut lanes = [ServeLane::new(&mut serve, &checkpoints, None)];
    drive_rounds(&mut lanes, &mut source, rounds, warm, &mut tally);
    let [mut w] = lanes.map(ServeLane::finish);
    let peak = peak_rss_mib();

    let mut failures = Vec::new();
    verify_shards(&serve, "after the stream", &mut failures);
    control_replay(&template, new_source(), total, &serve, &mut failures);
    let mut m = Metrics::default();
    m.e2e("setup_s", setup_s, Some(setups));
    m.layer("harness.setup_peak_rss_mb", setup_peak, None);
    window_metrics(&mut m, &mut w.core);
    m.e2e("peak_rss_mb", peak, None);
    notes.push(format!(
        "{rounds} rounds of {CLIENTS} ({warm} warm-up), stream hash {:016x}, window {:.3}s, \
         {} committed / {} rejected in the window",
        source.hash(),
        secs(w.core.wall),
        w.stats.committed,
        w.stats.aborted
    ));
    if durable {
        let rec = crash_and_recover(serve, cfg.repeats, &scratch, None, &mut failures);
        m.e2e("recovery_s", median(&rec.seconds), Some(cfg.repeats as u64));
        m.e2e(
            "log_bytes_per_txn",
            w.log_bytes as f64 / total as f64,
            Some(total as u64),
        );
        notes.push(format!(
            "{} checkpoints; recovery replayed {} transactions; latency and recovery time are \
             this sandbox filesystem's (page cache, SyncPolicy::Flush), not a device's",
            w.ckpt_ns.len(),
            rec.replayed_txns
        ));
    }
    tally.finish(m, failures, notes)
}

fn trace_serve(cfg: &RunCfg) -> RunResult {
    let durable = cfg.workload == Workload::ServeDurable;
    let spec = serve_spec();
    let rounds = serve_rounds(cfg);
    let new_source = || Source::serve(cfg.seed, SERVE_SHAPE, CLIENTS);
    let prefix_rounds = (rounds as f64 * TRACED_SHARE) as usize;
    let prefix_txns = prefix_rounds * CLIENTS as usize;
    let warm = warmup(prefix_rounds);
    let checkpoints = if durable {
        checkpoint_rounds(rounds)
    } else {
        Vec::new()
    };
    let checkpoints: Vec<usize> = checkpoints
        .into_iter()
        .filter(|&r| r < prefix_rounds)
        .collect();
    let scratch = Scratch::new(cfg);
    let mut tracer = Tracer::new();
    let mut m = Metrics::default();
    let mut notes = Vec::new();
    let mut failures = Vec::new();
    let mut tally = Tally::default();

    let root = tracer.begin("setup", NO_PARENT, 0);
    let s = tracer.begin("database.setup", root, 0);
    let template = Engine::setup(&spec);
    tracer.end(s);
    let open = |tracer: &mut Tracer, name: &str, shards: usize, parent: u32| {
        let s = tracer.begin(
            if durable {
                "durability.create"
            } else {
                "shard.partition"
            },
            parent,
            0,
        );
        let serve = if durable {
            Serve::create_durable(&template, shards, &scratch.path(name))
        } else {
            Serve::partition(&template, shards)
        };
        tracer.end(s);
        serve
    };
    let mut plain = open(&mut tracer, "untraced", SHARDS, root);
    tracer.end(root);
    m.layer("harness.setup_peak_rss_mb", setup_done(&mut notes), None);
    let mut serve = open(&mut tracer, "live", SHARDS, NO_PARENT);
    serve.set_phase_stats(true);
    // The third lane is what the other two are set against: the in-memory
    // stack under `serve_durable` (the durability tax), one shard under
    // `serve_mem` (the single-threaded baseline).
    let mut reference = Serve::partition(&template, if durable { SHARDS } else { 1 });

    // The same prefix through all three, chunk by chunk in turn.
    let mut kinds = KindLatencies::default();
    let mut lanes = [
        ServeLane::new(&mut plain, &checkpoints, None),
        ServeLane::new(&mut serve, &checkpoints, Some((&mut tracer, &mut kinds))),
        ServeLane::new(&mut reference, &[], None),
    ];
    drive_rounds(
        &mut lanes,
        &mut new_source(),
        prefix_rounds,
        warm,
        &mut tally,
    );
    let [untraced, w, reference_w] = lanes.map(ServeLane::finish);
    drop((plain, reference));
    verify_shards(&serve, "after the traced prefix", &mut failures);

    let txns = w.core.txns as f64;
    let phases = serve.phases();
    let (_, run_total_ns, _) = tracer.of("sched.run");
    phase_metrics(
        &mut m,
        phases,
        prefix_txns as u64,
        Duration::from_nanos(run_total_ns),
    );
    m.layer(
        "engine.queries_posed_per_txn",
        w.core.queries_posed as f64 / txns,
        Some(w.core.txns),
    );
    kinds.report(&mut m);
    resident_metrics(&mut m, serve.resident());
    m.layer(
        "database.abort_us",
        us(median_u64(&w.abort_ns)),
        Some(w.abort_ns.len() as u64),
    );
    m.layer(
        "shard.route_ns_per_txn",
        w.route_ns as f64 / txns,
        Some(w.core.txns),
    );
    m.layer(
        "shard.cross_shard_ratio",
        w.stats.cross_shard_txns as f64 / txns,
        None,
    );
    let mean = w.per_shard.iter().sum::<u64>() as f64 / SHARDS as f64;
    m.layer(
        "shard.skew",
        *w.per_shard.iter().max().expect("shards") as f64 / mean,
        None,
    );
    m.layer(
        "sched.waves_per_round",
        w.stats.waves as f64 / w.rounds as f64,
        Some(w.rounds),
    );
    m.layer(
        "sched.deferrals_per_txn",
        w.stats.conflict_deferrals as f64 / txns,
        None,
    );
    m.layer(
        "sched.concurrent_ratio",
        w.stats.admitted_concurrent as f64 / txns,
        None,
    );
    m.layer("sched.max_wave_width", w.stats.max_wave_width as f64, None);
    m.layer(
        "sched.dispatch_to_commit_p50_us",
        us(median_u64(&w.dispatch_to_commit_ns)),
        Some(w.core.txns),
    );
    // Round wall / 64 - route - sum of shard phases / 64. The phase totals
    // cover warm-up rounds too, so they are scaled to the timed share.
    let timed_share = w.rounds as f64 / prefix_rounds as f64;
    let phase_ns = phases.sum_ns() as f64 * timed_share;
    m.layer(
        "sched.overhead_us_per_txn",
        us((w.run_ns as f64 - w.route_ns as f64 - phase_ns) / txns),
        None,
    );
    notes.push(format!(
        "round wall {:.1}us/txn = route {:.2} + shard phases {:.1} + scheduler {:.1}",
        us(w.run_ns as f64 / txns),
        us(w.route_ns as f64 / txns),
        us(phase_ns / txns),
        us((w.run_ns as f64 - w.route_ns as f64 - phase_ns) / txns),
    ));
    m.layer("harness.gen_s", secs(w.core.gen), None);
    m.layer(
        "harness.prefix_txn_per_s",
        untraced.core.txn_per_s(),
        Some(untraced.core.txns),
    );
    m.layer(
        "harness.trace_overhead",
        1.0 - w.core.txn_per_s() / untraced.core.txn_per_s(),
        None,
    );

    if durable {
        m.layer(
            "wal.log_bytes_per_txn",
            w.log_bytes as f64 / prefix_txns as f64,
            None,
        );
        m.layer(
            "wal.amplification",
            w.log_bytes as f64 / w.encoded_bytes as f64,
            None,
        );
        m.layer(
            "durability.ckpt_ms",
            median_u64(&w.ckpt_ns) / 1e6,
            Some(w.ckpt_ns.len() as u64),
        );
        m.layer(
            "durability.ckpt_bytes",
            serve.checkpoint_bytes() as f64,
            None,
        );
        m.layer(
            "durability.ckpt_stall_share",
            w.ckpt_ns.iter().sum::<u64>() as f64 / w.core.wall.as_nanos() as f64,
            None,
        );
        let rec = crash_and_recover(
            serve,
            cfg.repeats,
            &scratch,
            Some(&mut tracer),
            &mut failures,
        );
        let recovery_s = median(&rec.seconds);
        m.layer(
            "durability.recovery_s",
            recovery_s,
            Some(cfg.repeats as u64),
        );
        m.layer("durability.replayed_txns", rec.replayed_txns as f64, None);
        m.layer(
            "durability.replay_txn_per_s",
            rec.replayed_txns as f64 / recovery_s,
            None,
        );
        m.layer(
            "durability.tax",
            untraced.core.txn_per_s() / reference_w.core.txn_per_s(),
            None,
        );
        let sample = new_source().take(prefix_txns.min(probes::SAMPLE));
        probes::wal(&mut m, &mut tracer, &sample, &scratch.path("probe.log"));
    } else {
        m.layer(
            "sched.shard_speedup",
            untraced.core.txn_per_s() / reference_w.core.txn_per_s(),
            None,
        );
    }
    write_trace(cfg, &tracer, &mut m, &mut notes);
    tally.finish(m, failures, notes)
}

// ------------------------------------------------------------- view search

/// What the search must return on the frozen scenario: the chosen view set
/// (memo group numbers) and the bits of its weighted cost.
const GOLDEN_VIEW_SET: &[u32] = &[7, 8, 12];
/// 412.1333333333333 estimated page I/Os per transaction.
const GOLDEN_COST_BITS: u64 = 0x4079_c222_2222_2222;
pub const GOLDEN_CANDIDATES: usize = 28;
pub const GOLDEN_SETS: u64 = 407;

fn check_search(i: usize, out: &SearchOutcome, tally: &mut Tally) {
    tally.attempted += 1;
    if out.view_set != GOLDEN_VIEW_SET
        || out.weighted_cost.to_bits() != GOLDEN_COST_BITS
        || out.sets_considered != GOLDEN_SETS
    {
        tally.fail(format!(
                "search {i} chose {:?} at cost {} (bits {:#x}) over {} sets; golden is {:?} at {} over {}",
                out.view_set,
                out.weighted_cost,
                out.weighted_cost.to_bits(),
                out.sets_considered,
                GOLDEN_VIEW_SET,
                f64::from_bits(GOLDEN_COST_BITS),
                GOLDEN_SETS
        ));
    }
}

fn run_search(cfg: &RunCfg) -> RunResult {
    let (setup_s, setups, space) = timed_setups(cfg.repeats, |_| Declared::new().explore());
    let mut tally = Tally::default();
    let mut failures = Vec::new();
    let mut notes = Vec::new();
    let setup_peak = setup_done(&mut notes);
    if space.candidate_groups() != GOLDEN_CANDIDATES {
        failures.push(format!(
            "{} candidate groups, the frozen scenario has {GOLDEN_CANDIDATES}",
            space.candidate_groups()
        ));
    }
    check_search(0, &space.search(false), &mut tally); // warm-up
    let n = cfg.count(SEARCHES_PER_S, 1);
    let mut times_ns = Vec::with_capacity(n);
    let mut cost = 0.0;
    let w0 = Instant::now();
    for i in 0..n {
        let t0 = Instant::now();
        let out = space.search(false);
        times_ns.push(t0.elapsed().as_nanos() as u64);
        cost = out.weighted_cost;
        check_search(i + 1, &out, &mut tally);
    }
    let wall = w0.elapsed();
    let peak = peak_rss_mib();
    let mut m = Metrics::default();
    m.e2e("setup_s", setup_s, Some(setups));
    m.layer("harness.setup_peak_rss_mb", setup_peak, None);
    m.e2e("search_s", median_u64(&times_ns) / 1e9, Some(n as u64));
    // The contract wants every workload to report the universal metrics:
    // here a "transaction" is one search, its latency the search time, the
    // tail the slowest search of the run, and its I/O the estimated pages
    // per transaction of the chosen view set — the paper's currency.
    m.e2e("txn_per_s", n as f64 / secs(wall), Some(n as u64));
    m.e2e("io_per_txn", cost, None);
    m.layer("optimizer.best_weighted_cost", cost, None);
    m.e2e("lat_p50_us", us(median_u64(&times_ns)), Some(n as u64));
    let slowest = *times_ns.iter().max().expect("n >= 1");
    m.e2e("lat_p99_us", us(slowest as f64), Some(n as u64));
    m.e2e("peak_rss_mb", peak, None);
    notes.push(format!(
        "{} candidate groups, {} transaction types, 1 warm-up + {n} timed searches",
        space.candidate_groups(),
        space.transaction_types()
    ));
    tally.finish(m, failures, notes)
}

fn trace_search(cfg: &RunCfg) -> RunResult {
    let mut tracer = Tracer::new();
    let mut m = Metrics::default();
    let mut notes = Vec::new();
    let mut tally = Tally::default();
    let root = tracer.begin("setup", NO_PARENT, 0);
    let s = tracer.begin("memo.declare", root, 0);
    let declared = Declared::new();
    tracer.end(s);
    let s = tracer.begin("memo.explore", root, 0);
    let space = declared.explore();
    let explore_ns = tracer.end(s);
    tracer.end(root);
    m.layer("memo.explore_ms", explore_ns as f64 / 1e6, None);
    m.layer("harness.setup_peak_rss_mb", setup_done(&mut notes), None);
    check_search(0, &space.search(false), &mut tally); // warm-up

    // A quarter of the searches, but at least five per lane: the median of
    // three is too loose to hold a ratio to a few percent.
    let n = ((cfg.count(SEARCHES_PER_S, 1) as f64 * TRACED_SHARE) as usize).max(cfg.repeats);
    // Untraced, traced and serial searches take turns, like the lanes of
    // the other workloads, so their ratios see the same host.
    const LANES: [(Option<&str>, bool); 3] = [
        (None, false),
        (Some("optimizer.search"), false),
        (Some("optimizer.search_serial"), true),
    ];
    let mut times: [Vec<u64>; 3] = Default::default();
    let mut last = None;
    for i in 0..n {
        for k in 0..LANES.len() {
            let lane = (i + k) % LANES.len();
            let (span_name, serial) = LANES[lane];
            let span = span_name.map(|name| tracer.begin(name, NO_PARENT, i as u64));
            let t0 = Instant::now();
            let out = space.search(serial);
            times[lane].push(t0.elapsed().as_nanos() as u64);
            if let Some(span) = span {
                tracer.end(span);
            }
            check_search(i + 1, &out, &mut tally);
            last = Some(out);
        }
    }
    let out = last.expect("n >= 1");
    let [untraced_s, search_s, serial_s] = times.map(|t| median_u64(&t) / 1e9);
    m.layer("optimizer.search_s", search_s, Some(n as u64));
    m.layer("optimizer.serial_search_s", serial_s, Some(n as u64));
    m.layer("optimizer.parallel_speedup", serial_s / search_s, None);
    m.layer(
        "optimizer.sets_considered",
        out.sets_considered as f64,
        None,
    );
    m.layer("optimizer.sets_pruned", out.sets_pruned as f64, None);
    m.layer(
        "optimizer.tracks_truncated",
        out.tracks_truncated as f64,
        None,
    );
    let lookups = out.query_cache_hits + out.query_cache_misses;
    m.layer(
        "optimizer.query_cache_hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            out.query_cache_hits as f64 / lookups as f64
        },
        Some(lookups),
    );
    m.layer("optimizer.best_weighted_cost", out.weighted_cost, None);
    m.layer("harness.prefix_txn_per_s", 1.0 / untraced_s, Some(n as u64));
    m.layer("harness.trace_overhead", 1.0 - untraced_s / search_s, None);
    write_trace(cfg, &tracer, &mut m, &mut notes);
    tally.finish(m, Vec::new(), notes)
}

// ----------------------------------------------------------------- entries

/// The untraced pass: the end-to-end metrics.
pub fn run(cfg: &RunCfg) -> RunResult {
    match cfg.workload {
        Workload::PointEngine | Workload::BulkEngine => run_engine(cfg),
        Workload::ServeMem | Workload::ServeDurable => run_serve(cfg),
        Workload::ViewSearch => run_search(cfg),
    }
}

/// The traced pass: the per-layer metrics, on the first 25% of the stream.
pub fn trace(cfg: &RunCfg) -> RunResult {
    match cfg.workload {
        Workload::PointEngine | Workload::BulkEngine => trace_engine(cfg),
        Workload::ServeMem | Workload::ServeDurable => trace_serve(cfg),
        Workload::ViewSearch => trace_search(cfg),
    }
}
