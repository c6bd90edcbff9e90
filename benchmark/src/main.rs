//! The repository's benchmark. See `README.md` beside this package.
//!
//! ```text
//! spacetime-benchmark [--seed N] [--seconds S]      every workload untraced, then traced
//! spacetime-benchmark --workload W --seed N --seconds S --trace 0|1
//!                                                   one workload, one pass; last line is JSON
//! spacetime-benchmark --repeat [N]                  N untraced sets (default 5), spreads checked
//! spacetime-benchmark --compare A.json B.json       base against new, metric by metric
//! spacetime-benchmark --smoke                       every workload at 1/50 length
//! spacetime-benchmark --list                        workload and metric definitions
//! ```

mod gen;
mod json;
mod metrics;
mod probes;
mod rng;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use metrics::{Better, EndToEnd, END_TO_END, EXACT_PER_LAYER, PER_LAYER};
use workloads::{RunCfg, RunResult, Workload};

const DEFAULT_SEED: u64 = 9406;
const DEFAULT_SECONDS: f64 = 15.0;
/// Sets `--repeat` runs by default. The quartiles of three are its extremes
/// (one slow run decides the spread); the driver takes ten.
const DEFAULT_REPEAT: usize = 5;
const SMOKE_DIVISOR: f64 = 50.0;

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn results_dir() -> PathBuf {
    bench_dir().join("results")
}

fn scratch_dir() -> PathBuf {
    bench_dir().join("scratch")
}

enum Mode {
    /// Every workload untraced, then traced.
    All,
    /// One workload, one pass (the driver's contract).
    One {
        workload: Workload,
        traced: bool,
    },
    Repeat(usize),
    Compare(PathBuf, PathBuf),
    /// Print the workload and metric definitions.
    List,
}

struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
    smoke: bool,
    /// Set up and recover once instead of five times (what `--smoke`
    /// passes its child processes, with the seconds already divided).
    single_repeat: bool,
    /// One-pass mode only: print every measured metric, not just the
    /// contract's (how the other modes read their child processes).
    all_metrics: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: spacetime-benchmark [--seed N] [--seconds S] [--smoke]\n\
         \x20      spacetime-benchmark --workload <{}> --seed N --seconds S --trace <0|1>\n\
         \x20      spacetime-benchmark --repeat [N] [--seed N] [--seconds S]\n\
         \x20      spacetime-benchmark --compare BASE.json NEW.json\n\
         \x20      spacetime-benchmark --list",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1).peekable();
    let mut args = Args {
        mode: Mode::All,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        smoke: false,
        single_repeat: false,
        all_metrics: false,
    };
    let mut workload = None;
    let mut traced = None;
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{a} needs {what}"));
        match a.as_str() {
            "--workload" => {
                let v = value("a workload name")?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => {
                let v = value("a number")?;
                args.seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                args.seconds = v.parse().map_err(|_| format!("bad seconds {v}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(format!("--seconds {v} is outside 0..=60"));
                }
            }
            "--trace" => {
                traced = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                });
            }
            "--repeat" => {
                let n = match it.peek().and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) => {
                        it.next();
                        n
                    }
                    None => DEFAULT_REPEAT,
                };
                if n < 2 {
                    return Err("--repeat needs at least 2 sets".into());
                }
                args.mode = Mode::Repeat(n);
            }
            "--compare" => {
                let a = PathBuf::from(value("two files")?);
                let b = PathBuf::from(it.next().ok_or("--compare needs two files")?);
                args.mode = Mode::Compare(a, b);
            }
            "--list" => args.mode = Mode::List,
            "--smoke" => args.smoke = true,
            "--single-repeat" => args.single_repeat = true,
            "--all-metrics" => args.all_metrics = true,
            "-h" | "--help" => return Err(usage()),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    match (workload, traced) {
        (Some(workload), traced) => {
            args.mode = Mode::One {
                workload,
                traced: traced.unwrap_or(false),
            }
        }
        (None, Some(_)) => return Err("--trace needs --workload".into()),
        (None, None) => {}
    }
    if args.smoke {
        args.seconds /= SMOKE_DIVISOR;
        args.single_repeat = true;
    }
    Ok(args)
}

// ------------------------------------------------------------------- host

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// The filesystem type under `dir`: the longest mount point that prefixes it.
fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, at, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(at).then(|| (at.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
        .unwrap_or_else(|| "unknown".into())
}

fn host_json() -> Json {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    Json::obj(vec![
        ("nproc", Json::Num(nproc as f64)),
        (
            "kernel",
            Json::str(read_trimmed("/proc/sys/kernel/osrelease")),
        ),
        ("scratch_fs", Json::str(filesystem_of(&bench_dir()))),
    ])
}

// ------------------------------------------------------------ one workload

fn metric_json(value: f64, unit: &str, samples: Option<u64>) -> Json {
    let mut pairs = vec![("value", Json::Num(value)), ("unit", Json::str(unit))];
    if let Some(n) = samples {
        pairs.push(("samples", Json::Num(n as f64)));
    }
    Json::obj(pairs)
}

/// The result line: with `all`, everything measured; otherwise exactly the
/// metrics `BENCHMARK.json` lists for this pass. A per-layer metric this
/// workload never enters reads 0 there (README, "Zeros").
fn result_json(res: &RunResult, traced: bool, all: bool) -> Json {
    let mut metrics: Vec<(String, Json)> = Vec::new();
    if all {
        for m in &res.metrics.0 {
            metrics.push((m.name.clone(), metric_json(m.value, m.unit, m.samples)));
        }
    } else if traced {
        for def in &PER_LAYER {
            let v = res.metrics.get(def.name).unwrap_or(0.0);
            metrics.push((def.name.to_string(), metric_json(v, def.unit, None)));
        }
    } else {
        for def in END_TO_END.iter().filter(|d| d.universal) {
            let v = res
                .metrics
                .get(def.name)
                .unwrap_or_else(|| panic!("every workload reports {}", def.name));
            metrics.push((def.name.to_string(), metric_json(v, def.unit, None)));
        }
    }
    let mut pairs = vec![
        ("correct", Json::Bool(res.correct())),
        ("attempted", Json::Num(res.attempted as f64)),
        ("failed", Json::Num(res.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ];
    if all {
        let list = |v: &[String]| Json::Arr(v.iter().map(Json::str).collect());
        pairs.push(("failures", list(&res.oracle_failures)));
        pairs.push(("notes", list(&res.notes)));
    }
    Json::obj(pairs)
}

fn run_one(args: &Args, workload: Workload, traced: bool) -> ExitCode {
    let cfg = RunCfg {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        scratch: scratch_dir(),
        results: results_dir(),
        repeats: if args.single_repeat {
            1
        } else {
            workloads::REPEATS
        },
    };
    let res = if traced {
        workloads::trace(&cfg)
    } else {
        workloads::run(&cfg)
    };
    let everything = result_json(&res, traced, true);
    if args.all_metrics {
        println!("{everything}");
    } else {
        println!("# seed {} seconds {}", args.seed, args.seconds);
        println!("# {}", sut::CONFIG);
        print_result(workload, traced, &everything);
        println!("{}", result_json(&res, traced, false));
    }
    if res.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn metric_line(name: &str, unit: &str, value: f64, samples: Option<u64>) -> String {
    match samples {
        Some(n) => format!("{name} {unit} {value} n={n}"),
        None => format!("{name} {unit} {value}"),
    }
}

// -------------------------------------------------------- child processes

/// Run one pass of one workload in a fresh child process (so `peak_rss_mb`
/// is that workload's alone) and read back its result line.
fn child(args: &Args, workload: Workload, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--all-metrics")
        .args(args.single_repeat.then_some("--single-repeat"))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    Json::parse(last).map_err(|e| {
        format!(
            "{} ({}) printed no result: {e}",
            workload.name(),
            out.status
        )
    })
}

fn is_correct(result: &Json) -> bool {
    result.get("correct").and_then(Json::as_bool) == Some(true)
}

fn print_result(workload: Workload, traced: bool, result: &Json) {
    println!(
        "\n## {} ({})",
        workload.name(),
        if traced {
            "traced pass, first 25%"
        } else {
            "untraced pass"
        }
    );
    for n in result.get("notes").and_then(Json::as_arr).unwrap_or(&[]) {
        println!("# {}", n.as_str().unwrap_or(""));
    }
    for (name, m) in result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        let samples = m.get("samples").and_then(Json::as_f64).map(|n| n as u64);
        println!("{}", metric_line(name, unit, value, samples));
    }
    let attempted = result
        .get("attempted")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let failed = result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
    println!(
        "fail_ratio ratio {} n={attempted}",
        failed / attempted.max(1.0)
    );
    for f in result.get("failures").and_then(Json::as_arr).unwrap_or(&[]) {
        println!("FAILED {}", f.as_str().unwrap_or(""));
    }
}

/// One pass of each workload in `order`, each in a child process; prints
/// the results as they arrive and returns them by workload name.
fn pass(args: &Args, order: &[Workload], traced: bool, ok: &mut bool) -> Vec<(String, Json)> {
    let mut by_workload = Vec::new();
    for &w in order {
        match child(args, w, traced) {
            Ok(result) => {
                *ok &= is_correct(&result);
                print_result(w, traced, &result);
                by_workload.push((w.name().to_string(), result));
            }
            Err(e) => {
                *ok = false;
                eprintln!("FAILED {e}");
            }
        }
    }
    by_workload
}

/// One untraced set in the given order.
fn untraced_set(args: &Args, order: &[Workload], ok: &mut bool) -> Json {
    let mut by_workload = pass(args, order, false, ok);
    // Stored in the canonical order whatever order they ran in.
    by_workload.sort_by_key(|(n, _)| Workload::ALL.iter().position(|w| w.name() == n));
    Json::obj(vec![
        (
            "order",
            Json::Arr(order.iter().map(|w| Json::str(w.name())).collect()),
        ),
        ("workloads", Json::Obj(by_workload)),
    ])
}

fn document(args: &Args, sets: Vec<Json>, traced: Option<Json>) -> Json {
    let mut pairs = vec![
        ("benchmark", Json::str("spacetime-benchmark")),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("config", Json::str(sut::CONFIG)),
        ("host", host_json()),
        ("sets", Json::Arr(sets)),
    ];
    if let Some(t) = traced {
        pairs.push(("traced", t));
    }
    Json::obj(pairs)
}

fn save(doc: &Json, name: &str) {
    let path = results_dir().join(name);
    let written = std::fs::create_dir_all(results_dir())
        .and_then(|_| std::fs::write(&path, format!("{doc}\n")));
    match written {
        Ok(()) => println!("\nresults written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn print_header(args: &Args) {
    println!(
        "# spacetime-benchmark seed {} seconds {}",
        args.seed, args.seconds
    );
    println!("# {}", sut::CONFIG);
    println!("# host {}", host_json());
}

fn run_all(args: &Args) -> ExitCode {
    print_header(args);
    let mut ok = true;
    let set = untraced_set(args, &Workload::ALL, &mut ok);
    let traced = pass(args, &Workload::ALL, true, &mut ok);
    let doc = document(args, vec![set], Some(Json::Obj(traced)));
    save(
        &doc,
        &format!(
            "{}-{}.json",
            if args.smoke { "smoke" } else { "run" },
            args.seed
        ),
    );
    println!("{doc}");
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: at least one workload was incorrect");
        ExitCode::FAILURE
    }
}

// ----------------------------------------------------- repeat and compare

/// `read(sets[*].workloads[workload])`, one per set that has it.
fn per_set(doc: &Json, workload: &str, read: impl Fn(&Json) -> Option<f64>) -> Vec<f64> {
    doc.get("sets")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|s| read(s.get("workloads")?.get(workload)?))
        .collect()
}

fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    per_set(doc, workload, |w| {
        w.get("metrics")?.get(metric)?.get("value")?.as_f64()
    })
}

fn fail_ratios(doc: &Json, workload: &str) -> Vec<f64> {
    per_set(doc, workload, |w| {
        let failed = w.get("failed")?.as_f64()?;
        let attempted = w.get("attempted")?.as_f64()?;
        let incorrect = w.get("correct")?.as_bool() != Some(true);
        // An oracle mismatch with no failed transaction still counts.
        Some((failed.max(incorrect as u8 as f64)) / attempted.max(1.0))
    })
}

fn metric_values(doc: &Json, workload: &str, def: &EndToEnd) -> Vec<f64> {
    if def.name == "fail_ratio" {
        fail_ratios(doc, workload)
    } else {
        values(doc, workload, def.name)
    }
}

fn run_repeat(args: &Args, n: usize) -> ExitCode {
    print_header(args);
    let mut ok = true;
    let mut sets = Vec::new();
    for i in 0..n {
        println!("\n# set {} of {n}", i + 1);
        let mut order = Workload::ALL.to_vec();
        if i % 2 == 1 {
            order.reverse();
        }
        sets.push(untraced_set(args, &order, &mut ok));
    }
    let doc = document(args, sets, None);
    save(&doc, &format!("repeat-{}.json", args.seed));

    println!("\n## {n} sets: median [q1 .. q3], spread = (q3 - q1) / median, against the bound");
    for w in Workload::ALL {
        println!("\n{}", w.name());
        for def in &END_TO_END {
            let v = metric_values(&doc, w.name(), def);
            if v.len() < n {
                continue; // the metric does not apply to this workload
            }
            let (q1, q3) = stats::quartiles(&v);
            let spread = stats::spread(&v);
            let exact = def.exact;
            let verdict = if exact {
                if v.iter().all(|x| x.to_bits() == v[0].to_bits()) {
                    "identical"
                } else {
                    ok = false;
                    "DIFFERS (must repeat bit for bit)"
                }
            } else if spread <= def.bound {
                "inside"
            } else if def.name == "setup_s" {
                // As the driver does: a set-up is a second of work, so one
                // slow episode of the host covers all five of a run.
                "outside (reported, not asserted)"
            } else {
                ok = false;
                "OUTSIDE: lengthen the window or add sets, do not raise the bound"
            };
            println!(
                "  {:<18} {:>6} {:>14.4} [{:.4} .. {:.4}]  spread {:>6.2}%  bound {:>4.1}%  {verdict}",
                def.name,
                def.unit,
                stats::median(&v),
                q1,
                q3,
                spread * 100.0,
                def.bound * 100.0
            );
        }
        for name in EXACT_PER_LAYER {
            let v = values(&doc, w.name(), name);
            if v.is_empty() {
                continue;
            }
            let same = v.iter().all(|x| x.to_bits() == v[0].to_bits());
            ok &= same;
            println!(
                "  {name:<32} {}  {}",
                v[0],
                if same {
                    "identical"
                } else {
                    "DIFFERS (must repeat bit for bit)"
                }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "FAILED: a run was incorrect, an exact metric moved, or a spread is outside its bound"
        );
        ExitCode::FAILURE
    }
}

#[derive(PartialEq, Debug)]
enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// Compare medians. `change` is signed so that positive is worse.
fn verdict(def: &EndToEnd, base: &[f64], new: &[f64]) -> (f64, f64, f64, Verdict) {
    let (b, n) = (stats::median(base), stats::median(new));
    let change = match def.better {
        Better::Lower => (n - b) / b.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (b - n) / b.abs().max(f64::MIN_POSITIVE),
    };
    let change = if b == n { 0.0 } else { change };
    let spread = stats::spread(base).max(stats::spread(new));
    let bound = if def.exact { 0.0 } else { def.bound };
    let v = if !def.exact && spread > bound {
        Verdict::Unresolved
    } else if change > bound {
        Verdict::Worse
    } else if change < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (b, n, spread, v)
}

fn run_compare(a: &Path, b: &Path) -> ExitCode {
    let load = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (base, new) = match (load(a), load(b)) {
        (Ok(x), Ok(y)) => (x, y),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!("# base {}  new {}", a.display(), b.display());
    let mut worse = 0;
    for w in Workload::ALL {
        println!("\n{}", w.name());
        println!(
            "  {:<18} {:>6} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
            "metric", "unit", "base", "new", "new/base", "bound", "spread"
        );
        for def in &END_TO_END {
            let (vb, vn) = (
                metric_values(&base, w.name(), def),
                metric_values(&new, w.name(), def),
            );
            if vb.is_empty() || vn.is_empty() {
                continue;
            }
            let (mb, mn, spread, v) = verdict(def, &vb, &vn);
            worse += (v == Verdict::Worse) as u32;
            let ratio = if mb == 0.0 {
                "-".to_string()
            } else {
                format!("{:.4}", mn / mb)
            };
            println!(
                "  {:<18} {:>6} {:>14.4} {:>14.4} {:>8} {:>6.1}% {:>6.2}%  {}",
                def.name,
                def.unit,
                mb,
                mn,
                ratio,
                def.bound * 100.0,
                spread * 100.0,
                format!("{v:?}").to_lowercase()
            );
        }
    }
    if worse > 0 {
        eprintln!("FAILED: {worse} metric(s) worse than the base by more than the bound");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Every workload and metric name with its unit, direction and bound, and
/// for the per-layer ones what each should move (`--list`).
fn definitions() -> Json {
    let workloads = Workload::ALL
        .iter()
        .map(|w| {
            Json::obj(vec![
                ("name", Json::str(w.name())),
                ("why", Json::str(w.why())),
            ])
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj(vec![
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
                ("bound", Json::Num(m.bound)),
                ("exact", Json::Bool(m.exact)),
                ("every_workload", Json::Bool(m.universal)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj(vec![
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
                ("moves", Json::str(m.moves)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match &args.mode {
        Mode::One { workload, traced } => run_one(&args, *workload, *traced),
        Mode::All => run_all(&args),
        Mode::Repeat(n) => run_repeat(&args, *n),
        Mode::Compare(a, b) => run_compare(a, b),
        Mode::List => {
            println!("{}", definitions());
            ExitCode::SUCCESS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static EndToEnd {
        metrics::end_to_end(name).unwrap()
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let tps = def("txn_per_s"); // higher is better, 25%
        assert_eq!(verdict(tps, &[100.0], &[90.0]).3, Verdict::Same);
        assert_eq!(verdict(tps, &[100.0], &[70.0]).3, Verdict::Worse);
        assert_eq!(verdict(tps, &[100.0], &[130.0]).3, Verdict::Better);
        let noisy = [70.0, 100.0, 110.0, 140.0];
        assert_eq!(verdict(tps, &noisy, &[60.0]).3, Verdict::Unresolved);
        let lat = def("lat_p50_us"); // lower is better, 25%
        assert_eq!(verdict(lat, &[50.0], &[65.0]).3, Verdict::Worse);
        assert_eq!(verdict(lat, &[50.0], &[35.0]).3, Verdict::Better);
        let io = def("io_per_txn"); // exact
        assert_eq!(verdict(io, &[7.5], &[7.5]).3, Verdict::Same);
        assert_eq!(verdict(io, &[7.5], &[7.5000001]).3, Verdict::Worse);
        let fails = def("fail_ratio");
        assert_eq!(verdict(fails, &[0.0], &[0.0]).3, Verdict::Same);
        assert_eq!(verdict(fails, &[0.0], &[0.001]).3, Verdict::Worse);
    }
}
