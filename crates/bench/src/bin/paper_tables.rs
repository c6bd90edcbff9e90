//! Regenerate every cost table of the paper's evaluation (§3.6), the
//! headline claim, and the §3/§5 shape experiments.
//!
//! ```text
//! cargo run -p spacetime-bench --release --bin paper_tables [--table t1|t2|t3|t4|h1|espj|eheur|f3|f5]
//! ```

use std::io::Write as _;

use spacetime_bench::tables::paper_tables_report;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let which = args
        .iter()
        .position(|a| a == "--table")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.to_ascii_lowercase());

    let Some((report, mismatches)) = paper_tables_report(which.as_deref()) else {
        eprintln!("unknown table `{}`", which.unwrap_or_default());
        std::process::exit(2);
    };
    std::io::stdout()
        .lock()
        .write_all(report.as_bytes())
        .expect("stdout");
    if mismatches > 0 {
        eprintln!("{mismatches} section(s) deviate from the paper");
        std::process::exit(1);
    }
}
