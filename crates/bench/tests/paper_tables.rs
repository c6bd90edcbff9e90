//! The `paper_tables` report is pinned byte for byte to the committed
//! `results/paper_tables.txt`: every §3.6 table (T3 with every track of
//! every view set), the headline, and the §3/§5 experiments. A change
//! that moves any figure or drops any row must regenerate the file on
//! purpose (`cargo run --release -p spacetime-bench --bin paper_tables >
//! results/paper_tables.txt`).

use spacetime_bench::tables::paper_tables_report;

#[test]
fn paper_tables_match_the_committed_report() {
    let (report, mismatches) = paper_tables_report(None).expect("every section");
    assert_eq!(mismatches, 0, "sections deviate from the paper");
    let pinned = include_str!("../../../results/paper_tables.txt");
    if report != pinned {
        for (i, (got, want)) in report.lines().zip(pinned.lines()).enumerate() {
            assert_eq!(got, want, "first difference at line {}", i + 1);
        }
        assert_eq!(
            report.len(),
            pinned.len(),
            "one report is a prefix of the other"
        );
    }
}
