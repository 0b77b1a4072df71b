//! The scenario search over real clusters, held to its known-stuck list.
//!
//! Every valid line of up to two steps over `{J, e1, d2, L1…L(P−1)}` at
//! P ∈ {3, 4} and D ∈ {0, 2, 3} — 189 rows, 12 663 runs — replayed on real
//! clusters.  The rows with a failing seed must be exactly `KNOWN_STUCK`,
//! counts included: a row that starts failing, stops failing or changes
//! its count fails this test, and the first failing line of every row is
//! printed for replaying (`cargo test -p skueue-model -- --nocapture`).

use skueue_model::{search, table, KNOWN_STUCK};

#[test]
fn the_search_table_is_the_known_stuck_list() {
    let rows = search();
    assert_eq!(rows.len(), 189, "rows enumerated");
    for row in &rows {
        if let Some((line, error)) = &row.first_failure {
            println!(
                "{:<16} {:>3} of {}, first `{line}`: {error}",
                row.label, row.failing, row.seeds
            );
        }
    }
    let expected: Vec<(String, u64)> = KNOWN_STUCK
        .iter()
        .map(|&(label, failing)| (label.to_string(), failing))
        .collect();
    assert_eq!(table(&rows), expected, "the failing rows moved");
}
