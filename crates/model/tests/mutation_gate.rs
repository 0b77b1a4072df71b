//! Mutation gate: the scenario search has teeth on the real node.
//!
//! Built only with `--features skueue-core/model-mutation` (the target's
//! `required-features`), which removes the staleness guard from
//! `handle_update_over`: a delayed end-of-phase message from an older update
//! phase can then cancel a younger phase's bookkeeping.  The same search
//! must find it, as a row that fails more seeds than `KNOWN_STUCK` records
//! for it; the test prints each such row and its first failing line.

use skueue_model::{search, Row, KNOWN_STUCK};

#[test]
fn the_search_finds_the_stale_update_over_race() {
    let pinned = |label: &str| {
        KNOWN_STUCK
            .iter()
            .find(|&&(known, _)| known == label)
            .map_or(0, |&(_, failing)| failing)
    };
    let rows = search();
    let worse: Vec<&Row> = rows
        .iter()
        .filter(|row| row.failing > pinned(&row.label))
        .collect();
    for row in &worse {
        let (line, error) = row
            .first_failure
            .as_ref()
            .expect("a failing row has a line");
        println!(
            "{:<16} {:>3} → {:>3} of {}, first `{line}`: {error}",
            row.label,
            pinned(&row.label),
            row.failing,
            row.seeds
        );
    }
    assert!(
        !worse.is_empty(),
        "without the staleness guard no row fails more seeds than its known-stuck count"
    );
}
