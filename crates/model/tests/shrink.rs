//! The shrinker on a real repro: `J L3` at P = 4 under synchronous delivery
//! (seed 0) leaves the leaver stuck for ever.  Padded with requests and
//! round advances before and after the pair, the line still fails, and
//! ddmin takes it back to exactly the pair — the same way every time — while
//! either step alone replays clean.

use skueue_model::{replay_on_cluster, shrink};
use skueue_sim::replay::ReplayScenario;

const PADDED: &str = "P4 S0 D0 | e1 d2 r5 e3 J L3 r7 e2 d1 r3 d3";

fn fails(scenario: &ReplayScenario) -> bool {
    replay_on_cluster(scenario).is_err()
}

#[test]
fn a_padded_join_then_leave_shrinks_to_the_pair() {
    let padded = ReplayScenario::from_compact(PADDED).unwrap();
    assert!(fails(&padded), "`{PADDED}` must fail before shrinking");

    let minimal = shrink(&padded, fails);
    assert_eq!(minimal.to_compact(), "P4 S0 D0 | J L3");
    assert_eq!(
        shrink(&padded, fails),
        minimal,
        "shrinking is deterministic"
    );

    for alone in ["P4 S0 D0 | J", "P4 S0 D0 | L3"] {
        let line = ReplayScenario::from_compact(alone).unwrap();
        assert!(!fails(&line), "`{alone}` must replay clean");
    }
}
