//! Two load runs on one ingress client: each report counts what its own run
//! issued.
//!
//! `LoadReport::completed` counts the client's completions since the run
//! began, but `issued` used to be the client's lifetime count, so the second
//! `run_load` on one `IngressClient` reported twice the operations it issued
//! — and `issued == completed` no longer held for a run that drained.

use std::net::TcpListener;
use std::time::Duration;

use skueue::net::daemon;
use skueue::net::{run_load, ClusterSpec, CtlClient, IngressClient, LoadParams};
use skueue::prelude::ProtocolConfig;

#[test]
fn a_second_load_on_one_client_reports_only_its_own_operations() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let spec = ClusterSpec {
        daemons: vec![listener.local_addr().expect("local addr").to_string()],
        initial: 3,
        shards: 1,
        hash_seed: ProtocolConfig::queue().hash_seed,
        tick_ms: 1,
    };
    let daemon = daemon::spawn::<u64>(spec.clone(), 0, listener);
    let mut client = IngressClient::<u64>::connect(&spec).expect("connect");

    for (run, seed) in [(1, 7), (2, 8)] {
        let mut params = LoadParams::new(2000.0, 20, spec.initial, seed);
        params.drain_timeout = Duration::from_secs(60);
        let report = run_load(&mut client, &params).expect("load run");
        assert!(report.drained, "run {run} did not drain: {report:?}");
        assert!(report.consistent, "run {run} inconsistent: {report:?}");
        assert_eq!(
            (report.issued, report.completed),
            (params.ops, params.ops),
            "run {run} reports other runs' operations: {report:?}"
        );
    }
    assert_eq!(client.issued(), 40, "the client's lifetime count");

    let mut ctl = CtlClient::<u64>::connect(&spec).expect("ctl connect");
    ctl.shutdown().expect("shutdown");
    daemon.join().expect("daemon exits cleanly");
    client.close();
}
