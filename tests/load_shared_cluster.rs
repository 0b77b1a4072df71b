//! Two clients on one cluster: a subscription streams every completion of a
//! daemon, whoever issued the operation, so a load generator's completion
//! stream also carries what a second `skueue-ingress`/`skueue-load` issued.
//!
//! `run_load` used to pair records and latencies by position, and only the
//! client's own operations have a latency: one foreign completion shifted
//! every later pairing, and the percentiles were taken over whatever pairs
//! happened to line up — over none at all when the foreign completions came
//! first.

use std::net::TcpListener;
use std::time::Duration;

use skueue::net::daemon;
use skueue::net::{run_load, ClusterSpec, CtlClient, IngressClient, LoadParams};
use skueue::prelude::{ProcessId, ProtocolConfig};

#[test]
fn another_clients_completions_do_not_shift_the_load_latencies() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let spec = ClusterSpec {
        daemons: vec![listener.local_addr().expect("local addr").to_string()],
        initial: 3,
        shards: 1,
        hash_seed: ProtocolConfig::queue().hash_seed,
        tick_ms: 1,
    };
    let daemon = daemon::spawn::<u64>(spec.clone(), 0, listener);
    // Both subscribe before any traffic, so either sees the whole history.
    // The other client connects (and issues) first: a client numbers its
    // requests from its connect time, and the checker holds a process to
    // that order.
    let mut other = IngressClient::<u64>::connect(&spec).expect("other connect");
    let mut load = IngressClient::<u64>::connect(&spec).expect("load connect");

    // The other client's operations complete before the load starts, and the
    // load's client has not looked at its stream yet: they are the first
    // thing it absorbs once it runs.  (The pause lets its reader threads take
    // them off the socket; with the pairing by id nothing depends on it.)
    const FOREIGN: u64 = 40;
    for value in 0..FOREIGN {
        other
            .enqueue(ProcessId(value % spec.initial), 1000 + value)
            .expect("enqueue");
    }
    assert!(
        other.await_quiescence(Duration::from_secs(60)),
        "the other client's operations did not complete"
    );
    std::thread::sleep(Duration::from_millis(300));

    let mut params = LoadParams::new(2000.0, 20, spec.initial, 7);
    params.drain_timeout = Duration::from_secs(60);
    let report = run_load(&mut load, &params).expect("load run");
    assert_eq!((report.issued, report.completed), (20, 20));
    assert!(report.drained, "load did not drain: {report:?}");
    assert!(report.consistent, "load history inconsistent: {report:?}");
    assert_eq!(load.completed(), FOREIGN + 20, "both clients' completions");
    assert_eq!(load.latencies_us().len(), 20, "a latency per own operation");
    assert!(
        report.p50_us > 0 && report.p50_us <= report.p99_us && report.p99_us <= report.p999_us,
        "the percentiles are not over this client's operations: {report:?}"
    );

    let mut ctl = CtlClient::<u64>::connect(&spec).expect("ctl connect");
    ctl.shutdown().expect("shutdown");
    daemon.join().expect("daemon exits cleanly");
    load.close();
    other.close();
}
