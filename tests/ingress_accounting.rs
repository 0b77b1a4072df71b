//! The ingress client's books: an operation is issued when its frame has been
//! written, not when the caller asked for it.
//!
//! `issued() − completed()` is what `await_quiescence` (and the benchmark's
//! drain loop) wait on, so an inject that returned `Err` must leave no trace
//! in it — or the wait can only end by timing out.

use std::net::TcpListener;
use std::time::Duration;

use skueue::net::daemon;
use skueue::net::{ClusterSpec, CtlClient, IngressClient};
use skueue::prelude::{ProcessId, ProtocolConfig};

#[test]
fn a_failed_inject_is_not_counted_as_issued() {
    // One daemon on an ephemeral port (the set-up of `tests/net_transport.rs`).
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let spec = ClusterSpec {
        daemons: vec![listener.local_addr().expect("local addr").to_string()],
        initial: 3,
        shards: 1,
        hash_seed: ProtocolConfig::queue().hash_seed,
        tick_ms: 1,
    };
    let daemon = daemon::spawn::<u64>(spec.clone(), 0, listener);
    let mut ingress = IngressClient::<u64>::connect(&spec).expect("ingress connect");

    ingress.enqueue(ProcessId(0), 1).expect("enqueue");
    assert!(
        ingress.await_quiescence(Duration::from_secs(60)),
        "the one operation did not complete"
    );
    assert_eq!((ingress.issued(), ingress.completed()), (1, 1));

    let mut ctl = CtlClient::<u64>::connect(&spec).expect("ctl connect");
    ctl.shutdown().expect("shutdown");
    daemon.join().expect("daemon exits cleanly");

    // The daemon is gone.  The kernel may still accept a write or two before
    // the reset comes back; from then on every inject fails.
    let mut written = 1;
    let mut refused = false;
    for attempt in 0..1000 {
        match ingress.enqueue(ProcessId(0), attempt) {
            Ok(_) => written += 1,
            Err(_) => {
                refused = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        refused,
        "a thousand writes to a closed daemon all succeeded"
    );
    assert_eq!(
        ingress.issued(),
        written,
        "an inject that returned Err stayed on the books"
    );
    // Once more, now that the connection is known to be dead.
    assert!(ingress.dequeue(ProcessId(1)).is_err());
    assert_eq!(ingress.issued(), written);
    ingress.close();
}
