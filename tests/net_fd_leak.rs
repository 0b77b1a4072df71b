//! A daemon must not keep what a departed client left behind.
//!
//! Every accepted connection costs the daemon a socket (one descriptor for
//! its reader, one for the writer) and a reader thread; when the client hangs
//! up, all of it has to go.  The count is read from `/proc/self/fd`, which is
//! process-wide — daemon and clients run in this process — so this file holds
//! one test function only.

#![cfg(target_os = "linux")]

use std::net::TcpListener;
use std::time::{Duration, Instant};

use skueue::net::daemon;
use skueue::net::{ClusterSpec, CtlClient};
use skueue::prelude::ProtocolConfig;

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("procfs").count()
}

#[test]
fn a_hundred_departed_clients_leave_no_descriptor_behind() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let spec = ClusterSpec {
        daemons: vec![listener.local_addr().expect("local addr").to_string()],
        initial: 2,
        shards: 1,
        hash_seed: ProtocolConfig::queue().hash_seed,
        tick_ms: 1,
    };
    let daemon = daemon::spawn::<u64>(spec.clone(), 0, listener);
    let mut ctl = CtlClient::<u64>::connect(&spec).expect("ctl connect");
    assert_eq!(ctl.status().expect("status").len(), 2);

    let before = open_fds();
    for _ in 0..100 {
        let mut visitor = CtlClient::<u64>::connect(&spec).expect("visitor connect");
        assert_eq!(visitor.status().expect("status").len(), 2);
    }
    // The daemon learns of a hang-up from its reader thread; give the last
    // few a moment to be noticed (one descriptor per departed client stayed
    // open until shutdown when nothing released it).
    let deadline = Instant::now() + Duration::from_secs(10);
    while open_fds() > before + 4 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let after = open_fds();
    assert!(
        after <= before + 4,
        "{before} descriptors open before 100 clients came and went, {after} after"
    );

    ctl.shutdown().expect("shutdown");
    daemon.join().expect("daemon exits cleanly");
}
