//! What the daemons refuse is answered, not left to a timeout.
//!
//! An inject through a process its daemon hosts but that may not issue
//! (joining, leaving or gone) opens no request; the daemon answers it
//! `Refused` on the inject's connection, and the ingress stops waiting for
//! it.  A leave the daemon refuses makes `skueue-ctl` exit 1 with the
//! daemon's reason and no usage line: the flags were fine, the cluster said
//! no.

use std::net::TcpListener;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use skueue::net::daemon::{self, DaemonHandle};
use skueue::net::{ClusterSpec, CtlClient, IngressClient};
use skueue::prelude::{ProcessId, ProtocolConfig};

const DAEMONS: usize = 2;
const PROCESSES: u64 = 6;

/// Boots `DAEMONS` daemons of `PROCESSES` processes in one shard on
/// ephemeral ports.
fn boot() -> (ClusterSpec, Vec<DaemonHandle>) {
    let listeners: Vec<TcpListener> = (0..DAEMONS)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral"))
        .collect();
    let spec = ClusterSpec {
        daemons: listeners
            .iter()
            .map(|l| l.local_addr().expect("local addr").to_string())
            .collect(),
        initial: PROCESSES,
        shards: 1,
        hash_seed: ProtocolConfig::queue().hash_seed,
        tick_ms: 1,
    };
    let daemons = listeners
        .into_iter()
        .enumerate()
        .map(|(i, l)| daemon::spawn::<u64>(spec.clone(), i, l))
        .collect();
    (spec, daemons)
}

fn shut_down(spec: &ClusterSpec, daemons: Vec<DaemonHandle>) {
    let mut ctl = CtlClient::<u64>::connect(spec).expect("ctl connect");
    ctl.shutdown().expect("shutdown");
    for handle in daemons {
        handle.join().expect("daemon exits cleanly");
    }
}

#[test]
fn an_inject_through_a_departed_process_is_refused_not_awaited() {
    let (spec, daemons) = boot();
    let mut ingress = IngressClient::<u64>::connect(&spec).expect("ingress connect");
    for pid in 0..PROCESSES {
        ingress.enqueue(ProcessId(pid), pid).expect("enqueue");
    }
    assert!(ingress.await_quiescence(Duration::from_secs(60)));

    let mut ctl = CtlClient::<u64>::connect(&spec).expect("ctl connect");
    let leaver = ProcessId(5);
    ctl.leave(leaver).expect("process 5 may leave");
    assert!(ctl
        .wait_left(&[leaver], Duration::from_secs(60))
        .expect("status"));

    ingress.enqueue(leaver, 99).expect("the frame is written");
    ingress.dequeue(ProcessId(1)).expect("dequeue");
    let asked = Instant::now();
    assert!(
        ingress.await_quiescence(Duration::from_secs(5)),
        "{} of {} issued completed, {} refused",
        ingress.completed(),
        ingress.issued(),
        ingress.refused()
    );
    let waited = asked.elapsed();
    assert!(waited < Duration::from_secs(1), "drained after {waited:?}");
    assert_eq!(ingress.refused(), 1);
    assert_eq!(ingress.completed(), PROCESSES + 1);
    ingress.verify().assert_consistent();

    shut_down(&spec, daemons);
    ingress.close();
}

#[test]
fn skueue_ctl_tells_a_refused_leave_from_a_usage_error() {
    let (spec, daemons) = boot();
    let output = Command::new(env!("CARGO_BIN_EXE_skueue-ctl"))
        .args(["--daemons", &spec.daemons.join(",")])
        .args(["--initial", &PROCESSES.to_string()])
        .args(["--tick-ms", "1", "--cmd", "leave", "--pid", "0"])
        .stdin(Stdio::null())
        .output()
        .expect("run the built binary");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("anchor"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
    shut_down(&spec, daemons);
}
