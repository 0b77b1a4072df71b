//! Conformance tests for the real-clock TCP transport.
//!
//! The simulation backend is verified by byte-identical goldens; the network
//! backend cannot be (real time is not replayable), so its contract is
//! verified a posteriori: boot a real localhost cluster — daemons on
//! ephemeral ports, each hosting its nodes on one thread, every message
//! between daemons a framed TCP write — run a workload through the ingress,
//! and require the collected completion history to pass the same sharded
//! sequential-consistency checker as a simulated run.

use std::net::TcpListener;
use std::time::Duration;

use skueue::net::daemon;
use skueue::net::{ClusterSpec, CtlClient, IngressClient, LoadParams};
use skueue::prelude::{ProcessId, ProtocolConfig, SimRng};

/// Binds `n` ephemeral listeners and builds the matching spec.
fn ephemeral_cluster(n: usize, initial: u64, shards: usize) -> (ClusterSpec, Vec<TcpListener>) {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral"))
        .collect();
    let spec = ClusterSpec {
        daemons: listeners
            .iter()
            .map(|l| l.local_addr().expect("local addr").to_string())
            .collect(),
        initial,
        shards,
        hash_seed: ProtocolConfig::queue().hash_seed,
        tick_ms: 1,
    };
    (spec, listeners)
}

fn boot(spec: &ClusterSpec, listeners: Vec<TcpListener>) -> Vec<daemon::DaemonHandle> {
    listeners
        .into_iter()
        .enumerate()
        .map(|(i, l)| daemon::spawn::<u64>(spec.clone(), i, l))
        .collect()
}

#[test]
fn three_daemon_cluster_completes_a_sharded_workload() {
    let (spec, listeners) = ephemeral_cluster(3, 5, 2);
    let daemons = boot(&spec, listeners);
    let mut ingress = IngressClient::<u64>::connect(&spec).expect("ingress connect");

    // A figure-2 style mixed workload over the initial processes.
    let mut rng = SimRng::new(0xF162);
    let pids: Vec<ProcessId> = (0..spec.initial).map(ProcessId).collect();
    for step in 0..60u64 {
        let pid = pids[(rng.next_u64() % pids.len() as u64) as usize];
        if rng.next_u64() % 10 < 6 {
            ingress.enqueue(pid, 1000 + step).expect("enqueue");
        } else {
            ingress.dequeue(pid).expect("dequeue");
        }
    }
    assert!(
        ingress.await_quiescence(Duration::from_secs(60)),
        "cluster did not drain: {}/{} completed",
        ingress.completed(),
        ingress.issued()
    );
    assert_eq!(ingress.completed(), 60);
    let report = ingress.verify();
    assert!(
        report.is_consistent(),
        "real-transport history failed the checker: {report:?}"
    );

    let mut ctl = CtlClient::<u64>::connect(&spec).expect("ctl connect");
    ctl.shutdown().expect("shutdown");
    for handle in daemons {
        handle.join().expect("daemon exits cleanly");
    }
    ingress.close();
}

#[test]
fn churn_over_the_real_transport_stays_consistent() {
    let (spec, listeners) = ephemeral_cluster(2, 4, 1);
    let daemons = boot(&spec, listeners);
    let mut ctl = CtlClient::<u64>::connect(&spec).expect("ctl connect");
    let mut ingress = IngressClient::<u64>::connect(&spec).expect("ingress connect");

    // Phase 1: ops over the initial membership.
    let initial: Vec<ProcessId> = (0..spec.initial).map(ProcessId).collect();
    let mut rng = SimRng::new(0xC0DE ^ 7);
    for step in 0..20u64 {
        let pid = initial[(rng.next_u64() % initial.len() as u64) as usize];
        if rng.next_u64() % 10 < 6 {
            ingress.enqueue(pid, step).expect("enqueue");
        } else {
            ingress.dequeue(pid).expect("dequeue");
        }
    }

    // Phase 2: a join wave; the joiners then carry traffic too.
    let joined = ctl.join_wave(2).expect("join wave");
    assert_eq!(joined.len(), 2);
    assert!(
        ctl.wait_integrated(&joined, Duration::from_secs(60))
            .expect("status poll"),
        "joiners did not integrate"
    );
    for (step, pid) in joined.iter().cycle().take(10).enumerate() {
        if step % 2 == 0 {
            ingress.enqueue(*pid, 500 + step as u64).expect("enqueue");
        } else {
            ingress.dequeue(*pid).expect("dequeue");
        }
    }
    assert!(
        ingress.await_quiescence(Duration::from_secs(60)),
        "cluster did not drain after join wave: {}/{}",
        ingress.completed(),
        ingress.issued()
    );

    // Phase 3: the joiners leave again (never anchors, so always legal).
    for pid in &joined {
        ctl.leave(*pid).expect("leave");
    }
    assert!(
        ctl.wait_left(&joined, Duration::from_secs(60))
            .expect("status poll"),
        "joiners did not leave"
    );

    let report = ingress.verify();
    assert!(
        report.is_consistent(),
        "churned real-transport history failed the checker: {report:?}"
    );

    ctl.shutdown().expect("shutdown");
    for handle in daemons {
        handle.join().expect("daemon exits cleanly");
    }
    ingress.close();
}

#[test]
fn open_loop_load_reports_latency_percentiles() {
    let (spec, listeners) = ephemeral_cluster(2, 3, 1);
    let daemons = boot(&spec, listeners);
    let mut ingress = IngressClient::<u64>::connect(&spec).expect("ingress connect");

    let rate_hz = 300.0;
    let mut params = LoadParams::new(rate_hz, 150, spec.initial, 42);
    params.drain_timeout = Duration::from_secs(60);
    let report = skueue::net::run_load(&mut ingress, &params).expect("load run");
    assert_eq!(report.issued, 150);
    assert!(report.drained, "load did not drain: {report:?}");
    assert!(report.consistent, "load history inconsistent: {report:?}");
    assert!(report.p50_us > 0 && report.p50_us <= report.p99_us);
    assert!(report.p99_us <= report.p999_us);
    // A completion is stamped when it arrives, not when the generator next
    // injects: at this rate the cluster answers well inside one
    // inter-arrival gap, so the median must not look like the gap itself
    // (it read ≈ 2.7 ms against a mean gap of 3.3 ms when it did).
    let mean_gap_us = (1e6 / rate_hz) as u64;
    assert!(
        report.p50_us < mean_gap_us / 2,
        "p50 of {} µs is not below half the mean gap of {mean_gap_us} µs: {report:?}",
        report.p50_us
    );
    let json = report.to_json();
    assert!(json.contains("\"transport\": \"tcp\""));
    assert!(json.contains("\"p999_us\""));

    let mut ctl = CtlClient::<u64>::connect(&spec).expect("ctl connect");
    ctl.shutdown().expect("shutdown");
    for handle in daemons {
        handle.join().expect("daemon exits cleanly");
    }
    ingress.close();
}

/// A daemon's thread count is a function of its connections, not of the
/// processes it hosts (when every virtual node had a thread of its own,
/// hosting 8 processes took 18 threads more than hosting 2).
#[cfg(target_os = "linux")]
#[test]
fn hosting_more_processes_takes_no_more_threads() {
    // Tests of this file run side by side in one process, so each daemon is
    // booted from a thread with a name of its own and only threads of that
    // name are counted: a thread spawned without a name inherits its
    // creator's, so these are the daemon's threads and the booting one.
    fn threads_hosting(initial: u64) -> usize {
        let name = format!("hosting-{initial}");
        let thread_name = name.clone();
        let named = move || {
            std::fs::read_dir("/proc/self/task")
                .expect("procfs")
                .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
                .filter(|comm| comm.trim_end() == name)
                .count()
        };
        let measure = move || {
            let (spec, listeners) = ephemeral_cluster(1, initial, 1);
            let daemons = boot(&spec, listeners);
            let mut ctl = CtlClient::<u64>::connect(&spec).expect("ctl connect");
            assert_eq!(ctl.status().expect("status").len(), initial as usize);
            let threads = named() - 1;
            ctl.shutdown().expect("shutdown");
            for handle in daemons {
                handle.join().expect("daemon exits cleanly");
            }
            threads
        };
        std::thread::Builder::new()
            .name(thread_name)
            .spawn(measure)
            .expect("spawn")
            .join()
            .expect("measurement")
    }
    let (two, eight) = (threads_hosting(2), threads_hosting(8));
    assert_eq!(eight, two, "threads grew with the hosted processes");
    // The host, the listener, and the reader of the control connection.
    assert_eq!(two, 3);
}
