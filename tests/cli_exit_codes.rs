//! A service binary whose flags were fine but whose run failed exits 1 and
//! prints only `<binary>: <reason>` — no usage line, which is kept for flags
//! it cannot run with (exit 2, `tests/cli_flags.rs`).  The cases run on
//! threads of their own, because a client retries its connect for about
//! five seconds before it gives up.

use std::net::TcpListener;
use std::process::{Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// Nobody listens on port 1 of the loopback address.
const NO_DAEMON: &str = "127.0.0.1:1";

/// Runs a built binary and asserts that it exits 1, that the last line of
/// its stderr is `<name>: <reason>`, and that it prints no usage; returns
/// that stderr.  A child still alive after thirty seconds is killed, which
/// fails the assertion.
fn assert_run_time_failure(exe: &str, name: &str, args: &[&str]) -> String {
    let mut child = Command::new(exe)
        .args(args)
        .env("RUST_BACKTRACE", "0")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn the built binary");
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("poll the child").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("kill the child");
            break;
        }
        thread::sleep(Duration::from_millis(20));
    }
    let output = child.wait_with_output().expect("collect the child");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{name}: {stderr}");
    let last = stderr.lines().last().unwrap_or_default();
    assert!(last.starts_with(&format!("{name}: ")), "{name}: {stderr}");
    assert!(!stderr.contains("usage:"), "{name}: {stderr}");
    stderr.into_owned()
}

#[test]
fn a_run_time_failure_exits_1_without_the_usage() {
    // Held until every case is done: the daemon's listen address is taken.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let taken = listener.local_addr().expect("local addr").to_string();
    thread::scope(|s| {
        s.spawn(|| {
            let args = ["--daemons", NO_DAEMON, "--ops", "5"];
            assert_run_time_failure(env!("CARGO_BIN_EXE_skueue-load"), "skueue-load", &args);
        });
        s.spawn(|| {
            let args = ["--daemons", NO_DAEMON, "--workload", "fig2"];
            let exe = env!("CARGO_BIN_EXE_skueue-ingress");
            assert_run_time_failure(exe, "skueue-ingress", &args);
        });
        s.spawn(|| {
            // The daemon names the address it could not take, and never
            // claims to listen on it.
            let args = ["--daemons", &taken, "--index", "0"];
            let exe = env!("CARGO_BIN_EXE_skueue-node");
            let stderr = assert_run_time_failure(exe, "skueue-node", &args);
            let last = stderr.lines().last().unwrap_or_default();
            assert!(last.contains(&taken), "skueue-node: {stderr}");
            assert!(!stderr.contains("listening on"), "skueue-node: {stderr}");
        });
    });
}
