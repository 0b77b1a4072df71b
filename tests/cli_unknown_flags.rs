//! The service binaries refuse a flag they do not read and a flag given
//! twice: exit code 2, the flag named on the first line of stderr, then the
//! usage — before they bind or connect.  (A misspelt `--shard 4` used to be
//! dropped and the last of `--shards 2 --shards 1` used to win, so one daemon
//! could silently join a cluster with a different spec than its peers.)  No
//! cluster runs while these tests do.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs a built binary and returns its exit code and stderr.  A child still
/// alive after five seconds — a daemon that accepted its flags and went on to
/// serve — is killed, which reads as exit code `None`.
fn run(exe: &str, args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(exe)
        .args(args)
        .env("RUST_BACKTRACE", "0")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn the built binary");
    let deadline = Instant::now() + Duration::from_secs(5);
    while child.try_wait().expect("poll the child").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("kill the child");
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let output = child.wait_with_output().expect("collect the child");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// Exit 2, the flag in the diagnostic (the first line — the usage line that
/// follows lists every flag), and the usage.
fn assert_usage_error(flag: &str, (code, stderr): (Option<i32>, String)) {
    assert_eq!(code, Some(2), "stderr: {stderr}");
    let diagnostic = stderr.lines().next().unwrap_or_default();
    assert!(diagnostic.contains(flag), "stderr: {stderr}");
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
}

/// `exe` with otherwise valid arguments plus, in turn, a flag it does not
/// read (`unknown`, a near miss of one it does) and `repeated` given twice.
fn assert_rejects(exe: &str, valid: &[&str], unknown: &str, repeated: &str) {
    let with = |extra: &[&str]| run(exe, &[valid, extra].concat());
    assert_usage_error(unknown, with(&[unknown, "1"]));
    assert_usage_error(repeated, with(&[repeated, "2", repeated, "1"]));
}

#[test]
fn skueue_node_rejects_unknown_and_repeated_flags() {
    let valid = ["--daemons", "127.0.0.1:0", "--index", "0"];
    assert_rejects(
        env!("CARGO_BIN_EXE_skueue-node"),
        &valid,
        "--shard",
        "--shards",
    );
}

#[test]
fn skueue_load_rejects_unknown_and_repeated_flags() {
    let valid = ["--daemons", "127.0.0.1:1", "--rate", "100"];
    assert_rejects(env!("CARGO_BIN_EXE_skueue-load"), &valid, "--op", "--ops");
}

#[test]
fn skueue_ingress_rejects_unknown_and_repeated_flags() {
    let valid = ["--daemons", "127.0.0.1:1", "--workload", "fig2"];
    assert_rejects(
        env!("CARGO_BIN_EXE_skueue-ingress"),
        &valid,
        "--sed",
        "--seed",
    );
}

#[test]
fn skueue_ctl_rejects_unknown_and_repeated_flags() {
    let valid = ["--daemons", "127.0.0.1:1", "--cmd", "status"];
    assert_rejects(
        env!("CARGO_BIN_EXE_skueue-ctl"),
        &valid,
        "--pids",
        "--timeout-s",
    );
}
