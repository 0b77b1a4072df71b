//! The service binaries refuse flag values they cannot run with: exit code 2,
//! the flag named on the first line of stderr, then the usage — before they
//! bind or connect.  No cluster runs while these tests do.

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

#[test]
fn skueue_load_rejects_a_rate_it_cannot_schedule() {
    for rate in ["0", "-1", "nan"] {
        let args = ["--daemons", "127.0.0.1:1", "--ops", "5", "--rate", rate];
        assert_usage_error("--rate", run(env!("CARGO_BIN_EXE_skueue-load"), &args));
    }
}

#[test]
fn skueue_node_rejects_a_shard_count_outside_the_supported_range() {
    for shards in ["0", "257"] {
        let args = [
            "--daemons",
            "127.0.0.1:0",
            "--index",
            "0",
            "--shards",
            shards,
        ];
        assert_usage_error("--shards", run(env!("CARGO_BIN_EXE_skueue-node"), &args));
    }
}
