//! A numeric flag whose value is not a number is a usage error in every
//! binary that reads one: exit code 2, the flag and the value on the first
//! line of stderr, then the usage — before anything connects (the daemon
//! address below has nobody listening).  One reader, `net::spec::flag_number`,
//! serves them all.

use std::process::{Command, Stdio};

#[test]
fn a_numeric_flag_that_is_not_a_number_is_a_usage_error_naming_it() {
    let cases: [(&str, &[&str]); 8] = [
        (env!("CARGO_BIN_EXE_skueue-load"), &["--ops", "x"]),
        (env!("CARGO_BIN_EXE_skueue-load"), &["--timeout-s", "x"]),
        (env!("CARGO_BIN_EXE_skueue-load"), &["--rate", "fast"]),
        (env!("CARGO_BIN_EXE_skueue-ingress"), &["--ops", "x"]),
        (env!("CARGO_BIN_EXE_skueue-ingress"), &["--timeout-s", "-3"]),
        (env!("CARGO_BIN_EXE_skueue-ctl"), &["--timeout-s", "x"]),
        (env!("CARGO_BIN_EXE_skueue-ctl"), &["--pid", "1.5"]),
        (env!("CARGO_BIN_EXE_skueue-node"), &["--tick-ms", "soon"]),
    ];
    for (exe, flag) in cases {
        let output = Command::new(exe)
            .args(["--daemons", "127.0.0.1:1"])
            .args(flag)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .output()
            .expect("run the built binary");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{exe} {flag:?}: {stderr}");
        let diagnostic = stderr.lines().next().unwrap_or_default();
        assert!(
            diagnostic.contains(&format!("{} expects a number, got `{}`", flag[0], flag[1])),
            "{exe} {flag:?}: {stderr}"
        );
        assert!(stderr.contains("usage:"), "{exe} {flag:?}: {stderr}");
    }
}
