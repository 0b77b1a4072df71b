//! The `experiments` command line: what it cannot parse it must refuse
//! (usage on stderr, exit code 2), so a typo in a CI step cannot stay green.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary runs")
}

fn assert_refused(args: &[&str], complaint: &str) {
    let out = experiments(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(complaint), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} must not run anything");
}

#[test]
fn unknown_experiment_is_refused() {
    assert_refused(&["fig5"], "unknown experiment `fig5`");
}

#[test]
fn unknown_flag_is_refused() {
    assert_refused(&["fig2", "--smok"], "unknown flag `--smok`");
}

#[test]
fn bad_values_are_refused() {
    assert_refused(&["--seed", "x"], "--seed takes a u64");
    assert_refused(&["fig2", "--seed"], "--seed needs a value");
    assert_refused(&["trace", "--smoke"], "`trace` needs --out");
    assert_refused(&["fig2", "--out", "t.json"], "only `trace` takes it");
}

#[test]
fn trace_writes_a_chrome_export_with_one_slice_per_request() {
    let path = std::env::temp_dir().join(format!("skueue-trace-{}.json", std::process::id()));
    let out = experiments(&["trace", "--smoke", "--out", path.to_str().unwrap()]);
    let json = std::fs::read_to_string(&path);
    let _ = std::fs::remove_file(&path);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = json.expect("trace file written");
    assert!(skueue_trace::validate_json(&json));
    // 10 requests/round × 20 smoke generation rounds, all completed.
    assert_eq!(json.matches("\"cat\":\"op\"").count(), 200);
}

#[test]
fn the_figure_tables_print_p50_and_p99_rounds_beside_the_mean() {
    let out = experiments(&["fig2", "--smoke"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().skip_while(|line| !line.starts_with("curve"));
    let header = lines.next().expect("the fig2 table has a header");
    assert!(
        header.contains("avg rounds   p50 rounds   p99 rounds   max rounds"),
        "{header}"
    );
    let rows: Vec<&str> = lines.take_while(|line| !line.is_empty()).collect();
    assert_eq!(rows.len(), 4, "2 ratios × 2 sizes:\n{stdout}");
    for row in rows {
        // curve, n, requests, avg, p50, p99, max, batch size, consistent
        let cells: Vec<&str> = row.split_whitespace().collect();
        let [p50, p99, max] = [4, 5, 6].map(|i| cells[i].parse::<u64>().expect(row));
        assert!(1 <= p50 && p50 <= p99 && p99 <= max, "{row}");
    }
}
