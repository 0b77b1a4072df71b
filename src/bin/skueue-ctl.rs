//! `skueue-ctl` — control plane for a real-transport Skueue cluster.
//!
//! Drives membership churn and lifecycle against running `skueue-node`
//! daemons:
//!
//! ```text
//! skueue-ctl --daemons … --cmd status
//! skueue-ctl --daemons … --cmd join --count 2     # join wave, waits for integration
//! skueue-ctl --daemons … --cmd leave --pid 5      # waits until the process left
//! skueue-ctl --daemons … --cmd shutdown
//! ```
//!
//! Joins pick fresh consecutive process ids; the daemon hosting each joiner
//! follows from the id alone, and the bootstrap contact is the lowest
//! process of the joiner's shard that may issue.  A `leave` is refused for a
//! process that may not issue — joining, leaving or left — and for the
//! process whose node holds its shard's anchor, which is pinned.
//!
//! Exit codes: 2 with the usage for flags it cannot run with (read before
//! anything connects); 1 with only `skueue-ctl: <reason>` for what fails
//! at run time — no daemon to connect to, a daemon's refusal, a wait that
//! timed out.

use std::error::Error;
use std::process::ExitCode;
use std::time::Duration;

use skueue::net::spec::{flag_number, parse_flags, service_main, spec_from_flags, ClusterSpec};
use skueue::net::CtlClient;
use skueue::prelude::ProcessId;

/// What the flags ask for, read before anything connects.
enum Command {
    Status,
    Join { count: u64 },
    Leave { pid: ProcessId },
    Shutdown,
}

/// The cluster, the command and how long a `join` or `leave` waits, or the
/// usage error that the flags make.
fn parse(args: &[String]) -> Result<(ClusterSpec, Command, Duration), String> {
    let flags = parse_flags(args, &["cmd", "count", "pid", "timeout-s"])?;
    let spec = spec_from_flags(&flags)?;
    let timeout = Duration::from_secs(flag_number(&flags, "timeout-s")?.unwrap_or(60));
    let count: u64 = flag_number(&flags, "count")?.unwrap_or(1);
    let pid: Option<u64> = flag_number(&flags, "pid")?;
    let command = match flags.get("cmd").map(String::as_str) {
        Some("status") => Command::Status,
        Some("join") => Command::Join { count },
        Some("leave") => Command::Leave {
            pid: ProcessId(pid.ok_or("--cmd leave needs --pid N")?),
        },
        Some("shutdown") => Command::Shutdown,
        Some(other) => return Err(format!("unknown command `{other}`")),
        None => return Err("missing required flag --cmd status|join|leave|shutdown".to_string()),
    };
    Ok((spec, command, timeout))
}

/// Runs `command` against the cluster; the error is the reason it failed.
fn run((spec, command, timeout): (ClusterSpec, Command, Duration)) -> Result<(), Box<dyn Error>> {
    let mut ctl = CtlClient::<u64>::connect(&spec)?;
    match command {
        Command::Status => {
            for status in ctl.status()? {
                println!(
                    "process {:>4}  integrated={}  left={}",
                    status.pid.0, status.integrated, status.left
                );
            }
        }
        Command::Join { count } => {
            let joined = ctl.join_wave(count)?;
            let ids: Vec<u64> = joined.iter().map(|p| p.0).collect();
            eprintln!("skueue-ctl: join wave started for processes {ids:?}");
            if !ctl.wait_integrated(&joined, timeout)? {
                return Err(format!("processes {ids:?} did not integrate in time").into());
            }
            println!("joined: {ids:?}");
        }
        Command::Leave { pid } => {
            ctl.leave(pid)?;
            if !ctl.wait_left(&[pid], timeout)? {
                return Err(format!("process {} did not leave in time", pid.0).into());
            }
            println!("left: {}", pid.0);
        }
        Command::Shutdown => {
            ctl.shutdown()?;
            println!("cluster shut down");
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let usage = "--daemons a,b,c --cmd status|join|leave|shutdown [--count N] [--pid N] \
                 [--timeout-s T] [--initial N] [--shards S]";
    service_main("skueue-ctl", usage, parse, run)
}
