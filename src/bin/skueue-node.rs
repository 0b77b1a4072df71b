//! `skueue-node` — one node daemon of a real-transport Skueue cluster.
//!
//! Hosts the processes placed on it by the static modular placement rule
//! (`pid mod num_daemons == index`) — all their virtual nodes on one thread,
//! so a machine is filled by running more daemons — and exchanges protocol
//! messages with the other daemons over length-prefixed TCP frames.  Runs
//! until a `skueue-ctl … --cmd shutdown` arrives.
//!
//! ```text
//! skueue-node --daemons 127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103 \
//!             --index 0 --initial 5 --shards 2
//! ```
//!
//! Exit codes: 2 with the usage for flags it cannot run with (read before
//! anything binds); 1 with only `skueue-node: <reason>` for what fails at
//! run time — a listen address already in use, say.

use std::error::Error;
use std::process::ExitCode;

use skueue::net::daemon;
use skueue::net::spec::{flag_number, parse_flags, service_main, spec_from_flags, ClusterSpec};

/// The cluster and this daemon's index in it.
fn parse(args: &[String]) -> Result<(ClusterSpec, usize), String> {
    let flags = parse_flags(args, &["index"])?;
    let spec = spec_from_flags(&flags)?;
    let index: usize = flag_number(&flags, "index")?.ok_or("missing required flag --index N")?;
    if index >= spec.num_daemons() {
        return Err(format!(
            "--index {index} out of range for {} daemons",
            spec.num_daemons()
        ));
    }
    Ok((spec, index))
}

fn run((spec, index): (ClusterSpec, usize)) -> Result<(), Box<dyn Error>> {
    Ok(daemon::run::<u64>(&spec, index)?)
}

fn main() -> ExitCode {
    let usage =
        "--daemons a,b,c --index N [--initial N] [--shards S] [--hash-seed H] [--tick-ms T]";
    service_main("skueue-node", usage, parse, run)
}
