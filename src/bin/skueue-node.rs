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

use std::process::ExitCode;

use skueue::net::daemon;
use skueue::net::spec::{flag_number, parse_flags, spec_from_flags};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = || -> Result<(), String> {
        let flags = parse_flags(&args, &["index"])?;
        let spec = spec_from_flags(&flags)?;
        let index: usize =
            flag_number(&flags, "index")?.ok_or("missing required flag --index N")?;
        if index >= spec.num_daemons() {
            return Err(format!(
                "--index {index} out of range for {} daemons",
                spec.num_daemons()
            ));
        }
        eprintln!(
            "skueue-node[{index}]: listening on {} ({} initial processes, {} shards)",
            spec.daemons[index], spec.initial, spec.shards
        );
        daemon::run::<u64>(&spec, index).map_err(|e| e.to_string())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("skueue-node: {message}");
            eprintln!(
                "usage: skueue-node --daemons a,b,c --index N \
                 [--initial N] [--shards S] [--hash-seed H] [--tick-ms T]"
            );
            ExitCode::from(2)
        }
    }
}
