//! Cluster specification shared by every service binary.
//!
//! A deployment is described by a handful of values — the daemon addresses,
//! the initial process count, the shard count and the hash seed — that every
//! binary (`skueue-node`, `skueue-ctl`, `skueue-ingress`, `skueue-load`) must
//! agree on.  [`ClusterSpec`] centralises them together with the placement
//! rules that make the topology computable without coordination:
//!
//! * process `p` emulates virtual nodes `3p`, `3p + 1`, `3p + 2` (Left,
//!   Middle, Right) — the overlay's dense id rule ([`skueue_overlay::node_of`]),
//!   the one the simulation uses, so node ids are globally derivable from
//!   process ids,
//! * process `p` is hosted by daemon `p mod d` for `d` daemons, so *daemon*
//!   placement is globally derivable too — a `JOIN` needs no id negotiation.

use std::collections::BTreeMap;
use std::error::Error;
use std::process::ExitCode;

use skueue_core::builder::validate_shards;
use skueue_core::membership::InitialMembership;
use skueue_core::ProtocolConfig;
use skueue_overlay::vid_of;
use skueue_shard::{ShardId, ShardMap};
use skueue_sim::ids::{NodeId, ProcessId};

/// Default timer period of a hosted node, in milliseconds.
pub(crate) const DEFAULT_TICK_MS: u64 = 2;

/// Every process id a daemon hosts is below this.  A hosted node's id
/// `3p + kind` indexes its lane's `SlotIndex`, 4 B per id up to the
/// largest, so the limit bounds that index at 12 MiB (3 · 2²⁰ ids) whatever
/// pid a frame names: a `JOIN` or `LEAVE` beyond it is refused, an inject
/// dropped, and `--initial` may not exceed it.  (The bound holds because an
/// index reserves exactly the room up to an id far beyond its highest, not
/// twice that.)
pub(crate) const PID_LIMIT: u64 = 1 << 20;

/// Everything the service binaries must agree on to form one cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Listen addresses of the node daemons, in daemon-index order.
    pub daemons: Vec<String>,
    /// Number of initial (pre-joined) processes.
    pub initial: u64,
    /// Number of anchor shards.
    pub shards: usize,
    /// Seed of the publicly known label hash function.
    pub hash_seed: u64,
    /// Timer period of a hosted node, in milliseconds: a node that wants its
    /// `TIMEOUT` action and receives no message is visited this often.
    pub tick_ms: u64,
}

impl ClusterSpec {
    /// A localhost spec: `n` daemons on consecutive ports starting at
    /// `base_port`, hosting `initial` processes across `shards` shards.
    #[cfg(test)]
    pub(crate) fn localhost(n: usize, base_port: u16, initial: u64, shards: usize) -> Self {
        ClusterSpec {
            daemons: (0..n)
                .map(|i| format!("127.0.0.1:{}", base_port + i as u16))
                .collect(),
            initial,
            shards,
            hash_seed: ProtocolConfig::queue().hash_seed,
            tick_ms: DEFAULT_TICK_MS,
        }
    }

    /// Number of daemons in the cluster.
    pub fn num_daemons(&self) -> usize {
        self.daemons.len()
    }

    /// The daemon hosting process `pid` (static modular placement).
    pub(crate) fn daemon_of(&self, pid: ProcessId) -> usize {
        (pid.0 % self.daemons.len() as u64) as usize
    }

    /// The daemon hosting virtual node `id` (nodes live with their process).
    pub(crate) fn daemon_of_node(&self, id: NodeId) -> usize {
        self.daemon_of(vid_of(id).process)
    }

    /// The deployment's shard layout: which shard a process belongs to
    /// ([`Self::shard_of`]) and the map the verifier consumes.
    pub(crate) fn shard_map(&self) -> ShardMap {
        ShardMap::new(self.shards as u32, self.hash_seed)
    }

    /// The initial membership of this deployment — the same construction
    /// the simulation cluster performs (it lives in
    /// [`skueue_core::membership`]), so a real deployment and a simulated one
    /// of the same size, shard count and hash seed start from one overlay.
    ///
    /// Its nodes run the queue with the default `fifo_channels`: TCP
    /// preserves per-connection order and both local delivery paths are
    /// queues, so every (sender, receiver) channel is FIFO — the aggregate
    /// credit can stay relaxed exactly as in the synchronous simulation.
    pub(crate) fn initial_membership(&self) -> InitialMembership {
        let cfg = ProtocolConfig {
            shards: self.shards,
            hash_seed: self.hash_seed,
            ..ProtocolConfig::queue()
        };
        InitialMembership::build(self.initial, cfg)
    }

    /// The shard of process `pid`.
    pub(crate) fn shard_of(&self, pid: ProcessId) -> ShardId {
        self.shard_map().shard_of_process(pid)
    }
}

/// The keys [`spec_from_flags`] reads; every binary accepts them.
const SPEC_KEYS: [&str; 5] = ["daemons", "initial", "shards", "hash-seed", "tick-ms"];

/// Parses `--key value` style command-line arguments into a map.  `keys`
/// are the flags the calling binary reads beyond the cluster's own (the
/// ones [`spec_from_flags`] takes); a key outside both lists, a key given
/// twice and a positional argument (none of the binaries take any) are
/// errors — a misspelt or repeated flag must not be silently ignored, or
/// one daemon joins the cluster with a different spec than its peers.
///
/// Shared by the four service binaries so their flag syntax stays uniform.
pub fn parse_flags(args: &[String], keys: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected positional argument `{arg}`"))?;
        if !SPEC_KEYS.contains(&key) && !keys.contains(&key) {
            return Err(format!("unknown flag --{key}"));
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag --{key} is missing its value"))?;
        if map.insert(key.to_string(), value.clone()).is_some() {
            return Err(format!("flag --{key} is given more than once"));
        }
    }
    Ok(map)
}

/// The value of the numeric flag `--key`, or `None` when it was not given.
/// A value that does not parse as an `N` is an error naming the flag.
pub fn flag_number<N: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    key: &str,
) -> Result<Option<N>, String> {
    let parse = |v: &String| {
        v.parse()
            .map_err(|_| format!("--{key} expects a number, got `{v}`"))
    };
    flags.get(key).map(parse).transpose()
}

/// The `main` of every service binary: `parse` reads the command line
/// before anything binds or connects, and `run` does the work.  A command
/// line `parse` rejects exits 2 with `<name>: <reason>` and the usage line;
/// a failed `run` exits 1 with `<name>: <reason>` alone — the flags were
/// fine, the cluster or the system said no.
pub fn service_main<A>(
    name: &str,
    usage: &str,
    parse: impl FnOnce(&[String]) -> Result<A, String>,
    run: impl FnOnce(A) -> Result<(), Box<dyn Error>>,
) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args).map(run) {
        Err(reason) => {
            eprintln!("{name}: {reason}\nusage: {name} {usage}");
            ExitCode::from(2)
        }
        Ok(Err(reason)) => {
            eprintln!("{name}: {reason}");
            ExitCode::FAILURE
        }
        Ok(Ok(())) => ExitCode::SUCCESS,
    }
}

/// Builds a [`ClusterSpec`] from parsed flags.  Recognised keys:
/// `--daemons a,b,c` (required), `--initial N` (default 3, at most 2²⁰),
/// `--shards S` (default 1; `1..=skueue_shard::MAX_SHARDS`, anything else
/// is an error), `--hash-seed H` (default: the library default), and
/// `--tick-ms T` (default `DEFAULT_TICK_MS`).
pub fn spec_from_flags(flags: &BTreeMap<String, String>) -> Result<ClusterSpec, String> {
    let daemons: Vec<String> = flags
        .get("daemons")
        .ok_or("missing required flag --daemons a,b,c")?
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if daemons.is_empty() {
        return Err("--daemons must list at least one address".into());
    }
    let initial = flag_number(flags, "initial")?.unwrap_or(3u64);
    // Processes 0..initial are hosted from the start, so each needs a pid
    // below the limit every frame is checked against.
    if !(1..=PID_LIMIT).contains(&initial) {
        return Err(format!("--initial must be between 1 and {PID_LIMIT}"));
    }
    // The builder's gate: an unchecked count sizes a per-shard allocation in
    // `InitialMembership::build`, and the shard map would silently clamp it.
    let shards = flag_number::<u64>(flags, "shards")?.unwrap_or(1);
    let shards = usize::try_from(shards).unwrap_or(usize::MAX);
    validate_shards(shards).map_err(|e| format!("--shards: {e}"))?;
    let hash_seed = flag_number(flags, "hash-seed")?.unwrap_or(ProtocolConfig::queue().hash_seed);
    let tick_ms = flag_number(flags, "tick-ms")?
        .unwrap_or(DEFAULT_TICK_MS)
        .max(1);
    Ok(ClusterSpec {
        daemons,
        initial,
        shards,
        hash_seed,
        tick_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use skueue_core::Skueue;

    #[test]
    fn placement_is_modular_and_dense() {
        let spec = ClusterSpec::localhost(3, 7100, 5, 2);
        assert_eq!(spec.daemon_of(ProcessId(0)), 0);
        assert_eq!(spec.daemon_of(ProcessId(4)), 1);
        assert_eq!(
            spec.daemon_of_node(NodeId(14)),
            spec.daemon_of(ProcessId(4))
        );
    }

    #[test]
    fn spec_and_simulation_start_from_the_same_overlay() {
        // One construction (`skueue_core::membership`) under both drivers:
        // a sim cluster and a spec of the same size, shard count and hash
        // seed agree on every view, anchor flag and per-shard bit budget.
        let mut spec = ClusterSpec::localhost(2, 7100, 7, 2);
        spec.hash_seed = 0xBEEF;
        let cluster = Skueue::<u64>::builder()
            .processes(spec.initial as usize)
            .shards(spec.shards)
            .hash_seed(spec.hash_seed)
            .build()
            .expect("valid configuration");
        let membership = spec.initial_membership();
        let budgets: Vec<u32> = membership
            .shard_cfgs()
            .iter()
            .map(|cfg| cfg.bit_budget)
            .collect();
        assert!(budgets.iter().all(|&b| b > 0), "budgets are derived");
        for (pid, shard, views) in membership.processes() {
            assert_eq!(Some(shard), cluster.shard_of_process(pid));
            assert_eq!(shard, spec.shard_of(pid));
            for (view, is_anchor) in views {
                let node = cluster.node(view.me().node).expect("dense ids");
                assert_eq!(node.view(), &view);
                assert_eq!(node.is_anchor_node(), is_anchor);
                assert_eq!(node.config().bit_budget, budgets[shard as usize]);
            }
        }
    }

    #[test]
    fn flags_parse_round_trips() {
        let args: Vec<String> = [
            "--daemons",
            "127.0.0.1:7100,127.0.0.1:7101",
            "--initial",
            "4",
            "--shards",
            "2",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let flags = parse_flags(&args, &[]).unwrap();
        let spec = spec_from_flags(&flags).unwrap();
        assert_eq!(spec.num_daemons(), 2);
        assert_eq!(spec.initial, 4);
        assert_eq!(spec.shards, 2);
        assert!(parse_flags(&["oops".to_string()], &[]).is_err());
        assert!(spec_from_flags(&BTreeMap::new()).is_err());
        // Every initial process needs a pid the daemons accept.
        let mut flags = flags;
        flags.insert("initial".into(), PID_LIMIT.to_string());
        assert!(spec_from_flags(&flags).is_ok());
        flags.insert("initial".into(), (PID_LIMIT + 1).to_string());
        assert!(spec_from_flags(&flags).is_err());
    }

    #[test]
    fn unknown_and_repeated_flags_are_errors_that_name_the_flag() {
        let parse = |args: &[&str], keys: &[&str]| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            parse_flags(&args, keys)
        };
        // A binary's own keys are accepted beside the cluster's.
        let flags = parse(&["--index", "1", "--shards", "2"], &["index"]).unwrap();
        assert_eq!(flags["index"], "1");
        let unknown = parse(&["--shard", "4"], &["index"]).unwrap_err();
        assert!(unknown.contains("--shard"), "{unknown}");
        assert!(parse(&["--index", "1"], &[]).is_err(), "not this binary's");
        // A repeat is an error, not last-one-wins.
        let twice = parse(&["--shards", "4", "--shards", "1"], &[]).unwrap_err();
        assert!(twice.contains("--shards"), "{twice}");
    }

    #[test]
    fn shard_counts_outside_the_supported_range_are_rejected() {
        let with_shards = |shards: &str| {
            let flags = BTreeMap::from([
                ("daemons".to_string(), "127.0.0.1:7100".to_string()),
                ("shards".to_string(), shards.to_string()),
            ]);
            spec_from_flags(&flags)
        };
        for bad in ["0", "257", "1000000000000"] {
            let err = with_shards(bad).unwrap_err();
            assert!(err.contains("--shards"), "{err}");
        }
        assert_eq!(with_shards("1").unwrap().shards, 1);
        assert_eq!(with_shards("256").unwrap().shards, 256);
    }
}
