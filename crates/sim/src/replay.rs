//! Serialisable replay scenarios.
//!
//! A [`ReplayScenario`] is a cluster-level action list — requests, churn
//! injections, explicit round advances — that `skueue-model` replays on a
//! real cluster: its scenario search enumerates such lines, its shrinker
//! minimises failing ones, and the regression tests pin them.  The
//! simulator itself knows nothing about clusters, so this module only
//! defines the *format*: a compact, stable, human-readable line syntax
//! (`P3 S7 D4 | e1 e2 J d1 L2`), so pinned lines in `tests/` stay
//! reviewable diffs.

/// One step of a replay scenario, at the cluster API level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayStep {
    /// Issue an enqueue at this process (payload chosen by the harness).
    Enqueue(u64),
    /// Issue a dequeue at this process.
    Dequeue(u64),
    /// Join a new process.
    Join,
    /// Request leave of this process.
    Leave(u64),
    /// Advance the simulation this many rounds.
    Rounds(u64),
}

/// A serialisable, replayable scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayScenario {
    /// Initial number of processes.
    pub processes: u64,
    /// Simulation seed (the delivery schedule under asynchronous delivery).
    pub seed: u64,
    /// Maximum message delay (`0` = synchronous delivery).
    pub max_delay: u64,
    /// The steps, in order.
    pub steps: Vec<ReplayStep>,
}

impl ReplayScenario {
    /// Renders the scenario in the compact line syntax:
    /// `P<processes> S<seed> D<max_delay> | <steps...>` where a step is
    /// `e<p>` (enqueue at p), `d<p>` (dequeue at p), `J` (join),
    /// `L<p>` (leave of p) or `r<k>` (advance k rounds).
    pub fn to_compact(&self) -> String {
        let mut out = format!("P{} S{} D{} |", self.processes, self.seed, self.max_delay);
        for step in &self.steps {
            out.push(' ');
            match step {
                ReplayStep::Enqueue(p) => out.push_str(&format!("e{p}")),
                ReplayStep::Dequeue(p) => out.push_str(&format!("d{p}")),
                ReplayStep::Join => out.push('J'),
                ReplayStep::Leave(p) => out.push_str(&format!("L{p}")),
                ReplayStep::Rounds(k) => out.push_str(&format!("r{k}")),
            }
        }
        out
    }

    /// Parses the compact line syntax produced by [`Self::to_compact`].
    pub fn from_compact(line: &str) -> Result<Self, String> {
        let (header, body) = line
            .split_once('|')
            .ok_or_else(|| format!("missing `|` separator in {line:?}"))?;
        let mut processes = None;
        let mut seed = None;
        let mut max_delay = None;
        for token in header.split_whitespace() {
            let (tag, value) = token.split_at(1);
            let value: u64 = value
                .parse()
                .map_err(|e| format!("bad header token {token:?}: {e}"))?;
            match tag {
                "P" => processes = Some(value),
                "S" => seed = Some(value),
                "D" => max_delay = Some(value),
                _ => return Err(format!("unknown header tag {tag:?}")),
            }
        }
        let mut steps = Vec::new();
        for token in body.split_whitespace() {
            if token == "J" {
                steps.push(ReplayStep::Join);
                continue;
            }
            let (tag, value) = token.split_at(1);
            let parse = |v: &str| -> Result<u64, String> {
                v.parse().map_err(|e| format!("bad step {token:?}: {e}"))
            };
            steps.push(match tag {
                "e" => ReplayStep::Enqueue(parse(value)?),
                "d" => ReplayStep::Dequeue(parse(value)?),
                "L" => ReplayStep::Leave(parse(value)?),
                "r" => ReplayStep::Rounds(parse(value)?),
                _ => return Err(format!("unknown step tag {tag:?}")),
            });
        }
        Ok(ReplayScenario {
            processes: processes.ok_or("missing P header")?,
            seed: seed.ok_or("missing S header")?,
            max_delay: max_delay.ok_or("missing D header")?,
            steps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_round_trips() {
        let scenario = ReplayScenario {
            processes: 3,
            seed: 7,
            max_delay: 4,
            steps: vec![
                ReplayStep::Enqueue(1),
                ReplayStep::Enqueue(2),
                ReplayStep::Join,
                ReplayStep::Dequeue(1),
                ReplayStep::Leave(2),
                ReplayStep::Rounds(60),
            ],
        };
        let line = scenario.to_compact();
        assert_eq!(line, "P3 S7 D4 | e1 e2 J d1 L2 r60");
        assert_eq!(ReplayScenario::from_compact(&line).unwrap(), scenario);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(ReplayScenario::from_compact("P3 S7 D4 e1").is_err());
        assert!(ReplayScenario::from_compact("P3 S7 | e1").is_err());
        assert!(ReplayScenario::from_compact("P3 S7 D4 | x1").is_err());
        assert!(ReplayScenario::from_compact("P3 S7 D4 | eX").is_err());
    }
}
