//! Quickstart: build a distributed queue with the builder, enqueue and
//! dequeue through ticketed client handles, and verify that the execution
//! was sequentially consistent.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use skueue::prelude::*;

fn main() {
    // A Skueue deployment over 16 processes (48 virtual De Bruijn nodes),
    // driven by the synchronous round scheduler the paper evaluates on.
    let mut cluster = Skueue::builder()
        .processes(16)
        // Partition the queue into 4 independent anchor shards: every
        // process deterministically belongs to one shard, each shard orders
        // its own lane, and the verifier checks the merged global order
        // (use `check_queue_sharded` instead of `check_queue` when S > 1).
        .shards(4)
        .seed(2024)
        .build()
        .expect("16 synchronous processes are a valid deployment");

    // Enqueue ten elements from ten different processes; every operation
    // hands back a typed ticket.
    println!("enqueueing 10 elements from 10 different processes…");
    let puts: Vec<OpTicket> = (0..10u64)
        .map(|i| {
            cluster
                .client(ProcessId(i % 16))
                .enqueue(100 + i)
                .expect("process is active")
        })
        .collect();

    // Wait for the enqueues before dequeueing: operations issued
    // concurrently at different processes carry no cross-process ordering
    // guarantee (a dequeue ordered before every enqueue legitimately
    // returns ⊥), so the "exactly two ⊥" arithmetic below needs the ten
    // elements committed first.
    cluster
        .run_until_done(&puts, 2_000)
        .expect("enqueues drain");

    // While the elements are stored: the position hash spreads them over the
    // virtual nodes (Corollary 19; the spread evens out with more elements).
    if let Some(load) = cluster.fairness() {
        println!(
            "{} elements stored on {} virtual nodes, at most {} on one",
            load.total, load.nodes, load.max
        );
    }

    // Dequeue twelve times.  A sharded queue is S independent FIFO lanes
    // with deterministic lane selection by process, so each process's
    // dequeue drains its *own* shard's lane: one dequeue per enqueuer
    // drains every lane exactly, and the two extra dequeues (issued at
    // processes whose lanes are then empty) return ⊥ — exactly two,
    // regardless of how the hash spread the processes over the shards.
    println!("dequeueing 12 times (two hit an empty lane)…");
    let gets: Vec<OpTicket> = (0..12u64)
        .map(|i| {
            cluster
                .client(ProcessId(i % 10))
                .dequeue()
                .expect("process is active")
        })
        .collect();

    // Drive the simulation until every ticket has resolved.
    let mut tickets = puts.clone();
    tickets.extend(&gets);
    let start_round = cluster.round();
    cluster
        .run_until_done(&tickets, 2_000)
        .expect("requests drain");
    println!(
        "all {} requests completed after {} simulated rounds",
        tickets.len(),
        cluster.round() - start_round
    );

    // Tickets resolve to structured outcomes — no history scanning needed.
    let dequeued: Vec<Option<u64>> = gets
        .iter()
        .map(|&t| cluster.outcome(t).expect("completed above").value())
        .collect();
    let empties = dequeued.iter().filter(|v| v.is_none()).count();
    println!("dequeue results (issue order): {dequeued:?}");
    assert_eq!(empties, 2, "exactly two of the twelve dequeues hit ⊥");

    let mean_rounds = tickets
        .iter()
        .map(|&t| cluster.outcome(t).expect("completed above").rounds())
        .sum::<u64>() as f64
        / tickets.len() as f64;
    println!("mean latency {mean_rounds:.1} rounds/request");

    // The library's own checker proves the run was sequentially consistent.
    // Sharded deployments use the cross-shard checker: Definition 1 plus a
    // sequential replay on every shard's lane, and program order on the
    // merged (wave, shard, local) global order.  (With `.shards(1)` — or no
    // `.shards` call at all — this is plain `check_queue`.)
    check_queue_sharded(cluster.history(), &cluster.shard_map()).assert_consistent();
    println!(
        "sequential consistency verified over {} shards ✓",
        cluster.shards()
    );
}
