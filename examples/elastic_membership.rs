//! Elastic membership: processes join and leave while the queue keeps
//! serving requests (Section IV of the paper).
//!
//! ```text
//! cargo run --example elastic_membership
//! ```

use skueue::prelude::*;

fn main() {
    let mut cluster = Skueue::builder()
        .processes(8)
        .seed(11)
        .build()
        .expect("8 synchronous processes are a valid deployment");

    // Fill the queue with some baseline work.
    println!("phase 1: 40 enqueues on the initial 8 processes");
    for i in 0..40u64 {
        cluster.client(ProcessId(i % 8)).enqueue(i).expect("active");
    }
    cluster.run_until_all_complete(5_000).expect("drains");

    // Scale out: four new processes join through the Section IV protocol
    // (responsible nodes, batch-reported join counts, update phase).
    println!("phase 2: 4 processes join");
    for _ in 0..4 {
        cluster.join(None).expect("bootstrap available");
    }
    // The cluster lists the processes still joining or leaving.
    let joined = cluster.unsettled().to_vec();
    let rounds = cluster
        .run_until(|c| c.unsettled().is_empty(), 50_000)
        .expect("joins integrate");
    println!("  {joined:?} integrated after {rounds} rounds");
    println!("  active processes: {}", cluster.active_processes());

    // The new members immediately take part in the queue — their client
    // handles become usable the moment integration completes.
    println!("phase 3: new members enqueue 20 more elements");
    for (i, &p) in joined.iter().enumerate() {
        let mut client = cluster.client(p);
        assert!(client.is_active(), "joined process serves requests");
        for j in 0..5u64 {
            client.enqueue(1_000 + (i as u64) * 5 + j).expect("active");
        }
    }
    cluster.run_until_all_complete(5_000).expect("drains");

    // Scale in: two of the original processes leave; their DHT data moves to
    // their neighbours and nothing is lost.
    println!("phase 4: 2 processes leave");
    for p in (0..8u64).map(ProcessId) {
        if cluster.unsettled().len() == 2 {
            break;
        }
        // The process hosting the anchor may not leave; `leave` refuses it.
        let _ = cluster.leave(p);
    }
    let left = cluster.unsettled().to_vec();
    let rounds = cluster
        .run_until(|c| c.unsettled().is_empty(), 50_000)
        .expect("leaves complete");
    println!(
        "  {left:?} left after {rounds} rounds; active processes: {}",
        cluster.active_processes()
    );

    // Drain the entire queue: all 60 elements must still be there, and every
    // drain ticket must resolve to a real element (no ⊥ = nothing lost).
    println!("phase 5: drain the queue through the surviving processes");
    let survivors = cluster.active_process_ids();
    let remaining = cluster.anchor_state().map(|a| a.size()).unwrap_or(0);
    let drains: Vec<OpTicket> = (0..remaining)
        .map(|i| {
            cluster
                .client(survivors[(i as usize) % survivors.len()])
                .dequeue()
                .expect("active")
        })
        .collect();
    let outcomes = cluster.run_until_done(&drains, 20_000).expect("drains");
    assert_eq!(outcomes.len(), 60);
    assert!(
        outcomes.iter().all(|o| !o.is_empty()),
        "no element may be lost across churn"
    );

    check_queue(cluster.history()).assert_consistent();
    println!(
        "verified: {} requests, sequentially consistent, zero lost elements ✓",
        cluster.history().len()
    );
}
