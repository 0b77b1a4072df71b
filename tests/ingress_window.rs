//! The ingress's window, held by a counting allocator.
//!
//! An [`IngressClient`] keeps at most [`INGRESS_WINDOW_PER_DAEMON`]
//! operations per daemon in flight and waits on the completion stream for
//! room.  So a back-to-back burst never has more than the window open, what
//! the burst holds at its peak does not grow with the operations offered —
//! only the record and the latency the client keeps for every completed
//! operation do — and a full window whose daemons are gone refuses the next
//! inject instead of hanging.
//!
//! The counts are process-wide and every test runs a cluster in this
//! process, so the tests take turns (`SERIAL`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::net::TcpListener;
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use skueue::net::daemon::{self, DaemonHandle};
use skueue::net::{ClusterSpec, CtlClient, IngressClient, INGRESS_WINDOW_PER_DAEMON};
use skueue::prelude::{ProcessId, ProtocolConfig, SimRng};
use skueue::verify::OpRecord;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static PEAK_BYTES: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

fn grow(by: isize) {
    let live = LIVE_BYTES.fetch_add(by, Relaxed) + by;
    PEAK_BYTES.fetch_max(live, Relaxed);
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

static SERIAL: Mutex<()> = Mutex::new(());

/// The benchmark's TCP cluster: 2 daemons, 6 processes, 2 shards.
const DAEMONS: usize = 2;
const PROCESSES: u64 = 6;
const SHARDS: usize = 2;
/// The window of an ingress to this cluster.
const WINDOW: u64 = (INGRESS_WINDOW_PER_DAEMON * DAEMONS) as u64;
/// What a burst may hold at its peak beyond the records and latencies of
/// the operations it completed, per slot of the window: the injects in a
/// daemon's inbound channel, the nodes' state for the open operations, the
/// completions on their way back and the client's pending map (200–250 B
/// measured, 2 vCPUs).  Without the window the backlog grew with the burst,
/// and the 40 k-op burst held 2.1–3.6 MB here.
const BYTES_PER_WINDOW_SLOT: isize = 320;
/// How much more the 40 k-op burst may hold at its peak than the 10 k-op
/// burst: the buffers a daemon keeps grow to the largest turn they served,
/// which a longer burst meets more often (0–250 KB measured; 1.0–2.5 MB
/// without the window).
const SLACK_BYTES: isize = 640 << 10;

struct Cluster {
    spec: ClusterSpec,
    daemons: Vec<DaemonHandle>,
    ingress: IngressClient<u64>,
}

/// Boots the daemons on ephemeral ports and connects an ingress.
fn boot() -> Cluster {
    let listeners: Vec<TcpListener> = (0..DAEMONS)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral"))
        .collect();
    let spec = ClusterSpec {
        daemons: listeners
            .iter()
            .map(|l| l.local_addr().expect("local addr").to_string())
            .collect(),
        initial: PROCESSES,
        shards: SHARDS,
        hash_seed: ProtocolConfig::queue().hash_seed,
        tick_ms: 2,
    };
    let daemons = listeners
        .into_iter()
        .enumerate()
        .map(|(i, l)| daemon::spawn::<u64>(spec.clone(), i, l))
        .collect();
    let ingress = IngressClient::<u64>::connect(&spec).expect("ingress connect");
    Cluster {
        spec,
        daemons,
        ingress,
    }
}

fn shut_down(spec: &ClusterSpec, daemons: Vec<DaemonHandle>) {
    let mut ctl = CtlClient::<u64>::connect(spec).expect("ctl connect");
    ctl.shutdown().expect("shutdown");
    for handle in daemons {
        handle.join().expect("daemon exits cleanly");
    }
}

/// Injects `ops` operations back to back, through processes picked at
/// random, and returns the largest `issued − completed` after an inject.
/// Each process alternates enqueue and dequeue, so every dequeue finds its
/// own process's enqueue before it in the order, and the queue ends empty:
/// what the burst leaves behind is only what the client keeps.
fn burst(ingress: &mut IngressClient<u64>, ops: u64) -> u64 {
    let mut rng = SimRng::new(ops);
    let mut enqueues_next = [true; PROCESSES as usize];
    let mut open_max = 0;
    for value in 0..ops {
        let pid = rng.next_u64() % PROCESSES;
        let enqueue = &mut enqueues_next[pid as usize];
        if *enqueue {
            ingress.enqueue(ProcessId(pid), value).expect("enqueue");
        } else {
            ingress.dequeue(ProcessId(pid)).expect("dequeue");
        }
        *enqueue = !*enqueue;
        open_max = open_max.max(ingress.issued() - ingress.completed());
    }
    open_max
}

/// What a client keeps for `n` completed operations: a record and a
/// latency each, in vectors grown by doubling.
fn kept_bytes(n: usize) -> isize {
    let capacity = n.next_power_of_two().max(4);
    (capacity * (size_of::<OpRecord<u64>>() + size_of::<u64>())) as isize
}

#[test]
fn a_burst_never_has_more_than_the_window_in_flight() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let Cluster {
        spec,
        daemons,
        mut ingress,
    } = boot();
    const OPS: u64 = 20_000;
    let open_max = burst(&mut ingress, OPS);
    println!("at most {open_max} of {OPS} operations in flight, window {WINDOW}");
    assert!(
        open_max <= WINDOW,
        "{open_max} operations in flight, window {WINDOW}"
    );
    assert!(
        ingress.await_quiescence(Duration::from_secs(60)),
        "the burst did not drain: {} of {OPS} completed",
        ingress.completed()
    );
    assert_eq!((ingress.issued(), ingress.completed()), (OPS, OPS));
    ingress.verify().assert_consistent();
    shut_down(&spec, daemons);
    ingress.close();
}

/// What an `ops`-op burst holds at its peak beyond the records and
/// latencies of the operations it completed, on a fresh cluster.
fn in_flight_at_peak(ops: u64) -> isize {
    let Cluster {
        spec,
        daemons,
        mut ingress,
    } = boot();
    // One window's worth first, drained: every peer connection is dialled,
    // and the client's record vector has made the doublings that would
    // otherwise land at the end of the smaller burst, where its peak would
    // meet a half-drained window.
    burst(&mut ingress, WINDOW);
    assert!(ingress.await_quiescence(Duration::from_secs(60)));
    let kept_before = kept_bytes(ingress.records().len());
    let before = LIVE_BYTES.load(Relaxed);
    PEAK_BYTES.store(before, Relaxed);
    burst(&mut ingress, ops);
    assert!(
        ingress.await_quiescence(Duration::from_secs(60)),
        "the {ops}-op burst did not drain"
    );
    let peak = PEAK_BYTES.load(Relaxed) - before;
    let kept = kept_bytes(ingress.records().len()) - kept_before;
    println!(
        "{ops}-op burst: peak {peak} B above the drained cluster, {kept} B of it more records and latencies"
    );
    ingress.verify().assert_consistent();
    shut_down(&spec, daemons);
    ingress.close();
    peak - kept
}

#[test]
fn what_a_burst_holds_at_its_peak_does_not_grow_with_the_burst() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The smaller of two runs: a host that deschedules a daemon at the
    // wrong moment inflates one peak, while a backlog that grows with the
    // burst inflates both.
    let [small, large] = [10_000, 40_000].map(|ops| {
        (0..2)
            .map(|_| in_flight_at_peak(ops))
            .min()
            .expect("two runs")
    });
    let budget = WINDOW as isize * BYTES_PER_WINDOW_SLOT;
    let growth = large - small;
    println!(
        "the 40 k-op burst held {large} B in flight (budget {budget} B), \
         {growth} B more than the 10 k-op burst (slack {SLACK_BYTES} B)"
    );
    assert!(
        large <= budget && growth <= SLACK_BYTES,
        "the 40 k-op burst held {large} B in flight, budget {budget} B, \
         and {growth} B more than the 10 k-op burst, slack {SLACK_BYTES} B"
    );
}

#[test]
fn a_full_window_whose_daemons_are_gone_refuses_the_next_inject() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let Cluster {
        spec,
        daemons,
        mut ingress,
    } = boot();
    // No daemon hosts this process: its daemon drops every inject for it,
    // so none of them ever completes.
    let unhosted = ProcessId(PROCESSES + 1);
    for value in 0..WINDOW {
        ingress
            .enqueue(unhosted, value)
            .expect("room in the window");
    }
    assert_eq!(ingress.issued(), WINDOW);
    shut_down(&spec, daemons);

    let asked = Instant::now();
    let refused = ingress.enqueue(ProcessId(0), 1);
    let waited = asked.elapsed();
    let err = refused.expect_err("an inject into a full window of a gone cluster succeeded");
    assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe, "{err}");
    assert!(waited < Duration::from_secs(1), "refused after {waited:?}");
    assert_eq!(
        ingress.issued(),
        WINDOW,
        "a refused inject was counted as issued"
    );
    ingress.close();
}
