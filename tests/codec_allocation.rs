//! What decoding a sequence may allocate, held by a recording allocator.
//!
//! A sequence's length prefix is a claim made by whoever wrote the frame;
//! the decoder must let memory follow the bytes that are actually there.
//! Every encoded element takes at least one byte, so a claim can reserve no
//! more elements than the frame has bytes left.  This test forwards every
//! allocation to the system allocator and records the largest single
//! request, as `tests/frame_allocation.rs` does for whole frames.
//!
//! One test function only: the record is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use skueue::core::SkueueMsg;
use skueue::net::codec::{from_bytes, to_bytes};
use skueue::prelude::{ProcessId, RequestId};

static LARGEST_REQUEST: AtomicUsize = AtomicUsize::new(0);

struct Recording;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the record is a plain statistic.
unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(layout.size(), Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(new_size, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Recording = Recording;

/// The largest request `f` makes.
fn largest_request_of(f: impl FnOnce()) -> usize {
    LARGEST_REQUEST.store(0, Relaxed);
    f();
    LARGEST_REQUEST.load(Relaxed)
}

type Messages = Vec<SkueueMsg<u64>>;

#[test]
fn decoding_a_sequence_reserves_for_the_bytes_left_not_for_the_claim() {
    let element = size_of::<SkueueMsg<u64>>();

    // A claim of a million messages at the very end of the input: nothing
    // is left to hold even one, so nothing is reserved (1024 messages were).
    let claim = (1u64 << 20).to_le_bytes();
    let largest = largest_request_of(|| assert!(from_bytes::<Messages>(&claim).is_err()));
    assert_eq!(
        largest, 0,
        "an 8-byte claim cost a {largest}-byte allocation"
    );

    // The same claim followed by three bytes reserves at most three.
    let mut short = claim.to_vec();
    short.extend_from_slice(&[0xff; 3]);
    let largest = largest_request_of(|| assert!(from_bytes::<Messages>(&short).is_err()));
    assert!(
        largest <= 3 * element,
        "a claim with 3 bytes behind it cost a {largest}-byte allocation ({element} B per message)"
    );

    // Well-formed sequences still round-trip.
    let messages: Messages = (0..100)
        .map(|seq| SkueueMsg::PutAck {
            request: RequestId::new(ProcessId(7), seq),
        })
        .collect();
    let wire = to_bytes(&messages);
    let mut back = None;
    let largest = largest_request_of(|| back = from_bytes::<Messages>(&wire).ok());
    assert_eq!(back.as_ref(), Some(&messages));
    assert!(
        largest <= 100 * element,
        "100 messages cost a {largest}-byte allocation"
    );
}
