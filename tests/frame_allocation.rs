//! What reading a frame may allocate, held by a recording allocator.
//!
//! A frame's length prefix is a claim made by whoever is on the other end of
//! the connection; `read_frame` must let memory follow the bytes that
//! actually arrive.  This test forwards every allocation to the system
//! allocator and records the largest single request.
//!
//! One test function only: the record is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Cursor;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use skueue::net::frame::{read_frame, write_frame, MAX_FRAME_BYTES};

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

#[test]
fn reading_a_frame_allocates_for_what_arrived_not_for_what_was_claimed() {
    // The largest admissible claim and then nothing: an error, and no request
    // beyond the first reservation (64 MiB were allocated and zeroed here).
    let claim = Cursor::new(MAX_FRAME_BYTES.to_le_bytes().to_vec());
    let largest = largest_request_of(move || {
        let mut claim = claim;
        assert!(read_frame::<String, _>(&mut claim).is_err());
    });
    assert!(
        largest <= 64 << 10,
        "a 4-byte prefix cost a {largest}-byte allocation"
    );

    // A claim above the cap is turned away before any buffer exists: all it
    // may cost is its own error message.
    let claim = Cursor::new((MAX_FRAME_BYTES + 1).to_le_bytes().to_vec());
    let largest = largest_request_of(move || {
        let mut claim = claim;
        assert!(read_frame::<String, _>(&mut claim).is_err());
    });
    assert!(
        largest <= 256,
        "an oversized prefix cost a {largest}-byte allocation"
    );

    // A well-formed large frame still round-trips, in memory proportional to
    // its size.
    let body = "x".repeat(1 << 20);
    let mut wire = Vec::new();
    write_frame(&mut wire, &body).expect("write");
    let mut wire = Cursor::new(wire);
    let mut back = None;
    let largest = largest_request_of(|| back = read_frame::<String, _>(&mut wire).expect("read"));
    assert_eq!(back.as_deref(), Some(body.as_str()));
    assert!(
        largest <= 3 << 20,
        "a 1 MiB frame cost a {largest}-byte allocation"
    );
}
