//! Elements stored in the DHT, and the [`Payload`] trait their application
//! values implement.

use skueue_overlay::Label;
use skueue_sim::ids::RequestId;
use std::fmt;

/// Application payload carried by a queue/stack element.
///
/// The protocol is payload-agnostic — it only routes, aggregates and orders
/// elements — so anything a deployment wants to move through the queue
/// qualifies as long as it can be
///
/// * `Clone`d (completion records and ticket outcomes carry the payload out
///   of the structure; the *protocol path* itself moves payloads and never
///   clones),
/// * compared and hashed (`Ord + Hash` — the verifier's matching and the
///   checkers' payload round-trip checks),
/// * printed for diagnostics (`Debug`),
/// * defaulted (`Default` — the payload slot of a `⊥` dequeue record; for
///   `u64` this is `0`, which keeps pre-generic histories bit-identical).
///
/// The trait is blanket-implemented: any `Clone + Ord + Hash + Debug +
/// Default + Send + 'static` type is a payload — `u64`, `String`, `Vec<u8>`,
/// or an application job struct.  (`Send` because a simulation round may
/// run an anchor shard's nodes — and therefore the payloads they hold — on
/// another thread.)
pub trait Payload:
    Clone + Ord + Eq + std::hash::Hash + fmt::Debug + Default + Send + 'static
{
}

impl<T> Payload for T where
    T: Clone + Ord + Eq + std::hash::Hash + fmt::Debug + Default + Send + 'static
{
}

/// An element of the universe `E` that can be put into the distributed
/// queue or stack.
///
/// The paper assumes w.l.o.g. that every element is enqueued at most once —
/// "an easy way to achieve this is to make the calling process and the
/// current count of requests performed a part of e".  [`Element`] does
/// exactly that: it carries the [`RequestId`] of the `ENQUEUE()`/`PUSH()`
/// that created it plus an application payload of type `T`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Element<T = u64> {
    /// The request that enqueued/pushed this element.
    pub id: RequestId,
    /// Application payload.
    pub value: T,
}

impl<T: Payload> Element<T> {
    /// Creates an element.
    pub fn new(id: RequestId, value: T) -> Self {
        Element { id, value }
    }
}

impl<T: Payload> fmt::Display for Element<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e[{}={:?}]", self.id, self.value)
    }
}

/// An element as stored at its responsible node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredEntry<T = u64> {
    /// Queue/stack position the element was assigned by the anchor.
    pub position: u64,
    /// DHT key `k(position)` (kept so data handover on `JOIN()`/`LEAVE()`
    /// does not need to re-hash).
    pub key: Label,
    /// Ticket of the stack variant; `0` for queue elements.
    pub ticket: u64,
    /// The element itself.
    pub element: Element<T>,
}

impl<T: Payload> StoredEntry<T> {
    /// Creates a queue entry (ticket 0).
    pub fn queue(position: u64, key: Label, element: Element<T>) -> Self {
        StoredEntry {
            position,
            key,
            ticket: 0,
            element,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skueue_sim::ids::ProcessId;

    fn rid(p: u64, s: u64) -> RequestId {
        RequestId::new(ProcessId(p), s)
    }

    #[test]
    fn element_display() {
        let e = Element::new(rid(1, 2), 99u64);
        assert_eq!(e.to_string(), "e[p1#2=99]");
    }

    #[test]
    fn string_element_display_quotes_the_payload() {
        let e = Element::new(rid(1, 2), String::from("job"));
        assert_eq!(e.to_string(), "e[p1#2=\"job\"]");
    }

    #[test]
    fn elements_with_distinct_requests_differ() {
        let a = Element::new(rid(1, 2), 5u64);
        let b = Element::new(rid(1, 3), 5u64);
        assert_ne!(a, b);
        assert_eq!(a, Element::new(rid(1, 2), 5));
    }

    #[test]
    fn queue_entry_has_ticket_zero() {
        let e = Element::new(rid(0, 0), 7u64);
        let key = Label::from_f64(0.25);
        let q = StoredEntry::queue(11, key, e.clone());
        assert_eq!(q.ticket, 0);
        assert_eq!(q.position, 11);
        assert_eq!(q.key, key);
        assert_eq!(q.element, e);
    }

    #[test]
    fn non_copy_payloads_round_trip() {
        let e = Element::new(rid(3, 1), vec![1u8, 2, 3]);
        let entry = StoredEntry::queue(4, Label::from_f64(0.5), e);
        assert_eq!(entry.element.value, vec![1, 2, 3]);
    }
}
