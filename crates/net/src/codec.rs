//! Binary wire codec for the protocol types: one field list per type.
//!
//! The repository is built offline and nothing can be vendored (there is no
//! registry), so serialization cannot come from a `#[derive]`; three private
//! `macro_rules!` are the in-repo form of that one declaration.  The format
//! is deliberately boring, and has not moved since the impls were written out
//! by hand (the unit tests pin the bytes):
//!
//! * fixed-width little-endian integers (`u8`/`u32`/`u64`),
//! * `bool` as one byte (`0`/`1`),
//! * length-prefixed (`u64`) byte strings and sequences,
//! * structs as their fields in declaration order,
//! * enums as a one-byte tag followed by the variant's fields in
//!   declaration order.
//!
//! Every type that can appear inside a [`skueue_core::SkueueMsg`] — plus the
//! [`skueue_verify::OpRecord`]s the completion stream carries — implements
//! [`Wire`].  Encoding is infallible (appends to a `Vec<u8>`); decoding
//! returns a [`DecodeError`] on truncated input or an unknown tag.
//!
//! # Adding a type or a message
//!
//! A struct is one line, `wire_struct! { Ty { a, b, c } }` (`<T>` in front for
//! a payload-generic type): the fields in the order they travel, which is
//! both the encoder and the decoder.  An enum is one `wire_enum!` table of
//! `tag => Variant { fields }`, the only place a tag is written.  So a new
//! protocol message is one variant in `skueue_core::messages` plus one line
//! in the `SkueueMsg` table below — with the next free tag, since daemons of
//! different builds share a cluster.
//!
//! # What is written by hand, and why
//!
//! Twelve impls are not a field walk and stay as code:
//!
//! * `u8`, `u32`, `u64`, `bool` — the format's atoms (`bool` refuses
//!   anything but `0`/`1`);
//! * `String`, `Vec<T>` — a length prefix that is checked against
//!   `MAX_SEQ_LEN` before anything is allocated, and UTF-8 validation:
//!   input validation, not layout;
//! * `Option<T>`, `Box<T>`, `(A, B)`, `(A, B, C)` — `std`'s containers,
//!   generic over what they hold;
//! * `RouteProgress` — its bit count is private and validated through
//!   `RouteProgress::from_parts` (a count beyond the label is refused);
//! * `Batch` — its run lengths are private and built through
//!   `Batch::from_parts`.

use skueue_core::messages::{AbsorbPayload, DhtReplyItem, JoinHandover, PutMeta, RoutedDhtOp};
use skueue_core::{AnchorState, Batch, BatchOp, DhtOp, FirstRun, RunAssignment, SkueueMsg};
use skueue_dht::{Element, PendingGet, StoredEntry};
use skueue_overlay::{Label, NeighborInfo, RouteProgress, VKind, VirtualId};
use skueue_sim::ids::{NodeId, ProcessId, RequestId};
use skueue_verify::{OpKind, OpRecord, OpResult, OrderKey};

/// Error returned when a byte sequence does not decode to the expected type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the value was complete.
    Truncated,
    /// An enum discriminant byte had no corresponding variant.
    BadDiscriminant {
        /// Name of the type being decoded.
        ty: &'static str,
        /// The offending byte.
        value: u8,
    },
    /// A length prefix exceeded the sanity limit (corrupt or hostile frame).
    LengthOverflow {
        /// The claimed length.
        len: u64,
    },
    /// A `String` field held invalid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "input truncated"),
            DecodeError::BadDiscriminant { ty, value } => {
                write!(f, "unknown discriminant {value} for {ty}")
            }
            DecodeError::LengthOverflow { len } => write!(f, "length prefix {len} too large"),
            DecodeError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Sanity bound on decoded sequence lengths (elements, not bytes).  Protocol
/// batches are orders of magnitude smaller; the cap stops a corrupt length
/// prefix from provoking a huge allocation.
const MAX_SEQ_LEN: u64 = 1 << 24;

/// A cursor over the bytes of one frame.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over the whole of `buf`.
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Number of bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` bytes.
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
}

/// A value with a self-describing binary encoding.
pub trait Wire: Sized {
    /// Appends this value's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Decodes one value from the reader, advancing it.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

/// Encodes a value into a fresh byte vector.
pub fn to_bytes<T: Wire>(value: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    value.encode(&mut buf);
    buf
}

/// Decodes a value from a byte slice, requiring the slice to be fully
/// consumed (frames carry exactly one value).
pub fn from_bytes<T: Wire>(bytes: &[u8]) -> Result<T, DecodeError> {
    let mut r = Reader::new(bytes);
    let v = T::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(DecodeError::Truncated);
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// The three declarations.
// ---------------------------------------------------------------------------

/// `wire_newtype!(A, B)`: each `Ty(inner)` travels as its inner value.
macro_rules! wire_newtype {
    ($($ty:ident),+) => {$(
        impl Wire for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                self.0.encode(buf);
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                Ok($ty(Wire::decode(r)?))
            }
        }
    )+};
}

/// `wire_struct! { Ty { a, b } }` or `wire_struct! { <T> Ty { a, b } }`: the
/// named fields, in this order, in both directions.
macro_rules! wire_struct {
    ($(<$t:ident>)? $ty:ident { $($field:ident),+ }) => {
        impl$(<$t: Wire>)? Wire for $ty$(<$t>)? {
            fn encode(&self, buf: &mut Vec<u8>) {
                $(self.$field.encode(buf);)+
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                Ok(Self { $($field: Wire::decode(r)?),+ })
            }
        }
    };
}

/// `wire_enum! { Ty { 0 => A { x, y }, 1 => B, 2 => C(inner) } }` (`<T>` in
/// front as above): one tag byte, then the variant's fields in the order
/// listed.  An unlisted tag is a [`DecodeError::BadDiscriminant`] naming `Ty`.
/// The expansion names `Wire`, `Reader` and `DecodeError` as its caller sees
/// them (`frame.rs` imports all three).
macro_rules! wire_enum {
    ($(<$t:ident>)? $ty:ident {
        $($tag:literal => $variant:ident $({ $($field:ident),+ })? $(($inner:ident))?),+ $(,)?
    }) => {
        impl$(<$t: Wire>)? Wire for $ty$(<$t>)? {
            fn encode(&self, buf: &mut Vec<u8>) {
                match self {$(
                    Self::$variant $({ $($field),+ })? $(($inner))? => {
                        buf.push($tag);
                        $($($field.encode(buf);)+)?
                        $($inner.encode(buf);)?
                    }
                )+}
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                match u8::decode(r)? {
                    $($tag => {
                        $($(let $field = Wire::decode(r)?;)+)?
                        $(let $inner = Wire::decode(r)?;)?
                        Ok(Self::$variant $({ $($field),+ })? $(($inner))?)
                    })+
                    value => Err(DecodeError::BadDiscriminant { ty: stringify!($ty), value }),
                }
            }
        }
    };
}
pub(crate) use wire_enum;

// ---------------------------------------------------------------------------
// Primitives and containers (by hand: see the module header).
// ---------------------------------------------------------------------------

impl Wire for u8 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(r.take(1)?[0])
    }
}

impl Wire for u32 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(u32::from_le_bytes(r.take(4)?.try_into().expect("4 bytes")))
    }
}

impl Wire for u64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(u64::from_le_bytes(r.take(8)?.try_into().expect("8 bytes")))
    }
}

impl Wire for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            value => Err(DecodeError::BadDiscriminant { ty: "bool", value }),
        }
    }
}

impl Wire for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u64).encode(buf);
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = u64::decode(r)?;
        if len > MAX_SEQ_LEN {
            return Err(DecodeError::LengthOverflow { len });
        }
        let bytes = r.take(len as usize)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u64).encode(buf);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = u64::decode(r)?;
        if len > MAX_SEQ_LEN {
            return Err(DecodeError::LengthOverflow { len });
        }
        // Every element takes at least one byte, so a claim beyond what is
        // left of the frame reserves no more than the frame can still hold.
        let mut v = Vec::with_capacity((len as usize).min(1024).min(r.remaining()));
        for _ in 0..len {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.take(1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            value => Err(DecodeError::BadDiscriminant {
                ty: "Option",
                value,
            }),
        }
    }
}

impl<T: Wire> Wire for Box<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (**self).encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Box::new(T::decode(r)?))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

// ---------------------------------------------------------------------------
// Types with private or validated state (by hand: see the module header).
// ---------------------------------------------------------------------------

impl Wire for RouteProgress {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.target.encode(buf);
        self.bits_left().encode(buf);
        self.hops.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let target = Label::decode(r)?;
        let bits_left = u8::decode(r)?;
        let hops = u32::decode(r)?;
        // A middle node shifts the target by this count: one beyond the
        // label's width is a corrupt or hostile frame, not a route.
        RouteProgress::from_parts(target, bits_left, hops).ok_or(DecodeError::LengthOverflow {
            len: bits_left as u64,
        })
    }
}

impl Wire for Batch {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.first_run().encode(buf);
        (self.runs().len() as u64).encode(buf);
        for &run in self.runs() {
            run.encode(buf);
        }
        self.joins.encode(buf);
        self.leaves.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let first = FirstRun::decode(r)?;
        let runs = Vec::<u64>::decode(r)?;
        let joins = u64::decode(r)?;
        let leaves = u64::decode(r)?;
        Ok(Batch::from_parts(first, runs, joins, leaves))
    }
}

// ---------------------------------------------------------------------------
// Everything else: one field list per type, in the order the fields travel.
// ---------------------------------------------------------------------------

wire_newtype!(NodeId, ProcessId, Label);

wire_struct! { RequestId { origin, seq } }
wire_struct! { VirtualId { process, kind } }
wire_struct! { NeighborInfo { node, vid, label } }
wire_struct! { <T> Element { id, value } }
wire_struct! { <T> StoredEntry { position, key, ticket, element } }
wire_struct! { PendingGet { request, requester, max_ticket } }
wire_struct! { RunAssignment {
    wave, kind, count, pos_lo, pos_hi, value_base, ticket_base, descending
} }
wire_struct! { AnchorState { first, last, counter, ticket, epoch, phases_started, pending_churn } }
wire_struct! { PutMeta { issued_round, order, wave, needs_ack, issuer } }
wire_struct! { <T> RoutedDhtOp { op, progress } }
wire_struct! { <T> DhtReplyItem { request, entry } }
wire_struct! { <T> JoinHandover { pred, succ, entries, pending } }
wire_struct! { <T> AbsorbPayload {
    pred, succ, entries, pending, child_batches, joiners, anchor
} }
wire_struct! { OrderKey { wave, shard, major, origin, minor } }
wire_struct! { <T> OpRecord { id, kind, value, result, order, issued_round, completed_round } }

wire_enum! { VKind { 0 => Left, 1 => Middle, 2 => Right } }
wire_enum! { BatchOp { 0 => Enqueue, 1 => Dequeue } }
wire_enum! { FirstRun { 0 => Enqueues, 1 => Dequeues } }
wire_enum! { OpKind { 0 => Enqueue, 1 => Dequeue } }
wire_enum! { OpResult { 0 => Enqueued, 1 => Returned(source), 2 => Empty } }
wire_enum! { <T> DhtOp {
    0 => Put { entry, meta },
    1 => Get { position, max_ticket, request, requester },
    2 => Move { entry },
} }
wire_enum! { <T> SkueueMsg {
    0 => Aggregate { child, epoch, batch },
    1 => AggregateAck,
    2 => Serve { epoch, runs },
    3 => DhtBatch { ops },
    4 => DhtReplyBatch { replies },
    5 => PutAck { request },
    6 => JoinRequest { joiner, progress },
    7 => Integrate { handover },
    8 => IntegrateAck,
    9 => LeaveRequest { leaver },
    10 => LeaveGranted,
    11 => LeaveDeferred,
    12 => AbsorbRequest,
    13 => AbsorbData(payload),
    14 => SiblingStatus { kind, active },
    15 => SetPred { new_pred },
    16 => SetSucc { new_succ },
    17 => UpdateFlag { phase },
    18 => UpdateAck { phase },
    19 => UpdateOver { phase },
    20 => AnchorTransfer { state },
    21 => ChurnHandover { count },
} }

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::NetFrame;
    use proptest::prelude::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = to_bytes(&value);
        let back: T = from_bytes(&bytes).expect("decode");
        assert_eq!(back, value);
    }

    fn entry(pos: u64, origin: u64, seq: u64, value: u64) -> StoredEntry<u64> {
        StoredEntry {
            position: pos,
            key: Label(pos.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            ticket: seq,
            element: Element {
                id: RequestId::new(ProcessId(origin), seq),
                value,
            },
        }
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(true);
        roundtrip(String::from("héllo"));
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Option::<u64>::None);
        roundtrip(Some(7u64));
        roundtrip((NodeId(1), ProcessId(2)));
    }

    #[test]
    fn truncated_input_is_an_error() {
        let bytes = to_bytes(&u64::MAX);
        assert_eq!(
            from_bytes::<u64>(&bytes[..7]),
            Err(DecodeError::Truncated),
            "short read"
        );
        let mut extended = bytes.clone();
        extended.push(0);
        assert_eq!(
            from_bytes::<u64>(&extended),
            Err(DecodeError::Truncated),
            "trailing bytes"
        );
    }

    #[test]
    fn bad_discriminants_are_errors() {
        assert!(matches!(
            from_bytes::<SkueueMsg<u64>>(&[99]),
            Err(DecodeError::BadDiscriminant { .. })
        ));
        assert!(matches!(
            from_bytes::<bool>(&[7]),
            Err(DecodeError::BadDiscriminant { .. })
        ));
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut buf = Vec::new();
        (u64::MAX).encode(&mut buf);
        assert!(matches!(
            from_bytes::<Vec<u64>>(&buf),
            Err(DecodeError::LengthOverflow { .. })
        ));
    }

    /// The remaining-bit count of a routed op is a shift amount at the next
    /// middle node: one the label cannot spell must be refused at the wire.
    #[test]
    fn route_progress_rejects_a_bit_count_beyond_the_label() {
        let encoded = |bits_left: u8| {
            let mut buf = Vec::new();
            Label(0xDEAD_BEEF).encode(&mut buf);
            bits_left.encode(&mut buf);
            7u32.encode(&mut buf);
            buf
        };
        for bits_left in [65, 255] {
            assert_eq!(
                from_bytes::<RouteProgress>(&encoded(bits_left)),
                Err(DecodeError::LengthOverflow {
                    len: bits_left as u64
                })
            );
        }
        for bits_left in [0, 64] {
            let p: RouteProgress =
                from_bytes(&encoded(bits_left)).expect("a count a route can have");
            assert_eq!((p.bits_left(), p.hops), (bits_left, 7));
            assert_eq!(to_bytes(&p), encoded(bits_left));
        }
        // The same byte inside a routed op fails the whole message.
        let get = |progress| skueue_core::messages::RoutedDhtOp::<u64> {
            op: Box::new(DhtOp::Get {
                position: 1,
                max_ticket: u64::MAX,
                request: RequestId::new(ProcessId(0), 1),
                requester: NodeId(2),
            }),
            progress,
        };
        let mut bytes = to_bytes(&get(RouteProgress::new(Label(9), 64)));
        let at = bytes.len() - 5; // target · count · hops: the count precedes the u32
        assert_eq!(bytes[at], 64);
        bytes[at] = 65;
        assert!(from_bytes::<skueue_core::messages::RoutedDhtOp<u64>>(&bytes).is_err());
        // A full batch of routed ops, every budget from 0 upwards.
        roundtrip(SkueueMsg::<u64>::DhtBatch {
            ops: (0..16u32)
                .map(|i| get(RouteProgress::new(Label(u64::MAX / (i as u64 + 1)), i * 4)))
                .collect(),
        });
    }

    /// One value of every [`SkueueMsg`] variant, in tag order.
    fn message_corpus() -> Vec<SkueueMsg<u64>> {
        let neighbor = NeighborInfo::new(
            NodeId(4),
            VirtualId::new(ProcessId(1), VKind::Middle),
            Label(1 << 62),
        );
        let mut batch = Batch::empty();
        batch.push_op(BatchOp::Dequeue);
        batch.push_op(BatchOp::Enqueue);
        batch.joins = 1;
        let handover = skueue_core::messages::JoinHandover {
            pred: neighbor,
            succ: neighbor,
            entries: vec![entry(3, 1, 0, 42)],
            pending: vec![(
                9,
                PendingGet {
                    request: RequestId::new(ProcessId(2), 5),
                    requester: NodeId(8),
                    max_ticket: u64::MAX,
                },
            )],
        };
        let absorb = skueue_core::messages::AbsorbPayload {
            pred: neighbor,
            succ: neighbor,
            entries: vec![entry(1, 2, 3, 4)],
            pending: vec![],
            child_batches: vec![(NodeId(2), 7, batch.clone())],
            joiners: vec![neighbor],
            anchor: Some(AnchorState {
                first: 1,
                last: 2,
                counter: 3,
                ticket: 4,
                epoch: 5,
                phases_started: 6,
                pending_churn: 7,
            }),
        };
        vec![
            SkueueMsg::Aggregate {
                child: NodeId(1),
                epoch: 2,
                batch: batch.clone(),
            },
            SkueueMsg::AggregateAck,
            SkueueMsg::Serve {
                epoch: 3,
                runs: vec![RunAssignment {
                    wave: 1,
                    kind: BatchOp::Enqueue,
                    count: 2,
                    pos_lo: 3,
                    pos_hi: 4,
                    value_base: 5,
                    ticket_base: 6,
                    descending: true,
                }],
            },
            SkueueMsg::DhtBatch {
                ops: vec![
                    skueue_core::messages::RoutedDhtOp {
                        op: Box::new(DhtOp::Put {
                            entry: entry(7, 1, 2, 3),
                            meta: skueue_core::messages::PutMeta {
                                issued_round: 1,
                                order: 2,
                                wave: 3,
                                needs_ack: false,
                                issuer: NodeId(4),
                            },
                        }),
                        progress: RouteProgress::new(Label(77), 5),
                    },
                    skueue_core::messages::RoutedDhtOp {
                        op: Box::new(DhtOp::Get {
                            position: 1,
                            max_ticket: u64::MAX,
                            request: RequestId::new(ProcessId(0), 1),
                            requester: NodeId(2),
                        }),
                        progress: RouteProgress::linear_only(Label(3)),
                    },
                ],
            },
            SkueueMsg::DhtReplyBatch {
                replies: vec![skueue_core::messages::DhtReplyItem {
                    request: RequestId::new(ProcessId(1), 2),
                    entry: entry(3, 4, 5, 6),
                }],
            },
            SkueueMsg::PutAck {
                request: RequestId::new(ProcessId(9), 9),
            },
            SkueueMsg::JoinRequest {
                joiner: neighbor,
                progress: RouteProgress::new(Label(123), 8),
            },
            SkueueMsg::Integrate {
                handover: Box::new(handover),
            },
            SkueueMsg::IntegrateAck,
            SkueueMsg::LeaveRequest { leaver: neighbor },
            SkueueMsg::LeaveGranted,
            SkueueMsg::LeaveDeferred,
            SkueueMsg::AbsorbRequest,
            SkueueMsg::AbsorbData(Box::new(absorb)),
            SkueueMsg::SiblingStatus {
                kind: VKind::Right,
                active: true,
            },
            SkueueMsg::SetPred { new_pred: neighbor },
            SkueueMsg::SetSucc { new_succ: neighbor },
            SkueueMsg::UpdateFlag { phase: 1 },
            SkueueMsg::UpdateAck { phase: 2 },
            SkueueMsg::UpdateOver { phase: 3 },
            SkueueMsg::AnchorTransfer {
                state: AnchorState::default(),
            },
        ]
    }

    #[test]
    fn every_message_variant_roundtrips() {
        for msg in message_corpus() {
            roundtrip(msg);
        }
    }

    /// The `DhtOp` tag added after the recorded wire format: an element
    /// handed on to its owner travels as tag 2 followed by its entry, and
    /// leaves every recorded encoding as it was.
    #[test]
    fn a_moved_element_is_tag_two_and_its_entry() {
        let moved = DhtOp::<u64>::Move {
            entry: entry(5, 3, 1, 8),
        };
        let bytes = to_bytes(&moved);
        assert_eq!(bytes[0], 2);
        assert_eq!(bytes[1..], to_bytes(&entry(5, 3, 1, 8))[..]);
        let batch = SkueueMsg::DhtBatch {
            ops: vec![skueue_core::messages::RoutedDhtOp {
                op: Box::new(moved),
                progress: RouteProgress::linear_only(Label(5)),
            }],
        };
        every_strict_prefix_fails(&batch);
        roundtrip(batch);
    }

    /// The `SkueueMsg` tag added after the recorded wire format: a leaver's
    /// churn hand-over travels as tag 21 followed by its count, beside an
    /// `AbsorbData` whose bytes are as recorded.
    #[test]
    fn a_churn_handover_is_tag_twenty_one_and_its_count() {
        let handover = SkueueMsg::<u64>::ChurnHandover { count: 3 };
        let bytes = to_bytes(&handover);
        assert_eq!(bytes[0], 21);
        assert_eq!(bytes[1..], to_bytes(&3u64)[..]);
        every_strict_prefix_fails(&handover);
        roundtrip(handover);
    }

    fn string_record() -> OpRecord<String> {
        OpRecord {
            id: RequestId::new(ProcessId(3), 14),
            kind: OpKind::Dequeue,
            value: String::from("job #7"),
            result: OpResult::Returned(RequestId::new(ProcessId(1), 2)),
            order: OrderKey {
                wave: 1,
                shard: 2,
                major: 3,
                origin: 4,
                minor: 5,
            },
            issued_round: 10,
            completed_round: 20,
        }
    }

    #[test]
    fn op_records_roundtrip_for_string_payloads() {
        roundtrip(string_record());
    }

    /// One value of every [`NetFrame`] variant, in tag order.
    fn frame_corpus() -> Vec<NetFrame<u64>> {
        vec![
            NetFrame::Hello { from: 2 },
            NetFrame::Proto {
                from: NodeId(1),
                to: NodeId(5),
                msg: SkueueMsg::UpdateFlag { phase: 3 },
            },
            NetFrame::Inject {
                id: RequestId::new(ProcessId(3), 9),
                insert: true,
                value: 77,
            },
            NetFrame::Completion {
                record: OpRecord {
                    id: RequestId::new(ProcessId(0), 6),
                    kind: OpKind::Enqueue,
                    value: 11,
                    result: OpResult::Enqueued,
                    order: OrderKey {
                        wave: 1,
                        shard: 0,
                        major: 2,
                        origin: 0,
                        minor: 0,
                    },
                    issued_round: 1,
                    completed_round: 4,
                },
            },
            NetFrame::Join {
                pid: ProcessId(5),
                bootstrap: NodeId(4),
            },
            NetFrame::Leave { pid: ProcessId(2) },
            NetFrame::Status,
            NetFrame::StatusReply {
                daemon: 1,
                processes: vec![(0, true, false), (3, false, false)],
            },
            NetFrame::Subscribe,
            NetFrame::Shutdown,
            NetFrame::Ok,
            NetFrame::Err(String::from("no such pid")),
            NetFrame::Refused {
                id: RequestId::new(ProcessId(4), 12),
            },
        ]
    }

    /// Every corpus value as the frame a connection would carry it in.
    fn framed_corpus() -> Vec<NetFrame<u64>> {
        let protos = message_corpus().into_iter().map(|msg| NetFrame::Proto {
            from: NodeId(7),
            to: NodeId(11),
            msg,
        });
        protos.chain(frame_corpus()).collect()
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    fn assert_golden<T: Wire>(what: &str, values: &[T], golden: &[(u64, usize)]) {
        assert_eq!(values.len(), golden.len(), "{what}: one golden per value");
        for (i, (value, &expected)) in values.iter().zip(golden).enumerate() {
            let bytes = to_bytes(value);
            assert_eq!(
                (fnv1a(&bytes), bytes.len()),
                expected,
                "{what} #{i} now encodes to {bytes:02x?}"
            );
        }
    }

    /// The bytes on the wire, as the hand-written codec of `7e928c3` produced
    /// them (FNV-1a and length of each encoding): daemons of different builds
    /// share a cluster, so the format moves only on purpose.
    #[test]
    fn encodings_match_the_recorded_wire_format() {
        assert_golden("SkueueMsg", &message_corpus(), &GOLDEN_MESSAGES);
        assert_golden("NetFrame", &frame_corpus(), &GOLDEN_FRAMES);
        assert_golden("OpRecord<String>", &[string_record()], &[GOLDEN_RECORD]);
    }

    const GOLDEN_MESSAGES: [(u64, usize); 21] = [
        (0x5b87c9c196af4b76, 66),
        (0xaf63bc4c8601b62c, 1),
        (0xb7ecd8f8fc8d98af, 67),
        (0x1b2f316fca012353, 158),
        (0xc152624b30b4e378, 73),
        (0x73e3bddcfb12c680, 17),
        (0xdeed2c20b0912d3c, 39),
        (0xca9bd289237802b0, 155),
        (0xaf63c54c8601c577, 1),
        (0x567c3422a5e8aae0, 26),
        (0xaf63c74c8601c8dd, 1),
        (0xaf63c64c8601c72a, 1),
        (0xaf63c14c8601beab, 1),
        (0xf4c74e6b4ae67cf9, 278),
        (0x0d4cbf188984ec58, 3),
        (0x14ae4b6e7ad06b4e, 26),
        (0x07c3ae17b75ff471, 26),
        (0xa83a49bee493defd, 9),
        (0x817410e0ad540b57, 9),
        (0x91196667f7eb36e1, 9),
        (0x4a18fb22d3d054a3, 57),
    ];
    const GOLDEN_FRAMES: [(u64, usize); 13] = [
        (0xa4c6f7c878c0702d, 5),
        (0xf2cb9c87056929b8, 26),
        (0x891b2e540b29f407, 26),
        (0x06536fb7251cb213, 83),
        (0x83ac62522c18de12, 17),
        (0x42e665785367efa2, 9),
        (0xaf63bb4c8601b479, 1),
        (0x5490adc381850a8f, 33),
        (0xaf63c54c8601c577, 1),
        (0xaf63c44c8601c3c4, 1),
        (0xaf63c74c8601c8dd, 1),
        (0x0cb45c04970cf55c, 20),
        // `Refused`, the one frame added after the recorded format.
        (0x518e5f954e7558e3, 17),
    ];
    const GOLDEN_RECORD: (u64, usize) = (0x2eb6ecc7c9d63de1, 104);

    fn every_strict_prefix_fails<T: Wire + std::fmt::Debug>(value: &T) {
        let bytes = to_bytes(value);
        for cut in 0..bytes.len() {
            let got = from_bytes::<T>(&bytes[..cut]);
            assert!(
                got.is_err(),
                "{cut} of {} bytes of {value:?} decoded to {got:?}",
                bytes.len()
            );
        }
    }

    #[test]
    fn every_strict_prefix_of_an_encoding_is_an_error() {
        framed_corpus().iter().for_each(every_strict_prefix_fails);
        message_corpus().iter().for_each(every_strict_prefix_fails);
        every_strict_prefix_fails(&string_record());
    }

    /// A frame with one bit flipped anywhere is refused or is another frame
    /// — one that encodes back to exactly those bytes; it is never a panic.
    #[test]
    fn every_single_bit_flip_is_refused_or_decodes_to_what_it_spells() {
        for frame in framed_corpus() {
            let mut bytes = to_bytes(&frame);
            for at in 0..bytes.len() {
                for bit in 0..8 {
                    bytes[at] ^= 1 << bit;
                    if let Ok(other) = from_bytes::<NetFrame<u64>>(&bytes) {
                        assert_eq!(to_bytes(&other), bytes, "byte {at} bit {bit} of {frame:?}");
                    }
                    bytes[at] ^= 1 << bit;
                }
            }
        }
    }

    proptest! {
        /// Batches of arbitrary shape survive the wire.
        #[test]
        fn prop_batch_roundtrips(
            runs in proptest::collection::vec(0u64..1000, 0..8),
            joins in 0u64..10,
            leaves in 0u64..10,
            stack in any::<bool>(),
        ) {
            let first = if stack { FirstRun::Dequeues } else { FirstRun::Enqueues };
            let batch = Batch::from_parts(first, runs, joins, leaves);
            let bytes = to_bytes(&batch);
            let back: Batch = from_bytes(&bytes).unwrap();
            prop_assert_eq!(back, batch);
        }

        /// Route progress roundtrips for every remaining-bit count a route
        /// can have.
        #[test]
        fn prop_route_progress_roundtrips(
            target in any::<u64>(),
            bits_left in 0u32..65,
            hops in any::<u32>(),
        ) {
            let p = RouteProgress::from_parts(Label(target), bits_left as u8, hops).unwrap();
            let bytes = to_bytes(&p);
            let back: RouteProgress = from_bytes(&bytes).unwrap();
            prop_assert_eq!(back, p);
        }
    }
}
