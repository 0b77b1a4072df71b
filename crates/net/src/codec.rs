//! Hand-rolled binary wire codec for the protocol types.
//!
//! The repository is built offline and nothing can be vendored (there is no
//! registry), so serialization cannot be derived — it is written out by hand
//! here instead.  The format is deliberately boring:
//!
//! * fixed-width little-endian integers (`u8`/`u32`/`u64`),
//! * `bool` as one byte (`0`/`1`),
//! * length-prefixed (`u32`) byte strings and sequences,
//! * enums as a one-byte discriminant followed by the variant's fields in
//!   declaration order.
//!
//! Every type that can appear inside a [`skueue_core::SkueueMsg`] — plus the
//! [`skueue_verify::OpRecord`]s the completion stream carries — implements
//! [`Wire`].  Encoding is infallible (appends to a `Vec<u8>`); decoding
//! returns a [`DecodeError`] on truncated input or an unknown discriminant
//! and is exercised by round-trip property tests.

use skueue_core::{AnchorState, Batch, BatchOp, FirstRun, RunAssignment};
use skueue_core::{DhtOp, SkueueMsg};
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
// Primitives.
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
        let mut v = Vec::with_capacity((len as usize).min(1024));
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
// Identifiers and overlay types.
// ---------------------------------------------------------------------------

impl Wire for NodeId {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(NodeId(u64::decode(r)?))
    }
}

impl Wire for ProcessId {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(ProcessId(u64::decode(r)?))
    }
}

impl Wire for RequestId {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.origin.encode(buf);
        self.seq.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(RequestId {
            origin: ProcessId::decode(r)?,
            seq: u64::decode(r)?,
        })
    }
}

impl Wire for Label {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Label(u64::decode(r)?))
    }
}

impl Wire for VKind {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(self.index() as u8);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.take(1)?[0] {
            i @ 0..=2 => Ok(VKind::from_index(i as usize)),
            value => Err(DecodeError::BadDiscriminant { ty: "VKind", value }),
        }
    }
}

impl Wire for VirtualId {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.process.encode(buf);
        self.kind.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(VirtualId {
            process: ProcessId::decode(r)?,
            kind: VKind::decode(r)?,
        })
    }
}

impl Wire for NeighborInfo {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.node.encode(buf);
        self.vid.encode(buf);
        self.label.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(NeighborInfo {
            node: NodeId::decode(r)?,
            vid: VirtualId::decode(r)?,
            label: Label::decode(r)?,
        })
    }
}

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

// ---------------------------------------------------------------------------
// DHT types.
// ---------------------------------------------------------------------------

impl<T: Wire> Wire for Element<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.id.encode(buf);
        self.value.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Element {
            id: RequestId::decode(r)?,
            value: T::decode(r)?,
        })
    }
}

impl<T: Wire> Wire for StoredEntry<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.position.encode(buf);
        self.key.encode(buf);
        self.ticket.encode(buf);
        self.element.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(StoredEntry {
            position: u64::decode(r)?,
            key: Label::decode(r)?,
            ticket: u64::decode(r)?,
            element: Element::decode(r)?,
        })
    }
}

impl Wire for PendingGet {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.request.encode(buf);
        self.requester.encode(buf);
        self.max_ticket.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(PendingGet {
            request: RequestId::decode(r)?,
            requester: NodeId::decode(r)?,
            max_ticket: u64::decode(r)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Batches and anchor state.
// ---------------------------------------------------------------------------

impl Wire for BatchOp {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(match self {
            BatchOp::Enqueue => 0,
            BatchOp::Dequeue => 1,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.take(1)?[0] {
            0 => Ok(BatchOp::Enqueue),
            1 => Ok(BatchOp::Dequeue),
            value => Err(DecodeError::BadDiscriminant {
                ty: "BatchOp",
                value,
            }),
        }
    }
}

impl Wire for FirstRun {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(match self {
            FirstRun::Enqueues => 0,
            FirstRun::Dequeues => 1,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.take(1)?[0] {
            0 => Ok(FirstRun::Enqueues),
            1 => Ok(FirstRun::Dequeues),
            value => Err(DecodeError::BadDiscriminant {
                ty: "FirstRun",
                value,
            }),
        }
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

impl Wire for RunAssignment {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.wave.encode(buf);
        self.kind.encode(buf);
        self.count.encode(buf);
        self.pos_lo.encode(buf);
        self.pos_hi.encode(buf);
        self.value_base.encode(buf);
        self.ticket_base.encode(buf);
        self.descending.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(RunAssignment {
            wave: u64::decode(r)?,
            kind: BatchOp::decode(r)?,
            count: u64::decode(r)?,
            pos_lo: u64::decode(r)?,
            pos_hi: u64::decode(r)?,
            value_base: u64::decode(r)?,
            ticket_base: u64::decode(r)?,
            descending: bool::decode(r)?,
        })
    }
}

impl Wire for AnchorState {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.first.encode(buf);
        self.last.encode(buf);
        self.counter.encode(buf);
        self.ticket.encode(buf);
        self.epoch.encode(buf);
        self.phases_started.encode(buf);
        self.pending_churn.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(AnchorState {
            first: u64::decode(r)?,
            last: u64::decode(r)?,
            counter: u64::decode(r)?,
            ticket: u64::decode(r)?,
            epoch: u64::decode(r)?,
            phases_started: u64::decode(r)?,
            pending_churn: u64::decode(r)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Protocol messages.
// ---------------------------------------------------------------------------

impl Wire for skueue_core::messages::PutMeta {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.issued_round.encode(buf);
        self.order.encode(buf);
        self.wave.encode(buf);
        self.needs_ack.encode(buf);
        self.issuer.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(skueue_core::messages::PutMeta {
            issued_round: u64::decode(r)?,
            order: u64::decode(r)?,
            wave: u64::decode(r)?,
            needs_ack: bool::decode(r)?,
            issuer: NodeId::decode(r)?,
        })
    }
}

impl<T: Wire> Wire for DhtOp<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            DhtOp::Put { entry, meta } => {
                buf.push(0);
                entry.encode(buf);
                meta.encode(buf);
            }
            DhtOp::Get {
                position,
                max_ticket,
                request,
                requester,
            } => {
                buf.push(1);
                position.encode(buf);
                max_ticket.encode(buf);
                request.encode(buf);
                requester.encode(buf);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.take(1)?[0] {
            0 => Ok(DhtOp::Put {
                entry: StoredEntry::decode(r)?,
                meta: skueue_core::messages::PutMeta::decode(r)?,
            }),
            1 => Ok(DhtOp::Get {
                position: u64::decode(r)?,
                max_ticket: u64::decode(r)?,
                request: RequestId::decode(r)?,
                requester: NodeId::decode(r)?,
            }),
            value => Err(DecodeError::BadDiscriminant { ty: "DhtOp", value }),
        }
    }
}

impl<T: Wire> Wire for skueue_core::messages::RoutedDhtOp<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.op.encode(buf);
        self.progress.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(skueue_core::messages::RoutedDhtOp {
            op: Box::<DhtOp<T>>::decode(r)?,
            progress: RouteProgress::decode(r)?,
        })
    }
}

impl<T: Wire> Wire for skueue_core::messages::DhtReplyItem<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.request.encode(buf);
        self.entry.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(skueue_core::messages::DhtReplyItem {
            request: RequestId::decode(r)?,
            entry: StoredEntry::decode(r)?,
        })
    }
}

impl<T: Wire> Wire for skueue_core::messages::JoinHandover<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.pred.encode(buf);
        self.succ.encode(buf);
        self.entries.encode(buf);
        self.pending.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(skueue_core::messages::JoinHandover {
            pred: NeighborInfo::decode(r)?,
            succ: NeighborInfo::decode(r)?,
            entries: Vec::<StoredEntry<T>>::decode(r)?,
            pending: Vec::<(u64, PendingGet)>::decode(r)?,
        })
    }
}

impl<T: Wire> Wire for skueue_core::messages::AbsorbPayload<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.pred.encode(buf);
        self.succ.encode(buf);
        self.entries.encode(buf);
        self.pending.encode(buf);
        self.child_batches.encode(buf);
        self.joiners.encode(buf);
        self.anchor.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(skueue_core::messages::AbsorbPayload {
            pred: NeighborInfo::decode(r)?,
            succ: NeighborInfo::decode(r)?,
            entries: Vec::<StoredEntry<T>>::decode(r)?,
            pending: Vec::<(u64, PendingGet)>::decode(r)?,
            child_batches: Vec::<(NodeId, u64, Batch)>::decode(r)?,
            joiners: Vec::<NeighborInfo>::decode(r)?,
            anchor: Option::<AnchorState>::decode(r)?,
        })
    }
}

impl<T: Wire> Wire for SkueueMsg<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            SkueueMsg::Aggregate {
                child,
                epoch,
                batch,
            } => {
                buf.push(0);
                child.encode(buf);
                epoch.encode(buf);
                batch.encode(buf);
            }
            SkueueMsg::AggregateAck => buf.push(1),
            SkueueMsg::Serve { epoch, runs } => {
                buf.push(2);
                epoch.encode(buf);
                runs.encode(buf);
            }
            SkueueMsg::DhtBatch { ops } => {
                buf.push(3);
                ops.encode(buf);
            }
            SkueueMsg::DhtReplyBatch { replies } => {
                buf.push(4);
                replies.encode(buf);
            }
            SkueueMsg::PutAck { request } => {
                buf.push(5);
                request.encode(buf);
            }
            SkueueMsg::JoinRequest { joiner, progress } => {
                buf.push(6);
                joiner.encode(buf);
                progress.encode(buf);
            }
            SkueueMsg::Integrate { handover } => {
                buf.push(7);
                handover.encode(buf);
            }
            SkueueMsg::IntegrateAck => buf.push(8),
            SkueueMsg::LeaveRequest { leaver } => {
                buf.push(9);
                leaver.encode(buf);
            }
            SkueueMsg::LeaveGranted => buf.push(10),
            SkueueMsg::LeaveDeferred => buf.push(11),
            SkueueMsg::AbsorbRequest => buf.push(12),
            SkueueMsg::AbsorbData(payload) => {
                buf.push(13);
                payload.encode(buf);
            }
            SkueueMsg::SiblingStatus { kind, active } => {
                buf.push(14);
                kind.encode(buf);
                active.encode(buf);
            }
            SkueueMsg::SetPred { new_pred } => {
                buf.push(15);
                new_pred.encode(buf);
            }
            SkueueMsg::SetSucc { new_succ } => {
                buf.push(16);
                new_succ.encode(buf);
            }
            SkueueMsg::UpdateFlag { phase } => {
                buf.push(17);
                phase.encode(buf);
            }
            SkueueMsg::UpdateAck { phase } => {
                buf.push(18);
                phase.encode(buf);
            }
            SkueueMsg::UpdateOver { phase } => {
                buf.push(19);
                phase.encode(buf);
            }
            SkueueMsg::AnchorTransfer { state } => {
                buf.push(20);
                state.encode(buf);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.take(1)?[0] {
            0 => SkueueMsg::Aggregate {
                child: NodeId::decode(r)?,
                epoch: u64::decode(r)?,
                batch: Batch::decode(r)?,
            },
            1 => SkueueMsg::AggregateAck,
            2 => SkueueMsg::Serve {
                epoch: u64::decode(r)?,
                runs: Vec::<RunAssignment>::decode(r)?,
            },
            3 => SkueueMsg::DhtBatch {
                ops: Vec::decode(r)?,
            },
            4 => SkueueMsg::DhtReplyBatch {
                replies: Vec::decode(r)?,
            },
            5 => SkueueMsg::PutAck {
                request: RequestId::decode(r)?,
            },
            6 => SkueueMsg::JoinRequest {
                joiner: NeighborInfo::decode(r)?,
                progress: RouteProgress::decode(r)?,
            },
            7 => SkueueMsg::Integrate {
                handover: Box::decode(r)?,
            },
            8 => SkueueMsg::IntegrateAck,
            9 => SkueueMsg::LeaveRequest {
                leaver: NeighborInfo::decode(r)?,
            },
            10 => SkueueMsg::LeaveGranted,
            11 => SkueueMsg::LeaveDeferred,
            12 => SkueueMsg::AbsorbRequest,
            13 => SkueueMsg::AbsorbData(Box::decode(r)?),
            14 => SkueueMsg::SiblingStatus {
                kind: VKind::decode(r)?,
                active: bool::decode(r)?,
            },
            15 => SkueueMsg::SetPred {
                new_pred: NeighborInfo::decode(r)?,
            },
            16 => SkueueMsg::SetSucc {
                new_succ: NeighborInfo::decode(r)?,
            },
            17 => SkueueMsg::UpdateFlag {
                phase: u64::decode(r)?,
            },
            18 => SkueueMsg::UpdateAck {
                phase: u64::decode(r)?,
            },
            19 => SkueueMsg::UpdateOver {
                phase: u64::decode(r)?,
            },
            20 => SkueueMsg::AnchorTransfer {
                state: AnchorState::decode(r)?,
            },
            value => {
                return Err(DecodeError::BadDiscriminant {
                    ty: "SkueueMsg",
                    value,
                })
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Completion records (the ingress's history stream).
// ---------------------------------------------------------------------------

impl Wire for OpKind {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(match self {
            OpKind::Enqueue => 0,
            OpKind::Dequeue => 1,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.take(1)?[0] {
            0 => Ok(OpKind::Enqueue),
            1 => Ok(OpKind::Dequeue),
            value => Err(DecodeError::BadDiscriminant {
                ty: "OpKind",
                value,
            }),
        }
    }
}

impl Wire for OpResult {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            OpResult::Enqueued => buf.push(0),
            OpResult::Returned(src) => {
                buf.push(1);
                src.encode(buf);
            }
            OpResult::Empty => buf.push(2),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.take(1)?[0] {
            0 => Ok(OpResult::Enqueued),
            1 => Ok(OpResult::Returned(RequestId::decode(r)?)),
            2 => Ok(OpResult::Empty),
            value => Err(DecodeError::BadDiscriminant {
                ty: "OpResult",
                value,
            }),
        }
    }
}

impl Wire for OrderKey {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.wave.encode(buf);
        self.shard.encode(buf);
        self.major.encode(buf);
        self.origin.encode(buf);
        self.minor.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(OrderKey {
            wave: u64::decode(r)?,
            shard: u64::decode(r)?,
            major: u64::decode(r)?,
            origin: u64::decode(r)?,
            minor: u64::decode(r)?,
        })
    }
}

impl<T: Wire> Wire for OpRecord<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.id.encode(buf);
        self.kind.encode(buf);
        self.value.encode(buf);
        self.result.encode(buf);
        self.order.encode(buf);
        self.issued_round.encode(buf);
        self.completed_round.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(OpRecord {
            id: RequestId::decode(r)?,
            kind: OpKind::decode(r)?,
            value: T::decode(r)?,
            result: OpResult::decode(r)?,
            order: OrderKey::decode(r)?,
            issued_round: u64::decode(r)?,
            completed_round: u64::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn every_message_variant_roundtrips() {
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
        let msgs: Vec<SkueueMsg<u64>> = vec![
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
        ];
        for msg in msgs {
            roundtrip(msg);
        }
    }

    #[test]
    fn op_records_roundtrip_for_string_payloads() {
        let record = OpRecord {
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
        };
        roundtrip(record);
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
