//! Length-prefixed framing and the daemon wire protocol.
//!
//! Every connection in the service topology — daemon ↔ daemon, ctl ↔ daemon,
//! ingress ↔ daemon — speaks the same trivially simple framing: a `u32`
//! little-endian byte length followed by exactly that many bytes, which decode
//! (via [`crate::codec::Wire`]) to one [`NetFrame`].  TCP gives per-connection
//! FIFO, which is strictly stronger than the protocol needs (Skueue is correct
//! under arbitrary finite delays and reordering), so no sequence numbers or
//! acks are layered on top.

use std::io::{self, Read, Write};

use skueue_core::SkueueMsg;
use skueue_sim::ids::{NodeId, ProcessId, RequestId};
use skueue_verify::OpRecord;

use crate::codec::{from_bytes, wire_enum, DecodeError, Reader, Wire};

/// Upper bound on a single frame's payload, in bytes.  Handover payloads can
/// carry a shard's worth of DHT entries, but anything beyond this indicates a
/// corrupt or hostile length prefix.
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

/// How far ahead of the bytes received [`read_frame`] extends its buffer.
const READ_AHEAD_BYTES: usize = 64 << 10;

/// Writes one value as a length-prefixed frame.
pub fn write_frame<T: Wire, W: Write>(w: &mut W, value: &T) -> io::Result<()> {
    // One buffer, one write: avoids interleaving when callers share a stream
    // behind a mutex and halves the syscall count for small frames.
    let mut out = Vec::new();
    push_frame(&mut out, value)?;
    w.write_all(&out)
}

/// Appends one value to `out` as a length-prefixed frame, so that several
/// frames can leave in one write.  On error `out` is left as it was.
pub(crate) fn push_frame<T: Wire>(out: &mut Vec<u8>, value: &T) -> io::Result<()> {
    // The value is encoded behind a placeholder for the prefix, which is
    // patched once the length is known.
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    value.encode(out);
    match u32::try_from(out.len() - start - 4) {
        Ok(len) if len <= MAX_FRAME_BYTES => {
            out[start..start + 4].copy_from_slice(&len.to_le_bytes());
            Ok(())
        }
        _ => {
            out.truncate(start);
            Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "frame too large",
            ))
        }
    }
}

/// Reads one length-prefixed frame.  Returns `Ok(None)` on clean EOF at a
/// frame boundary (the peer closed the connection), an error otherwise.
pub fn read_frame<T: Wire, R: Read>(r: &mut R) -> io::Result<Option<T>> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds limit"),
        ));
    }
    // Memory follows the bytes that arrive, not the length the prefix
    // claims: four bytes from any connection must not cost `MAX_FRAME_BYTES`.
    // The buffer is extended one chunk ahead of what has been received (and
    // grows by doubling, so it never holds more than twice that).
    let len = len as usize;
    let mut body = Vec::new();
    while body.len() < len {
        let received = body.len();
        body.resize(received + (len - received).min(READ_AHEAD_BYTES), 0);
        r.read_exact(&mut body[received..]).map_err(|e| {
            io::Error::new(e.kind(), format!("frame of {len} bytes cut short: {e}"))
        })?;
    }
    from_bytes(&body).map(Some).map_err(|e: DecodeError| {
        io::Error::new(io::ErrorKind::InvalidData, format!("bad frame: {e}"))
    })
}

/// One frame of the daemon protocol.
///
/// Protocol traffic ([`NetFrame::Proto`]) and the control plane share the
/// framing; control frames follow a request/reply discipline on their
/// originating connection, protocol frames are fire-and-forget.
#[derive(Debug, Clone, PartialEq)]
pub enum NetFrame<T> {
    /// Connection preamble: identifies the dialing daemon so the accepting
    /// side can bind the connection into its peer table.  Ingress and ctl
    /// connections skip the preamble and speak control frames directly.
    Hello {
        /// Index of the dialing daemon in the cluster spec.
        from: u32,
    },
    /// A protocol message in flight between two virtual nodes.
    Proto {
        /// Sending virtual node.
        from: NodeId,
        /// Destination virtual node.
        to: NodeId,
        /// The Skueue protocol message.
        msg: SkueueMsg<T>,
    },
    /// Ingress → daemon: issue one client operation on a hosted process.
    Inject {
        /// Request id chosen by the ingress (`origin` selects the process).
        id: RequestId,
        /// `true` for enqueue, `false` for dequeue.
        insert: bool,
        /// Payload value (meaningful for enqueues only).
        value: T,
    },
    /// Daemon → ingress: a client operation completed.
    Completion {
        /// The finished operation, as the verifier consumes it.
        record: OpRecord<T>,
    },
    /// Ctl → daemon: spin up a joining process on this daemon.
    Join {
        /// Process id of the joiner (globally unique, assigned by ctl).
        pid: ProcessId,
        /// Middle node of the same-shard bootstrap process.
        bootstrap: NodeId,
    },
    /// Ctl → daemon: ask a hosted process to leave the overlay.
    Leave {
        /// Process id of the leaver.
        pid: ProcessId,
    },
    /// Ctl/ingress → daemon: report hosted-process states.
    Status,
    /// Daemon → ctl/ingress: reply to [`NetFrame::Status`].
    StatusReply {
        /// Index of the replying daemon.
        daemon: u32,
        /// `(pid, integrated, left)` for every hosted process.
        processes: Vec<(u64, bool, bool)>,
    },
    /// Ingress → daemon: register this connection as a completion sink.
    /// Every [`NetFrame::Completion`] the daemon's nodes produce afterwards
    /// is streamed to all subscribed connections.
    Subscribe,
    /// Ctl → daemon: stop hosting, close every connection and exit.
    Shutdown,
    /// Generic success reply to a control frame.
    Ok,
    /// Generic failure reply to a control frame.
    Err(
        /// Human-readable reason.
        String,
    ),
    /// Daemon → ingress, on the inject's connection: the daemon hosts the
    /// process of an [`NetFrame::Inject`] but the process may not issue
    /// (it is still joining, or leaving or gone), so no request was opened
    /// and no completion will follow.
    Refused {
        /// The request id of the refused inject.
        id: RequestId,
    },
}

wire_enum! { <T> NetFrame {
    0 => Hello { from },
    1 => Proto { from, to, msg },
    2 => Inject { id, insert, value },
    3 => Completion { record },
    4 => Join { pid, bootstrap },
    5 => Leave { pid },
    6 => Status,
    7 => StatusReply { daemon, processes },
    8 => Subscribe,
    9 => Shutdown,
    10 => Ok,
    11 => Err(reason),
    12 => Refused { id },
} }

#[cfg(test)]
mod tests {
    use super::*;
    use skueue_verify::{OpKind, OpResult, OrderKey};

    fn roundtrip(frame: NetFrame<u64>) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).expect("write");
        let mut cursor = io::Cursor::new(buf);
        let back: NetFrame<u64> = read_frame(&mut cursor).expect("read").expect("some");
        assert_eq!(back, frame);
        // Clean EOF after the single frame.
        assert!(read_frame::<NetFrame<u64>, _>(&mut cursor)
            .expect("eof read")
            .is_none());
    }

    #[test]
    fn control_frames_roundtrip() {
        roundtrip(NetFrame::Hello { from: 2 });
        roundtrip(NetFrame::Inject {
            id: RequestId::new(ProcessId(3), 9),
            insert: true,
            value: 77,
        });
        roundtrip(NetFrame::Join {
            pid: ProcessId(5),
            bootstrap: NodeId(4),
        });
        roundtrip(NetFrame::Leave { pid: ProcessId(2) });
        roundtrip(NetFrame::Status);
        roundtrip(NetFrame::Subscribe);
        roundtrip(NetFrame::StatusReply {
            daemon: 1,
            processes: vec![(0, true, false), (3, false, false)],
        });
        roundtrip(NetFrame::Shutdown);
        roundtrip(NetFrame::Ok);
        roundtrip(NetFrame::Err(String::from("no such pid")));
        roundtrip(NetFrame::Refused {
            id: RequestId::new(ProcessId(4), 12),
        });
    }

    #[test]
    fn proto_and_completion_frames_roundtrip() {
        roundtrip(NetFrame::Proto {
            from: NodeId(1),
            to: NodeId(5),
            msg: SkueueMsg::UpdateFlag { phase: 3 },
        });
        roundtrip(NetFrame::Completion {
            record: OpRecord {
                id: RequestId::new(ProcessId(0), 0),
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
        });
    }

    #[test]
    fn frames_pushed_into_one_buffer_read_back_in_order() {
        let frames: [NetFrame<u64>; 3] = [
            NetFrame::Status,
            NetFrame::Leave { pid: ProcessId(2) },
            NetFrame::Ok,
        ];
        let mut buf = Vec::new();
        for frame in &frames {
            push_frame(&mut buf, frame).expect("push");
        }
        let mut cursor = io::Cursor::new(buf);
        for frame in frames {
            assert_eq!(read_frame(&mut cursor).expect("read"), Some(frame));
        }
        assert!(read_frame::<NetFrame<u64>, _>(&mut cursor)
            .expect("eof read")
            .is_none());
    }

    #[test]
    fn oversized_frame_is_rejected_on_read() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        let mut cursor = io::Cursor::new(buf);
        assert!(read_frame::<NetFrame<u64>, _>(&mut cursor).is_err());
    }

    #[test]
    fn torn_frame_is_an_error_not_eof() {
        let frame: NetFrame<u64> = NetFrame::Status;
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        buf.extend_from_slice(&8u32.to_le_bytes()); // header for 8 bytes...
        buf.extend_from_slice(&[1, 2, 3]); // ...but only 3 arrive.
        let mut cursor = io::Cursor::new(buf);
        assert!(read_frame::<NetFrame<u64>, _>(&mut cursor)
            .unwrap()
            .is_some());
        assert!(read_frame::<NetFrame<u64>, _>(&mut cursor).is_err());
    }
}
