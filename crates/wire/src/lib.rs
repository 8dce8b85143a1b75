//! # topk-wire
//!
//! Compact binary wire format for every protocol message of the top-k
//! monitoring model, plus the length-prefixed frame codec the TCP transport
//! (`topk_net`'s `RemoteEngine`) speaks.
//!
//! The paper charges algorithms one unit per *model* message — probe, filter
//! update, violation report, existence response. The in-process engines
//! exchange those messages as function calls; this crate gives them a real
//! byte representation so the same protocols can cross a socket. The format
//! is designed around the model's `O(log(n·Δ))`-bit message bound: every
//! scalar is a LEB128 varint ([`varint`]), so a message naming a node id and
//! a value costs bytes proportional to their magnitudes, not to the maximum
//! the types could hold.
//!
//! The crate has three layers (documented in detail in `docs/WIRE.md`):
//!
//! * [`varint`] — LEB128 encoding of `u64`, the only scalar primitive;
//! * [`codec`] — [`WireEncode`]/[`WireDecode`] implementations with a stable
//!   one-byte tag per enum variant, for [`ServerMessage`], [`NodeMessage`]
//!   and every payload type they embed ([`Filter`], [`FilterParams`],
//!   [`NodeGroup`], [`Violation`], [`ExistencePredicate`]);
//! * [`frame`] — the transport unit: a little-endian `u32` length prefix
//!   followed by a payload starting with magic byte, version byte and a frame
//!   tag. A [`Frame`] batches many model messages (an observation row, the
//!   replies of an existence round) into one socket write. Reply-bearing
//!   frames carry a sequence number so a lossy transport can re-request a
//!   missing answer ([`Frame::Poll`]) and recognise duplicates. Version-3
//!   frames end with a CRC32 integrity trailer ([`crc32`]), negotiated in
//!   the `Join` handshake so version-2 peers keep working. Version 5 adds
//!   whole existence runs: one exchange per shard instead of one per round.
//!   [`stream::FrameAccumulator`] is the timeout-surviving reader the
//!   retrying coordinator uses.
//!
//! A fourth layer, [`trace`], reuses the same framing discipline for files
//! instead of sockets: a record stream capturing one monitored run step by
//! step (magic `0xC7`, its own version byte, a CRC32 trailer on every
//! record), the storage format of the golden-trace regression corpus under
//! `tests/traces/` and of `experiments --record`/`--replay`. The schema is
//! documented in `docs/SCENARIOS.md`.
//!
//! Decoding is strict: unknown tags, truncated input, oversized frames and
//! trailing bytes are all [`WireError`]s, never panics — a corrupt or
//! malicious peer cannot take the server down. The round-trip property
//! (`decode(encode(m)) == m` for every message, and `Err` for every strict
//! prefix) is enforced by proptests in [`codec`] and [`frame`].
//!
//! [`ServerMessage`]: topk_model::message::ServerMessage
//! [`NodeMessage`]: topk_model::message::NodeMessage
//! [`Filter`]: topk_model::filter::Filter
//! [`FilterParams`]: topk_model::rule::FilterParams
//! [`NodeGroup`]: topk_model::rule::NodeGroup
//! [`Violation`]: topk_model::filter::Violation
//! [`ExistencePredicate`]: topk_model::message::ExistencePredicate

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod codec;
pub mod crc32;
pub mod error;
pub mod frame;
pub mod stream;
pub mod trace;
pub mod varint;

pub use codec::{from_bytes, to_bytes, Reader, WireDecode, WireEncode};
pub use error::WireError;
pub use frame::{
    read_frame, read_frame_versioned, write_frame, write_frame_versioned, Frame, ServerOp,
    CRC_WIRE_VERSION, LEGACY_WIRE_VERSION, MAX_FRAME_LEN, QUERY_WIRE_VERSION, RUN_WIRE_VERSION,
    WIRE_VERSION,
};
pub use stream::FrameAccumulator;
pub use trace::{
    read_all_records, read_record, write_record, TraceEnd, TraceHeader, TraceRecord, TraceStep,
    MAX_RECORD_LEN, TRACE_MAGIC, TRACE_VERSION,
};
