//! Binary encodings of the protocol messages.
//!
//! [`WireEncode`]/[`WireDecode`] give every model type a self-delimiting byte
//! representation: enums start with a one-byte tag (the tables below and in
//! `docs/WIRE.md` are normative — tags are append-only across versions),
//! scalars are LEB128 varints, and composite messages concatenate their
//! fields in declaration order. Nothing is length-prefixed at this layer;
//! framing is [`crate::frame`]'s job.
//!
//! | type | tags |
//! |------|------|
//! | [`Violation`] | 0 `FromBelow`, 1 `FromAbove` |
//! | [`NodeGroup`] | 0 `Upper`, 1 `Lower`, 2 `V1`, 3 `V3`, 4 `V2` + flags byte (bit 0 = `s1`, bit 1 = `s2`) |
//! | [`Filter`] | 0 `[lo, ∞)` + `lo`, 1 `[lo, hi]` + `lo` + `hi − lo`, 2 empty |
//! | [`FilterParams`] | 0 `Separator`, 1 `Dense`, 2 `SubDense` |
//! | [`ExistencePredicate`] | 0 `PendingViolation`, 1 `GreaterThan`, 2 `AtLeast`, 3 `LessThan`, 4 `RankWindow` + presence byte |
//! | [`ServerMessage`] | 0 `AssignFilter`, 1 `AssignGroup`, 2 `BroadcastGroup`, 3 `BroadcastParams`, 4 `Probe`, 5 `ExistenceRound`, 6 `EndExistenceRun`, 7 `AssignQueryFilter` + `query` varint + filter |
//! | [`NodeMessage`] | 0 `ValueReport`, 1 `ViolationReport`, 2 `ExistenceResponse` |
//! | [`MembershipEvent`] | 0 `Join`, 1 `Leave` |
//!
//! Bounded filters ship `hi − lo` rather than `hi`: the protocols assign
//! narrow bands around a node's value, so the delta is usually a short
//! varint even when the value itself is large.

use crate::error::WireError;
use crate::varint;
use topk_model::message::ExistencePredicate;
use topk_model::prelude::*;

/// A cursor over a byte slice that all decoders share.
///
/// The reader tracks how much input is left; decoders pull bytes through
/// [`Reader::u8`] and [`varint::read_u64`] and report [`WireError::Truncated`]
/// with the name of the type being decoded when the slice runs dry.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes }
    }

    /// Number of unconsumed bytes.
    pub fn remaining(&self) -> usize {
        self.bytes.len()
    }

    /// Whether all input has been consumed.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Pops one byte, blaming `what` on truncation.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when no bytes are left.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        match self.bytes.split_first() {
            Some((&b, rest)) => {
                self.bytes = rest;
                Ok(b)
            }
            None => Err(WireError::Truncated { what }),
        }
    }

    /// Reads one varint (convenience wrapper around [`varint::read_u64`]).
    ///
    /// # Errors
    ///
    /// Propagates truncation/overflow from [`varint::read_u64`].
    pub fn u64(&mut self) -> Result<u64, WireError> {
        varint::read_u64(self)
    }
}

/// Types with a binary wire representation.
pub trait WireEncode {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
}

/// Types decodable from their [`WireEncode`] representation.
pub trait WireDecode: Sized {
    /// Decodes one value from the reader, consuming exactly its bytes.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] describing why the input is not a valid encoding.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// Encodes a value into a fresh byte vector.
pub fn to_bytes<T: WireEncode + ?Sized>(value: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    value.encode(&mut buf);
    buf
}

/// Decodes a value that must occupy the *entire* slice.
///
/// # Errors
///
/// Decoding errors from [`WireDecode::decode`], or
/// [`WireError::TrailingBytes`] if the value ends before the slice does.
pub fn from_bytes<T: WireDecode>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    if !r.is_empty() {
        return Err(WireError::TrailingBytes {
            remaining: r.remaining(),
        });
    }
    Ok(value)
}

impl WireEncode for u64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        varint::write_u64(buf, *self);
    }
}

impl WireDecode for u64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u64()
    }
}

impl WireEncode for NodeId {
    fn encode(&self, buf: &mut Vec<u8>) {
        varint::write_u64(buf, self.index() as u64);
    }
}

impl WireDecode for NodeId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let raw = r.u64()?;
        usize::try_from(raw)
            .map(NodeId)
            .map_err(|_| WireError::BadTag {
                what: "NodeId (index exceeds usize)",
                tag: 0xff,
            })
    }
}

impl WireEncode for Violation {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(match self {
            Violation::FromBelow => 0,
            Violation::FromAbove => 1,
        });
    }
}

impl WireDecode for Violation {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8("Violation")? {
            0 => Ok(Violation::FromBelow),
            1 => Ok(Violation::FromAbove),
            tag => Err(WireError::BadTag {
                what: "Violation",
                tag,
            }),
        }
    }
}

impl WireEncode for NodeGroup {
    fn encode(&self, buf: &mut Vec<u8>) {
        match *self {
            NodeGroup::Upper => buf.push(0),
            NodeGroup::Lower => buf.push(1),
            NodeGroup::V1 => buf.push(2),
            NodeGroup::V3 => buf.push(3),
            NodeGroup::V2 { s1, s2 } => {
                buf.push(4);
                buf.push(u8::from(s1) | (u8::from(s2) << 1));
            }
        }
    }
}

impl WireDecode for NodeGroup {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8("NodeGroup")? {
            0 => Ok(NodeGroup::Upper),
            1 => Ok(NodeGroup::Lower),
            2 => Ok(NodeGroup::V1),
            3 => Ok(NodeGroup::V3),
            4 => {
                let flags = r.u8("NodeGroup::V2 flags")?;
                if flags > 0b11 {
                    return Err(WireError::BadTag {
                        what: "NodeGroup::V2 flags",
                        tag: flags,
                    });
                }
                Ok(NodeGroup::V2 {
                    s1: flags & 0b01 != 0,
                    s2: flags & 0b10 != 0,
                })
            }
            tag => Err(WireError::BadTag {
                what: "NodeGroup",
                tag,
            }),
        }
    }
}

impl WireEncode for Filter {
    fn encode(&self, buf: &mut Vec<u8>) {
        if self.is_empty() {
            // The canonical empty filter (`Filter::EMPTY`, e.g. the
            // intersection of disjoint query bands) gets its own tag: the
            // `hi − lo` delta of tag 1 cannot represent `lo > hi`.
            buf.push(2);
            return;
        }
        match self.hi() {
            None => {
                buf.push(0);
                varint::write_u64(buf, self.lo());
            }
            Some(hi) => {
                buf.push(1);
                varint::write_u64(buf, self.lo());
                varint::write_u64(buf, hi - self.lo());
            }
        }
    }
}

impl WireDecode for Filter {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8("Filter")? {
            0 => Ok(Filter::at_least(r.u64()?)),
            2 => Ok(Filter::EMPTY),
            1 => {
                let lo = r.u64()?;
                let width = r.u64()?;
                let hi = lo.checked_add(width).ok_or(WireError::BadTag {
                    what: "Filter (lo + width overflows)",
                    tag: 1,
                })?;
                Ok(Filter::bounded(lo, hi).expect("lo <= lo + width"))
            }
            tag => Err(WireError::BadTag {
                what: "Filter",
                tag,
            }),
        }
    }
}

impl WireEncode for FilterParams {
    fn encode(&self, buf: &mut Vec<u8>) {
        match *self {
            FilterParams::Separator { lo, hi } => {
                buf.push(0);
                varint::write_u64(buf, lo);
                varint::write_u64(buf, hi);
            }
            FilterParams::Dense {
                l_r,
                u_r,
                z_lo,
                z_hi,
            } => {
                buf.push(1);
                for v in [l_r, u_r, z_lo, z_hi] {
                    varint::write_u64(buf, v);
                }
            }
            FilterParams::SubDense {
                l_r,
                l_rp,
                u_rp,
                z_lo,
                z_hi,
            } => {
                buf.push(2);
                for v in [l_r, l_rp, u_rp, z_lo, z_hi] {
                    varint::write_u64(buf, v);
                }
            }
        }
    }
}

impl WireDecode for FilterParams {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8("FilterParams")? {
            0 => Ok(FilterParams::Separator {
                lo: r.u64()?,
                hi: r.u64()?,
            }),
            1 => Ok(FilterParams::Dense {
                l_r: r.u64()?,
                u_r: r.u64()?,
                z_lo: r.u64()?,
                z_hi: r.u64()?,
            }),
            2 => Ok(FilterParams::SubDense {
                l_r: r.u64()?,
                l_rp: r.u64()?,
                u_rp: r.u64()?,
                z_lo: r.u64()?,
                z_hi: r.u64()?,
            }),
            tag => Err(WireError::BadTag {
                what: "FilterParams",
                tag,
            }),
        }
    }
}

/// Encodes the optional `(value, id)` rank bound of a `RankWindow`.
fn encode_rank_bound(buf: &mut Vec<u8>, bound: Option<(Value, NodeId)>) {
    if let Some((v, id)) = bound {
        varint::write_u64(buf, v);
        id.encode(buf);
    }
}

fn decode_rank_bound(r: &mut Reader<'_>) -> Result<(Value, NodeId), WireError> {
    Ok((r.u64()?, NodeId::decode(r)?))
}

impl WireEncode for ExistencePredicate {
    fn encode(&self, buf: &mut Vec<u8>) {
        match *self {
            ExistencePredicate::PendingViolation => buf.push(0),
            ExistencePredicate::GreaterThan(t) => {
                buf.push(1);
                varint::write_u64(buf, t);
            }
            ExistencePredicate::AtLeast(t) => {
                buf.push(2);
                varint::write_u64(buf, t);
            }
            ExistencePredicate::LessThan(t) => {
                buf.push(3);
                varint::write_u64(buf, t);
            }
            ExistencePredicate::RankWindow { above, below } => {
                buf.push(4);
                buf.push(u8::from(above.is_some()) | (u8::from(below.is_some()) << 1));
                encode_rank_bound(buf, above);
                encode_rank_bound(buf, below);
            }
        }
    }
}

impl WireDecode for ExistencePredicate {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8("ExistencePredicate")? {
            0 => Ok(ExistencePredicate::PendingViolation),
            1 => Ok(ExistencePredicate::GreaterThan(r.u64()?)),
            2 => Ok(ExistencePredicate::AtLeast(r.u64()?)),
            3 => Ok(ExistencePredicate::LessThan(r.u64()?)),
            4 => {
                let presence = r.u8("RankWindow presence byte")?;
                if presence > 0b11 {
                    return Err(WireError::BadTag {
                        what: "RankWindow presence byte",
                        tag: presence,
                    });
                }
                let above = (presence & 0b01 != 0)
                    .then(|| decode_rank_bound(r))
                    .transpose()?;
                let below = (presence & 0b10 != 0)
                    .then(|| decode_rank_bound(r))
                    .transpose()?;
                Ok(ExistencePredicate::RankWindow { above, below })
            }
            tag => Err(WireError::BadTag {
                what: "ExistencePredicate",
                tag,
            }),
        }
    }
}

impl WireEncode for ServerMessage {
    fn encode(&self, buf: &mut Vec<u8>) {
        match *self {
            ServerMessage::AssignFilter(f) => {
                buf.push(0);
                f.encode(buf);
            }
            ServerMessage::AssignGroup(g) => {
                buf.push(1);
                g.encode(buf);
            }
            ServerMessage::BroadcastGroup(g) => {
                buf.push(2);
                g.encode(buf);
            }
            ServerMessage::BroadcastParams(p) => {
                buf.push(3);
                p.encode(buf);
            }
            ServerMessage::Probe => buf.push(4),
            ServerMessage::ExistenceRound {
                round,
                population,
                predicate,
            } => {
                buf.push(5);
                varint::write_u64(buf, u64::from(round));
                varint::write_u64(buf, u64::from(population));
                predicate.encode(buf);
            }
            ServerMessage::EndExistenceRun => buf.push(6),
            ServerMessage::AssignQueryFilter { query, filter } => {
                buf.push(7);
                varint::write_u64(buf, u64::from(query.0));
                filter.encode(buf);
            }
        }
    }
}

/// Reads a varint that must fit in a `u32` (round indexes, populations).
pub(crate) fn read_u32(r: &mut Reader<'_>, what: &'static str) -> Result<u32, WireError> {
    u32::try_from(r.u64()?).map_err(|_| WireError::BadTag { what, tag: 0xff })
}

impl WireDecode for ServerMessage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8("ServerMessage")? {
            0 => Ok(ServerMessage::AssignFilter(Filter::decode(r)?)),
            1 => Ok(ServerMessage::AssignGroup(NodeGroup::decode(r)?)),
            2 => Ok(ServerMessage::BroadcastGroup(NodeGroup::decode(r)?)),
            3 => Ok(ServerMessage::BroadcastParams(FilterParams::decode(r)?)),
            4 => Ok(ServerMessage::Probe),
            5 => Ok(ServerMessage::ExistenceRound {
                round: read_u32(r, "ExistenceRound round (exceeds u32)")?,
                population: read_u32(r, "ExistenceRound population (exceeds u32)")?,
                predicate: ExistencePredicate::decode(r)?,
            }),
            6 => Ok(ServerMessage::EndExistenceRun),
            7 => Ok(ServerMessage::AssignQueryFilter {
                query: QueryId(read_u32(r, "AssignQueryFilter query (exceeds u32)")?),
                filter: Filter::decode(r)?,
            }),
            tag => Err(WireError::BadTag {
                what: "ServerMessage",
                tag,
            }),
        }
    }
}

impl WireEncode for NodeMessage {
    fn encode(&self, buf: &mut Vec<u8>) {
        match *self {
            NodeMessage::ValueReport { node, value } => {
                buf.push(0);
                node.encode(buf);
                varint::write_u64(buf, value);
            }
            NodeMessage::ViolationReport {
                node,
                value,
                direction,
            } => {
                buf.push(1);
                node.encode(buf);
                varint::write_u64(buf, value);
                direction.encode(buf);
            }
            NodeMessage::ExistenceResponse { node, value } => {
                buf.push(2);
                node.encode(buf);
                varint::write_u64(buf, value);
            }
        }
    }
}

impl WireDecode for NodeMessage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8("NodeMessage")? {
            0 => Ok(NodeMessage::ValueReport {
                node: NodeId::decode(r)?,
                value: r.u64()?,
            }),
            1 => Ok(NodeMessage::ViolationReport {
                node: NodeId::decode(r)?,
                value: r.u64()?,
                direction: Violation::decode(r)?,
            }),
            2 => Ok(NodeMessage::ExistenceResponse {
                node: NodeId::decode(r)?,
                value: r.u64()?,
            }),
            tag => Err(WireError::BadTag {
                what: "NodeMessage",
                tag,
            }),
        }
    }
}

impl WireEncode for MembershipEvent {
    fn encode(&self, buf: &mut Vec<u8>) {
        match *self {
            MembershipEvent::Join(node) => {
                buf.push(0);
                node.encode(buf);
            }
            MembershipEvent::Leave(node) => {
                buf.push(1);
                node.encode(buf);
            }
        }
    }
}

impl WireDecode for MembershipEvent {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8("MembershipEvent")? {
            0 => Ok(MembershipEvent::Join(NodeId::decode(r)?)),
            1 => Ok(MembershipEvent::Leave(NodeId::decode(r)?)),
            tag => Err(WireError::BadTag {
                what: "MembershipEvent",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Round-trips a value and asserts every strict prefix fails to decode.
    ///
    /// The prefix property is what makes the format safe to frame: a decoder
    /// can never mistake a cut-off message for a complete one, because each
    /// variant's field list is fixed once its tag byte is read.
    fn assert_roundtrip<T>(value: &T)
    where
        T: WireEncode + WireDecode + PartialEq + std::fmt::Debug,
    {
        let bytes = to_bytes(value);
        let back: T = from_bytes(&bytes).expect("valid encoding must decode");
        assert_eq!(&back, value);
        for cut in 0..bytes.len() {
            assert!(
                from_bytes::<T>(&bytes[..cut]).is_err(),
                "strict prefix of length {cut} decoded for {value:?}"
            );
        }
        // Trailing garbage after a complete value is rejected.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(matches!(
            from_bytes::<T>(&padded),
            Err(WireError::TrailingBytes { remaining: 1 })
        ));
    }

    /// Deterministic derivation of each message family from three integers,
    /// covering every variant and flag combination as the seeds sweep.
    fn server_message_from(sel: u8, x: u64, y: u64) -> ServerMessage {
        match sel % 8 {
            0 => ServerMessage::AssignFilter(filter_from(x, y)),
            1 => ServerMessage::AssignGroup(group_from(x)),
            2 => ServerMessage::BroadcastGroup(group_from(x)),
            3 => ServerMessage::BroadcastParams(params_from(x, y)),
            4 => ServerMessage::Probe,
            5 => ServerMessage::ExistenceRound {
                round: (x % 40) as u32,
                population: (y % 1_000_000) as u32,
                predicate: predicate_from(x, y),
            },
            6 => ServerMessage::EndExistenceRun,
            _ => ServerMessage::AssignQueryFilter {
                query: QueryId((x % 4096) as u32),
                filter: filter_from(y, x),
            },
        }
    }

    fn node_message_from(sel: u8, x: u64, y: u64) -> NodeMessage {
        let node = NodeId((x % 1_000_000) as usize);
        match sel % 3 {
            0 => NodeMessage::ValueReport { node, value: y },
            1 => NodeMessage::ViolationReport {
                node,
                value: y,
                direction: if x % 2 == 0 {
                    Violation::FromBelow
                } else {
                    Violation::FromAbove
                },
            },
            _ => NodeMessage::ExistenceResponse { node, value: y },
        }
    }

    fn filter_from(x: u64, y: u64) -> Filter {
        match y % 4 {
            0 => Filter::at_least(x),
            1 => Filter::at_most(x),
            2 => Filter::bounded(x.min(y), x.max(y)).unwrap(),
            _ => Filter::EMPTY,
        }
    }

    fn group_from(x: u64) -> NodeGroup {
        match x % 5 {
            0 => NodeGroup::Upper,
            1 => NodeGroup::Lower,
            2 => NodeGroup::V1,
            3 => NodeGroup::V3,
            _ => NodeGroup::V2 {
                s1: x % 2 == 0,
                s2: x % 3 == 0,
            },
        }
    }

    fn params_from(x: u64, y: u64) -> FilterParams {
        match (x ^ y) % 3 {
            0 => FilterParams::Separator { lo: x, hi: y },
            1 => FilterParams::Dense {
                l_r: x,
                u_r: y,
                z_lo: x / 2,
                z_hi: y / 2,
            },
            _ => FilterParams::SubDense {
                l_r: x,
                l_rp: y,
                u_rp: x ^ y,
                z_lo: x / 3,
                z_hi: y / 3,
            },
        }
    }

    fn predicate_from(x: u64, y: u64) -> ExistencePredicate {
        match x.wrapping_add(y) % 5 {
            0 => ExistencePredicate::PendingViolation,
            1 => ExistencePredicate::GreaterThan(x),
            2 => ExistencePredicate::AtLeast(y),
            3 => ExistencePredicate::LessThan(x ^ y),
            _ => ExistencePredicate::RankWindow {
                above: (x % 2 == 0).then_some((x, NodeId((y % 4096) as usize))),
                below: (y % 2 == 0).then_some((y, NodeId((x % 4096) as usize))),
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary message → encode → decode == original, every strict
        /// prefix rejected — for both message directions and all embedded
        /// payload types (exercised through the message variants).
        #[test]
        fn messages_roundtrip(sel in 0u8..255, x in 0u64..u64::MAX, y in 0u64..u64::MAX) {
            assert_roundtrip(&server_message_from(sel, x, y));
            assert_roundtrip(&node_message_from(sel, x, y));
            assert_roundtrip(&filter_from(x, y));
            assert_roundtrip(&group_from(x));
            assert_roundtrip(&params_from(x, y));
            assert_roundtrip(&predicate_from(x, y));
            let node = NodeId((x % 1_000_000) as usize);
            assert_roundtrip(&if sel % 2 == 0 {
                MembershipEvent::Join(node)
            } else {
                MembershipEvent::Leave(node)
            });
        }

        /// Corrupting the leading tag byte to a value outside the tag table
        /// yields `BadTag`, never a panic or a silent reinterpretation.
        #[test]
        fn out_of_table_tags_are_rejected(x in 0u64..10_000, y in 0u64..10_000) {
            let mut bytes = to_bytes(&server_message_from(0, x, y));
            bytes[0] = 200;
            prop_assert!(matches!(
                from_bytes::<ServerMessage>(&bytes),
                Err(WireError::BadTag { what: "ServerMessage", .. })
            ));
            let mut bytes = to_bytes(&node_message_from(0, x, y));
            bytes[0] = 77;
            prop_assert!(matches!(
                from_bytes::<NodeMessage>(&bytes),
                Err(WireError::BadTag { what: "NodeMessage", .. })
            ));
        }
    }

    #[test]
    fn compactness_matches_the_model_bound() {
        // A small-magnitude message — the steady-state traffic — is a few
        // bytes, far below the serde_json representation the tests use.
        let msg = NodeMessage::ExistenceResponse {
            node: NodeId(7),
            value: 130,
        };
        assert_eq!(to_bytes(&msg).len(), 4); // tag + 1-byte id + 2-byte value
        let probe = ServerMessage::Probe;
        assert_eq!(to_bytes(&probe).len(), 1);
        // The delta encoding keeps narrow bands around large values short.
        let f = Filter::bounded(1_000_000_000, 1_000_000_050).unwrap();
        assert_eq!(to_bytes(&f).len(), 1 + 5 + 1);
    }

    #[test]
    fn v2_flag_bytes_outside_the_two_bits_are_rejected() {
        let mut bytes = to_bytes(&NodeGroup::V2 { s1: true, s2: true });
        assert_eq!(bytes, vec![4, 0b11]);
        bytes[1] = 0b100;
        assert!(matches!(
            from_bytes::<NodeGroup>(&bytes),
            Err(WireError::BadTag {
                what: "NodeGroup::V2 flags",
                tag: 0b100
            })
        ));
    }

    #[test]
    fn empty_filter_has_its_own_tag() {
        let bytes = to_bytes(&Filter::EMPTY);
        assert_eq!(bytes, vec![2]);
        assert_eq!(from_bytes::<Filter>(&bytes).unwrap(), Filter::EMPTY);
        let msg = ServerMessage::AssignQueryFilter {
            query: QueryId(3),
            filter: Filter::EMPTY,
        };
        assert_eq!(to_bytes(&msg), vec![7, 3, 2]);
    }

    #[test]
    fn filter_rejects_overflowing_width() {
        // lo = 2, width = u64::MAX would overflow hi.
        let mut bytes = vec![1];
        varint::write_u64(&mut bytes, 2);
        varint::write_u64(&mut bytes, u64::MAX);
        assert!(from_bytes::<Filter>(&bytes).is_err());
    }

    #[test]
    fn existence_round_rejects_oversized_round_and_population() {
        let mut bytes = vec![5];
        varint::write_u64(&mut bytes, u64::from(u32::MAX) + 1); // round too large
        varint::write_u64(&mut bytes, 8);
        bytes.push(0); // PendingViolation
        assert!(from_bytes::<ServerMessage>(&bytes).is_err());
    }
}
