//! BGP-4 message encoding and decoding (RFC 4271, with 4-octet AS
//! numbers per RFC 6793).
//!
//! The collector substrate stores update files as MRT `BGP4MP`
//! records, each of which wraps a raw BGP message; this module is the
//! message layer. Only the message types and path attributes the
//! simulation produces are modelled richly — everything else is
//! preserved as [`PathAttribute::Unknown`] so decode→encode is
//! lossless for third-party attributes.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use nettypes::asn::{Asn, Origin};
use nettypes::prefix::Prefix;

/// BGP message types (RFC 4271 §4.1).
pub const TYPE_OPEN: u8 = 1;
/// UPDATE message type.
pub const TYPE_UPDATE: u8 = 2;
/// NOTIFICATION message type.
pub const TYPE_NOTIFICATION: u8 = 3;
/// KEEPALIVE message type.
pub const TYPE_KEEPALIVE: u8 = 4;

/// Maximum BGP message size (RFC 4271 §4).
pub const MAX_MESSAGE: usize = 4096;

/// Decode errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BgpError {
    /// Fewer bytes than the fixed header requires.
    Truncated,
    /// The 16-byte marker was not all-ones.
    BadMarker,
    /// Header length field out of `[19, 4096]` or inconsistent with
    /// the buffer.
    BadLength(u16),
    /// Unknown message type.
    BadType(u8),
    /// A prefix field had length > 32 bits.
    BadPrefixLen(u8),
    /// Attribute section inconsistent (lengths overflow the message).
    BadAttributes(&'static str),
}

impl std::fmt::Display for BgpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BgpError::Truncated => write!(f, "truncated BGP message"),
            BgpError::BadMarker => write!(f, "bad BGP marker"),
            BgpError::BadLength(l) => write!(f, "bad BGP length {l}"),
            BgpError::BadType(t) => write!(f, "unknown BGP type {t}"),
            BgpError::BadPrefixLen(l) => write!(f, "bad NLRI prefix length {l}"),
            BgpError::BadAttributes(w) => write!(f, "bad path attributes: {w}"),
        }
    }
}

impl std::error::Error for BgpError {}

/// The ORIGIN attribute value (RFC 4271 §5.1.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OriginType {
    /// Interior (IGP).
    Igp,
    /// Exterior (EGP).
    Egp,
    /// Incomplete.
    Incomplete,
}

impl OriginType {
    fn code(self) -> u8 {
        match self {
            OriginType::Igp => 0,
            OriginType::Egp => 1,
            OriginType::Incomplete => 2,
        }
    }

    fn from_code(c: u8) -> Option<OriginType> {
        Some(match c {
            0 => OriginType::Igp,
            1 => OriginType::Egp,
            2 => OriginType::Incomplete,
            _ => return None,
        })
    }
}

/// One AS_PATH segment (RFC 4271 §4.3; 4-octet ASNs per RFC 6793).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AsPathSegment {
    /// Ordered sequence of ASes.
    Sequence(Vec<Asn>),
    /// Unordered set (aggregation artifact).
    Set(Vec<Asn>),
}

/// A BGP path attribute.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PathAttribute {
    /// ORIGIN (type 1).
    Origin(OriginType),
    /// AS_PATH (type 2).
    AsPath(Vec<AsPathSegment>),
    /// NEXT_HOP (type 3), IPv4 in host order.
    NextHop(u32),
    /// MULTI_EXIT_DISC (type 4).
    Med(u32),
    /// LOCAL_PREF (type 5).
    LocalPref(u32),
    /// COMMUNITIES (type 8, RFC 1997).
    Communities(Vec<u32>),
    /// Any attribute this library does not interpret; round-trips
    /// byte-exactly.
    Unknown {
        /// Attribute flags byte.
        flags: u8,
        /// Attribute type code.
        type_code: u8,
        /// Raw value bytes.
        value: Bytes,
    },
}

impl PathAttribute {
    /// The attribute's type code.
    pub fn type_code(&self) -> u8 {
        match self {
            PathAttribute::Origin(_) => 1,
            PathAttribute::AsPath(_) => 2,
            PathAttribute::NextHop(_) => 3,
            PathAttribute::Med(_) => 4,
            PathAttribute::LocalPref(_) => 5,
            PathAttribute::Communities(_) => 8,
            PathAttribute::Unknown { type_code, .. } => *type_code,
        }
    }
}

/// A BGP UPDATE message.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct UpdateMessage {
    /// Withdrawn routes.
    pub withdrawn: Vec<Prefix>,
    /// Path attributes (apply to all NLRI).
    pub attributes: Vec<PathAttribute>,
    /// Announced prefixes.
    pub nlri: Vec<Prefix>,
}

impl UpdateMessage {
    /// Convenience: build a plain announcement with ORIGIN IGP, the
    /// given AS_PATH sequence and next hop.
    pub fn announce(nlri: Vec<Prefix>, path: Vec<Asn>, next_hop: u32) -> UpdateMessage {
        UpdateMessage {
            withdrawn: Vec::new(),
            attributes: vec![
                PathAttribute::Origin(OriginType::Igp),
                PathAttribute::AsPath(vec![AsPathSegment::Sequence(path)]),
                PathAttribute::NextHop(next_hop),
            ],
            nlri,
        }
    }

    /// Convenience: build a withdrawal.
    pub fn withdraw(withdrawn: Vec<Prefix>) -> UpdateMessage {
        UpdateMessage {
            withdrawn,
            attributes: Vec::new(),
            nlri: Vec::new(),
        }
    }

    /// The flattened AS path (sequence segments in order; set members
    /// appended), or empty when no AS_PATH attribute is present.
    pub fn as_path(&self) -> Vec<Asn> {
        for a in &self.attributes {
            if let PathAttribute::AsPath(segs) = a {
                let mut out = Vec::new();
                for s in segs {
                    match s {
                        AsPathSegment::Sequence(v) | AsPathSegment::Set(v) => {
                            out.extend_from_slice(v)
                        }
                    }
                }
                return out;
            }
        }
        Vec::new()
    }

    /// The origin AS (last AS of the path), if a non-empty AS_PATH
    /// sequence exists.
    pub fn origin_as(&self) -> Option<Asn> {
        self.as_path().last().copied()
    }
}

/// A decoded BGP message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BgpMessage {
    /// An UPDATE.
    Update(UpdateMessage),
    /// A KEEPALIVE (no body).
    Keepalive,
    /// Any other message type, body preserved raw.
    Other {
        /// Message type byte.
        msg_type: u8,
        /// Raw body.
        body: Bytes,
    },
}

// --- encoding ---------------------------------------------------------

fn put_wire_prefix(buf: &mut BytesMut, p: &Prefix) {
    buf.put_u8(p.len());
    let nbytes = p.len().div_ceil(8) as usize;
    let net = p.network().to_be_bytes();
    buf.put_slice(&net[..nbytes]);
}

fn wire_prefix_size(p: &Prefix) -> usize {
    1 + p.len().div_ceil(8) as usize
}

fn encode_attribute(buf: &mut BytesMut, attr: &PathAttribute) {
    // flags: optional(0x80) transitive(0x40) partial(0x20) extended(0x10)
    let (flags, type_code, value): (u8, u8, BytesMut) = match attr {
        PathAttribute::Origin(o) => {
            let mut v = BytesMut::with_capacity(1);
            v.put_u8(o.code());
            (0x40, 1, v)
        }
        PathAttribute::AsPath(segs) => {
            let mut v = BytesMut::new();
            for s in segs {
                let (seg_type, asns) = match s {
                    AsPathSegment::Set(a) => (1u8, a),
                    AsPathSegment::Sequence(a) => (2u8, a),
                };
                v.put_u8(seg_type);
                v.put_u8(asns.len() as u8);
                for a in asns {
                    v.put_u32(a.0);
                }
            }
            (0x40, 2, v)
        }
        PathAttribute::NextHop(ip) => {
            let mut v = BytesMut::with_capacity(4);
            v.put_u32(*ip);
            (0x40, 3, v)
        }
        PathAttribute::Med(m) => {
            let mut v = BytesMut::with_capacity(4);
            v.put_u32(*m);
            (0x80, 4, v)
        }
        PathAttribute::LocalPref(l) => {
            let mut v = BytesMut::with_capacity(4);
            v.put_u32(*l);
            (0x40, 5, v)
        }
        PathAttribute::Communities(cs) => {
            let mut v = BytesMut::with_capacity(cs.len() * 4);
            for c in cs {
                v.put_u32(*c);
            }
            (0xC0, 8, v)
        }
        PathAttribute::Unknown {
            flags,
            type_code,
            value,
        } => {
            let mut v = BytesMut::with_capacity(value.len());
            v.put_slice(value);
            (*flags, *type_code, v)
        }
    };
    let extended = value.len() > 255;
    let flags = if extended { flags | 0x10 } else { flags & !0x10 };
    buf.put_u8(flags);
    buf.put_u8(type_code);
    if extended {
        buf.put_u16(value.len() as u16);
    } else {
        buf.put_u8(value.len() as u8);
    }
    buf.put_slice(&value);
}

/// Encode a bare path-attribute blob (the wire form embedded in
/// `TABLE_DUMP_V2` RIB entries).
pub fn encode_attributes(attrs: &[PathAttribute]) -> Bytes {
    let mut buf = BytesMut::new();
    for a in attrs {
        encode_attribute(&mut buf, a);
    }
    buf.freeze()
}

/// Decode a bare path-attribute blob.
pub fn decode_attributes(mut buf: &[u8]) -> Result<Vec<PathAttribute>, BgpError> {
    let mut out = Vec::new();
    while buf.has_remaining() {
        out.push(decode_attribute(&mut buf)?);
    }
    Ok(out)
}

/// Encode a message with the standard 19-byte header.
pub fn encode_message(msg: &BgpMessage) -> Bytes {
    let mut body = BytesMut::new();
    let msg_type = match msg {
        BgpMessage::Keepalive => TYPE_KEEPALIVE,
        BgpMessage::Other { msg_type, body: b } => {
            body.put_slice(b);
            *msg_type
        }
        BgpMessage::Update(u) => {
            // Withdrawn routes.
            let wsize: usize = u.withdrawn.iter().map(wire_prefix_size).sum();
            body.put_u16(wsize as u16);
            for p in &u.withdrawn {
                put_wire_prefix(&mut body, p);
            }
            // Path attributes.
            let mut attrs = BytesMut::new();
            for a in &u.attributes {
                encode_attribute(&mut attrs, a);
            }
            body.put_u16(attrs.len() as u16);
            body.put_slice(&attrs);
            // NLRI.
            for p in &u.nlri {
                put_wire_prefix(&mut body, p);
            }
            TYPE_UPDATE
        }
    };
    let total = 19 + body.len();
    debug_assert!(total <= MAX_MESSAGE, "BGP message too large: {total}");
    let mut out = BytesMut::with_capacity(total);
    out.put_slice(&[0xFF; 16]);
    out.put_u16(total as u16);
    out.put_u8(msg_type);
    out.put_slice(&body);
    out.freeze()
}

// --- decoding ---------------------------------------------------------

fn get_wire_prefix(buf: &mut &[u8]) -> Result<Prefix, BgpError> {
    if buf.remaining() < 1 {
        return Err(BgpError::Truncated);
    }
    let len = buf.get_u8();
    if len > 32 {
        return Err(BgpError::BadPrefixLen(len));
    }
    let nbytes = len.div_ceil(8) as usize;
    if buf.remaining() < nbytes {
        return Err(BgpError::Truncated);
    }
    let mut net_bytes = [0u8; 4];
    for b in net_bytes.iter_mut().take(nbytes) {
        *b = buf.get_u8();
    }
    // Mask silently: senders may leave trailing bits set.
    Ok(Prefix::new_unchecked_masked(u32::from_be_bytes(net_bytes), len))
}

/// A big-endian u32 from an attribute value, `None` unless it is
/// exactly four bytes (malformed fixed-width attributes fall back to
/// [`PathAttribute::Unknown`] rather than erroring).
fn be_u32(value: &[u8]) -> Option<u32> {
    Some(u32::from_be_bytes(value.try_into().ok()?))
}

fn decode_attribute(buf: &mut &[u8]) -> Result<PathAttribute, BgpError> {
    if buf.remaining() < 2 {
        return Err(BgpError::Truncated);
    }
    let flags = buf.get_u8();
    let type_code = buf.get_u8();
    let extended = flags & 0x10 != 0;
    let len = if extended {
        if buf.remaining() < 2 {
            return Err(BgpError::Truncated);
        }
        buf.get_u16() as usize
    } else {
        if buf.remaining() < 1 {
            return Err(BgpError::Truncated);
        }
        buf.get_u8() as usize
    };
    if buf.remaining() < len {
        return Err(BgpError::Truncated);
    }
    let mut value = &buf[..len];
    buf.advance(len);

    let parsed = match type_code {
        1 if value.len() == 1 => OriginType::from_code(value[0]).map(PathAttribute::Origin),
        2 => {
            // AS_PATH with 4-octet ASNs.
            let mut segs = Vec::new();
            let v = &mut value;
            let mut ok = true;
            while v.remaining() >= 2 {
                let seg_type = v.get_u8();
                let count = v.get_u8() as usize;
                if v.remaining() < count * 4 {
                    ok = false;
                    break;
                }
                let mut asns = Vec::with_capacity(count);
                for _ in 0..count {
                    asns.push(Asn(v.get_u32()));
                }
                match seg_type {
                    1 => segs.push(AsPathSegment::Set(asns)),
                    2 => segs.push(AsPathSegment::Sequence(asns)),
                    _ => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok && !v.has_remaining() {
                Some(PathAttribute::AsPath(segs))
            } else {
                None
            }
        }
        3 => be_u32(value).map(PathAttribute::NextHop),
        4 => be_u32(value).map(PathAttribute::Med),
        5 => be_u32(value).map(PathAttribute::LocalPref),
        8 if value.len().is_multiple_of(4) => {
            let mut cs = Vec::with_capacity(value.len() / 4);
            let v = &mut value;
            while v.has_remaining() {
                cs.push(v.get_u32());
            }
            Some(PathAttribute::Communities(cs))
        }
        _ => None,
    };
    Ok(parsed.unwrap_or_else(|| PathAttribute::Unknown {
        flags: flags & !0x10,
        type_code,
        value: Bytes::copy_from_slice(value),
    }))
}

/// The route origin of decoded path attributes: the last AS of the
/// first AS_PATH's last segment (an `AS_SET` tail is kept whole).
/// `None` without an AS_PATH, or when that path or its last sequence
/// is empty.
pub fn origin_from_attributes(attrs: &[PathAttribute]) -> Option<Origin> {
    for a in attrs {
        if let PathAttribute::AsPath(segs) = a {
            return match segs.last()? {
                AsPathSegment::Sequence(v) => v.last().copied().map(Origin::Single),
                AsPathSegment::Set(v) => Some(Origin::Set(v.clone())),
            };
        }
    }
    None
}

/// [`origin_from_attributes`] of [`decode_attributes`], read in place
/// from the wire blob without building any [`PathAttribute`].
///
/// Returns exactly what the decode-then-extract pair returns for every
/// input: `None` when any attribute's framing is truncated, and an
/// AS_PATH whose segments do not parse counts as an unknown attribute,
/// so a later well-formed AS_PATH still decides. Only an `AS_SET`
/// origin allocates.
pub fn origin_from_attribute_bytes(mut buf: &[u8]) -> Option<Origin> {
    // `Some(origin)` once the first well-formed AS_PATH is seen; the
    // rest of the blob must still frame, as `decode_attributes` would
    // otherwise reject the whole entry.
    let mut decided: Option<Option<Origin>> = None;
    while !buf.is_empty() {
        if buf.len() < 2 {
            return None;
        }
        let (flags, type_code) = (buf[0], buf[1]);
        let (len, header) = if flags & 0x10 != 0 {
            if buf.len() < 4 {
                return None;
            }
            (usize::from(u16::from_be_bytes([buf[2], buf[3]])), 4)
        } else {
            if buf.len() < 3 {
                return None;
            }
            (usize::from(buf[2]), 3)
        };
        let value = buf.get(header..header + len)?;
        buf = &buf[header + len..];
        if type_code == 2 && decided.is_none() {
            decided = as_path_origin(value);
        }
    }
    decided.flatten()
}

/// The origin of one AS_PATH value: `None` when the segments do not
/// parse (the attribute is then [`PathAttribute::Unknown`]),
/// `Some(origin)` otherwise.
fn as_path_origin(mut v: &[u8]) -> Option<Option<Origin>> {
    let mut last: Option<(u8, &[u8])> = None;
    while v.len() >= 2 {
        let (seg_type, n) = (v[0], usize::from(v[1]) * 4);
        let asns = v[2..].get(..n)?;
        if !matches!(seg_type, 1 | 2) {
            return None;
        }
        last = Some((seg_type, asns));
        v = &v[2 + n..];
    }
    if !v.is_empty() {
        return None;
    }
    let be = |c: &[u8]| Asn(u32::from_be_bytes([c[0], c[1], c[2], c[3]]));
    Some(match last {
        None => None,
        Some((2, asns)) => asns.rchunks_exact(4).next().map(|c| Origin::Single(be(c))),
        Some((_, asns)) => Some(Origin::Set(asns.chunks_exact(4).map(be).collect())),
    })
}

/// Decode the body of an UPDATE message (after the 19-byte header).
pub fn decode_update_body(mut buf: &[u8]) -> Result<UpdateMessage, BgpError> {
    if buf.remaining() < 2 {
        return Err(BgpError::Truncated);
    }
    let wlen = buf.get_u16() as usize;
    if buf.remaining() < wlen {
        return Err(BgpError::BadAttributes("withdrawn length"));
    }
    let mut wbuf = &buf[..wlen];
    buf.advance(wlen);
    let mut withdrawn = Vec::new();
    while wbuf.has_remaining() {
        withdrawn.push(get_wire_prefix(&mut wbuf)?);
    }

    if buf.remaining() < 2 {
        return Err(BgpError::Truncated);
    }
    let alen = buf.get_u16() as usize;
    if buf.remaining() < alen {
        return Err(BgpError::BadAttributes("attribute length"));
    }
    let mut abuf = &buf[..alen];
    buf.advance(alen);
    let mut attributes = Vec::new();
    while abuf.has_remaining() {
        attributes.push(decode_attribute(&mut abuf)?);
    }

    let mut nlri = Vec::new();
    while buf.has_remaining() {
        nlri.push(get_wire_prefix(&mut buf)?);
    }
    Ok(UpdateMessage {
        withdrawn,
        attributes,
        nlri,
    })
}

/// Decode one message from the front of `buf`, returning it and the
/// number of bytes consumed.
pub fn decode_message(buf: &[u8]) -> Result<(BgpMessage, usize), BgpError> {
    if buf.len() < 19 {
        return Err(BgpError::Truncated);
    }
    if buf[..16] != [0xFF; 16] {
        return Err(BgpError::BadMarker);
    }
    let total_u16 = u16::from_be_bytes([buf[16], buf[17]]);
    let total = usize::from(total_u16);
    if !(19..=MAX_MESSAGE).contains(&total) {
        return Err(BgpError::BadLength(total_u16));
    }
    if buf.len() < total {
        return Err(BgpError::Truncated);
    }
    let msg_type = buf[18];
    let body = &buf[19..total];
    let msg = match msg_type {
        TYPE_UPDATE => BgpMessage::Update(decode_update_body(body)?),
        TYPE_KEEPALIVE => {
            if !body.is_empty() {
                return Err(BgpError::BadLength(total_u16));
            }
            BgpMessage::Keepalive
        }
        TYPE_OPEN | TYPE_NOTIFICATION => BgpMessage::Other {
            msg_type,
            body: Bytes::copy_from_slice(body),
        },
        other => return Err(BgpError::BadType(other)),
    };
    Ok((msg, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettypes::prefix::pfx;
    use proptest::prelude::*;

    fn roundtrip(msg: &BgpMessage) -> BgpMessage {
        let bytes = encode_message(msg);
        let (decoded, used) = decode_message(&bytes).expect("decodes");
        assert_eq!(used, bytes.len());
        decoded
    }

    #[test]
    fn keepalive_roundtrip() {
        let m = BgpMessage::Keepalive;
        assert_eq!(roundtrip(&m), m);
        assert_eq!(encode_message(&m).len(), 19);
    }

    #[test]
    fn announce_roundtrip() {
        let m = BgpMessage::Update(UpdateMessage::announce(
            vec![pfx("193.0.0.0/21"), pfx("10.0.0.0/8"), pfx("0.0.0.0/0")],
            vec![Asn(64500), Asn(3333)],
            nettypes::parse_ipv4("192.0.2.1").unwrap(),
        ));
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn withdraw_roundtrip() {
        let m = BgpMessage::Update(UpdateMessage::withdraw(vec![
            pfx("1.2.3.0/24"),
            pfx("128.0.0.0/1"),
        ]));
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn prefix_wire_encoding_is_minimal() {
        // A /8 occupies 1 length byte + 1 network byte.
        let m = BgpMessage::Update(UpdateMessage::withdraw(vec![pfx("10.0.0.0/8")]));
        let bytes = encode_message(&m);
        // header 19 + wlen 2 + (1+1) + attrlen 2 = 25.
        assert_eq!(bytes.len(), 25);
        // /0 occupies only the length byte.
        let m0 = BgpMessage::Update(UpdateMessage::withdraw(vec![Prefix::DEFAULT]));
        assert_eq!(encode_message(&m0).len(), 24);
    }

    #[test]
    fn as_path_accessors() {
        let u = UpdateMessage::announce(
            vec![pfx("193.0.0.0/21")],
            vec![Asn(1), Asn(2), Asn(3)],
            0,
        );
        assert_eq!(u.as_path(), vec![Asn(1), Asn(2), Asn(3)]);
        assert_eq!(u.origin_as(), Some(Asn(3)));
        let w = UpdateMessage::withdraw(vec![pfx("1.2.3.0/24")]);
        assert_eq!(w.origin_as(), None);
    }

    #[test]
    fn unknown_attribute_preserved() {
        let m = BgpMessage::Update(UpdateMessage {
            withdrawn: vec![],
            attributes: vec![PathAttribute::Unknown {
                flags: 0xC0,
                type_code: 32, // LARGE_COMMUNITY — not interpreted
                value: Bytes::from_static(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]),
            }],
            nlri: vec![pfx("203.0.112.0/24")],
        });
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn communities_and_med() {
        let m = BgpMessage::Update(UpdateMessage {
            withdrawn: vec![],
            attributes: vec![
                PathAttribute::Origin(OriginType::Incomplete),
                PathAttribute::AsPath(vec![
                    AsPathSegment::Sequence(vec![Asn(1), Asn(2)]),
                    AsPathSegment::Set(vec![Asn(7), Asn(8)]),
                ]),
                PathAttribute::NextHop(0x0A000001),
                PathAttribute::Med(50),
                PathAttribute::LocalPref(100),
                PathAttribute::Communities(vec![0x0001_0002, 0xFFFF_FF01]),
            ],
            nlri: vec![pfx("198.51.100.0/24")],
        });
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn rejects_bad_marker_and_length() {
        let m = encode_message(&BgpMessage::Keepalive);
        let mut bad = m.to_vec();
        bad[0] = 0;
        assert_eq!(decode_message(&bad), Err(BgpError::BadMarker));
        let mut short = m.to_vec();
        short[17] = 18; // length < 19
        assert_eq!(decode_message(&short), Err(BgpError::BadLength(18)));
        assert_eq!(decode_message(&m[..10]), Err(BgpError::Truncated));
    }

    #[test]
    fn rejects_nonzero_keepalive_body() {
        let mut bytes = BytesMut::new();
        bytes.put_slice(&[0xFF; 16]);
        bytes.put_u16(20);
        bytes.put_u8(TYPE_KEEPALIVE);
        bytes.put_u8(0);
        assert!(matches!(
            decode_message(&bytes),
            Err(BgpError::BadLength(_))
        ));
    }

    #[test]
    fn rejects_bad_nlri_prefix_len() {
        // Hand-craft an update whose NLRI prefix length is 60.
        let mut body = BytesMut::new();
        body.put_u16(0); // withdrawn len
        body.put_u16(0); // attr len
        body.put_u8(60); // bogus prefix length
        let mut msg = BytesMut::new();
        msg.put_slice(&[0xFF; 16]);
        msg.put_u16(19 + body.len() as u16);
        msg.put_u8(TYPE_UPDATE);
        msg.put_slice(&body);
        assert_eq!(decode_message(&msg), Err(BgpError::BadPrefixLen(60)));
    }

    #[test]
    fn truncation_never_panics() {
        let m = BgpMessage::Update(UpdateMessage::announce(
            vec![pfx("193.0.0.0/21")],
            vec![Asn(64500), Asn(3333)],
            1,
        ));
        let bytes = encode_message(&m);
        for cut in 0..bytes.len() {
            let _ = decode_message(&bytes[..cut]);
        }
    }

    /// The owned reference for [`origin_from_attribute_bytes`].
    fn decoded_origin(blob: &[u8]) -> Option<Origin> {
        decode_attributes(blob)
            .ok()
            .and_then(|a| origin_from_attributes(&a))
    }

    /// One attribute TLV with an honest one-byte length.
    fn tlv(flags: u8, type_code: u8, value: &[u8]) -> Vec<u8> {
        let mut v = vec![flags, type_code, value.len() as u8];
        v.extend_from_slice(value);
        v
    }

    /// An AS_PATH value from `(segment type, ASNs)` pairs.
    fn path_value(segs: &[(u8, &[u32])]) -> Vec<u8> {
        let mut v = Vec::new();
        for (t, asns) in segs {
            v.push(*t);
            v.push(asns.len() as u8);
            for a in *asns {
                v.extend_from_slice(&a.to_be_bytes());
            }
        }
        v
    }

    #[test]
    fn borrowed_origin_edge_cases_match_decoder() {
        let origin = tlv(0x40, 1, &[0]);
        let good = tlv(0x40, 2, &path_value(&[(2, &[7, 8])]));
        let set = tlv(0x40, 2, &path_value(&[(2, &[7]), (1, &[9, 4])]));
        let bad_seg = tlv(0x40, 2, &path_value(&[(3, &[5])]));
        let odd_tail = tlv(0x40, 2, &[2, 1, 0, 0, 0, 5, 9]);
        let empty_path = tlv(0x40, 2, &[]);
        let empty_seq = tlv(0x40, 2, &path_value(&[(2, &[])]));
        let empty_set = tlv(0x40, 2, &path_value(&[(1, &[])]));
        let cases: Vec<(Vec<u8>, Option<Origin>)> = vec![
            (
                [origin.clone(), good.clone()].concat(),
                Some(Origin::Single(Asn(8))),
            ),
            (set.clone(), Some(Origin::Set(vec![Asn(9), Asn(4)]))),
            // A malformed AS_PATH is an unknown attribute; the next
            // well-formed one decides.
            (
                [bad_seg.clone(), good.clone()].concat(),
                Some(Origin::Single(Asn(8))),
            ),
            (
                [odd_tail, set.clone()].concat(),
                Some(Origin::Set(vec![Asn(9), Asn(4)])),
            ),
            // Only the first well-formed AS_PATH counts.
            ([good.clone(), set].concat(), Some(Origin::Single(Asn(8)))),
            ([empty_path, good.clone()].concat(), None),
            (empty_seq, None),
            (empty_set, Some(Origin::Set(Vec::new()))),
            // A truncated TLV after a good path rejects the whole blob.
            ([good.clone(), vec![0x40, 3, 4, 1]].concat(), None),
            ([good.clone(), vec![0x50, 3, 0]].concat(), None),
            (bad_seg, None),
            (Vec::new(), None),
        ];
        for (blob, want) in cases {
            assert_eq!(decoded_origin(&blob), want, "reference on {blob:?}");
            assert_eq!(
                origin_from_attribute_bytes(&blob),
                want,
                "borrowed on {blob:?}"
            );
        }
    }

    fn arb_prefix() -> impl Strategy<Value = Prefix> {
        (any::<u32>(), 0u8..=32).prop_map(|(n, l)| Prefix::new_unchecked_masked(n, l))
    }

    proptest! {
        #[test]
        fn prop_update_roundtrip(
            withdrawn in proptest::collection::vec(arb_prefix(), 0..8),
            nlri in proptest::collection::vec(arb_prefix(), 0..8),
            path in proptest::collection::vec(any::<u32>(), 0..6),
            next_hop in any::<u32>(),
            med in proptest::option::of(any::<u32>()),
        ) {
            let mut attributes = vec![
                PathAttribute::Origin(OriginType::Igp),
                PathAttribute::AsPath(vec![AsPathSegment::Sequence(
                    path.into_iter().map(Asn).collect(),
                )]),
                PathAttribute::NextHop(next_hop),
            ];
            if let Some(m) = med {
                attributes.push(PathAttribute::Med(m));
            }
            let msg = BgpMessage::Update(UpdateMessage { withdrawn, attributes, nlri });
            let bytes = encode_message(&msg);
            let (decoded, used) = decode_message(&bytes).unwrap();
            prop_assert_eq!(used, bytes.len());
            prop_assert_eq!(decoded, msg);
        }

        #[test]
        fn prop_borrowed_origin_matches_decoder_on_random_bytes(
            blob in proptest::collection::vec(any::<u8>(), 0..48),
        ) {
            prop_assert_eq!(origin_from_attribute_bytes(&blob), decoded_origin(&blob));
        }

        #[test]
        fn prop_borrowed_origin_matches_decoder_on_tlv_soup(
            attrs in proptest::collection::vec(
                (
                    proptest::sample::select(vec![0x40u8, 0x50, 0xC0, 0x80]),
                    proptest::sample::select(vec![1u8, 2, 2, 2, 3, 8, 32]),
                    proptest::collection::vec(
                        (0u8..4, proptest::collection::vec(any::<u32>(), 0..3)),
                        0..3,
                    ),
                    0u8..3,
                ),
                0..4,
            ),
            cut in 0usize..8,
        ) {
            // TLVs with plausible framing (AS_PATH-shaped values, an
            // extended length now and then, a stray byte or a missing
            // one), then an optional cut off the end.
            let mut blob = Vec::new();
            for (flags, type_code, segs, slack) in &attrs {
                let segs: Vec<(u8, &[u32])> =
                    segs.iter().map(|(t, a)| (*t, a.as_slice())).collect();
                let mut value = path_value(&segs);
                match slack {
                    1 => value.push(0),
                    2 => { value.pop(); }
                    _ => {}
                }
                blob.push(*flags);
                blob.push(*type_code);
                if flags & 0x10 != 0 {
                    blob.extend_from_slice(&(value.len() as u16).to_be_bytes());
                } else {
                    blob.push(value.len() as u8);
                }
                blob.extend_from_slice(&value);
            }
            blob.truncate(blob.len().saturating_sub(cut % 4));
            prop_assert_eq!(origin_from_attribute_bytes(&blob), decoded_origin(&blob));
        }

        #[test]
        fn prop_bitflips_never_panic(flip in 0usize..100, xor in 1u8..=255) {
            let m = BgpMessage::Update(UpdateMessage::announce(
                vec![pfx("193.0.0.0/21"), pfx("10.0.0.0/8")],
                vec![Asn(64500), Asn(3333)],
                7,
            ));
            let mut bytes = encode_message(&m).to_vec();
            if flip < bytes.len() {
                bytes[flip] ^= xor;
            }
            let _ = decode_message(&bytes);
        }
    }
}
