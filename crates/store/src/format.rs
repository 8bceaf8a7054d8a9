//! On-disk layout: magic, versioned header, CRC-framed records, and the
//! little-endian byte codec shared with store clients.
//!
//! ```text
//! file   := header record*
//! header := magic(8) version(u32) tag_len(u32) tag(tag_len) header_crc(u32)
//! record := payload_len(u32) payload_crc(u32) payload(payload_len)
//! payload:= kind(u8) key_len(u32) key(key_len) value(rest)
//! ```
//!
//! All integers are little-endian. `header_crc` covers every header byte
//! before it; `payload_crc` covers exactly the payload bytes. A record
//! whose frame is short, oversized, or fails its CRC marks the end of the
//! valid prefix — recovery truncates there (see [`crate::reader`]).

/// First eight bytes of every store file.
pub const MAGIC: [u8; 8] = *b"GBDSTOR1";

/// On-disk schema version. Bump on any incompatible layout change; open
/// refuses files written under a different version.
pub const SCHEMA_VERSION: u32 = 1;

/// Upper bound on the identity tag accepted from disk, so a corrupt
/// length field cannot make the header parser allocate gigabytes.
pub const MAX_TAG_LEN: u32 = 4096;

/// Upper bound on a single record payload (256 MiB). Real records are
/// kilobytes; anything larger is treated as corruption.
pub const MAX_PAYLOAD_LEN: u32 = 256 << 20;

/// Bytes of framing around each payload: length word plus CRC word.
pub const FRAME_OVERHEAD: usize = 8;

/// Slicing-by-8 lookup tables: `CRC_TABLES[0]` is the classic bytewise
/// table, and `CRC_TABLES[k][i]` is the CRC of byte `i` followed by `k`
/// zero bytes, so eight input bytes fold into the CRC with eight
/// independent lookups instead of a chain of eight dependent ones.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant) of `bytes`.
///
/// Every record is checksummed when it is written, when it is shipped to
/// a standby, and when it is read back, so this runs over each stored
/// byte several times; it takes eight bytes per step (slicing-by-8).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Serializes the file header for identity tag `tag`.
pub fn encode_header(tag: &[u8]) -> Vec<u8> {
    debug_assert!(tag.len() <= MAX_TAG_LEN as usize, "identity tag too long");
    let mut out = Vec::with_capacity(8 + 4 + 4 + tag.len() + 4);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
    out.extend_from_slice(&(tag.len() as u32).to_le_bytes());
    out.extend_from_slice(tag);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Why a header failed to parse. Unlike record damage, header damage is
/// not recoverable: without a trusted identity tag, serving any cached
/// value would risk shadowing exact results with foreign ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeaderError {
    /// File shorter than a minimal header, or magic bytes wrong.
    NotAStore,
    /// Magic matched but the file was written under a different schema
    /// version than [`SCHEMA_VERSION`].
    SchemaMismatch {
        /// Version found in the file.
        found: u32,
    },
    /// Length field out of bounds or header CRC mismatch.
    Corrupt,
}

/// Parses a header from the front of `buf`, returning the identity tag
/// and the number of header bytes consumed.
pub fn parse_header(buf: &[u8]) -> Result<(Vec<u8>, usize), HeaderError> {
    if buf.len() < 8 + 4 + 4 + 4 {
        return Err(HeaderError::NotAStore);
    }
    if buf[..8] != MAGIC {
        return Err(HeaderError::NotAStore);
    }
    let version = read_u32(buf, 8);
    if version != SCHEMA_VERSION {
        return Err(HeaderError::SchemaMismatch { found: version });
    }
    let tag_len = read_u32(buf, 12);
    if tag_len > MAX_TAG_LEN {
        return Err(HeaderError::Corrupt);
    }
    let end = 16 + tag_len as usize;
    if buf.len() < end + 4 {
        return Err(HeaderError::Corrupt);
    }
    let stored = read_u32(buf, end);
    if crc32(&buf[..end]) != stored {
        return Err(HeaderError::Corrupt);
    }
    Ok((buf[16..end].to_vec(), end + 4))
}

/// Serializes one record frame (`len crc payload`) for `kind`/`key`/`value`.
pub fn encode_frame(kind: u8, key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_frame_into(&mut frame, kind, key, value);
    frame
}

/// Appends one record frame to `out`: the same bytes as [`encode_frame`],
/// so frames for a group of records can be written in one call.
pub fn encode_frame_into(out: &mut Vec<u8>, kind: u8, key: &[u8], value: &[u8]) {
    let payload_len = 1 + 4 + key.len() + value.len();
    debug_assert!(payload_len <= MAX_PAYLOAD_LEN as usize, "record too large");
    out.reserve(FRAME_OVERHEAD + payload_len);
    let start = out.len();
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    // CRC placeholder, patched once the payload is in place.
    out.extend_from_slice(&[0; 4]);
    out.push(kind);
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(value);
    let crc = crc32(&out[start + FRAME_OVERHEAD..]);
    out[start + 4..start + FRAME_OVERHEAD].copy_from_slice(&crc.to_le_bytes());
}

/// One decoded record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Client-defined record kind (e.g. geometry / stage / result).
    pub kind: u8,
    /// Client-encoded cache key bytes.
    pub key: Vec<u8>,
    /// Client-encoded value bytes.
    pub value: Vec<u8>,
}

/// Decodes the frame starting at `offset` in `buf`. Returns the record
/// and the offset just past it, or `None` if the bytes from `offset` on
/// do not form a complete, checksummed frame (torn tail or corruption).
pub fn decode_frame(buf: &[u8], offset: usize) -> Option<(Record, usize)> {
    let rest = buf.get(offset..)?;
    if rest.len() < FRAME_OVERHEAD {
        return None;
    }
    let payload_len = read_u32(rest, 0);
    if !(5..=MAX_PAYLOAD_LEN).contains(&payload_len) {
        return None;
    }
    let payload_len = payload_len as usize;
    let payload = rest.get(FRAME_OVERHEAD..FRAME_OVERHEAD + payload_len)?;
    if crc32(payload) != read_u32(rest, 4) {
        return None;
    }
    let kind = payload[0];
    let key_len = read_u32(payload, 1) as usize;
    if 5 + key_len > payload.len() {
        return None;
    }
    let record = Record {
        kind,
        key: payload[5..5 + key_len].to_vec(),
        value: payload[5 + key_len..].to_vec(),
    };
    Some((record, offset + FRAME_OVERHEAD + payload_len))
}

fn read_u32(buf: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&buf[at..at + 4]);
    u32::from_le_bytes(b)
}

/// Append-only little-endian byte encoder for record keys and values.
/// Store clients (the engine's persistence codec) use this so every
/// serialized artifact shares one byte order and float convention.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Fresh empty encoder.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its raw IEEE-754 bits, so the value read back
    /// is bit-identical (including NaN payloads and signed zero).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed `u64` slice.
    pub fn put_u64_slice(&mut self, vs: &[u64]) {
        self.put_u32(vs.len() as u32);
        for &v in vs {
            self.put_u64(v);
        }
    }

    /// Appends a length-prefixed `f64` slice (raw bits per element).
    pub fn put_f64_slice(&mut self, vs: &[f64]) {
        self.put_u32(vs.len() as u32);
        for &v in vs {
            self.put_f64(v);
        }
    }

    /// Consumes the encoder, returning the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked reader over bytes produced by [`ByteWriter`]. Every
/// getter returns `None` past the end instead of panicking, so a decoder
/// over foreign bytes degrades to "skip this record", never a crash.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> ByteReader<'a> {
    /// Reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, at: 0 }
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Option<u8> {
        let v = *self.buf.get(self.at)?;
        self.at += 1;
        Some(v)
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Option<u32> {
        let slice = self.buf.get(self.at..self.at + 4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(slice);
        self.at += 4;
        Some(u32::from_le_bytes(b))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Option<u64> {
        let slice = self.buf.get(self.at..self.at + 8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(slice);
        self.at += 8;
        Some(u64::from_le_bytes(b))
    }

    /// Reads an `f64` from raw bits (inverse of [`ByteWriter::put_f64`]).
    pub fn get_f64(&mut self) -> Option<f64> {
        self.get_u64().map(f64::from_bits)
    }

    /// Reads a length-prefixed `u64` slice.
    pub fn get_u64_slice(&mut self) -> Option<Vec<u64>> {
        let len = self.get_u32()? as usize;
        if len > self.remaining() / 8 {
            return None;
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.get_u64()?);
        }
        Some(out)
    }

    /// Reads a length-prefixed `f64` slice.
    pub fn get_f64_slice(&mut self) -> Option<Vec<f64>> {
        let len = self.get_u32()? as usize;
        if len > self.remaining() / 8 {
            return None;
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.get_f64()?);
        }
        Some(out)
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    /// True when every byte has been consumed — decoders check this so a
    /// record with trailing garbage is rejected rather than half-read.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_matches_the_bytewise_definition_at_every_length_and_offset() {
        fn bytewise(bytes: &[u8]) -> u32 {
            let mut crc = 0xFFFF_FFFFu32;
            for &b in bytes {
                crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
            }
            !crc
        }
        let bytes: Vec<u8> = (0..300u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for start in 0..9 {
            for end in start..bytes.len() {
                let slice = &bytes[start..end];
                assert_eq!(crc32(slice), bytewise(slice), "{start}..{end}");
            }
        }
    }

    #[test]
    fn header_round_trips() {
        let bytes = encode_header(b"engine-v1");
        let (tag, len) = parse_header(&bytes).unwrap();
        assert_eq!(tag, b"engine-v1");
        assert_eq!(len, bytes.len());
    }

    #[test]
    fn header_rejects_damage() {
        let bytes = encode_header(b"tag");
        assert_eq!(parse_header(&bytes[..7]), Err(HeaderError::NotAStore));
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xFF;
        assert_eq!(parse_header(&wrong_magic), Err(HeaderError::NotAStore));
        let mut wrong_version = bytes.clone();
        wrong_version[8] = 99;
        assert_eq!(
            parse_header(&wrong_version),
            Err(HeaderError::SchemaMismatch { found: 99 })
        );
        let mut flipped_tag = bytes.clone();
        flipped_tag[16] ^= 0x01;
        assert_eq!(parse_header(&flipped_tag), Err(HeaderError::Corrupt));
        let mut huge_len = bytes;
        huge_len[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(parse_header(&huge_len), Err(HeaderError::Corrupt));
    }

    #[test]
    fn frame_round_trips() {
        let frame = encode_frame(3, b"key", b"value-bytes");
        let (record, next) = decode_frame(&frame, 0).unwrap();
        assert_eq!(next, frame.len());
        assert_eq!(record.kind, 3);
        assert_eq!(record.key, b"key");
        assert_eq!(record.value, b"value-bytes");
    }

    #[test]
    fn frame_rejects_torn_and_corrupt_bytes() {
        let frame = encode_frame(1, b"k", b"v");
        // Torn tail: any strict prefix fails to decode.
        for cut in 0..frame.len() {
            assert!(decode_frame(&frame[..cut], 0).is_none(), "cut={cut}");
        }
        // A flipped payload byte fails the CRC.
        for at in FRAME_OVERHEAD..frame.len() {
            let mut bad = frame.clone();
            bad[at] ^= 0x10;
            assert!(decode_frame(&bad, 0).is_none(), "flip at {at}");
        }
    }

    #[test]
    fn byte_codec_round_trips_exact_bits() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-0.0);
        w.put_f64(f64::NEG_INFINITY);
        w.put_f64_slice(&[0.1, 0.2, f64::INFINITY]);
        w.put_u64_slice(&[1, 2, 3]);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8(), Some(7));
        assert_eq!(r.get_u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.get_u64(), Some(u64::MAX - 1));
        assert_eq!(r.get_f64().map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(r.get_f64(), Some(f64::NEG_INFINITY));
        let fs = r.get_f64_slice().unwrap();
        assert_eq!(fs.len(), 3);
        assert_eq!(fs[0].to_bits(), 0.1f64.to_bits());
        assert_eq!(r.get_u64_slice(), Some(vec![1, 2, 3]));
        assert!(r.is_empty());
        assert_eq!(r.get_u8(), None);
    }

    #[test]
    fn byte_reader_rejects_lying_lengths() {
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX); // claims a 4-billion element slice
        let bytes = w.finish();
        assert!(ByteReader::new(&bytes).get_f64_slice().is_none());
        assert!(ByteReader::new(&bytes).get_u64_slice().is_none());
    }
}
