//! Length-prefixed, checksummed frame codec for inter-process streams.
//!
//! The shard fabric ships serialised plans and measurement histories
//! between the orchestrator and its worker processes over a socket on
//! each worker's stdin/stdout, and to shard hosts over TCP. Streams
//! deliver bytes, not messages, and a worker can die mid-write, so
//! every message travels inside a frame:
//!
//! ```text
//! magic(2) | kind(1) | len(4, LE) | crc32(4, LE over payload) | payload
//! ```
//!
//! The reader state machine promises three things no matter what the
//! peer does: a clean EOF on a frame boundary is `Ok(None)`, a torn or
//! truncated tail is a [`FrameError`] (never a panic), and a corrupt
//! header can never make it allocate or wait for an absurd payload
//! (lengths above [`MAX_FRAME_LEN`] are rejected before any read).
//! Checksums are CRC-32 (IEEE), computed over the payload only, eight
//! bytes per step (slicing-by-8).

// Decoding untrusted bytes must not panic: a malformed input is an error.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use std::fmt;
use std::io::{Read, Write};

/// Two-byte frame preamble; catches desynchronised or garbage streams
/// before the length field is trusted.
pub const FRAME_MAGIC: [u8; 2] = [0xED, 0x67];

/// Upper bound on a single frame's payload (64 MiB). A corrupt length
/// field must not be able to trigger a giant allocation or an
/// effectively-infinite blocking read.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Bytes of framing overhead preceding every payload.
pub const FRAME_HEADER_LEN: usize = 11;

/// What a frame carries — the fabric's tiny message vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Orchestrator → worker: a serialised shard task.
    Task,
    /// Worker → orchestrator: liveness plus progress.
    Heartbeat,
    /// Worker → orchestrator: the measured shard history.
    Result,
    /// Worker → orchestrator: a structured failure description.
    Error,
    /// Client → server: the session-opening handshake (protocol magic,
    /// version, study seed). Only ever the first frame on a socket.
    Hello,
    /// Server → client: the handshake acceptance.
    HelloAck,
}

impl FrameKind {
    fn to_wire(self) -> u8 {
        match self {
            Self::Task => 1,
            Self::Heartbeat => 2,
            Self::Result => 3,
            Self::Error => 4,
            Self::Hello => 5,
            Self::HelloAck => 6,
        }
    }

    fn from_wire(byte: u8) -> Option<Self> {
        match byte {
            1 => Some(Self::Task),
            2 => Some(Self::Heartbeat),
            3 => Some(Self::Result),
            4 => Some(Self::Error),
            5 => Some(Self::Hello),
            6 => Some(Self::HelloAck),
            _ => None,
        }
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message discriminant.
    pub kind: FrameKind,
    /// Verbatim payload bytes (checksum already verified).
    pub payload: Vec<u8>,
}

/// Everything that can go wrong on the wire.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying reader or writer failed.
    Io(std::io::Error),
    /// The stream ended inside a frame (torn write / killed peer).
    Truncated,
    /// The bytes were there but wrong: bad magic, unknown kind, or a
    /// checksum mismatch.
    Corrupt(&'static str),
    /// The length field exceeded [`MAX_FRAME_LEN`].
    TooLarge(usize),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "frame i/o error: {e}"),
            Self::Truncated => write!(f, "stream truncated inside a frame"),
            Self::Corrupt(what) => write!(f, "corrupt frame: {what}"),
            Self::TooLarge(len) => {
                write!(f, "frame length {len} exceeds maximum {MAX_FRAME_LEN}")
            }
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) slicing-by-8
/// tables, built at compile time so the codec carries no external
/// dependency. Table 0 is the classic bytewise table; table `k` advances
/// a byte's contribution past `k` further zero bytes, so eight table
/// lookups fold eight input bytes at once.
#[allow(clippy::indexing_slicing)] // const-evaluated: a bad index fails the build
const CRC32_TABLES: [[u32; 256]; 8] = {
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
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes`, eight bytes per step.
#[must_use]
// Every index is masked to 0..=255, the tables' length.
#[allow(clippy::indexing_slicing)]
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC32_TABLES;
    let (words, tail) = bytes.as_chunks::<8>();
    let mut crc = 0xFFFF_FFFFu32;
    for word in words {
        let [a, b, c, d, e, f, g, h] = *word;
        let lo = crc ^ u32::from_le_bytes([a, b, c, d]);
        crc = t7[(lo & 0xFF) as usize]
            ^ t6[((lo >> 8) & 0xFF) as usize]
            ^ t5[((lo >> 16) & 0xFF) as usize]
            ^ t4[(lo >> 24) as usize]
            ^ t3[usize::from(e)]
            ^ t2[usize::from(f)]
            ^ t1[usize::from(g)]
            ^ t0[usize::from(h)];
    }
    for &b in tail {
        crc = (crc >> 8) ^ t0[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Encodes one frame to a byte vector (header + payload).
#[must_use]
pub fn encode_frame(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&FRAME_MAGIC);
    out.push(kind.to_wire());
    out.extend_from_slice(
        &u32::try_from(payload.len())
            .unwrap_or(u32::MAX)
            .to_le_bytes(),
    );
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Writes one frame and flushes the writer, so a single-frame message is
/// visible to the peer immediately.
///
/// # Errors
///
/// [`FrameError::TooLarge`] if the payload exceeds [`MAX_FRAME_LEN`];
/// [`FrameError::Io`] if the writer fails.
pub fn write_frame<W: Write>(w: &mut W, kind: FrameKind, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge(payload.len()));
    }
    w.write_all(&encode_frame(kind, payload))?;
    w.flush()?;
    Ok(())
}

/// Reads exactly `buf.len()` bytes. `Ok(false)` means EOF arrived before
/// the *first* byte (a clean boundary when `at_boundary`); EOF after a
/// partial read is always [`FrameError::Truncated`].
fn read_full<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<bool, FrameError> {
    let mut filled = 0;
    while let Some(rest) = buf.get_mut(filled..).filter(|rest| !rest.is_empty()) {
        match r.read(rest) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(FrameError::Truncated);
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(true)
}

/// Reads the next frame.
///
/// Returns `Ok(None)` on a clean EOF at a frame boundary. Any other
/// premature end of stream is [`FrameError::Truncated`]; wrong magic,
/// an unknown kind byte, or a checksum mismatch is
/// [`FrameError::Corrupt`]. The reader never panics and never attempts
/// a read longer than [`MAX_FRAME_LEN`], regardless of input.
///
/// # Errors
///
/// See above: [`FrameError::Io`], [`FrameError::Truncated`],
/// [`FrameError::Corrupt`], or [`FrameError::TooLarge`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Frame>, FrameError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    if !read_full(r, &mut header)? {
        return Ok(None);
    }
    if header[0..2] != FRAME_MAGIC {
        return Err(FrameError::Corrupt("bad magic"));
    }
    let Some(kind) = FrameKind::from_wire(header[2]) else {
        return Err(FrameError::Corrupt("unknown frame kind"));
    };
    let len = u32::from_le_bytes([header[3], header[4], header[5], header[6]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge(len));
    }
    let expected_crc = u32::from_le_bytes([header[7], header[8], header[9], header[10]]);
    let mut payload = vec![0u8; len];
    if !read_full(r, &mut payload)? && len > 0 {
        return Err(FrameError::Truncated);
    }
    if crc32(&payload) != expected_crc {
        return Err(FrameError::Corrupt("checksum mismatch"));
    }
    Ok(Some(Frame { kind, payload }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn round_trips_a_frame() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Task, b"hello fabric").unwrap();
        let frame = read_frame(&mut Cursor::new(&buf)).unwrap().unwrap();
        assert_eq!(frame.kind, FrameKind::Task);
        assert_eq!(frame.payload, b"hello fabric");
    }

    #[test]
    fn round_trips_an_empty_payload() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Heartbeat, b"").unwrap();
        let frame = read_frame(&mut Cursor::new(&buf)).unwrap().unwrap();
        assert_eq!(frame.kind, FrameKind::Heartbeat);
        assert!(frame.payload.is_empty());
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(read_frame(&mut Cursor::new(Vec::new())).unwrap().is_none());
    }

    #[test]
    fn eof_between_frames_is_none() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Result, b"one").unwrap();
        let mut cursor = Cursor::new(&buf);
        assert!(read_frame(&mut cursor).unwrap().is_some());
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn truncated_header_is_truncated() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Task, b"payload").unwrap();
        for cut in 1..FRAME_HEADER_LEN {
            let err = read_frame(&mut Cursor::new(&buf[..cut])).unwrap_err();
            assert!(matches!(err, FrameError::Truncated), "cut={cut}: {err}");
        }
    }

    #[test]
    fn truncated_payload_is_truncated() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Task, b"payload").unwrap();
        for cut in FRAME_HEADER_LEN..buf.len() {
            let err = read_frame(&mut Cursor::new(&buf[..cut])).unwrap_err();
            assert!(matches!(err, FrameError::Truncated), "cut={cut}: {err}");
        }
    }

    #[test]
    fn bad_magic_is_corrupt() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Task, b"x").unwrap();
        buf[0] ^= 0xFF;
        let err = read_frame(&mut Cursor::new(&buf)).unwrap_err();
        assert!(matches!(err, FrameError::Corrupt(_)));
    }

    #[test]
    fn unknown_kind_is_corrupt() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Task, b"x").unwrap();
        buf[2] = 99;
        let err = read_frame(&mut Cursor::new(&buf)).unwrap_err();
        assert!(matches!(err, FrameError::Corrupt(_)));
    }

    #[test]
    fn flipped_payload_bit_is_corrupt() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Result, b"measurements").unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        let err = read_frame(&mut Cursor::new(&buf)).unwrap_err();
        assert!(matches!(err, FrameError::Corrupt("checksum mismatch")));
    }

    #[test]
    fn oversized_length_is_rejected_before_reading() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Task, b"x").unwrap();
        let huge = (MAX_FRAME_LEN as u32 + 1).to_le_bytes();
        buf[3..7].copy_from_slice(&huge);
        let err = read_frame(&mut Cursor::new(&buf)).unwrap_err();
        assert!(matches!(err, FrameError::TooLarge(_)));
    }

    #[test]
    fn oversized_write_is_rejected() {
        struct NullSink;
        impl std::io::Write for NullSink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let payload = vec![0u8; MAX_FRAME_LEN + 1];
        let err = write_frame(&mut NullSink, FrameKind::Task, &payload).unwrap_err();
        assert!(matches!(err, FrameError::TooLarge(_)));
    }

    #[test]
    fn handshake_kinds_round_trip() {
        for kind in [FrameKind::Hello, FrameKind::HelloAck] {
            let mut buf = Vec::new();
            write_frame(&mut buf, kind, b"{\"magic\":1}").unwrap();
            let frame = read_frame(&mut Cursor::new(&buf)).unwrap().unwrap();
            assert_eq!(frame.kind, kind);
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    /// The reference: one table lookup per byte.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    /// A seeded xorshift byte stream, so the oracle needs no crate.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_equals_the_bytewise_reference_at_every_length_and_offset() {
        let buffer = noise(1, 64 + 8);
        for offset in 0..8 {
            for len in 0..=64 {
                let bytes = &buffer[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "offset {offset}, length {len}"
                );
            }
        }
    }

    #[test]
    fn crc32_equals_the_bytewise_reference_on_random_buffers() {
        for seed in 0..64u64 {
            let len = (noise(seed + 100, 4)
                .iter()
                .fold(0usize, |acc, &b| acc << 8 | usize::from(b)))
                % (64 * 1024 + 1);
            let bytes = noise(seed, len);
            assert_eq!(
                crc32(&bytes),
                crc32_bytewise(&bytes),
                "seed {seed}, length {len}"
            );
        }
        let full = noise(7, 64 * 1024);
        assert_eq!(crc32(&full), crc32_bytewise(&full));
    }

    #[test]
    fn back_to_back_frames_decode_in_order() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Task, b"first").unwrap();
        write_frame(&mut buf, FrameKind::Heartbeat, b"second").unwrap();
        write_frame(&mut buf, FrameKind::Result, b"third").unwrap();
        let mut cursor = Cursor::new(&buf);
        let kinds: Vec<FrameKind> = std::iter::from_fn(|| read_frame(&mut cursor).unwrap())
            .map(|f| f.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![FrameKind::Task, FrameKind::Heartbeat, FrameKind::Result]
        );
    }
}
