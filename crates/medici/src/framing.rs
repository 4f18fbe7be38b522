//! The EOF wire protocol: length-prefixed frames.
//!
//! The paper configures its TCP connector with an "EOFProtocol" so the
//! receiver knows where a message ends. We use an 8-byte big-endian length
//! prefix followed by the body; streaming variants move large payloads in
//! bounded chunks so multi-gigabyte benchmark frames never need a giant
//! allocation on the sending side.
//!
//! Connections are sessions: a sender writes frame after frame on one held
//! connection and a receiver reads frames until EOF, so a frame boundary
//! is the only thing that separates two messages. [`write_frame`] hands
//! the header and the body to the socket in one write (with
//! `TCP_NODELAY` set on every held connection, a frame split over two
//! writes could otherwise sit behind a delayed ACK); the blocking readers
//! here serve one-shot connections, and [`crate::inbox::Inbox`] assembles
//! frames from non-blocking session reads.

use std::io::{Read, Write};

/// Chunk size used by the streaming send/receive paths.
const CHUNK: usize = 1 << 22; // 4 MiB

/// Largest frame [`read_frame`] will buffer. A corrupted length prefix
/// must surface as an error, not as a multi-exabyte allocation.
pub const MAX_FRAME: u64 = 1 << 30; // 1 GiB

/// Writes one frame — 8-byte length prefix + body — as one `write_all`
/// from one buffer.
pub fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(8 + body.len());
    frame.extend_from_slice(&(body.len() as u64).to_be_bytes());
    frame.extend_from_slice(body);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame into memory, rejecting frames above [`MAX_FRAME`].
///
/// # Errors
/// Propagates socket errors; an unexpected EOF mid-frame surfaces as
/// `ErrorKind::UnexpectedEof`, an implausible length prefix as
/// `ErrorKind::InvalidData`.
pub fn read_frame<R: Read>(r: &mut R) -> std::io::Result<Vec<u8>> {
    read_frame_limited(r, MAX_FRAME)
}

/// [`read_frame`] with an explicit size cap.
///
/// # Errors
/// `ErrorKind::InvalidData` when the length prefix exceeds `max_len`;
/// otherwise as [`read_frame`].
pub fn read_frame_limited<R: Read>(r: &mut R, max_len: u64) -> std::io::Result<Vec<u8>> {
    let mut len_buf = [0u8; 8];
    r.read_exact(&mut len_buf)?;
    let len = u64::from_be_bytes(len_buf);
    if len > max_len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {max_len}"),
        ));
    }
    // Grow incrementally: a corrupted-but-under-cap prefix on a short
    // stream fails at EOF without first allocating the full claimed size.
    let mut body = Vec::new();
    let mut remaining = len as usize;
    let mut chunk = vec![0u8; CHUNK.min(remaining.max(1))];
    while remaining > 0 {
        let n = remaining.min(CHUNK);
        r.read_exact(&mut chunk[..n])?;
        body.extend_from_slice(&chunk[..n]);
        remaining -= n;
    }
    Ok(body)
}

/// Writes a frame of `total` synthetic bytes (the measurement-harness
/// payload) in `CHUNK`-sized (4 MiB) pieces, pacing each piece through `pace`.
pub fn write_frame_synthetic<W: Write>(
    w: &mut W,
    total: u64,
    mut pace: impl FnMut(usize),
) -> std::io::Result<()> {
    w.write_all(&total.to_be_bytes())?;
    // Pace-then-send so a simulated link actually delays the receiver.
    const PACE_CHUNK: usize = 1 << 18; // 256 KiB
    let chunk = vec![0x5au8; PACE_CHUNK];
    let mut remaining = total as usize;
    while remaining > 0 {
        let n = remaining.min(PACE_CHUNK);
        pace(n);
        w.write_all(&chunk[..n])?;
        remaining -= n;
    }
    w.flush()
}

/// Reads a frame's header and discards its body in chunks, returning the
/// body length. Used by benchmark receivers and by the relay when it only
/// needs to account for bytes.
pub fn read_frame_discard<R: Read>(r: &mut R) -> std::io::Result<u64> {
    let mut len_buf = [0u8; 8];
    r.read_exact(&mut len_buf)?;
    let len = u64::from_be_bytes(len_buf);
    let mut buf = vec![0u8; CHUNK];
    let mut remaining = len as usize;
    while remaining > 0 {
        let n = remaining.min(CHUNK);
        r.read_exact(&mut buf[..n])?;
        remaining -= n;
    }
    Ok(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello grid").unwrap();
        let got = read_frame(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(got, b"hello grid");
    }

    #[test]
    fn a_frame_is_one_write() {
        struct Writes(Vec<usize>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = Writes(Vec::new());
        write_frame(&mut w, &[3u8; 1000]).unwrap();
        assert_eq!(w.0, vec![1008]);
    }

    #[test]
    fn empty_frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"").unwrap();
        let got = read_frame(&mut Cursor::new(&buf)).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn multiple_frames_in_sequence() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"one").unwrap();
        write_frame(&mut buf, b"two").unwrap();
        let mut cur = Cursor::new(&buf);
        assert_eq!(read_frame(&mut cur).unwrap(), b"one");
        assert_eq!(read_frame(&mut cur).unwrap(), b"two");
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"truncate me").unwrap();
        buf.truncate(buf.len() - 3);
        let err = read_frame(&mut Cursor::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_length_prefix_is_invalid_data() {
        // A frame claiming 2^62 bytes must be rejected before allocation.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(1u64 << 62).to_be_bytes());
        buf.extend_from_slice(b"whatever");
        let err = read_frame(&mut Cursor::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn under_cap_prefix_on_short_stream_is_eof() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&1_000_000u64.to_be_bytes());
        buf.extend_from_slice(b"only a little data");
        let err = read_frame_limited(&mut Cursor::new(&buf), MAX_FRAME).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn explicit_cap_is_honoured() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[7u8; 64]).unwrap();
        assert!(read_frame_limited(&mut Cursor::new(&buf), 32).is_err());
        assert_eq!(read_frame_limited(&mut Cursor::new(&buf), 64).unwrap().len(), 64);
    }

    #[test]
    fn synthetic_stream_roundtrip() {
        let total = (3 * CHUNK + 12345) as u64;
        let mut buf = Vec::new();
        let mut paced = 0usize;
        write_frame_synthetic(&mut buf, total, |n| paced += n).unwrap();
        assert_eq!(paced as u64, total);
        let got = read_frame_discard(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(got, total);
    }

    #[test]
    fn synthetic_matches_regular_reader() {
        let mut buf = Vec::new();
        write_frame_synthetic(&mut buf, 100, |_| {}).unwrap();
        let body = read_frame(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(body.len(), 100);
        assert!(body.iter().all(|&b| b == 0x5a));
    }
}
