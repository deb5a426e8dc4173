//! Length-prefixed framing over byte streams.
//!
//! The distributed controller "communicates a report to the Inca server
//! … using a TCP connection" (§3.1.3). Frames are a 4-byte big-endian
//! length followed by that many payload bytes; a hard cap protects the
//! server from hostile or corrupted peers.

use std::fmt;
use std::io::{self, Read, Write};

/// Maximum accepted frame length (16 MiB — far above any report; the
/// largest TeraGrid report bucket was 40–50 KB).
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Errors produced while reading a frame.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying I/O failed.
    Io(io::Error),
    /// Peer announced a frame larger than [`MAX_FRAME_LEN`].
    TooLarge {
        /// The announced length.
        announced: usize,
    },
    /// The stream ended cleanly before a frame header (normal EOF).
    Closed,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
            FrameError::TooLarge { announced } => {
                write!(f, "frame of {announced} bytes exceeds cap of {MAX_FRAME_LEN}")
            }
            FrameError::Closed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame (length prefix + payload) and flushes. A payload
/// over [`MAX_FRAME_LEN`] is refused with `InvalidInput` before a byte
/// is written: the sender learns locally what the receiver would reject.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "payload exceeds MAX_FRAME_LEN"));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Incremental frame accumulator for non-blocking readers.
///
/// The blocking [`read_frame`] owns its stream until a whole frame
/// arrives; a readiness-driven server cannot afford that. `FrameBuffer`
/// accepts bytes as the socket yields them ([`FrameBuffer::extend`])
/// and hands back complete frames ([`FrameBuffer::next_frame`]) as soon
/// as the length prefix and payload are fully buffered — a header or
/// payload split across any number of reads is reassembled
/// transparently. The oversize cap is enforced from the header alone,
/// before any payload is buffered.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted once it outgrows the live
    /// remainder so a long-lived connection never accretes old bytes.
    start: usize,
}

impl FrameBuffer {
    /// An empty accumulator.
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Appends bytes read from the stream.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Pops the next complete frame, `Ok(None)` while more bytes are
    /// needed. A header announcing more than [`MAX_FRAME_LEN`] is
    /// rejected immediately, without waiting for (or allocating) the
    /// payload.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let live = &self.buf[self.start..];
        if live.len() < 4 {
            self.compact();
            return Ok(None);
        }
        let len = u32::from_be_bytes([live[0], live[1], live[2], live[3]]) as usize;
        if len > MAX_FRAME_LEN {
            return Err(FrameError::TooLarge { announced: len });
        }
        if live.len() < 4 + len {
            self.compact();
            return Ok(None);
        }
        let payload = live[4..4 + len].to_vec();
        self.start += 4 + len;
        self.compact();
        Ok(Some(payload))
    }

    /// Drops the consumed prefix when it dominates the buffer.
    fn compact(&mut self) {
        if self.start > 0 && self.start >= self.buf.len() / 2 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

/// Reads one frame. Returns [`FrameError::Closed`] on clean EOF before
/// the header.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Err(FrameError::Closed),
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame header",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge { announced: len });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_single_frame() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_frame(&mut cur).unwrap(), b"hello");
    }

    #[test]
    fn roundtrip_multiple_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"one").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &vec![7u8; 10_000]).unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_frame(&mut cur).unwrap(), b"one");
        assert_eq!(read_frame(&mut cur).unwrap(), b"");
        assert_eq!(read_frame(&mut cur).unwrap().len(), 10_000);
        assert!(matches!(read_frame(&mut cur), Err(FrameError::Closed)));
    }

    #[test]
    fn clean_eof_is_closed() {
        let mut cur = Cursor::new(Vec::new());
        assert!(matches!(read_frame(&mut cur), Err(FrameError::Closed)));
    }

    #[test]
    fn eof_inside_header_is_io_error() {
        let mut cur = Cursor::new(vec![0u8, 0u8]);
        assert!(matches!(read_frame(&mut cur), Err(FrameError::Io(_))));
    }

    #[test]
    fn eof_inside_payload_is_io_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"full payload").unwrap();
        buf.truncate(8);
        let mut cur = Cursor::new(buf);
        assert!(matches!(read_frame(&mut cur), Err(FrameError::Io(_))));
    }

    #[test]
    fn oversized_frame_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        let mut cur = Cursor::new(buf);
        assert!(matches!(read_frame(&mut cur), Err(FrameError::TooLarge { .. })));
    }

    #[test]
    fn write_frame_refuses_an_oversize_payload() {
        let mut buf = Vec::new();
        let err = write_frame(&mut buf, &vec![0; MAX_FRAME_LEN + 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(buf.is_empty(), "nothing is written");
        write_frame(&mut buf, &vec![0; MAX_FRAME_LEN]).unwrap();
        assert_eq!(buf.len(), 4 + MAX_FRAME_LEN);
    }

    #[test]
    fn frame_buffer_reassembles_byte_at_a_time() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"alpha").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, &vec![9u8; 5_000]).unwrap();
        let mut fb = FrameBuffer::new();
        let mut frames = Vec::new();
        for byte in wire {
            fb.extend(&[byte]);
            while let Some(f) = fb.next_frame().unwrap() {
                frames.push(f);
            }
        }
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0], b"alpha");
        assert_eq!(frames[1], b"");
        assert_eq!(frames[2].len(), 5_000);
        assert_eq!(fb.buffered(), 0);
    }

    #[test]
    fn frame_buffer_pops_multiple_frames_from_one_read() {
        let mut wire = Vec::new();
        for i in 0..10u8 {
            write_frame(&mut wire, &[i; 3]).unwrap();
        }
        let mut fb = FrameBuffer::new();
        fb.extend(&wire);
        for i in 0..10u8 {
            assert_eq!(fb.next_frame().unwrap().unwrap(), [i; 3]);
        }
        assert_eq!(fb.next_frame().unwrap(), None);
    }

    #[test]
    fn frame_buffer_rejects_oversize_header_before_payload() {
        let mut fb = FrameBuffer::new();
        fb.extend(&u32::MAX.to_be_bytes());
        assert!(matches!(fb.next_frame(), Err(FrameError::TooLarge { .. })));
    }

    #[test]
    fn frame_buffer_compacts_consumed_prefix() {
        let mut fb = FrameBuffer::new();
        let mut wire = Vec::new();
        write_frame(&mut wire, &vec![1u8; 10_000]).unwrap();
        fb.extend(&wire);
        assert!(fb.next_frame().unwrap().is_some());
        // The consumed frame must not linger in the internal buffer.
        assert_eq!(fb.buffered(), 0);
        assert!(fb.buf.len() < 10_000, "consumed bytes were not compacted");
    }

    #[test]
    fn frame_sizes_match_paper_buckets() {
        // The four synthetic report sizes from §5.2.2 all frame fine.
        for size in [851usize, 9_257, 23_168, 45_527] {
            let payload = vec![b'x'; size];
            let mut buf = Vec::new();
            write_frame(&mut buf, &payload).unwrap();
            assert_eq!(buf.len(), size + 4);
            let mut cur = Cursor::new(buf);
            assert_eq!(read_frame(&mut cur).unwrap(), payload);
        }
    }
}
