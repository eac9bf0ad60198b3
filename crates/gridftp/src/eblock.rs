//! Extended block mode (MODE E) framing.
//!
//! Stream-mode FTP cannot carry out-of-order data, so GridFTP's parallel
//! and striped transfers use *extended block mode*: every block carries a
//! 64-bit byte count and a 64-bit file offset, letting any number of data
//! connections deliver arbitrary file regions concurrently — this is also
//! what gives GridFTP "64-bit addressing to allow file sizes greater than
//! 2 gigabytes" (§7).
//!
//! Header layout (17 bytes, big-endian):
//! `descriptor u8 | count u64 | offset u64`

use std::io::{self, IoSlice, Read, Write};

/// Descriptor bits (FTP block mode descriptors, GridFTP usage).
pub mod desc {
    /// End of data on *this* connection.
    pub const EOD: u8 = 0x08;
    /// End of file: whole-transfer completion signal.
    pub const EOF: u8 = 0x40;
    /// Block is a restart marker, not data.
    pub const RESTART_MARKER: u8 = 0x10;
}

/// One extended block header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHeader {
    pub descriptor: u8,
    pub count: u64,
    pub offset: u64,
}

pub const HEADER_LEN: usize = 17;

impl BlockHeader {
    pub fn data(offset: u64, count: u64) -> Self {
        BlockHeader {
            descriptor: 0,
            count,
            offset,
        }
    }

    /// The EOD trailer a sender puts on each data connection.
    pub fn eod() -> Self {
        BlockHeader {
            descriptor: desc::EOD,
            count: 0,
            offset: 0,
        }
    }

    /// EOF signal carrying the total transfer size in `offset` (our
    /// convention; real GridFTP sends expected-EOD counts).
    pub fn eof(total: u64) -> Self {
        BlockHeader {
            descriptor: desc::EOF | desc::EOD,
            count: 0,
            offset: total,
        }
    }

    pub fn is_eod(&self) -> bool {
        self.descriptor & desc::EOD != 0
    }

    pub fn is_eof(&self) -> bool {
        self.descriptor & desc::EOF != 0
    }

    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[0] = self.descriptor;
        out[1..9].copy_from_slice(&self.count.to_be_bytes());
        out[9..17].copy_from_slice(&self.offset.to_be_bytes());
        out
    }

    pub fn decode(bytes: &[u8; HEADER_LEN]) -> Self {
        BlockHeader {
            descriptor: bytes[0],
            count: u64::from_be_bytes(bytes[1..9].try_into().unwrap()),
            offset: u64::from_be_bytes(bytes[9..17].try_into().unwrap()),
        }
    }
}

/// Write one block (header + payload) to a stream as one vectored write:
/// on a `TCP_NODELAY` socket a separate 17-byte header write would leave
/// as a segment of its own.
pub fn write_block(w: &mut impl Write, offset: u64, payload: &[u8]) -> io::Result<()> {
    let header = BlockHeader::data(offset, payload.len() as u64).encode();
    let mut bufs = [IoSlice::new(&header), IoSlice::new(payload)];
    let mut bufs = &mut bufs[..];
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Write a trailer block (EOD/EOF).
pub fn write_trailer(w: &mut impl Write, header: BlockHeader) -> io::Result<()> {
    w.write_all(&header.encode())
}

/// Read the next block. Returns the header and its payload (empty for
/// trailers). `max_block` guards against corrupt counts.
pub fn read_block(r: &mut impl Read, max_block: u64) -> io::Result<(BlockHeader, Vec<u8>)> {
    let mut hb = [0u8; HEADER_LEN];
    r.read_exact(&mut hb)?;
    let h = BlockHeader::decode(&hb);
    if h.count > max_block {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("block count {} exceeds cap {max_block}", h.count),
        ));
    }
    let mut payload = vec![0u8; h.count as usize];
    r.read_exact(&mut payload)?;
    Ok((h, payload))
}

/// Flip one bit of an EBLOCK payload in flight — the silent wire
/// corruption a `WireCorrupt` fault injects. The framing stays intact
/// (header untouched), so nothing below the checksum layer notices.
pub fn flip_bit(payload: &mut [u8], bit: usize) {
    if payload.is_empty() {
        return;
    }
    let bit = bit % (payload.len() * 8);
    payload[bit / 8] ^= 1 << (bit % 8);
}

/// Split a byte range `[start, end)` into round-robin block assignments for
/// `streams` connections: the work distribution a striped/parallel sender
/// uses. Returns per-stream lists of (offset, len).
pub fn round_robin_blocks(
    start: u64,
    end: u64,
    block_size: u64,
    streams: usize,
) -> Vec<Vec<(u64, u64)>> {
    assert!(streams >= 1);
    assert!(block_size >= 1);
    let mut out = vec![Vec::new(); streams];
    let mut offset = start;
    let mut s = 0;
    while offset < end {
        let len = block_size.min(end - offset);
        out[s].push((offset, len));
        offset += len;
        s = (s + 1) % streams;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trip() {
        let h = BlockHeader::data(0x1234_5678_9abc_def0, 42);
        let b = h.encode();
        assert_eq!(BlockHeader::decode(&b), h);
        assert!(!h.is_eod());
        assert!(!h.is_eof());
    }

    #[test]
    fn trailer_flags() {
        assert!(BlockHeader::eod().is_eod());
        assert!(!BlockHeader::eod().is_eof());
        let eof = BlockHeader::eof(1000);
        assert!(eof.is_eof());
        assert!(eof.is_eod());
        assert_eq!(eof.offset, 1000);
    }

    #[test]
    fn sixty_four_bit_offsets() {
        // The post-SC'00 fix: offsets beyond 2^32 must survive framing.
        let h = BlockHeader::data(5 << 32, 100);
        let b = h.encode();
        assert_eq!(BlockHeader::decode(&b).offset, 5 << 32);
    }

    #[test]
    fn stream_round_trip() {
        let mut buf = Vec::new();
        write_block(&mut buf, 0, b"hello").unwrap();
        write_block(&mut buf, 100, b"world!").unwrap();
        write_trailer(&mut buf, BlockHeader::eod()).unwrap();

        let mut r = buf.as_slice();
        let (h1, p1) = read_block(&mut r, 1 << 20).unwrap();
        assert_eq!((h1.offset, p1.as_slice()), (0, b"hello".as_slice()));
        let (h2, p2) = read_block(&mut r, 1 << 20).unwrap();
        assert_eq!((h2.offset, p2.as_slice()), (100, b"world!".as_slice()));
        let (h3, p3) = read_block(&mut r, 1 << 20).unwrap();
        assert!(h3.is_eod());
        assert!(p3.is_empty());
    }

    #[test]
    fn short_writes_still_deliver_the_whole_block() {
        /// Accepts at most `self.1` bytes per call, from the first
        /// non-empty slice only (what a full socket buffer does).
        struct Trickle(Vec<u8>, usize);
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let n = buf.len().min(self.1);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let payload: Vec<u8> = (0..200u8).collect();
        for step in [1, 7, 17, 18, 1000] {
            let mut w = Trickle(Vec::new(), step);
            write_block(&mut w, 99, &payload).unwrap();
            let (h, p) = read_block(&mut w.0.as_slice(), 1 << 20).unwrap();
            assert_eq!((h.offset, p), (99, payload.clone()), "step {step}");
        }
    }

    #[test]
    fn oversized_block_rejected() {
        let mut buf = Vec::new();
        write_block(&mut buf, 0, &[0u8; 100]).unwrap();
        let mut r = buf.as_slice();
        assert!(read_block(&mut r, 50).is_err());
    }

    #[test]
    fn truncated_stream_errors() {
        let mut buf = Vec::new();
        write_block(&mut buf, 0, b"hello").unwrap();
        let mut r = &buf[..buf.len() - 2];
        assert!(read_block(&mut r, 1 << 20).is_err());
        let mut r2 = &buf[..5];
        assert!(read_block(&mut r2, 1 << 20).is_err());
    }

    #[test]
    fn round_robin_covers_everything_once() {
        let assignments = round_robin_blocks(0, 1000, 64, 4);
        assert_eq!(assignments.len(), 4);
        let mut all: Vec<(u64, u64)> = assignments.into_iter().flatten().collect();
        all.sort_unstable();
        let mut cursor = 0;
        for (off, len) in all {
            assert_eq!(off, cursor);
            cursor += len;
        }
        assert_eq!(cursor, 1000);
    }

    #[test]
    fn round_robin_respects_start() {
        let assignments = round_robin_blocks(500, 600, 64, 2);
        let total: u64 = assignments.iter().flatten().map(|&(_, l)| l).sum();
        assert_eq!(total, 100);
        assert!(assignments
            .iter()
            .flatten()
            .all(|&(o, l)| o >= 500 && o + l <= 600));
    }

    #[test]
    fn round_robin_single_stream() {
        let a = round_robin_blocks(0, 130, 64, 1);
        assert_eq!(a[0], vec![(0, 64), (64, 64), (128, 2)]);
    }

    #[test]
    fn round_robin_empty_range() {
        let a = round_robin_blocks(10, 10, 64, 3);
        assert!(a.iter().all(|v| v.is_empty()));
    }

    #[test]
    fn flipped_bit_survives_framing_but_fails_checksum() {
        // In-flight corruption: the block frames and reads back cleanly —
        // only a digest comparison catches it.
        let payload = b"climate data block".to_vec();
        let clean_digest = esg_gsi::sha256(&payload);

        let mut corrupted = payload.clone();
        flip_bit(&mut corrupted, 42);
        assert_ne!(payload, corrupted);

        let mut buf = Vec::new();
        write_block(&mut buf, 0, &corrupted).unwrap();
        let mut r = buf.as_slice();
        let (h, received) = read_block(&mut r, 1 << 20).unwrap();
        assert_eq!(h.count as usize, received.len(), "framing intact");
        assert_ne!(
            esg_gsi::sha256(&received),
            clean_digest,
            "checksum must expose the flip"
        );
        // Flipping the same bit again restores the original content.
        let mut restored = received;
        flip_bit(&mut restored, 42);
        assert_eq!(esg_gsi::sha256(&restored), clean_digest);
    }

    #[test]
    fn flip_bit_wraps_and_tolerates_empty() {
        let mut empty: Vec<u8> = Vec::new();
        flip_bit(&mut empty, 5); // no panic
        let mut one = vec![0u8];
        flip_bit(&mut one, 8); // wraps to bit 0
        assert_eq!(one, vec![1]);
    }
}
