//! GridFTP client over real TCP.
//!
//! Implements the client half of the loopback protocol engine: login
//! (anonymous or GSI), feature discovery, SIZE/CKSM, and MODE E parallel
//! GET/PUT with restart. [`ReliableClient`] adds the retry loop the paper's
//! §7 reliability experiment exercises: on a broken transfer it reconnects
//! and requests only the missing byte ranges via an extended restart
//! marker.

use crate::auth_wire;
use crate::eblock;
use crate::protocol::{Command, Reply};
use crate::ranges::RangeSet;
use crate::server::BLOCK_SIZE;

use esg_gsi::{CertificateAuthority, Credential, Handshake};

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, SocketAddrV4, TcpStream};
use std::time::Duration;

/// Client-side transfer errors.
#[derive(Debug)]
pub enum ClientError {
    Io(std::io::Error),
    /// Unexpected or error reply from the server.
    Protocol {
        expected: &'static str,
        got: Reply,
    },
    /// Authentication failed.
    Auth(String),
    /// Transfer ended with data missing (after retries, for ReliableClient).
    Incomplete {
        received: u64,
        expected: u64,
    },
    /// Checksum mismatch after transfer.
    ChecksumMismatch,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Protocol { expected, got } => {
                write!(f, "expected {expected}, got {} {}", got.code, got.text())
            }
            ClientError::Auth(s) => write!(f, "authentication failed: {s}"),
            ClientError::Incomplete { received, expected } => {
                write!(f, "incomplete transfer: {received}/{expected} bytes")
            }
            ClientError::ChecksumMismatch => write!(f, "checksum mismatch"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

type Result<T> = std::result::Result<T, ClientError>;

/// Transfer options.
#[derive(Debug, Clone, Copy)]
pub struct TransferOptions {
    /// Parallel TCP data streams (GridFTP parallelism).
    pub parallelism: u32,
    /// Requested TCP buffer size (SBUF), if any.
    pub buffer: Option<u64>,
}

impl Default for TransferOptions {
    fn default() -> Self {
        TransferOptions {
            parallelism: 4,
            buffer: None,
        }
    }
}

/// A connected, authenticated control channel.
pub struct GridFtpClient {
    ctrl: TcpStream,
    reader: BufReader<TcpStream>,
}

impl GridFtpClient {
    /// Connect and consume the 220 greeting.
    pub fn connect(addr: SocketAddr) -> Result<GridFtpClient> {
        let ctrl = TcpStream::connect(addr)?;
        ctrl.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(ctrl.try_clone()?);
        let mut c = GridFtpClient { ctrl, reader };
        let greeting = c.read_reply()?;
        if greeting.code != 220 {
            return Err(ClientError::Protocol {
                expected: "220",
                got: greeting,
            });
        }
        Ok(c)
    }

    fn read_reply(&mut self) -> Result<Reply> {
        let mut lines: Vec<String> = Vec::new();
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "control connection closed",
                )));
            }
            lines.push(line.trim_end().to_string());
            let refs: Vec<&str> = lines.iter().map(|s| s.as_str()).collect();
            if let Some((reply, used)) = Reply::from_wire_lines(&refs) {
                if used == lines.len() {
                    return Ok(reply);
                }
            }
        }
    }

    fn command(&mut self, cmd: &Command) -> Result<Reply> {
        self.ctrl
            .write_all(format!("{}\r\n", cmd.to_line()).as_bytes())?;
        self.read_reply()
    }

    fn expect(&mut self, cmd: &Command, code: u16, what: &'static str) -> Result<Reply> {
        let r = self.command(cmd)?;
        if r.code != code {
            return Err(ClientError::Protocol {
                expected: what,
                got: r,
            });
        }
        Ok(r)
    }

    /// Anonymous login + binary type + extended block mode.
    pub fn login_anonymous(&mut self) -> Result<()> {
        self.expect(&Command::User("anonymous".into()), 331, "331")?;
        self.expect(&Command::Pass("esg@".into()), 230, "230")?;
        self.setup_modes()
    }

    /// GSI login: full handshake over ADAT tokens.
    pub fn login_gsi(&mut self, cred: &Credential, ca: &CertificateAuthority) -> Result<()> {
        self.expect(&Command::AuthGssapi, 334, "334")?;
        let mut hs = Handshake::new(cred, b"client-session");
        let hello = hs.hello(b"client-nonce");
        let token = auth_wire::hex_encode(&auth_wire::encode_hello(&hello));
        let reply = self.command(&Command::Adat(token))?;
        if reply.code != 335 {
            return Err(ClientError::Auth(reply.text()));
        }
        // Reply text: "ADAT=<hex>" containing server hello + proof.
        let text = reply.text();
        let hex = text
            .strip_prefix("ADAT=")
            .ok_or_else(|| ClientError::Auth("missing ADAT in 335".into()))?;
        let payload =
            auth_wire::hex_decode(hex).ok_or_else(|| ClientError::Auth("bad hex in 335".into()))?;
        if payload.len() < 4 {
            return Err(ClientError::Auth("short 335 payload".into()));
        }
        let hlen = u32::from_be_bytes(payload[..4].try_into().unwrap()) as usize;
        if payload.len() < 4 + hlen + 32 {
            return Err(ClientError::Auth("truncated 335 payload".into()));
        }
        let server_hello = auth_wire::decode_hello(&payload[4..4 + hlen])
            .ok_or_else(|| ClientError::Auth("bad server hello".into()))?;
        let server_proof = auth_wire::decode_proof(&payload[4 + hlen..4 + hlen + 32])
            .ok_or_else(|| ClientError::Auth("bad server proof".into()))?;
        let (_, keys, my_proof) = hs
            .receive_hello(&server_hello, ca, 0, &|_| None)
            .map_err(|e| ClientError::Auth(e.to_string()))?;
        hs.verify_proof(&keys, &server_proof)
            .map_err(|e| ClientError::Auth(e.to_string()))?;
        let token = auth_wire::hex_encode(&auth_wire::encode_proof(&my_proof));
        let final_reply = self.command(&Command::Adat(token))?;
        if final_reply.code != 235 {
            return Err(ClientError::Auth(final_reply.text()));
        }
        self.setup_modes()
    }

    fn setup_modes(&mut self) -> Result<()> {
        self.expect(&Command::Type('I'), 200, "200")?;
        self.expect(&Command::Mode('E'), 200, "200")?;
        Ok(())
    }

    /// SIZE of a remote file.
    pub fn size(&mut self, path: &str) -> Result<u64> {
        let r = self.expect(&Command::Size(path.into()), 213, "213")?;
        r.text().trim().parse().map_err(|_| ClientError::Protocol {
            expected: "numeric 213",
            got: r,
        })
    }

    /// Remote SHA-256 (hex) of a byte range (length 0 = to EOF).
    pub fn checksum(&mut self, path: &str, offset: u64, length: u64) -> Result<String> {
        let r = self.expect(
            &Command::Cksm {
                offset,
                length,
                path: path.into(),
            },
            213,
            "213",
        )?;
        Ok(r.text().trim().to_string())
    }

    /// Set the stream count and open a passive data port for the transfer
    /// command that follows.
    fn open_data(&mut self, parallelism: u32) -> Result<SocketAddrV4> {
        self.expect(&Command::OptsRetrParallelism(parallelism), 200, "200")?;
        let r = self.expect(&Command::Pasv, 227, "227")?;
        parse_pasv(&r.text()).ok_or(ClientError::Protocol {
            expected: "PASV address",
            got: r,
        })
    }

    /// Run one retrieval: send `cmd` (RETR/ERET), open `streams` data
    /// connections, read each on its own thread and hand every block to
    /// `sink(offset, payload)` on this one, then take the final reply.
    /// `sink` returns whether the block had a place ([`place_block`]); one
    /// refusal fails the retrieval. A broken data stream is reported even
    /// when the blocks that did arrive have been sunk.
    fn retrieve(
        &mut self,
        cmd: &Command,
        data_addr: SocketAddrV4,
        streams: u32,
        mut sink: impl FnMut(u64, &[u8]) -> bool,
    ) -> Result<()> {
        self.expect(cmd, 150, "150")?;
        let conns = connect_data(data_addr, streams)?;
        let (tx, rx) = crossbeam::channel::unbounded::<(u64, Vec<u8>)>();
        let mut misplaced = false;
        let stream_err = std::thread::scope(|scope| {
            let readers: Vec<_> = conns
                .into_iter()
                .map(|mut conn| {
                    let tx = tx.clone();
                    scope.spawn(move || -> std::io::Result<()> {
                        loop {
                            let (header, payload) = eblock::read_block(&mut conn, BLOCK_SIZE * 4)?;
                            // A failed send means the receiving side bailed.
                            if !payload.is_empty() && tx.send((header.offset, payload)).is_err() {
                                return Ok(());
                            }
                            if header.is_eod() {
                                return Ok(());
                            }
                        }
                    })
                })
                .collect();
            drop(tx);
            for (offset, payload) in rx {
                misplaced |= !sink(offset, &payload);
            }
            let mut stream_err = None;
            for reader in readers {
                match reader.join() {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => stream_err = Some(ClientError::Io(e)),
                    Err(_) => stream_err = Some(ClientError::Auth("reader panicked".into())),
                }
            }
            stream_err
        });
        // Final reply: 226 on success, 426 when the server aborted.
        let fin = self.read_reply()?;
        if let Some(e) = stream_err {
            return Err(e);
        }
        if fin.code != 226 {
            return Err(ClientError::Protocol {
                expected: "226",
                got: fin,
            });
        }
        if misplaced {
            return Err(ClientError::Protocol {
                expected: "every data block inside the requested range",
                got: fin,
            });
        }
        Ok(())
    }

    /// Download a file (or the holes left in `received`) into `buffer`.
    ///
    /// `buffer` must be pre-sized to the full file length; `received`
    /// tracks which ranges are already present and is updated as blocks
    /// land. Returns the total bytes received in this attempt. A block the
    /// server places outside `buffer` is a [`ClientError::Protocol`].
    pub fn get_into(
        &mut self,
        path: &str,
        opts: TransferOptions,
        buffer: &mut [u8],
        received: &mut RangeSet,
    ) -> Result<u64> {
        if let Some(b) = opts.buffer {
            self.expect(&Command::Sbuf(b), 200, "200")?;
        }
        let data_addr = self.open_data(opts.parallelism)?;
        if !received.is_empty() {
            self.expect(&Command::Rest(received.clone()), 350, "350")?;
        }
        let mut got = 0u64;
        let retr = Command::Retr(path.into());
        self.retrieve(&retr, data_addr, opts.parallelism, |offset, payload| {
            let Some(at) = place_block(offset, payload.len(), 0, buffer.len() as u64) else {
                return false;
            };
            received.insert(offset, at.end as u64);
            got += payload.len() as u64;
            buffer[at].copy_from_slice(payload);
            true
        })?;
        Ok(got)
    }

    /// Convenience: download a complete file into a fresh buffer.
    pub fn get(&mut self, path: &str, opts: TransferOptions) -> Result<Vec<u8>> {
        let size = self.size(path)?;
        let mut buffer = vec![0u8; size as usize];
        let mut received = RangeSet::new();
        self.get_into(path, opts, &mut buffer, &mut received)?;
        if !received.is_complete(size) {
            return Err(ClientError::Incomplete {
                received: received.total(),
                expected: size,
            });
        }
        Ok(buffer)
    }

    /// A retrieval whose size the server decides (ERET): blocks land at
    /// `offset - base` in a buffer that grows to fit them, never past
    /// `limit` bytes — the server's offsets do not size the allocation.
    fn retrieve_growing(
        &mut self,
        cmd: &Command,
        base: u64,
        limit: u64,
        opts: TransferOptions,
    ) -> Result<Vec<u8>> {
        let data_addr = self.open_data(opts.parallelism)?;
        let mut out: Vec<u8> = Vec::new();
        self.retrieve(cmd, data_addr, opts.parallelism, |offset, payload| {
            let Some(at) = place_block(offset, payload.len(), base, limit) else {
                return false;
            };
            if out.len() < at.end {
                out.resize(at.end, 0);
            }
            out[at].copy_from_slice(payload);
            true
        })?;
        Ok(out)
    }

    /// Partial retrieval via ERET: up to `length` bytes from `offset`
    /// (and never more than [`MAX_ERET_BYTES`]), fewer when the file ends
    /// first. A block outside the range asked for is a
    /// [`ClientError::Protocol`].
    pub fn get_partial(
        &mut self,
        path: &str,
        offset: u64,
        length: u64,
        opts: TransferOptions,
    ) -> Result<Vec<u8>> {
        let eret = Command::EretPartial {
            offset,
            length,
            path: path.into(),
        };
        self.retrieve_growing(&eret, offset, length.min(MAX_ERET_BYTES), opts)
    }

    /// Server-side subsetting via `ERET X`: the server extracts time steps
    /// `[t0, t1)` of one variable from an ESG1 dataset and transmits only
    /// the subset — the ESG-II server-side-processing extension. The server
    /// decides the size; past [`MAX_ERET_BYTES`] it is refused.
    pub fn get_subset(
        &mut self,
        path: &str,
        variable: &str,
        t0: usize,
        t1: usize,
        opts: TransferOptions,
    ) -> Result<Vec<u8>> {
        let eret = Command::EretSubset {
            variable: variable.into(),
            t0,
            t1,
            path: path.into(),
        };
        self.retrieve_growing(&eret, 0, MAX_ERET_BYTES, opts)
    }

    /// Upload a byte buffer with parallel streams (STOR / ESTO).
    pub fn put(
        &mut self,
        path: &str,
        data: &[u8],
        opts: TransferOptions,
        base_offset: u64,
    ) -> Result<()> {
        let data_addr = self.open_data(opts.parallelism)?;
        let cmd = if base_offset == 0 {
            Command::Stor(path.into())
        } else {
            Command::EstoAdjusted {
                offset: base_offset,
                path: path.into(),
            }
        };
        self.expect(&cmd, 150, "150")?;
        let conns = connect_data(data_addr, opts.parallelism)?;
        let assignments = eblock::round_robin_blocks(0, data.len() as u64, BLOCK_SIZE, conns.len());
        // Writers borrow `data`; the scope joins them before it returns.
        let ok = std::thread::scope(|scope| {
            let writers: Vec<_> = conns
                .into_iter()
                .zip(assignments)
                .map(|(mut conn, blocks)| {
                    scope.spawn(move || -> std::io::Result<()> {
                        for (off, len) in blocks {
                            let payload = &data[off as usize..(off + len) as usize];
                            eblock::write_block(&mut conn, off, payload)?;
                        }
                        eblock::write_trailer(&mut conn, eblock::BlockHeader::eod())?;
                        conn.flush()
                    })
                })
                .collect();
            writers
                .into_iter()
                .all(|w| w.join().is_ok_and(|r| r.is_ok()))
        });
        let fin = self.read_reply()?;
        if !ok || fin.code != 226 {
            return Err(ClientError::Protocol {
                expected: "226",
                got: fin,
            });
        }
        Ok(())
    }

    /// Read one reply that the server will send later (e.g. the final 226
    /// of a third-party transfer, where the data moves between two other
    /// machines and this control channel only observes).
    pub fn read_pending_reply(&mut self) -> Result<Reply> {
        self.read_reply()
    }

    /// Send a raw command and return its (first) reply.
    pub fn raw_command(&mut self, cmd: &Command) -> Result<Reply> {
        self.command(cmd)
    }

    /// Close politely.
    pub fn quit(mut self) {
        let _ = self.command(&Command::Quit);
    }
}

/// Third-party transfer: "allows a user or application at one site to
/// initiate, monitor and control a data transfer operation between two
/// other sites" (§6.1). The destination opens a passive data port; the
/// source is told to dial it (PORT) and RETR; the data never touches the
/// controlling client.
pub fn third_party_transfer(
    src: &mut GridFtpClient,
    dst: &mut GridFtpClient,
    src_path: &str,
    dst_path: &str,
    parallelism: u32,
) -> Result<()> {
    // Matching stream counts on both sides: the source dials exactly as
    // many data connections as the destination will accept.
    src.expect(&Command::OptsRetrParallelism(parallelism), 200, "200")?;
    let data_addr = dst.open_data(parallelism)?;
    // Destination starts listening (150), then blocks accepting data.
    dst.expect(&Command::Stor(dst_path.into()), 150, "150")?;
    // Source dials the destination's data port and streams the file.
    src.expect(&Command::Port(data_addr), 200, "200")?;
    src.expect(&Command::Retr(src_path.into()), 150, "150")?;
    // Both sides report completion on their control channels.
    let src_fin = src.read_pending_reply()?;
    let dst_fin = dst.read_pending_reply()?;
    for fin in [src_fin, dst_fin] {
        if fin.code != 226 {
            return Err(ClientError::Protocol {
                expected: "226",
                got: fin,
            });
        }
    }
    Ok(())
}

/// The most one ERET retrieval (`get_partial`, `get_subset`) buffers in
/// memory, whatever offsets the server sends: 1 GiB.
pub const MAX_ERET_BYTES: u64 = 1 << 30;

/// Where a data block lands in the client's buffer. `offset` and `len` are
/// the server's; `base` (file offset of the buffer's first byte) and
/// `limit` (most bytes the buffer may hold) are the client's. `None` when
/// the block starts before `base`, ends past `base + limit`, or its end
/// overflows — so nothing outside `0..limit` is indexed or allocated.
fn place_block(offset: u64, len: usize, base: u64, limit: u64) -> Option<std::ops::Range<usize>> {
    let at = offset.checked_sub(base)?;
    let end = at.checked_add(len as u64)?;
    if end > limit {
        return None;
    }
    Some(usize::try_from(at).ok()?..usize::try_from(end).ok()?)
}

/// Open `streams` data connections to the server's passive port.
fn connect_data(addr: SocketAddrV4, streams: u32) -> std::io::Result<Vec<TcpStream>> {
    (0..streams)
        .map(|_| {
            let conn = TcpStream::connect(addr)?;
            conn.set_nodelay(true)?;
            Ok(conn)
        })
        .collect()
}

fn parse_pasv(text: &str) -> Option<SocketAddrV4> {
    let open = text.find('(')?;
    let close = text[open..].find(')')? + open;
    let nums: Vec<u16> = text[open + 1..close]
        .split(',')
        .map(|p| p.trim().parse::<u16>())
        .collect::<std::result::Result<_, _>>()
        .ok()?;
    if nums.len() != 6 {
        return None;
    }
    let ip = std::net::Ipv4Addr::new(nums[0] as u8, nums[1] as u8, nums[2] as u8, nums[3] as u8);
    Some(SocketAddrV4::new(ip, nums[4] << 8 | nums[5]))
}

/// The reliability layer: "support for reliable and restartable data
/// transfer, to handle failures such as transient network and server
/// outages" (§6.1). Reconnects on failure and fetches only the holes.
pub struct ReliableClient {
    pub addr: SocketAddr,
    pub opts: TransferOptions,
    pub max_attempts: u32,
}

/// Outcome of a reliable download.
#[derive(Debug)]
pub struct ReliableOutcome {
    pub data: Vec<u8>,
    pub attempts: u32,
    /// Bytes re-fetched in retries (0 when first attempt succeeded).
    pub retried_bytes: u64,
}

impl ReliableClient {
    pub fn new(addr: SocketAddr, opts: TransferOptions) -> Self {
        ReliableClient {
            addr,
            opts,
            max_attempts: 5,
        }
    }

    /// Download with restart across connection failures, verifying the
    /// result against the server's SHA-256.
    pub fn download(&self, path: &str) -> Result<ReliableOutcome> {
        let mut attempts = 0;
        let mut received = RangeSet::new();
        let mut buffer: Vec<u8> = Vec::new();
        let mut size = 0u64;
        let mut retried_bytes = 0u64;
        let mut expected_sum = String::new();
        while attempts < self.max_attempts {
            attempts += 1;
            let result = (|| -> Result<bool> {
                let mut client = GridFtpClient::connect(self.addr)?;
                client.login_anonymous()?;
                if buffer.is_empty() {
                    size = client.size(path)?;
                    expected_sum = client.checksum(path, 0, 0)?;
                    buffer = vec![0u8; size as usize];
                }
                if attempts > 1 {
                    retried_bytes += size - received.total();
                }
                client.get_into(path, self.opts, &mut buffer, &mut received)?;
                Ok(received.is_complete(size))
            })();
            match result {
                Ok(true) => {
                    let actual = esg_gsi::hex(&esg_gsi::sha256(&buffer));
                    if actual != expected_sum {
                        return Err(ClientError::ChecksumMismatch);
                    }
                    return Ok(ReliableOutcome {
                        data: buffer,
                        attempts,
                        retried_bytes,
                    });
                }
                Ok(false) | Err(_) => continue,
            }
        }
        Err(ClientError::Incomplete {
            received: received.total(),
            expected: size,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_pasv_reply() {
        let a = parse_pasv("Entering Passive Mode (127,0,0,1,4,1)").unwrap();
        assert_eq!(a.port(), 1025);
        assert_eq!(a.ip().octets(), [127, 0, 0, 1]);
        assert!(parse_pasv("no parens").is_none());
        assert!(parse_pasv("(1,2,3)").is_none());
    }

    #[test]
    fn place_block_accepts_only_blocks_inside_the_window() {
        // In range: relative to `base`, up to and including the last byte.
        assert_eq!(place_block(1000, 24, 1000, 70_000), Some(0..24));
        assert_eq!(place_block(70_976, 24, 1000, 70_000), Some(69_976..70_000));
        assert_eq!(place_block(0, 0, 0, 0), Some(0..0));
        // One byte past what was asked for is refused, not grown into.
        assert_eq!(place_block(70_977, 24, 1000, 70_000), None);
        // A server-chosen offset a terabyte out never sizes an allocation.
        assert_eq!(place_block(1000 + (1 << 40), 24, 1000, 70_000), None);
        assert_eq!(place_block(1 << 40, 24, 0, MAX_ERET_BYTES), None);
        // Before the range asked for.
        assert_eq!(place_block(999, 24, 1000, 70_000), None);
    }

    #[test]
    fn place_block_refuses_an_end_that_wraps() {
        // A wrapped `offset + len` must not come back as a small index
        // that passes the `end <= limit` test.
        assert_eq!(place_block(u64::MAX - 10, 24, 0, 1 << 20), None);
        assert_eq!(place_block(u64::MAX - 10, 24, 5, u64::MAX), None);
        // The widest window a caller can ask for still has an end.
        assert_eq!(place_block(1, 24, 1, u64::MAX), Some(0..24));
    }
}
