//! A real GridFTP-style server over TCP (loopback-grade).
//!
//! This is the protocol engine running against actual sockets: GSI
//! authentication on the control channel, MODE E parallel data connections,
//! partial retrieval (ERET), restart markers, STOR with out-of-order block
//! placement, SIZE and SHA-256 checksums. The WAN experiments use the
//! simulator instead ([`crate::simxfer`]); this server exists so the
//! protocol logic is exercised end-to-end with real I/O and real threads —
//! and it is what the loopback integration tests drive.
//!
//! Fault injection: [`ServerConfig::fail_after_bytes`] makes the *first*
//! transfer's data connections die after roughly that many payload bytes,
//! reproducing the mid-transfer failures of Figure 8 so client restart
//! logic can be tested for real.

use crate::auth_wire;
use crate::eblock::{self, BlockHeader};
use crate::protocol::{feature_list, Command, ParseError, Reply};
use crate::ranges::RangeSet;

use esg_gsi::{CertificateAuthority, Credential, Handshake};

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Data-connection block payload size.
pub const BLOCK_SIZE: u64 = 64 * 1024;

/// How long a transfer waits for the client's data connections.
const DATA_ACCEPT_TIMEOUT: Duration = Duration::from_secs(5);

/// Server configuration.
pub struct ServerConfig {
    /// Directory served; all paths resolve beneath it.
    pub root: PathBuf,
    /// Accept `USER anonymous` without GSI.
    pub allow_anonymous: bool,
    /// Server credential + trust anchor for `AUTH GSSAPI`.
    pub gsi: Option<(Arc<Credential>, Arc<CertificateAuthority>)>,
    /// Fault injection: first transfer aborts its data connections after
    /// this many payload bytes.
    pub fail_after_bytes: Option<u64>,
}

impl ServerConfig {
    pub fn new(root: impl Into<PathBuf>) -> Self {
        ServerConfig {
            root: root.into(),
            allow_anonymous: true,
            gsi: None,
            fail_after_bytes: None,
        }
    }
}

/// A running server; dropped or `stop()`ped to shut down.
pub struct GridFtpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl GridFtpServer {
    /// Bind 127.0.0.1 on an ephemeral port and start serving.
    pub fn start(config: ServerConfig) -> std::io::Result<GridFtpServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(SharedState {
            config,
            fault_budget: AtomicU64::new(u64::MAX),
            fault_armed: AtomicBool::new(false),
        });
        if let Some(n) = shared.config.fail_after_bytes {
            shared.fault_budget.store(n, Ordering::SeqCst);
            shared.fault_armed.store(true, Ordering::SeqCst);
        }
        let sd = shutdown.clone();
        let handle = std::thread::spawn(move || {
            let mut sessions: Vec<std::thread::JoinHandle<()>> = Vec::new();
            // Blocks in `accept`; `shutdown_now` sets the flag and then
            // connects to this listener, so the flag is seen promptly.
            while let Ok((stream, _)) = listener.accept() {
                if sd.load(Ordering::SeqCst) {
                    break;
                }
                // Forget sessions that have ended, so a long-lived server
                // holds handles for its live sessions only.
                sessions.retain(|s| !s.is_finished());
                let shared = shared.clone();
                sessions.push(std::thread::spawn(move || {
                    let _ = Session::new(shared, stream).run();
                }));
            }
            for s in sessions {
                let _ = s.join();
            }
        });
        Ok(GridFtpServer {
            addr,
            shutdown,
            handle: Some(handle),
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and wind down.
    pub fn stop(mut self) {
        self.shutdown_now();
    }

    fn shutdown_now(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            // Wake the accept loop. A failed connect means the listener is
            // already gone, and with it the loop.
            let _ = TcpStream::connect(self.addr);
            let _ = h.join();
        }
    }
}

impl Drop for GridFtpServer {
    fn drop(&mut self) {
        self.shutdown_now();
    }
}

struct SharedState {
    config: ServerConfig,
    /// Remaining bytes before injected failure (u64::MAX = disarmed).
    fault_budget: AtomicU64,
    fault_armed: AtomicBool,
}

impl SharedState {
    /// Consume fault budget; true if the connection should now die.
    fn should_fail(&self, bytes: u64) -> bool {
        if !self.fault_armed.load(Ordering::SeqCst) {
            return false;
        }
        let prev = self
            .fault_budget
            .fetch_sub(bytes.min(1 << 40), Ordering::SeqCst);
        if prev <= bytes || prev > (1 << 60) {
            // Budget exhausted (or wrapped): fire once, then disarm so the
            // retry succeeds.
            self.fault_armed.store(false, Ordering::SeqCst);
            return prev <= bytes;
        }
        false
    }
}

enum AuthState {
    NotAuthenticated,
    AwaitingAdat(Box<Handshake>),
    AwaitingProof {
        keys: esg_gsi::SessionKeys,
        handshake: Box<Handshake>,
    },
    /// Logged in; holds the authenticated identity (for audit logging).
    Authenticated(#[allow(dead_code)] String),
}

struct Session {
    shared: Arc<SharedState>,
    ctrl: TcpStream,
    auth: AuthState,
    parallelism: u32,
    restart: Option<RangeSet>,
    data_listener: Option<TcpListener>,
    /// Active-mode peers (PORT/SPOR): used for third-party transfers,
    /// where the remote "client" is actually another server's PASV (or
    /// striped-passive) data ports. Multiple addresses = striped port.
    active_addrs: Vec<std::net::SocketAddrV4>,
    mode: char,
}

type Ranges = Vec<(u64, u64)>;

impl Session {
    fn new(shared: Arc<SharedState>, ctrl: TcpStream) -> Session {
        Session {
            shared,
            ctrl,
            auth: AuthState::NotAuthenticated,
            parallelism: 1,
            restart: None,
            data_listener: None,
            active_addrs: Vec::new(),
            mode: 'S',
        }
    }

    fn send(&mut self, reply: Reply) -> std::io::Result<()> {
        self.ctrl.write_all(reply.to_wire().as_bytes())
    }

    fn authenticated(&self) -> bool {
        matches!(self.auth, AuthState::Authenticated(_))
    }

    fn run(mut self) -> std::io::Result<()> {
        // Known cost: a transfer's 150 and 226 are two writes with no client
        // write between them, so with Nagle on (the default, as here) the
        // 226 waits for the client's delayed ACK of the 150 and a transfer
        // shorter than that timer (40 ms on Linux) still takes 40 ms.
        // `set_nodelay(true)` on this socket removes it; ROADMAP item 14
        // says why that is not done yet.
        self.send(Reply::new(220, "ESG GridFTP server ready"))?;
        let reader = self.ctrl.try_clone()?;
        let mut reader = BufReader::new(reader);
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Ok(()); // client hung up
            }
            let cmd = match Command::parse(&line) {
                Ok(c) => c,
                Err(ParseError::UnknownCommand(c)) => {
                    self.send(Reply::new(500, format!("Unknown command {c}")))?;
                    continue;
                }
                Err(ParseError::BadArguments(c)) => {
                    self.send(Reply::new(501, format!("Bad arguments: {c}")))?;
                    continue;
                }
            };
            if self.handle(cmd)? {
                return Ok(());
            }
        }
    }

    /// Returns true when the session should close.
    fn handle(&mut self, cmd: Command) -> std::io::Result<bool> {
        match cmd {
            Command::Quit => {
                self.send(Reply::new(221, "Goodbye"))?;
                return Ok(true);
            }
            Command::Noop => self.send(Reply::new(200, "NOOP ok"))?,
            Command::Feat => self.send(Reply::multiline(211, feature_list()))?,
            Command::User(u) => {
                if self.shared.config.allow_anonymous && u == "anonymous" {
                    self.send(Reply::new(331, "Send PASS"))?;
                } else {
                    self.send(Reply::new(530, "Only anonymous or GSI"))?;
                }
            }
            Command::Pass(_) => {
                if self.shared.config.allow_anonymous {
                    self.auth = AuthState::Authenticated("anonymous".to_string());
                    self.send(Reply::new(230, "User logged in"))?;
                } else {
                    self.send(Reply::new(530, "Anonymous access disabled"))?;
                }
            }
            Command::AuthGssapi => match &self.shared.config.gsi {
                Some((cred, _)) => {
                    let hs = Handshake::new(cred, b"server-session");
                    self.auth = AuthState::AwaitingAdat(Box::new(hs));
                    self.send(Reply::new(334, "ADAT must follow"))?;
                }
                None => self.send(Reply::new(431, "GSI not configured"))?,
            },
            Command::Adat(token) => return self.handle_adat(&token).map(|_| false),
            Command::Type(_) => self.send(Reply::new(200, "Type set"))?,
            Command::Mode(m) => {
                self.mode = m;
                self.send(Reply::new(200, format!("Mode set to {m}")))?;
            }
            Command::Sbuf(n) => {
                // Applied to subsequently-created data sockets (best effort;
                // loopback ignores it, WAN experiments live in the sim).
                self.send(Reply::new(200, format!("SBUF {n} accepted")))?;
            }
            Command::OptsRetrParallelism(n) => {
                self.parallelism = n.clamp(1, 64);
                self.send(Reply::new(
                    200,
                    format!("Parallelism set to {}", self.parallelism),
                ))?;
            }
            Command::Rest(marker) => {
                self.restart = Some(marker);
                self.send(Reply::new(350, "Restart marker accepted"))?;
            }
            Command::Pasv | Command::Spas => {
                if !self.authenticated() {
                    self.send(Reply::new(530, "Not logged in"))?;
                    return Ok(false);
                }
                let listener = TcpListener::bind("127.0.0.1:0")?;
                let addr = listener.local_addr()?;
                self.data_listener = Some(listener);
                let port = addr.port();
                let reply = if matches!(cmd_kind(&cmd), 's') {
                    // SPAS: multiline 229 (we expose one endpoint; striping
                    // across hosts is a simulator-level experiment).
                    Reply::multiline(
                        229,
                        vec![
                            "Entering Striped Passive Mode".to_string(),
                            format!(" 127,0,0,1,{},{}", port >> 8, port & 0xff),
                            "End".to_string(),
                        ],
                    )
                } else {
                    Reply::new(
                        227,
                        format!(
                            "Entering Passive Mode (127,0,0,1,{},{})",
                            port >> 8,
                            port & 0xff
                        ),
                    )
                };
                self.send(reply)?;
            }
            Command::Port(addr) => {
                if !self.authenticated() {
                    self.send(Reply::new(530, "Not logged in"))?;
                    return Ok(false);
                }
                self.active_addrs = vec![addr];
                self.data_listener = None;
                self.send(Reply::new(200, "PORT command successful"))?;
            }
            Command::Spor(addrs) => {
                if !self.authenticated() {
                    self.send(Reply::new(530, "Not logged in"))?;
                    return Ok(false);
                }
                self.active_addrs = addrs;
                self.data_listener = None;
                self.send(Reply::new(200, "SPOR command successful"))?;
            }
            Command::Size(path) => match self.resolve(&path) {
                Ok(p) => match std::fs::metadata(&p) {
                    Ok(md) if md.is_file() => {
                        self.send(Reply::new(213, format!("{}", md.len())))?
                    }
                    _ => self.send(Reply::new(550, "No such file"))?,
                },
                Err(r) => self.send(r)?,
            },
            Command::Cksm {
                offset,
                length,
                path,
            } => match self.checksum(&path, offset, length) {
                Ok(hex) => self.send(Reply::new(213, hex))?,
                Err(r) => self.send(r)?,
            },
            Command::Retr(path) => self.do_retr(&path, None)?,
            Command::EretPartial {
                offset,
                length,
                path,
            } => self.do_retr(&path, Some((offset, length)))?,
            Command::EretSubset {
                variable,
                t0,
                t1,
                path,
            } => self.do_eret_subset(&path, &variable, t0, t1)?,
            Command::Stor(path) => self.do_stor(&path, 0)?,
            Command::EstoAdjusted { offset, path } => self.do_stor(&path, offset)?,
        }
        Ok(false)
    }

    fn handle_adat(&mut self, token: &str) -> std::io::Result<()> {
        let Some((_, ca)) = &self.shared.config.gsi else {
            return self.send(Reply::new(431, "GSI not configured"));
        };
        let ca = ca.clone();
        let Some(bytes) = auth_wire::hex_decode(token) else {
            return self.send(Reply::new(501, "Bad ADAT token"));
        };
        let state = std::mem::replace(&mut self.auth, AuthState::NotAuthenticated);
        match state {
            AuthState::AwaitingAdat(mut hs) => {
                let Some(client_hello) = auth_wire::decode_hello(&bytes) else {
                    return self.send(Reply::new(535, "Malformed hello"));
                };
                let server_hello = hs.hello(b"server-nonce");
                match hs.receive_hello(&client_hello, &ca, 0, &|_| None) {
                    Ok((identity, keys, proof)) => {
                        // Reply: our hello + our proof, hex in one token.
                        let mut payload = Vec::new();
                        let hello_bytes = auth_wire::encode_hello(&server_hello);
                        payload.extend_from_slice(&(hello_bytes.len() as u32).to_be_bytes());
                        payload.extend_from_slice(&hello_bytes);
                        payload.extend_from_slice(&auth_wire::encode_proof(&proof));
                        self.auth = AuthState::AwaitingProof {
                            keys,
                            handshake: hs,
                        };
                        let _ = identity;
                        self.send(Reply::new(
                            335,
                            format!("ADAT={}", auth_wire::hex_encode(&payload)),
                        ))
                    }
                    Err(e) => self.send(Reply::new(535, format!("Authentication failed: {e}"))),
                }
            }
            AuthState::AwaitingProof { keys, handshake } => {
                let Some(proof) = auth_wire::decode_proof(&bytes) else {
                    return self.send(Reply::new(535, "Malformed proof"));
                };
                match handshake.verify_proof(&keys, &proof) {
                    Ok(()) => {
                        self.auth = AuthState::Authenticated("gsi".to_string());
                        self.send(Reply::new(235, "GSSAPI authentication succeeded"))
                    }
                    Err(e) => self.send(Reply::new(535, format!("Bad proof: {e}"))),
                }
            }
            other => {
                self.auth = other;
                self.send(Reply::new(503, "ADAT out of sequence"))
            }
        }
    }

    fn resolve(&self, path: &str) -> Result<PathBuf, Reply> {
        let rel = Path::new(path.trim_start_matches('/'));
        for comp in rel.components() {
            match comp {
                std::path::Component::Normal(_) => {}
                _ => return Err(Reply::new(550, "Illegal path")),
            }
        }
        Ok(self.shared.config.root.join(rel))
    }

    /// SHA-256 of `[offset, offset + length)` clamped to the file
    /// (`length` 0 = to EOF), streamed through the hash a block at a time.
    fn checksum(&self, path: &str, offset: u64, length: u64) -> Result<String, Reply> {
        use std::os::unix::fs::FileExt;
        let no_such_file = |_| Reply::new(550, "No such file");
        let file = std::fs::File::open(self.resolve(path)?).map_err(no_such_file)?;
        let size = file.metadata().map_err(no_such_file)?.len();
        let mut at = offset.min(size);
        let end = match length {
            0 => size,
            n => at.saturating_add(n).min(size),
        };
        let mut hash = esg_gsi::Sha256::new();
        let mut buf = vec![0u8; BLOCK_SIZE as usize];
        while at < end {
            let want = BLOCK_SIZE.min(end - at) as usize;
            let n = match file.read_at(&mut buf[..want], at) {
                Ok(0) => break, // file shrank under us
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(no_such_file(e)),
            };
            hash.update(&buf[..n]);
            at += n as u64;
        }
        Ok(esg_gsi::hex(&hash.finalize()))
    }

    /// Establish `n` data connections: accept from the PASV listener, or
    /// (active mode / third-party) connect out to the PORT address.
    fn accept_data(&mut self, n: usize) -> std::io::Result<Vec<TcpStream>> {
        if !self.active_addrs.is_empty() {
            // Third-party: this server dials the other server's data
            // port(s), round-robin across striped endpoints.
            let addrs = std::mem::take(&mut self.active_addrs);
            let mut conns = Vec::with_capacity(n);
            for i in 0..n {
                let conn = TcpStream::connect(addrs[i % addrs.len()])?;
                conn.set_nodelay(true)?;
                conns.push(conn);
            }
            return Ok(conns);
        }
        let listener = self
            .data_listener
            .take()
            .ok_or_else(|| std::io::Error::other("no PASV listener"))?;
        accept_within(&listener, n, DATA_ACCEPT_TIMEOUT)
    }

    fn do_retr(&mut self, path: &str, partial: Option<(u64, u64)>) -> std::io::Result<()> {
        if !self.authenticated() {
            return self.send(Reply::new(530, "Not logged in"));
        }
        if self.mode != 'E' {
            return self.send(Reply::new(504, "RETR requires MODE E"));
        }
        let resolved = match self.resolve(path) {
            Ok(p) => p,
            Err(r) => return self.send(r),
        };
        let size = match std::fs::metadata(&resolved) {
            Ok(md) if md.is_file() => md.len(),
            _ => return self.send(Reply::new(550, "No such file")),
        };

        // Which ranges to send.
        let ranges: Ranges = match partial {
            Some((offset, length)) => {
                if offset >= size {
                    vec![]
                } else {
                    vec![(offset, offset.saturating_add(length).min(size))]
                }
            }
            None => match self.restart.take() {
                Some(marker) => marker.gaps(size),
                None => vec![(0, size)],
            },
        };
        let total: u64 = ranges.iter().map(|&(s, e)| e - s).sum();

        self.send(Reply::new(
            150,
            format!("Opening BINARY mode data connection for {path} ({total} bytes)"),
        ))?;

        let streams = self.parallelism as usize;
        let conns = match self.accept_data(streams) {
            Ok(c) => c,
            Err(_) => return self.send(Reply::new(425, "Can't open data connection")),
        };

        // Build per-stream block lists round-robin over all ranges.
        let mut per_stream: Vec<Vec<(u64, u64)>> = vec![Vec::new(); streams];
        let mut s = 0;
        for &(start, end) in &ranges {
            let mut off = start;
            while off < end {
                let len = BLOCK_SIZE.min(end - off);
                per_stream[s].push((off, len));
                off += len;
                s = (s + 1) % streams;
            }
        }

        let shared = self.shared.clone();
        let mut handles = Vec::new();
        for (conn, blocks) in conns.into_iter().zip(per_stream) {
            let file_path = resolved.clone();
            let shared = shared.clone();
            handles.push(std::thread::spawn(move || {
                send_blocks(conn, &file_path, &blocks, &shared)
            }));
        }
        let mut ok = true;
        for h in handles {
            ok &= h.join().map(|r| r.is_ok()).unwrap_or(false);
        }
        if ok {
            self.send(Reply::new(226, "Transfer complete"))
        } else {
            self.send(Reply::new(426, "Connection closed; transfer aborted"))
        }
    }

    fn do_stor(&mut self, path: &str, base_offset: u64) -> std::io::Result<()> {
        if !self.authenticated() {
            return self.send(Reply::new(530, "Not logged in"));
        }
        if self.mode != 'E' {
            return self.send(Reply::new(504, "STOR requires MODE E"));
        }
        let resolved = match self.resolve(path) {
            Ok(p) => p,
            Err(r) => return self.send(r),
        };
        if let Some(parent) = resolved.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        let file = match std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(&resolved)
        {
            Ok(f) => Arc::new(f),
            Err(_) => return self.send(Reply::new(550, "Cannot create file")),
        };
        self.send(Reply::new(150, format!("Ready to receive {path}")))?;
        let streams = self.parallelism as usize;
        let conns = match self.accept_data(streams) {
            Ok(c) => c,
            Err(_) => return self.send(Reply::new(425, "Can't open data connection")),
        };
        let mut handles = Vec::new();
        for conn in conns {
            let file = file.clone();
            handles.push(std::thread::spawn(move || {
                receive_blocks(conn, &file, base_offset)
            }));
        }
        let results: Vec<std::io::Result<()>> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(std::io::Error::other("receiver panicked")))
            })
            .collect();
        // A block the protocol forbids is the client's error and final
        // (5xx); a stream that broke is transient (4xx).
        let invalid = results
            .iter()
            .filter_map(|r| r.as_ref().err())
            .find(|e| e.kind() == std::io::ErrorKind::InvalidData);
        let reply = match invalid {
            Some(e) => Reply::new(501, format!("Invalid data block: {e}")),
            None if results.iter().all(|r| r.is_ok()) => Reply::new(226, "Transfer complete"),
            None => Reply::new(426, "Connection closed; transfer aborted"),
        };
        self.send(reply)
    }
}

impl Session {
    /// Server-side processing (`ERET X`): open the ESG1 dataset, extract
    /// the requested variable over time steps `[t0, t1)`, and send only
    /// the serialized subset. The paper's §6.1 "server side processing"
    /// hook, instantiated with the extraction/subsetting operation ESG-II
    /// planned ("at least extraction and subsetting, similar to those
    /// available with DODS ... performed local to the data").
    fn do_eret_subset(
        &mut self,
        path: &str,
        variable: &str,
        t0: usize,
        t1: usize,
    ) -> std::io::Result<()> {
        if !self.authenticated() {
            return self.send(Reply::new(530, "Not logged in"));
        }
        if self.mode != 'E' {
            return self.send(Reply::new(504, "ERET requires MODE E"));
        }
        let resolved = match self.resolve(path) {
            Ok(p) => p,
            Err(r) => return self.send(r),
        };
        let ds = match esg_cdms::load(&resolved) {
            Ok(ds) => ds,
            Err(_) => return self.send(Reply::new(550, "Not a readable ESG1 dataset")),
        };
        let subset_bytes = match subset_dataset(&ds, variable, t0, t1) {
            Ok(b) => b,
            Err(msg) => return self.send(Reply::new(501, msg)),
        };
        self.send(Reply::new(
            150,
            format!(
                "Opening BINARY mode data connection for {path} subset ({} bytes)",
                subset_bytes.len()
            ),
        ))?;
        let streams = self.parallelism as usize;
        let conns = match self.accept_data(streams) {
            Ok(c) => c,
            Err(_) => return self.send(Reply::new(425, "Can't open data connection")),
        };
        let assignments =
            crate::eblock::round_robin_blocks(0, subset_bytes.len() as u64, BLOCK_SIZE, streams);
        let payload = Arc::new(subset_bytes);
        let mut handles = Vec::new();
        for (conn, blocks) in conns.into_iter().zip(assignments) {
            let payload = payload.clone();
            handles.push(std::thread::spawn(move || -> std::io::Result<()> {
                let mut conn = conn;
                for (off, len) in blocks {
                    let b = &payload[off as usize..(off + len) as usize];
                    eblock::write_block(&mut conn, off, b)?;
                }
                eblock::write_trailer(&mut conn, BlockHeader::eod())?;
                conn.flush()
            }));
        }
        let mut ok = true;
        for h in handles {
            ok &= h.join().map(|r| r.is_ok()).unwrap_or(false);
        }
        if ok {
            self.send(Reply::new(226, "Transfer complete"))
        } else {
            self.send(Reply::new(426, "Connection closed; transfer aborted"))
        }
    }
}

/// Extract `[t0, t1)` of one variable as a serialized single-variable
/// dataset.
fn subset_dataset(
    ds: &esg_cdms::Dataset,
    variable: &str,
    t0: usize,
    t1: usize,
) -> Result<Vec<u8>, String> {
    let var = ds
        .variable(variable)
        .map_err(|e| format!("bad variable: {e}"))?;
    if var.dims.is_empty() {
        return Err("variable has no dimensions".into());
    }
    let shape = ds.shape_of(var);
    if t0 >= t1 || t1 > shape[0] {
        return Err(format!("bad time range {t0}..{t1} for length {}", shape[0]));
    }
    let slab = esg_cdms::Hyperslab::all(ds, var).narrow(0, t0, t1 - t0);
    let sub = esg_cdms::extract_dataset(ds, variable, &slab)
        .map_err(|e| format!("extract failed: {e}"))?;
    Ok(esg_cdms::to_bytes(&sub))
}

fn cmd_kind(cmd: &Command) -> char {
    match cmd {
        Command::Spas => 's',
        _ => 'p',
    }
}

/// Accept `n` connections on `listener`, all within `timeout`.
///
/// `std` has no accept with a timeout, so a helper thread blocks in
/// `accept` and hands connections over a channel whose receive can time
/// out; on a timeout the helper is woken the way the main accept loop is,
/// by a connection to its own listener.
fn accept_within(
    listener: &TcpListener,
    n: usize,
    timeout: Duration,
) -> std::io::Result<Vec<TcpStream>> {
    let deadline = Instant::now() + timeout;
    let wake_addr = listener.local_addr()?;
    let gave_up = AtomicBool::new(false);
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for _ in 0..n {
                let accepted = listener.accept().map(|(conn, _)| conn);
                if gave_up.load(Ordering::SeqCst) || tx.send(accepted).is_err() {
                    return;
                }
            }
        });
        let collect = || -> std::io::Result<Vec<TcpStream>> {
            let mut conns = Vec::with_capacity(n);
            while conns.len() < n {
                let left = deadline.saturating_duration_since(Instant::now());
                let conn = rx.recv_timeout(left).map_err(|_| {
                    std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "data connections not established",
                    )
                })??;
                conn.set_nodelay(true)?;
                conns.push(conn);
            }
            Ok(conns)
        };
        let conns = collect();
        if conns.is_err() {
            // The helper may still be inside `accept`, and the scope ends
            // only when it does.
            gave_up.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(wake_addr);
        }
        conns
    })
}

fn send_blocks(
    mut conn: TcpStream,
    path: &Path,
    blocks: &[(u64, u64)],
    shared: &SharedState,
) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    let file = std::fs::File::open(path)?;
    let mut buf = vec![0u8; BLOCK_SIZE as usize];
    for &(offset, len) in blocks {
        let b = &mut buf[..len as usize];
        file.read_exact_at(b, offset)?;
        if shared.should_fail(len) {
            // Injected fault: die mid-transfer without EOD.
            conn.shutdown(std::net::Shutdown::Both).ok();
            return Err(std::io::Error::other("injected failure"));
        }
        eblock::write_block(&mut conn, offset, b)?;
    }
    eblock::write_trailer(&mut conn, BlockHeader::eod())?;
    conn.flush()
}

fn receive_blocks(
    mut conn: TcpStream,
    file: &std::fs::File,
    base_offset: u64,
) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    loop {
        let (header, payload) = eblock::read_block(&mut conn, BLOCK_SIZE * 4)?;
        if !payload.is_empty() {
            // Both offsets are the client's: their sum must not wrap onto
            // bytes it never addressed.
            let at = base_offset.checked_add(header.offset).ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "offset {} on top of base {base_offset} is past the end of the address space",
                        header.offset
                    ),
                )
            })?;
            file.write_all_at(&payload, at)?;
        }
        if header.is_eod() {
            return Ok(());
        }
    }
}
