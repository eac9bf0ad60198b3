//! `loopback_xfer`: real bytes over 127.0.0.1 — the only workload that
//! bypasses the simulator. An in-process `GridFtpServer` with GSI, one
//! closed-loop client, two parallel streams.
//!
//! (A) bulk: each file is fetched (`get`), fetched again with end-to-end
//!     verification (`ReliableClient::download`: server CKSM + client
//!     SHA-256) and uploaded (`put` + server `checksum`), so reads sit
//!     beside writes and per-byte cost dominates.
//! (B) small: each transfer is a fresh connect + GSI login + `get` +
//!     quit of a 64 KiB file, so per-transfer fixed cost dominates.
//!
//! The loopback interface is not a real link: the MB/s here measure the
//! protocol engine and the digests, not a network.

use super::{Ctx, Laps, Rep};
use crate::stats;
use esg_gridftp::server::{GridFtpServer, ServerConfig};
use esg_gridftp::{ClientError, GridFtpClient, ReliableClient, TransferOptions};
use esg_gsi::{CertificateAuthority, Credential};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

const SMALL_BYTES: usize = 64 << 10;
const SMALL_FILE: &str = "small.bin";
const OPTS: TransferOptions = TransferOptions {
    parallelism: 2,
    buffer: None,
};
/// Per-call sample of a small transfer; summarised as p50 and p95.
const SMALL_XFER_MS: &str = "small_xfer_ms";

/// `(bulk files, bytes per bulk file, small transfers)`.
pub fn sizes(quick: bool) -> (usize, usize, usize) {
    if quick {
        (1, 4 << 20, 8)
    } else {
        (2, 16 << 20, 20)
    }
}

/// File contents, a pure function of the seed.
pub fn file_bytes(seed: u64, index: usize, len: usize) -> Vec<u8> {
    let mut rng =
        StdRng::seed_from_u64(seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut data = vec![0u8; len];
    for chunk in data.chunks_mut(8) {
        let word = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
    data
}

/// One call and its seconds.
fn clock<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

struct Session<'a> {
    addr: SocketAddr,
    user: &'a Credential,
    ca: &'a CertificateAuthority,
}

impl Session<'_> {
    /// Connect and log in with GSI, timing each public call.
    fn open(&self, rep: &mut Rep) -> Result<GridFtpClient, ClientError> {
        let (c, s) = clock(|| GridFtpClient::connect(self.addr));
        rep.spans.push(("gridftp.client.connect_ms", s * 1e3));
        let mut c = c?;
        let (r, s) = clock(|| c.login_gsi(self.user, self.ca));
        rep.spans.push(("gridftp.client.login_gsi_ms", s * 1e3));
        r?;
        Ok(c)
    }

    fn small_transfer(&self, rep: &mut Rep) -> Result<Vec<u8>, ClientError> {
        let mut c = self.open(rep)?;
        let got = c.get(SMALL_FILE, OPTS)?;
        c.quit();
        Ok(got)
    }
}

struct BulkFile {
    name: String,
    data: Vec<u8>,
    sha256: String,
}

impl BulkFile {
    fn mb(&self) -> f64 {
        self.data.len() as f64 / 1e6
    }
}

/// (A): get, verified get, put + checksum of every bulk file; one slice
/// per operation. Returns the verified download's seconds per file.
fn bulk_phase(
    session: &Session,
    files: &[BulkFile],
    rep: &mut Rep,
    laps: &mut Laps,
) -> Result<Vec<f64>, ClientError> {
    let mut verified_s = Vec::with_capacity(files.len());
    let mut c = session.open(rep)?;
    laps.lap(rep);
    for (i, f) in files.iter().enumerate() {
        let (got, s) = clock(|| c.get(&f.name, OPTS));
        rep.span("gridftp.client.get_p2_mb_s", f.mb() / s, s);
        rep.check(got.is_ok_and(|g| g == f.data), || {
            format!("get {}: bytes differ from the source", f.name)
        });
        laps.lap(rep);

        let (got, s) = clock(|| ReliableClient::new(session.addr, OPTS).download(&f.name));
        rep.span("gridftp.client.verified_get_mb_s", f.mb() / s, s);
        verified_s.push(s);
        rep.check(
            got.is_ok_and(|o| o.attempts == 1 && o.data == f.data),
            || format!("verified download {}: bytes differ or retried", f.name),
        );
        laps.lap(rep);

        let up = format!("up/bulk{i}.bin");
        let (stored, s_put) = clock(|| c.put(&up, &f.data, OPTS, 0));
        let (sum, s_cksm) = clock(|| c.checksum(&up, 0, 0));
        let s = s_put + s_cksm;
        rep.span("gridftp.client.put_mb_s", f.mb() / s, s);
        rep.spans
            .push(("gridftp.client.cksm_mb_s", f.mb() / s_cksm));
        rep.check(stored.is_ok() && sum.is_ok_and(|s| s == f.sha256), || {
            format!("put {up}: server checksum differs from the source's")
        });
        laps.lap(rep);
    }
    c.quit();
    laps.lap(rep);
    Ok(verified_s)
}

/// Traced reps only, outside the timed section: the same file over one
/// stream, and what the client-side digest alone costs.
fn traced_extras(
    session: &Session,
    files: &[BulkFile],
    verified_s: &[f64],
    rep: &mut Rep,
) -> Result<(), ClientError> {
    let mut c = session.open(rep)?;
    for (i, f) in files.iter().enumerate() {
        let one = TransferOptions {
            parallelism: 1,
            ..OPTS
        };
        let (got, s) = clock(|| c.get(&f.name, one));
        rep.spans.push(("gridftp.client.get_p1_mb_s", f.mb() / s));
        rep.check(got.is_ok_and(|g| g == f.data), || {
            format!("single-stream get {}: bytes differ", f.name)
        });
        let (sum, s) = clock(|| esg_gsi::sha256(&f.data));
        std::hint::black_box(sum);
        if let Some(v) = verified_s.get(i) {
            rep.spans.push(("gridftp.client.local_sha256_share", s / v));
        }
    }
    c.quit();
    Ok(())
}

pub fn rep(ctx: &Ctx) -> Rep {
    let (n_bulk, bulk_bytes, n_small) = sizes(ctx.quick);
    let mut rep = Rep::default();

    // Set-up: generate and publish the files, credentials, server start,
    // and one read of every file so the page cache is warm.
    let t = Instant::now();
    let root = ctx.dir.join("loopback-root");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("scratch directory is writable");
    let files: Vec<BulkFile> = (0..n_bulk)
        .map(|i| {
            let name = format!("bulk{i}.bin");
            let data = file_bytes(ctx.seed, i, bulk_bytes);
            std::fs::write(root.join(&name), &data).expect("scratch directory is writable");
            let sha256 = esg_gsi::hex(&esg_gsi::sha256(&data));
            BulkFile { name, data, sha256 }
        })
        .collect();
    let small = file_bytes(ctx.seed, n_bulk, SMALL_BYTES);
    std::fs::write(root.join(SMALL_FILE), &small).expect("scratch directory is writable");
    let ca = Arc::new(CertificateAuthority::new(
        "/O=Grid/CN=ESG CA",
        &ctx.seed.to_be_bytes(),
    ));
    let server_cred = Arc::new(ca.issue("/O=Grid/CN=server", 0, 3600));
    let user = ca.issue("/O=Grid/CN=bench", 0, 3600);
    let mut config = ServerConfig::new(root.clone());
    config.gsi = Some((server_cred, ca.clone()));
    let server = GridFtpServer::start(config).expect("bind 127.0.0.1");
    for f in &files {
        std::hint::black_box(std::fs::read(root.join(&f.name)).expect("file was just written"));
    }
    rep.setup_s = t.elapsed().as_secs_f64();

    let session = Session {
        addr: server.addr(),
        user: &user,
        ca: &ca,
    };
    // No simulator here, so no profiler scopes: the spans of a traced rep
    // are the `Instant`s around each client call, taken on every rep.
    let mut laps = Laps::start();
    let verified_s = bulk_phase(&session, &files, &mut rep, &mut laps).unwrap_or_else(|e| {
        rep.check(false, || format!("bulk session: {e}"));
        Vec::new()
    });
    let first_small = rep.slices.len();
    for i in 0..n_small {
        let (got, s) = clock(|| session.small_transfer(&mut rep));
        rep.span(SMALL_XFER_MS, s * 1e3, s);
        rep.check(got.is_ok_and(|g| g == small), || {
            format!("small transfer {i}: bytes differ from the source")
        });
        laps.lap(&mut rep);
    }
    rep.files_slices = Some(first_small..rep.slices.len());
    rep.files = n_small as u64;
    rep.set("files_total", (3 * n_bulk + n_small) as f64);
    if ctx.traced {
        if let Err(e) = traced_extras(&session, &files, &verified_s, &mut rep) {
            rep.check(false, || format!("traced session: {e}"));
        }
    }

    server.stop();
    let _ = std::fs::remove_dir_all(&root);
    rep
}

/// Turn per-call samples pooled over all reps into metric values: the
/// median of each named sample, and the small-transfer percentiles.
pub fn summarize(
    pooled: &BTreeMap<&'static str, Vec<f64>>,
    values: &mut BTreeMap<&'static str, f64>,
) {
    for (&name, samples) in pooled {
        if name == SMALL_XFER_MS {
            values.insert(
                "gridftp.client.small_xfer_p50_ms",
                stats::percentile(samples, 50.0),
            );
            values.insert(
                "gridftp.client.small_xfer_p95_ms",
                stats::percentile(samples, 95.0),
            );
            values.insert("small_xfer_samples", samples.len() as f64);
        } else {
            values.insert(name, stats::median(samples));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_contents_are_a_pure_function_of_seed_and_index() {
        assert_eq!(file_bytes(17, 0, 1000), file_bytes(17, 0, 1000));
        assert_ne!(file_bytes(17, 0, 1000), file_bytes(18, 0, 1000));
        assert_ne!(file_bytes(17, 0, 1000), file_bytes(17, 1, 1000));
        assert_eq!(file_bytes(17, 0, 1003).len(), 1003);
    }
}
