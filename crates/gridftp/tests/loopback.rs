//! Loopback integration tests: the real GridFTP server and client moving
//! real bytes (including actual ESG1 climate files) over 127.0.0.1 with
//! parallel streams, GSI authentication, partial retrieval, uploads and
//! fault-injected restart.

use esg_gridftp::server::{GridFtpServer, ServerConfig};
use esg_gridftp::{ClientError, GridFtpClient, RangeSet, ReliableClient, TransferOptions};
use esg_gsi::{CertificateAuthority, Credential};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("esg-gridftp-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_test_file(root: &Path, name: &str, len: usize) -> Vec<u8> {
    // Deterministic pseudo-random content so corruption is detectable.
    let mut data = vec![0u8; len];
    let mut state = 0x1234_5678_u64;
    for b in data.iter_mut() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *b = (state >> 33) as u8;
    }
    std::fs::write(root.join(name), &data).unwrap();
    data
}

fn start(root: &Path) -> GridFtpServer {
    GridFtpServer::start(ServerConfig::new(root)).unwrap()
}

#[test]
fn anonymous_login_and_feat() {
    let root = temp_root("feat");
    let server = start(&root);
    let mut c = GridFtpClient::connect(server.addr()).unwrap();
    c.login_anonymous().unwrap();
    let feats = c.raw_command(&esg_gridftp::Command::Feat).unwrap().lines;
    assert!(feats.iter().any(|f| f.contains("MODE E")));
    assert!(feats.iter().any(|f| f.contains("PARALLEL")));
    c.quit();
}

#[test]
fn size_and_checksum() {
    let root = temp_root("size");
    let data = write_test_file(&root, "f.bin", 10_000);
    let server = start(&root);
    let mut c = GridFtpClient::connect(server.addr()).unwrap();
    c.login_anonymous().unwrap();
    assert_eq!(c.size("f.bin").unwrap(), 10_000);
    let sum = c.checksum("f.bin", 0, 0).unwrap();
    assert_eq!(sum, esg_gsi::hex(&esg_gsi::sha256(&data)));
    // Range checksum.
    let sum2 = c.checksum("f.bin", 100, 50).unwrap();
    assert_eq!(sum2, esg_gsi::hex(&esg_gsi::sha256(&data[100..150])));
    // Missing file.
    assert!(c.size("ghost.bin").is_err());
    c.quit();
}

#[test]
fn single_stream_get() {
    let root = temp_root("get1");
    let data = write_test_file(&root, "one.bin", 500_000);
    let server = start(&root);
    let mut c = GridFtpClient::connect(server.addr()).unwrap();
    c.login_anonymous().unwrap();
    let got = c
        .get(
            "one.bin",
            TransferOptions {
                parallelism: 1,
                buffer: None,
            },
        )
        .unwrap();
    assert_eq!(got, data);
    c.quit();
}

#[test]
fn parallel_streams_get() {
    let root = temp_root("get4");
    // Non-multiple of the block size to exercise the tail block.
    let data = write_test_file(&root, "four.bin", 1_000_003);
    let server = start(&root);
    let mut c = GridFtpClient::connect(server.addr()).unwrap();
    c.login_anonymous().unwrap();
    for parallelism in [2, 4, 8] {
        let got = c
            .get(
                "four.bin",
                TransferOptions {
                    parallelism,
                    buffer: Some(1 << 20),
                },
            )
            .unwrap();
        assert_eq!(got, data, "parallelism {parallelism}");
    }
    c.quit();
}

#[test]
fn partial_retrieval_eret() {
    let root = temp_root("eret");
    let data = write_test_file(&root, "p.bin", 300_000);
    let server = start(&root);
    let mut c = GridFtpClient::connect(server.addr()).unwrap();
    c.login_anonymous().unwrap();
    let part = c
        .get_partial("p.bin", 1000, 70_000, TransferOptions::default())
        .unwrap();
    assert_eq!(part, &data[1000..71_000]);
    // Past EOF clamps.
    let tail = c
        .get_partial("p.bin", 299_000, 50_000, TransferOptions::default())
        .unwrap();
    assert_eq!(tail, &data[299_000..]);
    c.quit();
}

#[test]
fn upload_round_trip() {
    let root = temp_root("put");
    let server = start(&root);
    let mut c = GridFtpClient::connect(server.addr()).unwrap();
    c.login_anonymous().unwrap();
    let mut data = vec![0u8; 400_001];
    for (i, b) in data.iter_mut().enumerate() {
        *b = (i % 251) as u8;
    }
    c.put("up/stored.bin", &data, TransferOptions::default(), 0)
        .unwrap();
    let back = c.get("up/stored.bin", TransferOptions::default()).unwrap();
    assert_eq!(back, data);
    c.quit();
}

#[test]
fn esto_adjusted_store() {
    let root = temp_root("esto");
    let server = start(&root);
    let mut c = GridFtpClient::connect(server.addr()).unwrap();
    c.login_anonymous().unwrap();
    // Write the second half first at offset 100, then the first 100 bytes.
    let part = vec![7u8; 50];
    c.put(
        "adj.bin",
        &part,
        TransferOptions {
            parallelism: 1,
            buffer: None,
        },
        100,
    )
    .unwrap();
    let head = vec![9u8; 100];
    c.put(
        "adj.bin",
        &head,
        TransferOptions {
            parallelism: 1,
            buffer: None,
        },
        0,
    )
    .unwrap();
    let got = c.get("adj.bin", TransferOptions::default()).unwrap();
    assert_eq!(&got[..100], &head[..]);
    assert_eq!(&got[100..150], &part[..]);
    c.quit();
}

#[test]
fn restart_marker_resumes_manually() {
    let root = temp_root("rest");
    let data = write_test_file(&root, "r.bin", 200_000);
    let server = start(&root);
    let mut c = GridFtpClient::connect(server.addr()).unwrap();
    c.login_anonymous().unwrap();
    // Pretend we already have the first 150000 bytes.
    let mut buffer = vec![0u8; 200_000];
    buffer[..150_000].copy_from_slice(&data[..150_000]);
    let mut received = RangeSet::new();
    received.insert(0, 150_000);
    let got = c
        .get_into(
            "r.bin",
            TransferOptions::default(),
            &mut buffer,
            &mut received,
        )
        .unwrap();
    assert_eq!(got, 50_000, "server must send only the hole");
    assert!(received.is_complete(200_000));
    assert_eq!(buffer, data);
    c.quit();
}

#[test]
fn injected_failure_then_reliable_restart() {
    let root = temp_root("fault");
    let data = write_test_file(&root, "big.bin", 2_000_000);
    let mut config = ServerConfig::new(root.clone());
    config.fail_after_bytes = Some(500_000); // die mid-transfer, once
    let server = GridFtpServer::start(config).unwrap();

    let reliable = ReliableClient::new(server.addr(), TransferOptions::default());
    let outcome = reliable.download("big.bin").unwrap();
    assert_eq!(outcome.data, data);
    assert!(outcome.attempts >= 2, "first attempt must have failed");
    assert!(
        outcome.retried_bytes < 2_000_000,
        "restart must not re-fetch everything: {} bytes retried",
        outcome.retried_bytes
    );
}

#[test]
fn gsi_login_and_transfer() {
    let root = temp_root("gsi");
    let data = write_test_file(&root, "secure.bin", 100_000);
    let ca = Arc::new(CertificateAuthority::new("/O=Grid/CN=ESG CA", b"test-ca"));
    let server_cred: Arc<Credential> = Arc::new(ca.issue("/O=Grid/CN=server", 0, 3600));
    let mut config = ServerConfig::new(root.clone());
    config.allow_anonymous = false;
    config.gsi = Some((server_cred, ca.clone()));
    let server = GridFtpServer::start(config).unwrap();

    let user = ca.issue("/O=Grid/CN=alice", 0, 3600);
    let mut c = GridFtpClient::connect(server.addr()).unwrap();
    // Anonymous is refused.
    assert!(matches!(
        c.login_anonymous(),
        Err(ClientError::Protocol { .. })
    ));
    c.login_gsi(&user, &ca).unwrap();
    let got = c.get("secure.bin", TransferOptions::default()).unwrap();
    assert_eq!(got, data);
    c.quit();
}

#[test]
fn gsi_login_rejects_foreign_ca() {
    let root = temp_root("gsibad");
    let ca = Arc::new(CertificateAuthority::new("/O=Grid/CN=ESG CA", b"test-ca"));
    let server_cred: Arc<Credential> = Arc::new(ca.issue("/O=Grid/CN=server", 0, 3600));
    let mut config = ServerConfig::new(root.clone());
    config.allow_anonymous = false;
    config.gsi = Some((server_cred, ca.clone()));
    let server = GridFtpServer::start(config).unwrap();

    let evil_ca = CertificateAuthority::new("/O=Evil/CN=CA", b"evil");
    let mallory = evil_ca.issue("/O=Grid/CN=mallory", 0, 3600);
    let mut c = GridFtpClient::connect(server.addr()).unwrap();
    assert!(c.login_gsi(&mallory, &evil_ca).is_err());
}

#[test]
fn path_traversal_rejected() {
    let root = temp_root("trav");
    write_test_file(&root, "ok.bin", 100);
    let server = start(&root);
    let mut c = GridFtpClient::connect(server.addr()).unwrap();
    c.login_anonymous().unwrap();
    assert!(c.size("../../../etc/passwd").is_err());
    assert!(c.size("a/../../b").is_err());
    c.quit();
}

#[test]
fn unauthenticated_commands_refused() {
    let root = temp_root("noauth");
    write_test_file(&root, "f.bin", 100);
    let server = start(&root);
    let mut c = GridFtpClient::connect(server.addr()).unwrap();
    // No login: RETR path requires auth (PASV refused first).
    let err = c.get("f.bin", TransferOptions::default()).unwrap_err();
    assert!(matches!(err, ClientError::Protocol { .. }));
}

#[test]
fn real_climate_files_transfer_intact() {
    // End-to-end: generate ESG1 climate chunks, serve them, fetch with
    // parallel streams, reparse and compare datasets.
    let root = temp_root("climate");
    let params = esg_cdms::SynthParams {
        lat_points: 16,
        lon_points: 32,
        time_steps: 8,
        hours_per_step: 6.0,
        seed: 11,
    };
    let chunks = esg_cdms::write_chunks(&root, "pcm_b06", params, 4).unwrap();
    assert_eq!(chunks.len(), 2);
    let server = start(&root);
    let mut c = GridFtpClient::connect(server.addr()).unwrap();
    c.login_anonymous().unwrap();
    for (_, path, size) in &chunks {
        let name = path.file_name().unwrap().to_str().unwrap();
        let bytes = c.get(name, TransferOptions::default()).unwrap();
        assert_eq!(bytes.len() as u64, *size);
        let ds = esg_cdms::from_bytes(&bytes).unwrap();
        assert_eq!(ds.variables.len(), 3);
        let orig = esg_cdms::load(path).unwrap();
        assert_eq!(ds, orig);
    }
    c.quit();
}

#[test]
fn third_party_transfer_between_two_servers() {
    use esg_gridftp::third_party_transfer;
    // Two independent servers with their own roots; the controlling client
    // never touches the data path.
    let src_root = temp_root("tp-src");
    let dst_root = temp_root("tp-dst");
    let data = write_test_file(&src_root, "model_output.bin", 700_001);
    let src_server = start(&src_root);
    let dst_server = start(&dst_root);

    let mut src = GridFtpClient::connect(src_server.addr()).unwrap();
    src.login_anonymous().unwrap();
    let mut dst = GridFtpClient::connect(dst_server.addr()).unwrap();
    dst.login_anonymous().unwrap();

    third_party_transfer(
        &mut src,
        &mut dst,
        "model_output.bin",
        "replica/copy.bin",
        2,
    )
    .unwrap();

    // Verify via the destination server's own checksum.
    let sum_dst = dst.checksum("replica/copy.bin", 0, 0).unwrap();
    assert_eq!(sum_dst, esg_gsi::hex(&esg_gsi::sha256(&data)));
    assert_eq!(dst.size("replica/copy.bin").unwrap(), 700_001);
    src.quit();
    dst.quit();
}

#[test]
fn third_party_missing_source_file_fails_cleanly() {
    use esg_gridftp::third_party_transfer;
    let src_root = temp_root("tpm-src");
    let dst_root = temp_root("tpm-dst");
    let src_server = start(&src_root);
    let dst_server = start(&dst_root);
    let mut src = GridFtpClient::connect(src_server.addr()).unwrap();
    src.login_anonymous().unwrap();
    let mut dst = GridFtpClient::connect(dst_server.addr()).unwrap();
    dst.login_anonymous().unwrap();
    let err = third_party_transfer(&mut src, &mut dst, "ghost.bin", "copy.bin", 1).unwrap_err();
    assert!(matches!(err, ClientError::Protocol { .. }));
}

#[test]
fn server_side_subsetting_eret_x() {
    // The ESG-II extension: the server extracts the subset; the client
    // receives a valid single-variable dataset and far fewer bytes.
    let root = temp_root("subset");
    let params = esg_cdms::SynthParams {
        lat_points: 32,
        lon_points: 64,
        time_steps: 40,
        hours_per_step: 6.0,
        seed: 21,
    };
    let chunks = esg_cdms::write_chunks(&root, "pcm_sub", params, 40).unwrap();
    let (_, path, full_size) = &chunks[0];
    let name = path.file_name().unwrap().to_str().unwrap().to_string();

    let server = start(&root);
    let mut c = GridFtpClient::connect(server.addr()).unwrap();
    c.login_anonymous().unwrap();
    let bytes = c
        .get_subset(&name, "tas", 8, 16, TransferOptions::default())
        .unwrap();
    // 1/5 of the steps, 1/3 of the variables: far smaller than the file.
    assert!(
        (bytes.len() as u64) < full_size / 10,
        "subset {} vs full {}",
        bytes.len(),
        full_size
    );
    let sub = esg_cdms::from_bytes(&bytes).unwrap();
    assert_eq!(sub.variables.len(), 1);
    let v = sub.variable("tas").unwrap();
    assert_eq!(sub.shape_of(v), vec![8, 32, 64]);
    // Content matches a local extraction.
    let full = esg_cdms::load(path).unwrap();
    let fv = full.variable("tas").unwrap();
    let slab = esg_cdms::Hyperslab::all(&full, fv).narrow(0, 8, 8);
    let expect = esg_cdms::extract(&full, fv, &slab).unwrap();
    assert_eq!(v.data, expect);

    // Bad requests fail with errors, not hangs.
    assert!(c
        .get_subset(&name, "nope", 0, 4, TransferOptions::default())
        .is_err());
    assert!(c
        .get_subset(&name, "tas", 30, 99, TransferOptions::default())
        .is_err());
    c.quit();
    for (_, p, _) in &chunks {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn concurrent_clients_share_one_server() {
    // "initiate, control and monitor multiple file transfers on behalf of
    // multiple users concurrently": several clients, one server, all
    // downloads intact.
    let root = temp_root("concurrent");
    let data = write_test_file(&root, "shared.bin", 400_000);
    let server = start(&root);
    let addr = server.addr();
    let mut handles = Vec::new();
    for i in 0..6 {
        let expect = data.clone();
        handles.push(std::thread::spawn(move || {
            let mut c = GridFtpClient::connect(addr).unwrap();
            c.login_anonymous().unwrap();
            let opts = TransferOptions {
                parallelism: 1 + (i % 4),
                buffer: None,
            };
            let got = c.get("shared.bin", opts).unwrap();
            assert_eq!(got, expect, "client {i}");
            c.quit();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn sbuf_negotiation_accepted() {
    let root = temp_root("sbuf");
    let data = write_test_file(&root, "b.bin", 100_000);
    let server = start(&root);
    let mut c = GridFtpClient::connect(server.addr()).unwrap();
    c.login_anonymous().unwrap();
    // The paper's 1 MB buffer request travels as SBUF before the transfer.
    let got = c
        .get(
            "b.bin",
            TransferOptions {
                parallelism: 2,
                buffer: Some(1 << 20),
            },
        )
        .unwrap();
    assert_eq!(got, data);
    c.quit();
}

#[test]
fn spas_striped_passive_reply_parses() {
    // SPAS returns the multiline 229; we exercise the reply path raw.
    use esg_gridftp::Command;
    let root = temp_root("spas");
    let server = start(&root);
    let mut c = GridFtpClient::connect(server.addr()).unwrap();
    c.login_anonymous().unwrap();
    let reply = c.raw_command(&Command::Spas).unwrap();
    assert_eq!(reply.code, 229);
    assert!(reply.lines.len() >= 3);
    assert!(reply.lines[1].trim().starts_with("127,0,0,1"));
    c.quit();
}

#[test]
fn gsi_plus_subsetting_compose() {
    // Security and server-side processing together: authenticate with a
    // delegated proxy, then run a server-side extraction.
    let root = temp_root("gsisub");
    let params = esg_cdms::SynthParams {
        lat_points: 8,
        lon_points: 16,
        time_steps: 12,
        hours_per_step: 6.0,
        seed: 5,
    };
    let chunks = esg_cdms::write_chunks(&root, "secure_ds", params, 12).unwrap();
    let name = chunks[0]
        .1
        .file_name()
        .unwrap()
        .to_str()
        .unwrap()
        .to_string();

    let ca = Arc::new(CertificateAuthority::new("/O=Grid/CN=ESG CA", b"ca2"));
    let server_cred: Arc<Credential> = Arc::new(ca.issue("/O=Grid/CN=server", 0, 3600));
    let mut config = ServerConfig::new(root.clone());
    config.allow_anonymous = false;
    config.gsi = Some((server_cred, ca.clone()));
    let server = GridFtpServer::start(config).unwrap();

    let user = ca.issue("/O=Grid/CN=scientist", 0, 3600);
    let proxy = user.delegate(0, 600, b"rm").unwrap();
    let mut c = GridFtpClient::connect(server.addr()).unwrap();
    // NOTE: proxy chains need the delegator's key for verification in our
    // shared-anchor model; the server only knows the CA, so authenticate
    // with the end-entity credential here and check the proxy separately.
    let _ = proxy;
    c.login_gsi(&user, &ca).unwrap();
    let sub = c
        .get_subset(&name, "clt", 0, 6, TransferOptions::default())
        .unwrap();
    let ds = esg_cdms::from_bytes(&sub).unwrap();
    assert_eq!(ds.variables.len(), 1);
    c.quit();
    for (_, p, _) in &chunks {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn hostile_lengths_are_clamped_not_fatal() {
    // `offset + length` past u64::MAX used to wrap: CKSM panicked the
    // session thread (control connection dropped), ERET sent nothing.
    let root = temp_root("hostile-len");
    let data = write_test_file(&root, "f.bin", 10_000);
    let server = start(&root);
    let mut c = GridFtpClient::connect(server.addr()).unwrap();
    c.login_anonymous().unwrap();

    let sum = c.checksum("f.bin", 1, u64::MAX).unwrap();
    assert_eq!(sum, esg_gsi::hex(&esg_gsi::sha256(&data[1..])));
    let noop = c.raw_command(&esg_gridftp::Command::Noop).unwrap();
    assert_eq!(noop.code, 200, "the session survived the CKSM");

    let opts = TransferOptions {
        parallelism: 2,
        buffer: None,
    };
    let tail = c.get_partial("f.bin", 1, u64::MAX, opts).unwrap();
    assert_eq!(tail, &data[1..]);
    // An offset past EOF is an empty range, for both.
    let empty = c.checksum("f.bin", u64::MAX, u64::MAX).unwrap();
    assert_eq!(empty, esg_gsi::hex(&esg_gsi::sha256(b"")));
    assert!(c.get_partial("f.bin", 20_000, 5, opts).unwrap().is_empty());
    c.quit();
}

#[test]
fn eblock_offset_overflow_fails_the_store_not_the_server() {
    // `base_offset + header.offset` used to be unchecked: a block offset
    // of u64::MAX - 1 on top of an ESTO offset panicked the receiver of a
    // debug server and, in release, wrapped to offset 14 and overwrote
    // bytes the client never addressed.
    use esg_gridftp::eblock::{self, BlockHeader};
    use esg_gridftp::Command;
    use std::io::Write;

    let root = temp_root("hostile-offset");
    let before = write_test_file(&root, "f.bin", 4096);
    let server = start(&root);
    let mut c = GridFtpClient::connect(server.addr()).unwrap();
    c.login_anonymous().unwrap();

    let pasv = c.raw_command(&Command::Pasv).unwrap();
    assert_eq!(pasv.code, 227);
    let text = pasv.text();
    let nums: Vec<u16> = text[text.find('(').unwrap() + 1..text.find(')').unwrap()]
        .split(',')
        .map(|n| n.trim().parse().unwrap())
        .collect();
    let port = nums[4] << 8 | nums[5];
    let esto = Command::EstoAdjusted {
        offset: 16,
        path: "f.bin".into(),
    };
    assert_eq!(c.raw_command(&esto).unwrap().code, 150);
    let mut data = std::net::TcpStream::connect(("127.0.0.1", port)).unwrap();
    eblock::write_block(&mut data, u64::MAX - 1, b"overwrite").unwrap();
    // The server may already have hung up on the block above.
    let _ = eblock::write_trailer(&mut data, BlockHeader::eod());
    let _ = data.flush();

    let fin = c.read_pending_reply().unwrap();
    assert_eq!(fin.code, 501, "{}", fin.text());
    assert_eq!(std::fs::read(root.join("f.bin")).unwrap(), before);

    // The session is still usable, for a well-formed store too.
    assert_eq!(c.raw_command(&Command::Noop).unwrap().code, 200);
    let opts = TransferOptions {
        parallelism: 2,
        buffer: None,
    };
    c.put("g.bin", &before, opts, 0).unwrap();
    assert_eq!(c.get("g.bin", opts).unwrap(), before);
    c.quit();
}

#[test]
#[ignore = "the control channel still runs with Nagle on: every short get waits 40 ms for its 226 (ROADMAP item 2)"]
fn fresh_session_transfers_carry_no_stall() {
    // 20 × (connect + GSI login + 64 KiB get + quit). With Nagle on the
    // control channel every get waits 40 ms for the 226 (20 × 40 ms =
    // 800 ms at best); with `TCP_NODELAY` on the server's control socket
    // the whole loop needs about 20 ms, so 400 ms leaves 20× headroom for
    // a noisy host. Un-ignore together with that one-line change.
    let root = temp_root("no-stall");
    let data = write_test_file(&root, "small.bin", 64 << 10);
    let ca = Arc::new(CertificateAuthority::new("/O=Grid/CN=ESG CA", b"test-ca"));
    let server_cred: Arc<Credential> = Arc::new(ca.issue("/O=Grid/CN=server", 0, 3600));
    let mut config = ServerConfig::new(root.clone());
    config.gsi = Some((server_cred, ca.clone()));
    let server = GridFtpServer::start(config).unwrap();
    let user = ca.issue("/O=Grid/CN=alice", 0, 3600);
    let opts = TransferOptions {
        parallelism: 2,
        buffer: None,
    };

    let started = Instant::now();
    for _ in 0..20 {
        let mut c = GridFtpClient::connect(server.addr()).unwrap();
        c.login_gsi(&user, &ca).unwrap();
        assert_eq!(c.get("small.bin", opts).unwrap(), data);
        c.quit();
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(400),
        "20 fresh-session transfers took {elapsed:?}"
    );
}

#[test]
fn stop_wakes_the_blocked_accept() {
    let second = Duration::from_secs(1);
    // Nobody ever connected: the accept loop is parked in `accept`.
    let root = temp_root("stop");
    let server = start(&root);
    let t = Instant::now();
    server.stop();
    assert!(t.elapsed() < second, "idle stop took {:?}", t.elapsed());

    // Clients came and went: their sessions are joined, then the same.
    let data = write_test_file(&root, "f.bin", 100_000);
    let server = start(&root);
    for _ in 0..3 {
        let mut c = GridFtpClient::connect(server.addr()).unwrap();
        c.login_anonymous().unwrap();
        assert_eq!(c.get("f.bin", TransferOptions::default()).unwrap(), data);
        c.quit();
    }
    let t = Instant::now();
    server.stop();
    assert!(t.elapsed() < second, "stop took {:?}", t.elapsed());
}
