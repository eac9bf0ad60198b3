//! Layer-isolation drivers: each calls one layer's public functions
//! directly in a timed loop and reports units per second. They tell a
//! reviewer whether a layer itself got faster, independent of how much of
//! a workload's wall that layer holds.
//!
//! Inputs are seeded and fixed in size; a driver runs whole batches until
//! its slice of the traced run's budget is spent.

use crate::layers::Values;
use esg_cdms::{Hyperslab, SynthParams};
use esg_directory::{Directory, Dn, Entry, Filter, Scope};
use esg_gridftp::{eblock, Command, GridUrl, RangeSet};
use esg_gsi::{CertificateAuthority, Protection, SessionKeys};
use esg_metadata::{synthetic_description, MetadataCatalog};
use esg_netlogger::{LifelineSet, MetricsRegistry, Phase, TraceCtx, TracedLog};
use esg_nws::forecast::{AdaptiveForecaster, Forecaster};
use esg_replica::{PathEstimate, Policy, ReplicaCatalog, ReplicaSelector};
use esg_reqman::{order_queue, verify_blocks, AdmissionPolicy, HostLedger, SegmentView};
use esg_simnet::allocation::{max_min_fair, AllocFlow};
use esg_simnet::{Sim, SimDuration, SimTime, Topology};
use esg_storage::{file_digest_hex, Hrm, TapeParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

const MB: f64 = 1e6;

/// Run `batch` (worth `units` units of work per call) until `slice_s` has
/// passed; units per second over all calls.
fn rate(slice_s: f64, units: f64, mut batch: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut calls = 0u64;
    loop {
        batch();
        calls += 1;
        let elapsed = t.elapsed().as_secs_f64();
        if elapsed >= slice_s {
            return calls as f64 * units / elapsed;
        }
    }
}

type Driver = fn(f64, u64) -> f64;

const DRIVERS: &[(&str, Driver)] = &[
    ("simnet.kernel.iso.events_per_s", kernel_events),
    ("simnet.allocation.iso.maxmin_small_per_s", maxmin_small),
    (
        "simnet.allocation.iso.maxmin_large_flows_per_s",
        maxmin_large,
    ),
    ("reqman.scheduler.iso.ledger_ops_per_s", ledger_ops),
    (
        "reqman.scheduler.iso.order_queue_files_per_s",
        order_queue_files,
    ),
    ("reqman.integrity.iso.verify_blocks_mb_s", verify_blocks_mb),
    ("netlogger.trace.iso.emit_per_s", trace_emit),
    ("netlogger.trace.iso.emit_live_per_s", trace_emit_live),
    ("netlogger.metrics.iso.counter_add_per_s", counter_add),
    ("netlogger.ulm.iso.export_mb_s", ulm_export),
    (
        "netlogger.lifeline.iso.from_log_events_per_s",
        lifeline_from_log,
    ),
    ("gridftp.eblock.iso.roundtrip_mb_s", eblock_roundtrip),
    ("gridftp.protocol.iso.parse_per_s", protocol_parse),
    ("gridftp.ranges.iso.inserts_per_s", ranges_inserts),
    ("gsi.sha256.iso.mb_s", sha256_mb),
    ("gsi.hmac.iso.mb_s", hmac_mb),
    ("gsi.chacha20.iso.mb_s", chacha20_mb),
    ("gsi.channel.iso.seal_open_mb_s", seal_open_mb),
    ("gsi.handshake.iso.per_s", handshakes),
    ("replica.catalog.iso.lookups_per_s", catalog_lookups),
    ("replica.selection.iso.selects_per_s", replica_selects),
    ("directory.iso.searches_per_s", directory_searches),
    ("metadata.iso.selects_per_s", metadata_selects),
    ("nws.forecast.iso.updates_per_s", forecast_updates),
    ("storage.hrm.iso.stages_per_s", hrm_stages),
    ("storage.integrity.iso.digest_mb_s", storage_digest),
    ("cdms.ncio.iso.encode_mb_s", ncio_encode),
    ("cdms.ncio.iso.decode_mb_s", ncio_decode),
    ("cdms.hyperslab.iso.subset_mb_s", hyperslab_subset),
];

/// Run every driver, sharing `budget_s` equally.
pub fn run_all(budget_s: f64, seed: u64) -> Values {
    let slice = budget_s / DRIVERS.len() as f64;
    DRIVERS
        .iter()
        .map(|&(name, driver)| (name, driver(slice, seed)))
        .collect()
}

fn bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen::<u8>()).collect()
}

// --- simnet -------------------------------------------------------------

/// Schedule N no-op events at seeded times, run them.
fn kernel_events(slice: f64, seed: u64) -> f64 {
    const N: usize = 50_000;
    let mut rng = StdRng::seed_from_u64(seed);
    let times: Vec<u64> = (0..N).map(|_| rng.gen_range(0u64..1_000_000_000)).collect();
    rate(slice, N as f64, || {
        let mut sim: Sim<u64> = Sim::new(Topology::new(), 0);
        for &t in &times {
            sim.schedule_at(SimTime::ZERO + SimDuration::from_nanos(t), |s| s.world += 1);
        }
        sim.run();
        assert_eq!(black_box(sim.world), N as u64);
    })
}

fn maxmin_problem(seed: u64, flows: usize, resources: usize) -> (Vec<f64>, Vec<AllocFlow>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let caps = (0..resources)
        .map(|_| 5e7 + rng.gen_range(0u64..100_000_000) as f64)
        .collect();
    let flows = (0..flows)
        .map(|_| AllocFlow {
            resources: (0..3).map(|_| rng.gen_range(0usize..resources)).collect(),
            cap: 1e6 + rng.gen_range(0u64..20_000_000) as f64,
        })
        .collect();
    (caps, flows)
}

/// 16 flows over 8 resources: the size of one region's component.
fn maxmin_small(slice: f64, seed: u64) -> f64 {
    let (caps, flows) = maxmin_problem(seed, 16, 8);
    rate(slice, 1.0, || {
        black_box(max_min_fair(black_box(&caps), black_box(&flows)));
    })
}

/// 4096 flows in one problem: the size of a burst pass.
fn maxmin_large(slice: f64, seed: u64) -> f64 {
    let (caps, flows) = maxmin_problem(seed, 4096, 1024);
    rate(slice, flows.len() as f64, || {
        black_box(max_min_fair(black_box(&caps), black_box(&flows)));
    })
}

// --- reqman -------------------------------------------------------------

fn ledger_ops(slice: f64, _seed: u64) -> f64 {
    const HOSTS: [&str; 6] = [
        "hpss.lbl.gov",
        "pcmdi.llnl.gov",
        "jupiter.isi.edu",
        "pitcairn.mcs.anl.gov",
        "dataportal.ucar.edu",
        "srb.sdsc.edu",
    ];
    const TENANTS: [&str; 3] = ["interactive", "replication", "archive"];
    let mut ledger = HostLedger::default();
    rate(slice, 2.0 * 6000.0, || {
        for i in 0..6000 {
            ledger.acquire(HOSTS[i % 6], TENANTS[i % 3], i % 5 != 0);
        }
        for i in 0..6000 {
            ledger.release(HOSTS[i % 6], TENANTS[i % 3], i % 5 != 0);
        }
        assert_eq!(black_box(ledger.total()), 0);
    })
}

fn order_queue_files(slice: f64, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let sizes: Vec<u64> = (0..4096)
        .map(|_| rng.gen_range(1_000_000u64..2_000_000_000))
        .collect();
    rate(slice, sizes.len() as f64, || {
        black_box(order_queue(
            AdmissionPolicy::ShortestFirst,
            black_box(&sizes),
        ));
    })
}

/// A 256 MiB file delivered in four segments, one behind a wire fault and
/// one read from a site holding an at-rest flip.
fn verify_blocks_mb(slice: f64, _seed: u64) -> f64 {
    const SIZE: u64 = 256 << 20;
    let quarter = SIZE / 4;
    let segments: Vec<SegmentView> = (0..4u64)
        .map(|i| SegmentView {
            host: format!("site{i}"),
            start: i * quarter,
            end: (i + 1) * quarter,
            seq: i + 1,
            wire_active: i == 1,
            at_rest: if i == 2 { vec![(140, 7)] } else { Vec::new() },
        })
        .collect();
    rate(slice, SIZE as f64 / MB, || {
        let report = verify_blocks("pcm/bench.f000", SIZE, 64, black_box(&segments));
        assert!(!black_box(report).is_clean());
    })
}

// --- netlogger ----------------------------------------------------------

const SPANS_PER_BATCH: u64 = 2_000;

/// Open and close `SPANS_PER_BATCH` phase spans the way the request
/// manager does: two events per span, file and attempt in the context.
fn emit_spans(log: &mut TracedLog) {
    for i in 0..SPANS_PER_BATCH {
        let ctx = TraceCtx::request(i / 8)
            .with_file(format!("pcm.run1.f{:04}", i % 64))
            .with_attempt(1);
        let t = SimTime::from_secs(i);
        let span = log.span_start(&ctx, t, Phase::Transfer, None);
        log.span_end(
            &ctx,
            t + SimDuration::from_millis(500),
            span,
            Phase::Transfer,
            vec![("bytes", 1_000_000u64.into())],
        );
    }
}

fn trace_emit(slice: f64, _seed: u64) -> f64 {
    rate(slice, 2.0 * SPANS_PER_BATCH as f64, || {
        let mut log = TracedLog::new();
        emit_spans(&mut log);
        black_box(log.len());
    })
}

/// The same emission with the online lifeline analyzer attached.
fn trace_emit_live(slice: f64, _seed: u64) -> f64 {
    rate(slice, 2.0 * SPANS_PER_BATCH as f64, || {
        let mut log = TracedLog::new();
        log.attach_live();
        emit_spans(&mut log);
        black_box(log.live().map(|l| l.events_seen()));
    })
}

/// The string-keyed registry, hit with the request manager's own names.
fn counter_add(slice: f64, _seed: u64) -> f64 {
    const NAMES: [&str; 8] = [
        "rm.files.completed",
        "rm.integrity.verified",
        "rm.sched.admitted",
        "rm.sched.deferred",
        "rm.select.ledger_lookups",
        "rm.monitor.ticks",
        "rm.requests.completed",
        "rm.requests.submitted",
    ];
    let mut reg = MetricsRegistry::new();
    rate(slice, 8.0 * 1000.0, || {
        for _ in 0..1000 {
            for name in NAMES {
                reg.counter_add(black_box(name), 1);
            }
        }
    })
}

fn span_log() -> TracedLog {
    let mut log = TracedLog::new();
    for _ in 0..5 {
        emit_spans(&mut log);
    }
    log
}

fn ulm_export(slice: f64, _seed: u64) -> f64 {
    let log = span_log();
    let out_mb = log.to_ulm().len() as f64 / MB;
    rate(slice, out_mb, || {
        black_box(black_box(&log).to_ulm());
    })
}

fn lifeline_from_log(slice: f64, _seed: u64) -> f64 {
    let log = span_log();
    rate(slice, log.len() as f64, || {
        black_box(LifelineSet::from_log(black_box(&log)));
    })
}

// --- gridftp ------------------------------------------------------------

const BLOCK: usize = 64 << 10;

/// In-memory `write_block` / `read_block` of one 64 KiB extended block.
fn eblock_roundtrip(slice: f64, seed: u64) -> f64 {
    let payload = bytes(seed, BLOCK);
    rate(slice, BLOCK as f64 / MB, || {
        let mut wire = Vec::with_capacity(BLOCK + 32);
        eblock::write_block(&mut wire, 12_345, black_box(&payload)).expect("Vec write");
        let mut r = wire.as_slice();
        black_box(eblock::read_block(&mut r, 1 << 20).expect("block just written"));
    })
}

fn protocol_parse(slice: f64, _seed: u64) -> f64 {
    const LINES: [&str; 10] = [
        "USER anonymous",
        "PASS esg@",
        "TYPE I",
        "MODE E",
        "OPTS RETR Parallelism=4,4,4;",
        "PASV",
        "SIZE pcm/run1/f0001.nc",
        "CKSM SHA256 0 -1 pcm/run1/f0001.nc",
        "ERET P 1048576 65536 pcm/run1/f0001.nc",
        "RETR pcm/run1/f0001.nc",
    ];
    rate(slice, LINES.len() as f64, || {
        for line in LINES {
            black_box(Command::parse(black_box(line)).is_ok());
        }
    })
}

/// Four streams' worth of interleaved 64 KiB blocks, as a parallel
/// download banks them.
fn ranges_inserts(slice: f64, _seed: u64) -> f64 {
    rate(slice, 1000.0, || {
        let mut set = RangeSet::new();
        for stream in 0..4u64 {
            for i in 0..250u64 {
                let start = (i * 4 + stream) * BLOCK as u64;
                set.insert(start, start + BLOCK as u64);
            }
        }
        assert!(black_box(set.is_complete(1000 * BLOCK as u64)));
    })
}

// --- gsi ----------------------------------------------------------------

const CRYPTO_BYTES: usize = 1 << 20;

fn sha256_mb(slice: f64, seed: u64) -> f64 {
    let data = bytes(seed, CRYPTO_BYTES);
    rate(slice, CRYPTO_BYTES as f64 / MB, || {
        black_box(esg_gsi::sha256(black_box(&data)));
    })
}

fn hmac_mb(slice: f64, seed: u64) -> f64 {
    let data = bytes(seed, CRYPTO_BYTES);
    rate(slice, CRYPTO_BYTES as f64 / MB, || {
        black_box(esg_gsi::hmac_sha256(b"benchmark-key", black_box(&data)));
    })
}

fn chacha20_mb(slice: f64, seed: u64) -> f64 {
    let mut data = bytes(seed, CRYPTO_BYTES);
    rate(slice, CRYPTO_BYTES as f64 / MB, || {
        esg_gsi::chacha20::chacha20_xor(&[7; 32], &[9; 12], 0, black_box(&mut data));
    })
}

/// Seal and open one 64 KiB record with confidentiality on.
fn seal_open_mb(slice: f64, seed: u64) -> f64 {
    let keys = SessionKeys {
        integrity: [1; 32],
        confidentiality: [2; 32],
    };
    let payload = bytes(seed, BLOCK);
    rate(slice, BLOCK as f64 / MB, || {
        let (mut tx, mut rx) = esg_gsi::channel_pair(&keys, Protection::Private);
        let sealed = tx.seal(black_box(&payload));
        black_box(rx.open(&sealed).expect("record just sealed"));
    })
}

fn handshakes(slice: f64, seed: u64) -> f64 {
    let ca = CertificateAuthority::new("/O=Grid/CN=ESG CA", &seed.to_be_bytes());
    let client = ca.issue("/O=Grid/CN=client", 0, 3600);
    let server = ca.issue("/O=Grid/CN=server", 0, 3600);
    let mut session = 0u64;
    rate(slice, 1.0, || {
        session += 1;
        black_box(
            esg_gsi::mutual_authenticate(
                &client,
                &server,
                &ca,
                0,
                &|_| None,
                &session.to_be_bytes(),
            )
            .expect("both credentials are from this CA"),
        );
    })
}

// --- replica / directory / metadata / nws / storage -----------------------

const CATALOG_FILES: usize = 500;

fn catalog(locations: usize) -> (ReplicaCatalog, Vec<String>) {
    let mut cat = ReplicaCatalog::new();
    cat.create_collection("pcm").expect("fresh catalog");
    let files: Vec<String> = (0..CATALOG_FILES)
        .map(|i| format!("pcm.run1.f{i:04}"))
        .collect();
    for f in &files {
        cat.add_logical_file("pcm", f, 1_000_000)
            .expect("distinct names");
    }
    let names: Vec<&str> = files.iter().map(String::as_str).collect();
    for l in 0..locations {
        let host = format!("site{l}.example.org");
        cat.register_location(
            "pcm",
            &host,
            &GridUrl::new(host.clone(), "/data/pcm"),
            &names,
        )
        .expect("distinct locations");
    }
    (cat, files)
}

fn catalog_lookups(slice: f64, _seed: u64) -> f64 {
    let (cat, files) = catalog(3);
    let mut i = 0;
    rate(slice, 1.0, || {
        i = (i + 1) % files.len();
        let found = cat.lookup_replicas("pcm", &files[i]).expect("file exists");
        assert_eq!(black_box(found).len(), 3);
    })
}

fn replica_selects(slice: f64, seed: u64) -> f64 {
    let (cat, files) = catalog(5);
    let candidates = cat.lookup_replicas("pcm", &files[0]).expect("file exists");
    let estimates: Vec<PathEstimate> = (0..candidates.len())
        .map(|i| PathEstimate {
            bandwidth: Some(1e7 * (1 + i) as f64),
            latency: Some(0.01 * (1 + i) as f64),
        })
        .collect();
    let mut selector = ReplicaSelector::new(Policy::BestBandwidth, seed);
    rate(slice, 1000.0, || {
        for _ in 0..1000 {
            black_box(selector.select(black_box(&candidates), black_box(&estimates)));
        }
    })
}

/// A subtree search with a compound filter over 1000 host entries.
fn directory_searches(slice: f64, _seed: u64) -> f64 {
    let mut dir = Directory::new();
    let base = Dn::parse("o=grid").expect("literal DN");
    for i in 0..1000 {
        let dn = base
            .child("ou", format!("site{}", i % 10))
            .child("hn", format!("host{i}"));
        dir.add_with_ancestors(
            Entry::new(dn)
                .with("objectclass", "GlobusHost")
                .with("cpus", (1 + i % 8).to_string())
                .with("site", format!("site{}", i % 10)),
        )
        .expect("distinct DNs");
    }
    let filter =
        Filter::parse("(&(objectclass=GlobusHost)(site=site3)(cpus=4))").expect("literal filter");
    rate(slice, 1.0, || {
        let hits = dir.search(&base, Scope::Subtree, black_box(&filter));
        assert!(!black_box(hits).is_empty());
    })
}

/// The §3 mapping: (dataset, variable, step range) → logical files.
fn metadata_selects(slice: f64, _seed: u64) -> f64 {
    let mut md = MetadataCatalog::new();
    for d in 0..20 {
        md.register(&synthetic_description(
            &format!("pcm_b06.{d}"),
            1200,
            12,
            100_000,
        ))
        .expect("distinct datasets");
    }
    let mut i = 0usize;
    rate(slice, 1.0, || {
        i += 1;
        let start = (i * 37) % 1000;
        let files = md
            .resolve(&format!("pcm_b06.{}", i % 20), "tas", (start, start + 120))
            .expect("dataset and variable exist");
        assert!(!black_box(files).is_empty());
    })
}

fn forecast_updates(slice: f64, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let series: Vec<f64> = (0..1000)
        .map(|_| 5e6 + rng.gen_range(0u64..5_000_000) as f64)
        .collect();
    rate(slice, series.len() as f64, || {
        let mut f = AdaptiveForecaster::standard();
        for &v in &series {
            f.observe(v);
        }
        black_box(f.predict());
    })
}

/// Cold stages through a disk cache far smaller than the file set, so
/// every request walks the miss → evict → tape-queue path.
fn hrm_stages(slice: f64, _seed: u64) -> f64 {
    const FILES: usize = 256;
    let names: Vec<String> = (0..FILES).map(|i| format!("pcm.tape.f{i:04}")).collect();
    let mut now = SimTime::ZERO;
    rate(slice, FILES as f64, || {
        let mut hrm = Hrm::new(TapeParams::default(), 16 << 30);
        for name in &names {
            hrm.catalog.register(name.clone(), 1 << 30);
        }
        for name in &names {
            // Far enough apart that the previous stage has landed.
            now += SimDuration::from_secs(3600);
            black_box(hrm.request_file(name, now).expect("file is registered"));
        }
    })
}

/// The symbolic file digest the integrity layer pins: logical MB per s.
fn storage_digest(slice: f64, _seed: u64) -> f64 {
    const SIZE: u64 = 256 << 20;
    rate(slice, SIZE as f64 / MB, || {
        black_box(file_digest_hex(black_box("pcm/bench.f000"), SIZE));
    })
}

// --- cdms ---------------------------------------------------------------

fn dataset(seed: u64) -> esg_cdms::Dataset {
    esg_cdms::generate(
        "bench",
        SynthParams {
            lat_points: 64,
            lon_points: 128,
            time_steps: 16,
            hours_per_step: 6.0,
            seed,
        },
    )
}

fn ncio_encode(slice: f64, seed: u64) -> f64 {
    let ds = dataset(seed);
    let mb = esg_cdms::to_bytes(&ds).len() as f64 / MB;
    rate(slice, mb, || {
        black_box(esg_cdms::to_bytes(black_box(&ds)));
    })
}

fn ncio_decode(slice: f64, seed: u64) -> f64 {
    let encoded = esg_cdms::to_bytes(&dataset(seed));
    rate(slice, encoded.len() as f64 / MB, || {
        black_box(esg_cdms::from_bytes(black_box(&encoded)).expect("bytes just encoded"));
    })
}

/// A regional, half-period subset of one variable; MB of output per s.
fn hyperslab_subset(slice: f64, seed: u64) -> f64 {
    let ds = dataset(seed);
    let var = ds.variable("tas").expect("synthetic datasets carry tas");
    let slab = Hyperslab::all(&ds, var)
        .narrow(0, 4, 8)
        .narrow(1, 16, 32)
        .narrow(2, 32, 64);
    let mb = (slab.count() * std::mem::size_of::<f32>()) as f64 / MB;
    rate(slice, mb, || {
        black_box(esg_cdms::extract(&ds, var, black_box(&slab)).expect("slab is in range"));
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn every_iso_metric_has_exactly_one_driver() {
        let listed: Vec<&str> = spec::PER_LAYER
            .iter()
            .map(|m| m.name)
            .filter(|n| n.contains(".iso."))
            .collect();
        let mut driven: Vec<&str> = DRIVERS.iter().map(|(name, _)| *name).collect();
        assert_eq!(driven.len(), listed.len());
        driven.sort_unstable();
        let mut listed_sorted = listed.clone();
        listed_sorted.sort_unstable();
        assert_eq!(driven, listed_sorted);
    }

    #[test]
    fn every_driver_runs_and_reports_a_positive_rate() {
        for (name, v) in run_all(0.0, 17) {
            assert!(v.is_finite() && v > 0.0, "{name} = {v}");
        }
    }
}
