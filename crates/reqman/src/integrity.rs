//! End-to-end integrity: verify delivered blocks, plan repairs, quarantine
//! bad replicas.
//!
//! The request manager's reliability plugin (§7) guarantees *delivery* —
//! every byte arrives. This layer guarantees *correctness*: when a file's
//! bytes have all landed, the client recomputes per-block digests of what
//! it received and compares them against the expected digests pinned in
//! the replica catalog. Any mismatch triggers a block-granular ERET repair
//! (re-fetching only the corrupt byte ranges, preferring an alternate
//! replica), bounded rounds of which escalate to a whole-file re-transfer.
//! A replica that repeatedly serves corrupt blocks is *quarantined*:
//! marked suspect in the catalog and demoted by selection until a
//! background re-verification pass rehabilitates it. Quarantine is
//! deliberately distinct from the circuit breakers — a breaker says "this
//! host is unreachable", quarantine says "this host answers fine but its
//! data is bad".
//!
//! Because the simulator moves flows rather than bytes, "what the client
//! received" is reconstructed symbolically from the *segment log*: every
//! banked byte range records which host served it, over which interval,
//! and under which transfer sequence number. A block's received digest is
//! its pristine digest unless a contributing segment was tainted — by an
//! at-rest flip in the serving site's [`ObjectStore`] present when the
//! segment was read, or by an active wire-corruption fault sampled per
//! `(key, transfer, block)` — with later segments overwriting earlier ones
//! (last-writer-wins), exactly as overlapping writes to a local file would.
//!
//! `verify` is the request manager's side of it: it checks a delivery
//! against the catalog, charges mismatches to the serving hosts and
//! quarantines the repeat offenders; the file's lifecycle decides between
//! completion, repair and re-fetch. A delivery no segment tainted received
//! the pristine blocks, so its check is one compare against the content
//! key's pristine file digest, hashed once per key (`IntegrityManager`'s
//! `check`); only a tainted delivery, or one whose catalog digest is not
//! the pristine one, replays its segments.

use crate::lifecycle::{FileLife, Verdict};
use crate::manager::RmWorld;
use esg_gridftp::RangeSet;
use esg_netlogger::{LogEvent, TraceCtx};
use esg_simnet::{NodeId, Sim, SimDuration, SimTime};
use esg_storage::{
    block_count, blocks_overlapping, corrupt_block_digest, pristine_block_digest,
    pristine_file_digest, stable_hash, ObjectStore, BLOCK_SIZE,
};
use std::collections::{BTreeSet, HashMap};

/// One banked byte range and its provenance: who served it, when, and
/// under which transfer sequence number (the wire-corruption sampling key).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegRecord {
    pub host: String,
    pub node: NodeId,
    /// Half-open byte range `[start, end)` within the file.
    pub start: u64,
    pub end: u64,
    /// Interval over which the segment's bytes were in flight.
    pub t0: SimTime,
    pub t1: SimTime,
    /// Manager-global transfer sequence number.
    pub seq: u64,
}

/// A segment with its integrity context resolved: whether a wire-corruption
/// fault overlapped its flight window, and which at-rest flips were present
/// at the serving site when it was read.
#[derive(Debug, Clone)]
pub struct SegmentView {
    pub host: String,
    pub start: u64,
    pub end: u64,
    pub seq: u64,
    /// A `WireCorrupt` fault at the serving node overlapped `[t0, t1]`.
    pub wire_active: bool,
    /// `(block, nonce)` flips recorded in the site's store by `t1`.
    pub at_rest: Vec<(u64, u64)>,
}

/// Result of verifying a file's received blocks against expectations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VerifyReport {
    /// Hex digest over the received per-block digests.
    pub received_hex: String,
    /// `(block, blamed host)` for every mismatching block, sorted by block.
    pub corrupt: Vec<(u64, String)>,
}

impl VerifyReport {
    pub fn is_clean(&self) -> bool {
        self.corrupt.is_empty()
    }

    /// Distinct blamed hosts, sorted (deterministic event order).
    pub fn blamed_hosts(&self) -> Vec<String> {
        let set: BTreeSet<&String> = self.corrupt.iter().map(|(_, h)| h).collect();
        set.into_iter().cloned().collect()
    }

    /// Corrupt block indices, sorted.
    pub fn corrupt_blocks(&self) -> Vec<u64> {
        self.corrupt.iter().map(|&(b, _)| b).collect()
    }
}

/// Reconstruct the received per-block digests of a file from its segment
/// log and compare against the pristine expectation for `key`.
///
/// Segments are replayed newest-first with a coverage tracker so a byte
/// range overwritten by a later segment cannot taint the result
/// (last-writer-wins). A contributing segment corrupts a block if the
/// serving site held an at-rest flip of that block when the segment was
/// read, or if an active wire fault's deterministic sampler
/// (`stable_hash(key, seq, block) % wire_denom == 0`) hit it.
pub fn verify_blocks(
    key: &str,
    size: u64,
    wire_denom: u64,
    segments: &[SegmentView],
) -> VerifyReport {
    let n = block_count(size) as usize;
    let expected: Vec<[u8; 32]> = (0..n as u64)
        .map(|b| pristine_block_digest(key, b))
        .collect();
    let mut received = expected.clone();
    let mut blame: Vec<Option<&str>> = vec![None; n];
    let mut covered = RangeSet::new();
    for seg in segments.iter().rev() {
        let (s0, e0) = (seg.start, seg.end.min(size));
        for b in blocks_overlapping(s0, e0) {
            let bs = (b * BLOCK_SIZE).max(s0);
            let be = ((b + 1) * BLOCK_SIZE).min(e0);
            if bs >= be || covered.contains(bs, be) {
                continue; // fully overwritten by a later segment
            }
            let at_rest = seg
                .at_rest
                .iter()
                .find(|&&(blk, _)| blk == b)
                .map(|&(_, nonce)| nonce);
            let wire = wire_hit(key, seg, b, wire_denom);
            if let Some(nonce) = at_rest {
                received[b as usize] = corrupt_block_digest(key, b, nonce);
                blame[b as usize] = Some(&seg.host);
            }
            if wire {
                let nonce = stable_hash(key, seg.seq, b) | 1;
                received[b as usize] = corrupt_block_digest(key, b, nonce);
                blame[b as usize] = Some(&seg.host);
            }
        }
        covered.insert(s0, e0);
    }
    let corrupt = esg_gridftp::mismatched_blocks(&expected, &received)
        .into_iter()
        .map(|b| (b, blame[b as usize].unwrap_or_default().to_string()))
        .collect();
    VerifyReport {
        received_hex: esg_storage::file_digest_hex_of(&received),
        corrupt,
    }
}

/// Whether an active wire fault's sampler hits block `b` of `seg`.
fn wire_hit(key: &str, seg: &SegmentView, b: u64, wire_denom: u64) -> bool {
    seg.wire_active && wire_denom > 0 && stable_hash(key, seg.seq, b).is_multiple_of(wire_denom)
}

/// Integrity policy and quarantine bookkeeping, owned by the request
/// manager.
#[derive(Debug)]
pub struct IntegrityManager {
    /// Distinct verify rounds blaming a host before it is quarantined.
    pub quarantine_threshold: u32,
    /// Block-granular ERET repair rounds before escalating to a whole-file
    /// re-transfer.
    pub max_repair_rounds: u32,
    /// Delay before a quarantined replica is re-verified and rehabilitated.
    pub reverify_after: SimDuration,
    /// A wire fault corrupts a block when
    /// `stable_hash(key, seq, block) % wire_rate_denom == 0`; larger means
    /// sparser corruption, zero disables wire sampling.
    pub wire_rate_denom: u64,
    /// At-rest corruption for plain disk sites (tape sites record theirs in
    /// their HRM's store).
    pub stores: HashMap<String, ObjectStore>,
    incidents: HashMap<(String, String), u32>,
    quarantined: BTreeSet<(String, String)>,
    /// Content key → the size and pristine file digest last hashed for it.
    pristine: HashMap<Box<str>, (u64, [u8; 32])>,
}

impl Default for IntegrityManager {
    fn default() -> Self {
        IntegrityManager {
            quarantine_threshold: 3,
            max_repair_rounds: 3,
            reverify_after: SimDuration::from_secs(300),
            wire_rate_denom: 16,
            stores: HashMap::new(),
            incidents: HashMap::new(),
            quarantined: BTreeSet::new(),
            pristine: HashMap::new(),
        }
    }
}

impl IntegrityManager {
    /// Check one delivery of content key `key` (`collection/name`) against
    /// the catalog's `expected_hex`: the received file digest if it matches,
    /// else the report of what did not.
    ///
    /// A delivery with no at-rest flip inside any segment's span and no
    /// sampled wire hit in any wire-active segment received the pristine
    /// blocks, so it is clean exactly when the key's pristine file digest
    /// (hashed on the key's first use at this size, then kept) is the
    /// catalog's. Any other delivery replays its segments through
    /// [`verify_blocks`].
    pub(crate) fn check(
        &mut self,
        key: &str,
        size: u64,
        expected_hex: &str,
        segments: &[SegmentView],
    ) -> Result<String, VerifyReport> {
        let denom = self.wire_rate_denom;
        let tainted = segments.iter().any(|seg| {
            let mut span = blocks_overlapping(seg.start, seg.end.min(size));
            seg.at_rest.iter().any(|(b, _)| span.contains(b))
                || span.any(|b| wire_hit(key, seg, b, denom))
        });
        if !tainted {
            let hex = esg_gsi::hex(&self.pristine_digest(key, size));
            if hex == expected_hex {
                return Ok(hex);
            }
        }
        let report = verify_blocks(key, size, denom, segments);
        if report.is_clean() && report.received_hex == expected_hex {
            return Ok(report.received_hex);
        }
        Err(report)
    }

    fn pristine_digest(&mut self, key: &str, size: u64) -> [u8; 32] {
        match self.pristine.get(key) {
            Some(&(sz, digest)) if sz == size => digest,
            _ => {
                let digest = pristine_file_digest(key, size);
                self.pristine.insert(key.into(), (size, digest));
                digest
            }
        }
    }

    /// Count one corrupt-serving incident against `(collection, host)` and
    /// return the new total.
    pub fn record_incident(&mut self, collection: &str, host: &str) -> u32 {
        let c = self
            .incidents
            .entry((collection.to_string(), host.to_string()))
            .or_insert(0);
        *c += 1;
        *c
    }

    #[cfg(test)]
    pub fn incident_count(&self, collection: &str, host: &str) -> u32 {
        self.incidents
            .get(&(collection.to_string(), host.to_string()))
            .copied()
            .unwrap_or(0)
    }

    /// Whether the incident count warrants quarantine and the pair is not
    /// already quarantined; if so, records the quarantine. The caller owns
    /// the catalog mark, logging and rehabilitation scheduling.
    pub fn quarantine_if_due(&mut self, collection: &str, host: &str) -> bool {
        let key = (collection.to_string(), host.to_string());
        if self.incidents.get(&key).copied().unwrap_or(0) < self.quarantine_threshold
            || self.quarantined.contains(&key)
        {
            return false;
        }
        self.quarantined.insert(key);
        true
    }

    #[cfg(test)]
    pub fn is_quarantined(&self, collection: &str, host: &str) -> bool {
        self.quarantined
            .contains(&(collection.to_string(), host.to_string()))
    }

    /// Lift a quarantine (background re-verification passed): clears the
    /// incident counter. Returns false if the pair was not quarantined.
    pub fn rehabilitate(&mut self, collection: &str, host: &str) -> bool {
        let key = (collection.to_string(), host.to_string());
        if !self.quarantined.remove(&key) {
            return false;
        }
        self.incidents.remove(&key);
        true
    }

    /// Export the current incident/quarantine state into a metrics
    /// registry (gauges, since both can shrink on rehabilitation).
    pub fn export_metrics(&self, reg: &mut esg_netlogger::MetricsRegistry) {
        let incidents: u32 = self.incidents.values().sum();
        reg.gauge_set("rm.integrity.open_incidents", incidents as f64);
        reg.gauge_set(
            "rm.integrity.quarantined_replicas",
            self.quarantined.len() as f64,
        );
    }
}

/// The request manager's verification of one file (its driver's answer to
/// `Effect::Verify`): the received blocks against the catalog's digest.
/// Each segment is replayed with the wire faults that overlapped it in
/// flight (the simulator's to answer) and the at-rest flips of the site that
/// served it. Mismatches are logged and charged to the blamed hosts here, in
/// sorted host order — a host that keeps failing is quarantined and
/// re-verified later; what to do about the file is the lifecycle's call.
pub(crate) fn verify<W: RmWorld>(sim: &mut Sim<W>, file: &FileLife, ctx: &TraceCtx) -> Verdict {
    let wire: Vec<bool> = file
        .segments
        .iter()
        .map(|sg| sim.wire_corrupt_during(sg.node, sg.t0, sg.t1))
        .collect();
    let now = sim.now();
    let rm = sim.world.reqman();
    let (collection, name, size) = (&file.status.collection, &file.status.name, file.status.size);
    let Some(expected_hex) = rm.catalog.file_digest(collection, name) else {
        return Verdict::Trusted;
    };
    let views: Vec<SegmentView> = file
        .segments
        .iter()
        .zip(&wire)
        .map(|(sg, &wire_active)| {
            let span = blocks_overlapping(sg.start, sg.end.min(size));
            SegmentView {
                host: sg.host.clone(),
                start: sg.start,
                end: sg.end,
                seq: sg.seq,
                wire_active,
                at_rest: rm
                    .at_rest_flips(&sg.host, name, sg.t1)
                    .into_iter()
                    .filter(|(b, _)| span.contains(b))
                    .collect(),
            }
        })
        .collect();
    let key = format!("{collection}/{name}");
    let report = match rm.integrity.check(&key, size, expected_hex, &views) {
        Ok(hex) => return Verdict::Clean(hex),
        Err(report) => report,
    };
    for (b, h) in &report.corrupt {
        rm.metrics.counter_add("rm.integrity.block_mismatches", 1);
        rm.log.emit(
            ctx,
            LogEvent::new(now, "integrity.block.mismatch")
                .field("block", *b)
                .field("host", rm.names.get(h)),
        );
    }
    let blamed = report.blamed_hosts();
    let mut quarantined = Vec::new();
    for host in blamed.iter().filter(|h| !h.is_empty()) {
        let count = rm.integrity.record_incident(collection, host);
        if rm.integrity.quarantine_if_due(collection, host) {
            let _ = rm.catalog.set_host_suspect(collection, host, true);
            rm.metrics.counter_add("rm.integrity.quarantines", 1);
            rm.log.emit(
                ctx,
                LogEvent::new(now, "integrity.replica.quarantine")
                    .field("collection", collection.clone())
                    .field("host", rm.names.get(host))
                    .field("incidents", count as u64),
            );
            quarantined.push((collection.clone(), host.clone()));
        }
    }
    let reverify_after = rm.integrity.reverify_after;
    for (c, h) in quarantined {
        sim.schedule(reverify_after, move |s| rehabilitate_replica(s, c, h));
    }
    Verdict::Corrupt {
        blocks: report.corrupt_blocks(),
        blamed,
    }
}

/// Background re-verification of a quarantined replica: the site restores
/// its copies from an authoritative source, the catalog mark is cleared,
/// and selection readmits the host.
fn rehabilitate_replica<W: RmWorld>(sim: &mut Sim<W>, collection: String, host: String) {
    let now = sim.now();
    let rm = sim.world.reqman();
    if !rm.integrity.rehabilitate(&collection, &host) {
        return;
    }
    if let Some(hrm) = rm.hrms.get_mut(&host) {
        hrm.store.scrub();
    }
    if let Some(store) = rm.integrity.stores.get_mut(&host) {
        store.scrub();
    }
    let _ = rm.catalog.set_host_suspect(&collection, &host, false);
    rm.metrics.counter_add("rm.integrity.rehabilitations", 1);
    rm.log.emit(
        &TraceCtx::system(),
        LogEvent::new(now, "integrity.replica.rehabilitated")
            .field("collection", collection)
            .field("host", rm.names.get(&host)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(host: &str, start: u64, end: u64, seq: u64) -> SegmentView {
        SegmentView {
            host: host.into(),
            start,
            end,
            seq,
            wire_active: false,
            at_rest: Vec::new(),
        }
    }

    #[test]
    fn clean_segments_verify_clean() {
        let size = 3 * BLOCK_SIZE + 100;
        let r = verify_blocks("c/f", size, 16, &[seg("a", 0, size, 1)]);
        assert!(r.is_clean());
        assert_eq!(r.received_hex, esg_storage::file_digest_hex("c/f", size));
    }

    #[test]
    fn at_rest_flip_corrupts_exactly_its_block() {
        let size = 4 * BLOCK_SIZE;
        let mut s = seg("a", 0, size, 1);
        s.at_rest = vec![(2, 99)];
        let r = verify_blocks("c/f", size, 0, &[s]);
        assert_eq!(r.corrupt, vec![(2, "a".to_string())]);
        assert_ne!(r.received_hex, esg_storage::file_digest_hex("c/f", size));
    }

    #[test]
    fn later_segment_overwrites_earlier_corruption() {
        let size = 4 * BLOCK_SIZE;
        let mut bad = seg("a", 0, size, 1);
        bad.at_rest = vec![(1, 7)];
        // A repair segment from host b re-delivered block 1 afterwards.
        let repair = seg("b", BLOCK_SIZE, 2 * BLOCK_SIZE, 2);
        let r = verify_blocks("c/f", size, 0, &[bad.clone(), repair]);
        assert!(r.is_clean(), "repaired block must verify clean");
        // Without the repair it does not.
        assert!(!verify_blocks("c/f", size, 0, &[bad]).is_clean());
    }

    #[test]
    fn partial_overwrite_does_not_clear_the_rest_of_the_block() {
        let size = 2 * BLOCK_SIZE;
        let mut bad = seg("a", 0, size, 1);
        bad.at_rest = vec![(0, 7)];
        // Only half of block 0 was re-delivered: the corrupt half of the
        // original segment still contributes, so the block stays corrupt.
        let partial = seg("b", 0, BLOCK_SIZE / 2, 2);
        let r = verify_blocks("c/f", size, 0, &[bad, partial]);
        assert_eq!(r.corrupt_blocks(), vec![0]);
    }

    #[test]
    fn wire_fault_samples_deterministically() {
        let size = 64 * BLOCK_SIZE;
        let mut s = seg("a", 0, size, 5);
        s.wire_active = true;
        let r1 = verify_blocks("c/f", size, 8, &[s.clone()]);
        let r2 = verify_blocks("c/f", size, 8, &[s.clone()]);
        assert_eq!(r1.corrupt, r2.corrupt, "same seed, same damage");
        assert!(
            !r1.corrupt.is_empty() && r1.corrupt.len() < 64,
            "1/8 sampling over 64 blocks should hit some but not all: {}",
            r1.corrupt.len()
        );
        // A retry (different seq) samples a different subset.
        let mut s2 = s.clone();
        s2.seq = 6;
        let r3 = verify_blocks("c/f", size, 8, &[s2]);
        assert_ne!(r1.corrupt, r3.corrupt);
        // Denominator zero disables wire corruption entirely.
        assert!(verify_blocks("c/f", size, 0, &[s]).is_clean());
    }

    #[test]
    fn blame_lands_on_the_serving_host() {
        let size = 4 * BLOCK_SIZE;
        let mut a = seg("alpha", 0, 2 * BLOCK_SIZE, 1);
        a.at_rest = vec![(0, 3)];
        let mut b = seg("beta", 2 * BLOCK_SIZE, size, 2);
        b.at_rest = vec![(3, 4)];
        let r = verify_blocks("c/f", size, 0, &[a, b]);
        assert_eq!(
            r.corrupt,
            vec![(0, "alpha".to_string()), (3, "beta".to_string())]
        );
        assert_eq!(r.blamed_hosts(), vec!["alpha", "beta"]);
    }

    #[test]
    fn zero_size_file_is_trivially_clean() {
        let r = verify_blocks("c/empty", 0, 16, &[]);
        assert!(r.is_clean());
        assert_eq!(r.received_hex, esg_storage::file_digest_hex("c/empty", 0));
    }

    /// `verify_blocks` as it stood before `check` could skip it: the
    /// oracle of the differential below.
    fn verify_blocks_replayed(
        key: &str,
        size: u64,
        wire_denom: u64,
        segments: &[SegmentView],
    ) -> VerifyReport {
        let n = block_count(size) as usize;
        let expected: Vec<[u8; 32]> = (0..n as u64)
            .map(|b| pristine_block_digest(key, b))
            .collect();
        let mut received = expected.clone();
        let mut blame: Vec<Option<&str>> = vec![None; n];
        let mut covered = RangeSet::new();
        for seg in segments.iter().rev() {
            let (s0, e0) = (seg.start, seg.end.min(size));
            for b in blocks_overlapping(s0, e0) {
                let bs = (b * BLOCK_SIZE).max(s0);
                let be = ((b + 1) * BLOCK_SIZE).min(e0);
                if bs >= be || covered.contains(bs, be) {
                    continue;
                }
                let at_rest = seg
                    .at_rest
                    .iter()
                    .find(|&&(blk, _)| blk == b)
                    .map(|&(_, nonce)| nonce);
                let wire = seg.wire_active
                    && wire_denom > 0
                    && stable_hash(key, seg.seq, b).is_multiple_of(wire_denom);
                if let Some(nonce) = at_rest {
                    received[b as usize] = corrupt_block_digest(key, b, nonce);
                    blame[b as usize] = Some(&seg.host);
                }
                if wire {
                    let nonce = stable_hash(key, seg.seq, b) | 1;
                    received[b as usize] = corrupt_block_digest(key, b, nonce);
                    blame[b as usize] = Some(&seg.host);
                }
            }
            covered.insert(s0, e0);
        }
        let corrupt = esg_gridftp::mismatched_blocks(&expected, &received)
            .into_iter()
            .map(|b| (b, blame[b as usize].unwrap_or_default().to_string()))
            .collect();
        VerifyReport {
            received_hex: esg_storage::file_digest_hex_of(&received),
            corrupt,
        }
    }

    /// The comparison `verify` made of the replay against the catalog.
    fn replayed(
        key: &str,
        size: u64,
        wire_denom: u64,
        expected_hex: &str,
        segments: &[SegmentView],
    ) -> Result<String, VerifyReport> {
        let report = verify_blocks_replayed(key, size, wire_denom, segments);
        if report.is_clean() && report.received_hex == expected_hex {
            return Ok(report.received_hex);
        }
        Err(report)
    }

    /// `check`, with its pristine-digest memo cold, warmed by a delivery of
    /// the same key at another size, and warmed across every case, returns
    /// what replaying every segment returns: the hex, the corrupt blocks
    /// and their blame, in order. The segments overlap and cover files
    /// partly, flips fall inside and outside their spans, wire faults
    /// sample at several rates, files are empty, one block or a few, and
    /// the catalog's digest is sometimes another size's or another key's.
    #[test]
    fn check_matches_the_segment_replay() {
        const SIZES: [u64; 8] = [
            0,
            1,
            BLOCK_SIZE - 1,
            BLOCK_SIZE,
            BLOCK_SIZE + 1,
            3 * BLOCK_SIZE,
            3 * BLOCK_SIZE + 17,
            6 * BLOCK_SIZE - 5,
        ];
        const KEYS: [&str; 3] = ["c/f", "c/g", "d/f"];
        let mut rng = proptest::TestRng::seed_from_u64(0x5eed);
        let mut across = IntegrityManager::default();
        // (untainted clean, untainted but not the catalog's, tainted by
        // wire alone, tainted at rest)
        let mut seen = [0u32; 4];
        for case in 0..3000 {
            let key = KEYS[rng.below(0, KEYS.len() - 1)];
            let size = SIZES[rng.below(0, SIZES.len() - 1)];
            let other_size = SIZES[rng.below(0, SIZES.len() - 1)];
            let denom = [0, 1, 2, 3, 8, 16][rng.below(0, 5)];
            let reach = size + BLOCK_SIZE;
            let segments: Vec<SegmentView> = (0..rng.below(0, 4))
                .map(|_| {
                    let start = match rng.below(0, 2) {
                        0 => 0,
                        _ => rng.below(0, reach as usize) as u64,
                    };
                    let end = match rng.below(0, 2) {
                        0 => size,
                        _ => start + rng.below(0, reach as usize) as u64,
                    };
                    let mut sg = seg(
                        ["a", "b", "c"][rng.below(0, 2)],
                        start,
                        end,
                        rng.below(1, 40) as u64,
                    );
                    sg.wire_active = rng.below(0, 3) == 0;
                    if rng.below(0, 3) == 0 {
                        let blocks = block_count(size) as usize + 2;
                        sg.at_rest = (0..rng.below(1, 2))
                            .map(|_| (rng.below(0, blocks) as u64, rng.below(1, 9) as u64))
                            .collect();
                    }
                    sg
                })
                .collect();
            let expected = match rng.below(0, 5) {
                0 => esg_storage::file_digest_hex(key, other_size),
                1 => esg_storage::file_digest_hex(KEYS[rng.below(0, KEYS.len() - 1)], size),
                _ => esg_storage::file_digest_hex(key, size),
            };
            let want = replayed(key, size, denom, &expected, &segments);

            let mut cold = IntegrityManager {
                wire_rate_denom: denom,
                ..Default::default()
            };
            assert_eq!(
                cold.check(key, size, &expected, &segments),
                want,
                "cold, case {case}"
            );
            let mut warm = IntegrityManager {
                wire_rate_denom: denom,
                ..Default::default()
            };
            let other_hex = esg_storage::file_digest_hex(key, other_size);
            assert!(warm.check(key, other_size, &other_hex, &[]).is_ok());
            assert_eq!(
                warm.check(key, size, &expected, &segments),
                want,
                "warmed, case {case}"
            );
            assert_eq!(
                warm.check(key, size, &expected, &segments),
                want,
                "warm, case {case}"
            );
            across.wire_rate_denom = denom;
            assert_eq!(
                across.check(key, size, &expected, &segments),
                want,
                "across, case {case}"
            );

            let in_span = |sg: &SegmentView| {
                let span = blocks_overlapping(sg.start, sg.end.min(size));
                sg.at_rest.iter().any(|(b, _)| span.contains(b))
            };
            let wire_only = denom > 0 && segments.iter().any(|sg| sg.wire_active);
            let class = if segments.iter().any(in_span) {
                3
            } else if want.is_err()
                && wire_only
                && expected == esg_storage::file_digest_hex(key, size)
            {
                2
            } else if want.is_ok() {
                0
            } else {
                1
            };
            seen[class] += 1;
        }
        assert!(seen.iter().all(|&n| n > 50), "every class drawn: {seen:?}");
    }

    #[test]
    fn quarantine_threshold_and_rehabilitation() {
        let mut im = IntegrityManager {
            quarantine_threshold: 2,
            ..Default::default()
        };
        assert_eq!(im.record_incident("c", "h"), 1);
        assert!(!im.quarantine_if_due("c", "h"));
        assert_eq!(im.record_incident("c", "h"), 2);
        assert!(im.quarantine_if_due("c", "h"));
        assert!(!im.quarantine_if_due("c", "h"), "already quarantined");
        assert!(im.is_quarantined("c", "h"));
        // Other collections/hosts are independent.
        assert!(!im.is_quarantined("c", "other"));
        assert!(im.rehabilitate("c", "h"));
        assert!(!im.rehabilitate("c", "h"));
        assert!(!im.is_quarantined("c", "h"));
        assert_eq!(im.incident_count("c", "h"), 0, "counter reset");
    }
}
