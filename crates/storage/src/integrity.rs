//! Block-level data integrity: digests at rest and corruption modeling.
//!
//! The simulator moves *flows*, not bytes, so file content is symbolic: a
//! logical file is identified by a content key (`collection/name`) and
//! every 1 MiB block of it has a well-defined pristine digest derived from
//! that key. A corruption event replaces a block's digest with a
//! nonce-salted "flipped" digest — detectable (it differs from the
//! pristine digest) and attributable (deterministic per nonce), exactly
//! the properties checksum verification gives a real transfer pipeline.
//!
//! [`ObjectStore`] records which blocks of which files are corrupt at one
//! site, with the sim time the corruption landed, so a verifier can ask
//! "was this block already bad when that transfer read it?" — corruption
//! that arrives *after* a segment was served must not taint it.

use esg_gsi::{hex, Sha256};
use esg_simnet::SimTime;
use std::collections::HashMap;

/// Digest block size: 1 MiB, matching GridFTP's typical EBLOCK sizing.
pub const BLOCK_SIZE: u64 = 1 << 20;

/// Number of digest blocks for a file of `size` bytes.
pub fn block_count(size: u64) -> u64 {
    size.div_ceil(BLOCK_SIZE)
}

/// Indices of the blocks overlapping the byte range `[start, end)`.
pub fn blocks_overlapping(start: u64, end: u64) -> std::ops::Range<u64> {
    if start >= end {
        return 0..0;
    }
    (start / BLOCK_SIZE)..end.div_ceil(BLOCK_SIZE)
}

/// The digest of pristine block `idx` of the file with content key `key`.
pub fn pristine_block_digest(key: &str, idx: u64) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"esg-block\0");
    h.update(key.as_bytes());
    h.update(&idx.to_le_bytes());
    h.finalize()
}

/// The digest of block `idx` after a corruption event salted by `nonce`.
/// Distinct from the pristine digest for every nonce, and distinct across
/// nonces, so repeated corruption of the same block stays observable.
pub fn corrupt_block_digest(key: &str, idx: u64, nonce: u64) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"esg-flip\0");
    h.update(key.as_bytes());
    h.update(&idx.to_le_bytes());
    h.update(&nonce.to_le_bytes());
    h.finalize()
}

/// Whole-file digest (hex) over a sequence of per-block digests — what the
/// replica catalog pins for a logical file and what a receiver recomputes.
pub fn file_digest_hex_of(blocks: &[[u8; 32]]) -> String {
    let mut h = Sha256::new();
    for b in blocks {
        h.update(b);
    }
    hex(&h.finalize())
}

/// Whole-file digest of the pristine content for `key`/`size`: the digest
/// over its pristine block digests, streamed without collecting them.
pub fn pristine_file_digest(key: &str, size: u64) -> [u8; 32] {
    let mut h = Sha256::new();
    for i in 0..block_count(size) {
        h.update(&pristine_block_digest(key, i));
    }
    h.finalize()
}

/// Whole-file digest (hex) of the pristine content for `key`/`size`.
pub fn file_digest_hex(key: &str, size: u64) -> String {
    hex(&pristine_file_digest(key, size))
}

/// Deterministic 64-bit mix used to sample corruption events (which block
/// a tape error hits, whether a wire fault flips a given block). FNV-1a
/// over the key bytes, then the two parameters, then a splitmix finisher;
/// seed-stable and independent of any RNG stream.
pub fn stable_hash(key: &str, a: u64, b: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in key
        .as_bytes()
        .iter()
        .copied()
        .chain(a.to_le_bytes())
        .chain(b.to_le_bytes())
    {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Per-site record of silently corrupted blocks: content key → block index
/// → (nonce, time the corruption landed).
#[derive(Debug, Default, Clone)]
pub struct ObjectStore {
    flips: HashMap<String, HashMap<u64, (u64, SimTime)>>,
}

impl ObjectStore {
    pub fn new() -> Self {
        ObjectStore::default()
    }

    /// Record a corruption of `block` of `key` at time `at`. The first
    /// flip of a block wins: re-corrupting an already-bad block does not
    /// rewrite history.
    pub fn flip(&mut self, key: &str, block: u64, nonce: u64, at: SimTime) {
        self.flips
            .entry(key.to_string())
            .or_default()
            .entry(block)
            .or_insert((nonce, at));
    }

    /// All corruptions of `key` landed at or before `by`, as sorted
    /// `(block, nonce)` pairs.
    pub fn flips_at(&self, key: &str, by: SimTime) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = self
            .flips
            .get(key)
            .map(|m| {
                m.iter()
                    .filter(|&(_, &(_, at))| at <= by)
                    .map(|(&b, &(nonce, _))| (b, nonce))
                    .collect()
            })
            .unwrap_or_default();
        out.sort_unstable();
        out
    }

    /// Sorted indices of currently-corrupt blocks of `key`.
    pub fn corrupt_blocks(&self, key: &str) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .flips
            .get(key)
            .map(|m| m.keys().copied().collect())
            .unwrap_or_default();
        out.sort_unstable();
        out
    }

    /// Whether the store holds any corruption at all.
    pub fn is_clean(&self) -> bool {
        self.flips.values().all(|m| m.is_empty())
    }

    /// Drop every recorded corruption (the site restored its copies from
    /// an authoritative source during re-verification).
    pub fn scrub(&mut self) {
        self.flips.clear();
    }

    /// Drop corruption records for one file.
    pub fn scrub_file(&mut self, key: &str) {
        self.flips.remove(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esg_gsi::sha256;

    #[test]
    fn block_geometry() {
        assert_eq!(block_count(0), 0);
        assert_eq!(block_count(1), 1);
        assert_eq!(block_count(BLOCK_SIZE), 1);
        assert_eq!(block_count(BLOCK_SIZE + 1), 2);
        assert_eq!(blocks_overlapping(0, 0), 0..0);
        assert_eq!(blocks_overlapping(0, 1), 0..1);
        assert_eq!(blocks_overlapping(BLOCK_SIZE - 1, BLOCK_SIZE + 1), 0..2);
    }

    #[test]
    fn digests_distinguish_content_and_corruption() {
        let p = pristine_block_digest("c/f.nc", 0);
        assert_eq!(p, pristine_block_digest("c/f.nc", 0));
        assert_ne!(p, pristine_block_digest("c/f.nc", 1));
        assert_ne!(p, pristine_block_digest("c/g.nc", 0));
        let c1 = corrupt_block_digest("c/f.nc", 0, 1);
        let c2 = corrupt_block_digest("c/f.nc", 0, 2);
        assert_ne!(p, c1);
        assert_ne!(c1, c2);
    }

    #[test]
    fn file_digest_matches_block_concatenation() {
        let key = "co2/jan.nc";
        let size = 2 * BLOCK_SIZE + 5;
        let blocks: Vec<[u8; 32]> = (0..block_count(size))
            .map(|i| pristine_block_digest(key, i))
            .collect();
        assert_eq!(file_digest_hex(key, size), file_digest_hex_of(&blocks));
        // Flipping one block changes the file digest.
        let mut bad = blocks.clone();
        bad[1] = corrupt_block_digest(key, 1, 99);
        assert_ne!(file_digest_hex_of(&bad), file_digest_hex_of(&blocks));
        // Empty file digest is the digest of nothing, stable.
        assert_eq!(file_digest_hex("x", 0), hex(&sha256(b"")));
    }

    #[test]
    fn stable_hash_is_stable_and_spreads() {
        assert_eq!(stable_hash("k", 1, 2), stable_hash("k", 1, 2));
        assert_ne!(stable_hash("k", 1, 2), stable_hash("k", 2, 1));
        assert_ne!(stable_hash("k", 1, 2), stable_hash("j", 1, 2));
    }

    #[test]
    fn object_store_time_gating() {
        let mut s = ObjectStore::new();
        let t5 = SimTime::from_secs(5);
        s.flip("f", 3, 42, t5);
        assert!(s.flips_at("f", SimTime::from_secs(4)).is_empty());
        assert_eq!(s.flips_at("f", t5), vec![(3, 42)]);
        assert_eq!(s.flips_at("f", SimTime::from_secs(9)), vec![(3, 42)]);
        assert!(s.flips_at("g", SimTime::from_secs(9)).is_empty());
        // First flip wins.
        s.flip("f", 3, 77, SimTime::from_secs(1));
        assert_eq!(s.flips_at("f", SimTime::from_secs(9)), vec![(3, 42)]);
        s.flip("f", 1, 7, SimTime::from_secs(6));
        assert_eq!(
            s.flips_at("f", SimTime::from_secs(9)),
            vec![(1, 7), (3, 42)]
        );
        assert_eq!(s.flips_at("f", t5), vec![(3, 42)]);
        assert_eq!(s.corrupt_blocks("f"), vec![1, 3]);
        assert!(!s.is_clean());
        s.scrub_file("f");
        assert!(s.is_clean());
        s.flip("f", 0, 1, t5);
        s.scrub();
        assert!(s.is_clean());
    }
}
