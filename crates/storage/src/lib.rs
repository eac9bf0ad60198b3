//! # esg-storage — storage substrate models
//!
//! The ESG prototype spans heterogeneous storage: workstation disks behind
//! software RAID, per-site disk caches, and HPSS tape archives fronted by
//! LBNL's Hierarchical Resource Manager. This crate models each:
//!
//! * [`disk`] — spindle + RAID-0/1 array bandwidth.
//! * [`tape`] — tape library with limited drives, mount/seek latency and
//!   FIFO queueing.
//! * [`cache`] — per-site LRU disk cache with pinning for active transfers.
//! * [`hrm`] — the HRM: stages catalogued tape files into the cache and
//!   reports when they will be ready ("ready at T" vs "cache hit").
//! * [`integrity`] — per-block SHA-256 content digests, whole-file
//!   digests, and the per-site [`ObjectStore`] recording silently
//!   corrupted blocks (tape read errors, injected bit-flips).
//!
//! Substitution note (DESIGN.md): the paper used a real HPSS installation;
//! the RM ↔ HRM interaction depends only on staging latency, queueing and
//! cache behaviour, which these models supply deterministically.

pub mod cache;
pub mod disk;
pub mod hrm;
pub mod integrity;
pub mod tape;

pub use cache::{CacheError, DiskCache};
pub use disk::{DiskModel, RaidArray, RaidLevel};
pub use hrm::{Hrm, HrmError, StageOutcome, TapeCatalog};
pub use integrity::{
    block_count, blocks_overlapping, corrupt_block_digest, file_digest_hex, file_digest_hex_of,
    pristine_block_digest, pristine_file_digest, stable_hash, ObjectStore, BLOCK_SIZE,
};
pub use tape::{stage_corruption, StageJob, TapeLibrary, TapeParams};
