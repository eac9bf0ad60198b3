//! Hierarchical Resource Manager (HRM).
//!
//! "HRM is a component that sits in front of the MSS (in this case an HPSS
//! system at LBNL) and stages files from the MSS to its local disk cache.
//! After this action is complete, the RM uses GridFTP to move the file
//! securely over the wide-area network to its destination." (§4)
//!
//! The HRM here owns a [`TapeLibrary`] and a [`DiskCache`]; `request_file`
//! answers either "already on disk" or "ready at time T", scheduling the
//! tape stage. The request manager overlaps staging with other transfers.

use crate::cache::{CacheError, DiskCache};
use crate::integrity::{block_count, file_digest_hex, ObjectStore};
use crate::tape::{stage_corruption, TapeLibrary, TapeParams};
use esg_simnet::{SimDuration, SimTime};

/// Outcome of asking the HRM for a file.
#[derive(Debug, Clone, PartialEq)]
pub enum StageOutcome {
    /// The file is already in the disk cache; usable immediately.
    CacheHit,
    /// Staging scheduled; the file will be on disk at `ready`.
    Staged {
        ready: SimTime,
        queued_behind: SimDuration,
    },
    /// The cache cannot hold the file.
    Failed(CacheError),
}

/// Catalog of what lives on tape: name → size.
#[derive(Debug, Default, Clone)]
pub struct TapeCatalog {
    files: std::collections::HashMap<String, u64>,
}

impl TapeCatalog {
    pub fn new() -> Self {
        TapeCatalog::default()
    }

    pub fn register(&mut self, name: impl Into<String>, size: u64) {
        self.files.insert(name.into(), size);
    }

    pub fn size_of(&self, name: &str) -> Option<u64> {
        self.files.get(name).copied()
    }

    pub fn len(&self) -> usize {
        self.files.len()
    }

    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }
}

/// The hierarchical resource manager at one site.
#[derive(Debug, Clone)]
pub struct Hrm {
    pub tape: TapeLibrary,
    pub cache: DiskCache,
    pub catalog: TapeCatalog,
    /// Integrity record of this site's on-disk copies: which blocks are
    /// silently corrupt (tape read errors land here).
    pub store: ObjectStore,
    /// Stages in flight: file → time it lands on disk. Concurrent
    /// requests for the same file join the in-flight stage instead of
    /// seeing a premature cache hit.
    staging: std::collections::HashMap<String, SimTime>,
    /// Roughly one in `tape_error_denom` cold stages suffers a silent
    /// read error that corrupts one block of the staged file. 0 disables.
    tape_error_denom: u64,
    /// Seed for the deterministic tape-error sampler.
    tape_error_seed: u64,
    /// Monotone count of cold stages performed (the sampler's sequence).
    stage_seq: u64,
}

/// Error from an HRM request.
#[derive(Debug, Clone, PartialEq)]
pub enum HrmError {
    UnknownFile(String),
}

impl std::fmt::Display for HrmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HrmError::UnknownFile(n) => write!(f, "file not in tape catalog: {n}"),
        }
    }
}

impl std::error::Error for HrmError {}

impl Hrm {
    pub fn new(tape_params: TapeParams, cache_capacity: u64) -> Self {
        Hrm {
            tape: TapeLibrary::new(tape_params),
            cache: DiskCache::new(cache_capacity),
            catalog: TapeCatalog::new(),
            store: ObjectStore::new(),
            staging: std::collections::HashMap::new(),
            tape_error_denom: 0,
            tape_error_seed: 0,
            stage_seq: 0,
        }
    }

    /// Enable deterministic silent tape read errors: roughly one in
    /// `denom` cold stages corrupts one block of the staged file.
    pub fn enable_tape_errors(&mut self, denom: u64, seed: u64) {
        self.tape_error_denom = denom;
        self.tape_error_seed = seed;
    }

    /// Ask for `name` to be available on the disk cache.
    pub fn request_file(&mut self, name: &str, now: SimTime) -> Result<StageOutcome, HrmError> {
        let size = self
            .catalog
            .size_of(name)
            .ok_or_else(|| HrmError::UnknownFile(name.to_string()))?;
        // Join a stage already in flight rather than reporting a premature
        // cache hit for a file whose bytes are still coming off tape.
        if let Some(&ready) = self.staging.get(name) {
            if now < ready {
                self.cache.access(name, now);
                return Ok(StageOutcome::Staged {
                    ready,
                    queued_behind: SimDuration::ZERO,
                });
            }
            self.staging.remove(name);
        }
        if self.cache.access(name, now) {
            return Ok(StageOutcome::CacheHit);
        }
        // Reserve cache space up front (pessimistic, as HRM does: it will
        // not start a stage it cannot hold).
        if let Err(e) = self.cache.insert(name, size, now) {
            return Ok(StageOutcome::Failed(e));
        }
        let job = self.tape.stage(now, size as f64);
        // A cold stage reads fresh bytes off tape: any corruption recorded
        // against the previous disk copy no longer applies...
        self.store.scrub_file(name);
        // ...but the read itself can silently corrupt one block. The stage
        // still reports success — only checksum verification can tell.
        self.stage_seq += 1;
        if size > 0 {
            if let Some(nonce) =
                stage_corruption(self.tape_error_seed, self.stage_seq, self.tape_error_denom)
            {
                let block = nonce % block_count(size);
                self.store.flip(name, block, nonce, job.ready);
            }
        }
        // Record the expected-content sidecar for the landed copy (what an
        // fsck-style scan would compare against).
        self.cache.set_digest(name, file_digest_hex(name, size));
        self.staging.insert(name.to_string(), job.ready);
        Ok(StageOutcome::Staged {
            ready: job.ready,
            queued_behind: job.start.since(now),
        })
    }

    /// Is `name` usable from the disk cache right now — present, and not
    /// still coming off tape? A read-only probe: unlike [`Hrm::request_file`]
    /// it neither touches LRU state nor schedules a stage, so schedulers
    /// can ask "would this be a cache hit?" without side effects.
    pub fn resident(&self, name: &str, now: SimTime) -> bool {
        if let Some(&ready) = self.staging.get(name) {
            if now < ready {
                return false;
            }
        }
        self.cache.contains(name)
    }

    /// The fixed cost components of staging `name` off tape, in seconds:
    /// `(mount, seek, stream)`. Queueing behind other jobs is excluded —
    /// it depends on drive contention at submit time, which
    /// [`StageOutcome::Staged`]'s `queued_behind` reports per request.
    /// `None` when the catalog does not know the file. Observability
    /// consumers attach this breakdown to their `rm.hrm.staging` events so
    /// lifeline analysis can split tape-mount latency from streaming.
    pub fn stage_cost(&self, name: &str) -> Option<(f64, f64, f64)> {
        let size = self.catalog.size_of(name)?;
        let p = self.tape.params();
        Some((
            p.mount.as_secs_f64(),
            p.seek.as_secs_f64(),
            self.tape.transfer_time(size as f64).as_secs_f64(),
        ))
    }

    /// Pin a staged file for the duration of a transfer.
    pub fn pin(&mut self, name: &str) -> bool {
        self.cache.pin(name)
    }

    pub fn unpin(&mut self, name: &str) {
        self.cache.unpin(name)
    }

    /// Pre-stage a list of files (the prototype replicated "popular
    /// collections" ahead of demand). Returns when the last file lands.
    pub fn prestage(&mut self, names: &[&str], now: SimTime) -> Result<SimTime, HrmError> {
        let mut last = now;
        for name in names {
            match self.request_file(name, now)? {
                StageOutcome::Staged { ready, .. } => last = last.max(ready),
                StageOutcome::CacheHit => {}
                StageOutcome::Failed(_) => {}
            }
        }
        Ok(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hrm() -> Hrm {
        let mut h = Hrm::new(
            TapeParams {
                drives: 2,
                mount: SimDuration::from_secs(40),
                seek: SimDuration::from_secs(20),
                rate: 10e6,
            },
            10_000_000_000, // 10 GB cache
        );
        h.catalog.register("jan.nc", 600_000_000);
        h.catalog.register("feb.nc", 600_000_000);
        h.catalog.register("mar.nc", 600_000_000);
        h
    }

    #[test]
    fn cold_request_stages_from_tape() {
        let mut h = hrm();
        match h.request_file("jan.nc", SimTime::ZERO).unwrap() {
            StageOutcome::Staged {
                ready,
                queued_behind,
            } => {
                assert_eq!(ready, SimTime::from_secs(40 + 20 + 60));
                assert_eq!(queued_behind, SimDuration::ZERO);
            }
            other => panic!("expected stage, got {other:?}"),
        }
    }

    #[test]
    fn warm_request_hits_cache() {
        let mut h = hrm();
        h.request_file("jan.nc", SimTime::ZERO).unwrap();
        // After the stage lands (t=120), it's a plain cache hit.
        assert_eq!(
            h.request_file("jan.nc", SimTime::from_secs(200)).unwrap(),
            StageOutcome::CacheHit
        );
    }

    #[test]
    fn concurrent_requests_join_inflight_stage() {
        let mut h = hrm();
        let first = h.request_file("jan.nc", SimTime::ZERO).unwrap();
        let StageOutcome::Staged { ready, .. } = first else {
            panic!("expected stage");
        };
        // A second request *before* the stage completes must NOT be a
        // cache hit; it waits for the same landing time.
        match h.request_file("jan.nc", SimTime::from_secs(10)).unwrap() {
            StageOutcome::Staged { ready: r2, .. } => assert_eq!(r2, ready),
            other => panic!("premature cache hit: {other:?}"),
        }
    }

    #[test]
    fn unknown_file_is_error() {
        let mut h = hrm();
        assert!(matches!(
            h.request_file("ghost.nc", SimTime::ZERO),
            Err(HrmError::UnknownFile(_))
        ));
    }

    #[test]
    fn drive_queueing_visible_in_outcome() {
        let mut h = hrm();
        h.request_file("jan.nc", SimTime::ZERO).unwrap();
        h.request_file("feb.nc", SimTime::ZERO).unwrap();
        // Third request queues behind both drives.
        match h.request_file("mar.nc", SimTime::ZERO).unwrap() {
            StageOutcome::Staged { queued_behind, .. } => {
                assert!(queued_behind > SimDuration::ZERO);
            }
            other => panic!("expected stage, got {other:?}"),
        }
    }

    #[test]
    fn cache_too_small_fails_cleanly() {
        let mut h = Hrm::new(TapeParams::default(), 1_000);
        h.catalog.register("big.nc", 1_000_000);
        match h.request_file("big.nc", SimTime::ZERO).unwrap() {
            StageOutcome::Failed(CacheError::TooLarge { .. }) => {}
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn prestage_returns_last_ready() {
        let mut h = hrm();
        let done = h
            .prestage(&["jan.nc", "feb.nc", "mar.nc"], SimTime::ZERO)
            .unwrap();
        // 2 drives: jan+feb parallel (ready 120), mar queues (ready 240).
        assert_eq!(done, SimTime::from_secs(240));
    }

    #[test]
    fn pin_protects_during_transfer() {
        let mut h = hrm();
        h.request_file("jan.nc", SimTime::ZERO).unwrap();
        assert!(h.pin("jan.nc"));
        h.unpin("jan.nc");
    }

    #[test]
    fn tape_errors_silently_corrupt_one_block_per_bad_stage() {
        // denom=1: every cold stage suffers a read error.
        let mut h = hrm();
        h.enable_tape_errors(1, 99);
        let out = h.request_file("jan.nc", SimTime::ZERO).unwrap();
        let StageOutcome::Staged { ready, .. } = out else {
            panic!("expected stage");
        };
        let bad = h.store.corrupt_blocks("jan.nc");
        assert_eq!(bad.len(), 1, "exactly one block corrupted per bad stage");
        // The corruption is not visible before the stage lands.
        assert!(h.store.flips_at("jan.nc", SimTime::ZERO).is_empty());
        assert_eq!(h.store.flips_at("jan.nc", ready).len(), 1);
        // A warm hit does not touch the store.
        h.request_file("jan.nc", SimTime::from_secs(500)).unwrap();
        assert_eq!(h.store.corrupt_blocks("jan.nc"), bad);
        // The landed copy carries an expected-content sidecar.
        assert!(h.cache.digest("jan.nc").is_some());
    }

    #[test]
    fn restage_scrubs_previous_corruption() {
        let mut h = hrm();
        h.enable_tape_errors(1, 99);
        h.request_file("jan.nc", SimTime::ZERO).unwrap();
        assert!(!h.store.is_clean());
        // Evict the bad copy and disable errors: the fresh stage reads
        // clean bytes and must not inherit the old flip records.
        h.cache.remove("jan.nc");
        h.enable_tape_errors(0, 99);
        h.request_file("jan.nc", SimTime::from_secs(1000)).unwrap();
        assert!(h.store.is_clean(), "cold re-stage must scrub old flips");
    }

    #[test]
    fn clean_stages_leave_store_clean() {
        let mut h = hrm(); // tape errors disabled by default
        h.request_file("jan.nc", SimTime::ZERO).unwrap();
        h.request_file("feb.nc", SimTime::ZERO).unwrap();
        assert!(h.store.is_clean());
    }
}
