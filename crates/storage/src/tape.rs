//! Tape library model for the HPSS-like mass storage system.
//!
//! Climate archives in the paper live on HPSS tape at LBNL/NERSC. A staging
//! request must wait for a free drive, pay robot mount + tape seek latency,
//! then stream at tape rate. The model keeps per-drive busy-until times and
//! services requests FIFO on the earliest-free drive, which captures the
//! queueing behaviour that makes HRM prestaging worthwhile.

use esg_simnet::{SimDuration, SimTime};

/// Static parameters of a tape library.
#[derive(Debug, Clone, Copy)]
pub struct TapeParams {
    /// Number of tape drives that can stream concurrently.
    pub drives: usize,
    /// Robot pick + mount + load time.
    pub mount: SimDuration,
    /// Average seek to the file's position on tape.
    pub seek: SimDuration,
    /// Streaming rate, bytes/sec.
    pub rate: f64,
}

impl Default for TapeParams {
    fn default() -> Self {
        // HPSS with ~year-2000 9840-class drives.
        TapeParams {
            drives: 4,
            mount: SimDuration::from_secs(40),
            seek: SimDuration::from_secs(20),
            rate: 10e6,
        }
    }
}

/// A scheduled staging operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageJob {
    /// When the drive starts on this request.
    pub start: SimTime,
    /// When the file is fully on disk cache.
    pub ready: SimTime,
    /// Which drive serviced it.
    pub drive: usize,
}

/// The library: tracks when each drive becomes free.
#[derive(Debug, Clone)]
pub struct TapeLibrary {
    params: TapeParams,
    drive_free_at: Vec<SimTime>,
}

impl TapeLibrary {
    pub fn new(params: TapeParams) -> Self {
        assert!(params.drives >= 1);
        TapeLibrary {
            drive_free_at: vec![SimTime::ZERO; params.drives],
            params,
        }
    }

    pub fn params(&self) -> &TapeParams {
        &self.params
    }

    /// Time to move `bytes` off tape once a drive is mounted and positioned.
    pub fn transfer_time(&self, bytes: f64) -> SimDuration {
        SimDuration::from_secs_f64(bytes / self.params.rate)
    }

    /// Submit a staging request at `now` for a file of `bytes`; schedules it
    /// on the earliest-free drive and returns the job timing.
    pub fn stage(&mut self, now: SimTime, bytes: f64) -> StageJob {
        let (drive, &free_at) = self
            .drive_free_at
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .expect("at least one drive");
        let start = free_at.max(now);
        let ready = start + self.params.mount + self.params.seek + self.transfer_time(bytes);
        self.drive_free_at[drive] = ready;
        StageJob {
            start,
            ready,
            drive,
        }
    }
}

/// Deterministic tape-error sampler: does the `seq`-th cold stage of a
/// library seeded with `seed` suffer a silent read error? Roughly one in
/// `denom` stages does (0 disables). Returns the corruption nonce so the
/// flipped block's content is attributable. Tape heads degrade silently —
/// the stage itself still reports success, which is the point.
pub fn stage_corruption(seed: u64, seq: u64, denom: u64) -> Option<u64> {
    if denom == 0 {
        return None;
    }
    let h = crate::integrity::stable_hash("tape-stage", seed, seq);
    h.is_multiple_of(denom).then_some(h | 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib(drives: usize) -> TapeLibrary {
        TapeLibrary::new(TapeParams {
            drives,
            mount: SimDuration::from_secs(40),
            seek: SimDuration::from_secs(20),
            rate: 10e6,
        })
    }

    #[test]
    fn single_stage_timing() {
        let mut l = lib(1);
        let job = l.stage(SimTime::ZERO, 600e6); // 60 s streaming
        assert_eq!(job.start, SimTime::ZERO);
        assert_eq!(job.ready, SimTime::from_secs(40 + 20 + 60));
    }

    #[test]
    fn requests_queue_on_one_drive() {
        let mut l = lib(1);
        let j1 = l.stage(SimTime::ZERO, 100e6); // ready at 70
        let j2 = l.stage(SimTime::ZERO, 100e6); // starts at 70
        assert_eq!(j1.ready, SimTime::from_secs(70));
        assert_eq!(j2.start, SimTime::from_secs(70));
        assert_eq!(j2.ready, SimTime::from_secs(140));
    }

    #[test]
    fn parallel_drives_serve_concurrently() {
        let mut l = lib(2);
        let j1 = l.stage(SimTime::ZERO, 100e6);
        let j2 = l.stage(SimTime::ZERO, 100e6);
        assert_eq!(j1.ready, j2.ready);
        assert_ne!(j1.drive, j2.drive);
        let j3 = l.stage(SimTime::ZERO, 100e6);
        assert_eq!(j3.start, j1.ready);
    }

    #[test]
    fn late_submission_starts_at_now() {
        let mut l = lib(1);
        let j = l.stage(SimTime::from_secs(500), 10e6);
        assert_eq!(j.start, SimTime::from_secs(500));
    }

    #[test]
    fn stage_corruption_is_seeded_sparse_and_disableable() {
        assert_eq!(stage_corruption(7, 3, 0), None, "denom 0 disables");
        let hits: Vec<u64> = (0..1000)
            .filter(|&s| stage_corruption(7, s, 10).is_some())
            .collect();
        // Deterministic per seed, roughly 1-in-10, and never empty.
        assert_eq!(
            hits,
            (0..1000)
                .filter(|&s| stage_corruption(7, s, 10).is_some())
                .collect::<Vec<u64>>()
        );
        assert!(hits.len() > 50 && hits.len() < 200, "{}", hits.len());
        // Nonces are nonzero (zero is reserved for "no corruption").
        assert!(stage_corruption(7, hits[0], 10).unwrap() != 0);
    }
}
