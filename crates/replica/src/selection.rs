//! Replica selection policies.
//!
//! "The current implementation of the request manager selects the 'best'
//! replica based on the highest bandwidth between the candidate replica and
//! the destination of the data transfer" (§5). We implement that policy
//! plus the baselines the A6 experiment compares it against.

use crate::catalog::Replica;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A network estimate for a candidate replica, as supplied by NWS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathEstimate {
    /// Forecast bandwidth from the replica's host to the client, bytes/sec.
    pub bandwidth: Option<f64>,
    /// Forecast latency, seconds.
    pub latency: Option<f64>,
}

impl PathEstimate {
    pub fn unknown() -> Self {
        PathEstimate {
            bandwidth: None,
            latency: None,
        }
    }
}

/// How to pick among replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Uniformly random (baseline).
    Random,
    /// Cycle through candidates (baseline).
    RoundRobin,
    /// Highest NWS bandwidth forecast — the paper's policy. Candidates
    /// without a forecast lose to any candidate with one.
    BestBandwidth,
    /// Lowest NWS latency forecast.
    LowestLatency,
}

/// Stateful selector (round-robin counter, seeded RNG).
pub struct ReplicaSelector {
    policy: Policy,
    rr: usize,
    rng: StdRng,
}

impl ReplicaSelector {
    pub fn new(policy: Policy, seed: u64) -> Self {
        ReplicaSelector {
            policy,
            rr: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Pick an index into `candidates`. `estimates` must be parallel to
    /// `candidates`. Returns `None` when there are no candidates.
    pub fn select(&mut self, candidates: &[Replica], estimates: &[PathEstimate]) -> Option<usize> {
        self.select_by(candidates.len(), |i| candidates[i].suspect, estimates)
    }

    /// The selection core over `n` candidates known only by their
    /// quarantine flags (`suspect(i)`) and their `estimates`, parallel to
    /// them; what [`select`](Self::select) sees of a [`Replica`].
    ///
    /// Integrity demotion: quarantined ([`Replica::suspect`]) candidates are
    /// excluded whatever the policy — unlike a circuit breaker this is not
    /// about reachability but about data quality. Only when *every* replica
    /// is suspect does selection fall back to the full set (a possibly
    /// corrupt copy the verify layer will repair beats no copy at all).
    pub fn select_by(
        &mut self,
        n: usize,
        suspect: impl Fn(usize) -> bool,
        estimates: &[PathEstimate],
    ) -> Option<usize> {
        if n == 0 {
            return None;
        }
        assert_eq!(n, estimates.len());
        let trusted = (0..n).filter(|&i| !suspect(i)).count();
        if trusted == 0 || trusted == n {
            return Some(self.select_unfiltered(n, estimates));
        }
        let trusted: Vec<usize> = (0..n).filter(|&i| !suspect(i)).collect();
        let sub_est: Vec<PathEstimate> = trusted.iter().map(|&i| estimates[i]).collect();
        let picked = self.select_unfiltered(trusted.len(), &sub_est);
        Some(trusted[picked])
    }

    fn select_unfiltered(&mut self, n: usize, estimates: &[PathEstimate]) -> usize {
        match self.policy {
            Policy::Random => self.rng.gen_range(0..n),
            Policy::RoundRobin => {
                let i = self.rr % n;
                self.rr += 1;
                i
            }
            Policy::BestBandwidth => best_by(estimates, |e| e.bandwidth),
            Policy::LowestLatency => best_by(estimates, |e| e.latency.map(|l| -l)),
        }
    }
}

/// Index of the maximum keyed estimate; unknown estimates rank below every
/// known one; full tie (all unknown) → first candidate.
fn best_by(estimates: &[PathEstimate], key: impl Fn(&PathEstimate) -> Option<f64>) -> usize {
    let mut best = 0;
    let mut best_key = f64::NEG_INFINITY;
    let mut best_known = false;
    for (i, e) in estimates.iter().enumerate() {
        match key(e) {
            Some(k) if !best_known || k > best_key => {
                best = i;
                best_key = k;
                best_known = true;
            }
            _ => {}
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use esg_gridftp::GridUrl;

    fn replicas(n: usize) -> Vec<Replica> {
        (0..n)
            .map(|i| Replica {
                collection: "c".into(),
                location: format!("loc{i}"),
                host: format!("host{i}"),
                url: GridUrl::new(format!("host{i}"), "f"),
                suspect: false,
            })
            .collect()
    }

    fn est(bw: &[Option<f64>]) -> Vec<PathEstimate> {
        bw.iter()
            .map(|&b| PathEstimate {
                bandwidth: b,
                latency: b.map(|x| 1.0 / x),
            })
            .collect()
    }

    #[test]
    fn best_bandwidth_picks_fastest() {
        let mut s = ReplicaSelector::new(Policy::BestBandwidth, 1);
        let reps = replicas(3);
        let estimates = est(&[Some(10e6), Some(90e6), Some(40e6)]);
        assert_eq!(s.select(&reps, &estimates), Some(1));
    }

    #[test]
    fn unknown_forecasts_lose() {
        let mut s = ReplicaSelector::new(Policy::BestBandwidth, 1);
        let reps = replicas(3);
        let estimates = est(&[None, Some(1.0), None]);
        assert_eq!(s.select(&reps, &estimates), Some(1));
    }

    #[test]
    fn all_unknown_falls_back_to_first() {
        let mut s = ReplicaSelector::new(Policy::BestBandwidth, 1);
        let reps = replicas(3);
        let estimates = est(&[None, None, None]);
        assert_eq!(s.select(&reps, &estimates), Some(0));
    }

    #[test]
    fn lowest_latency_policy() {
        let mut s = ReplicaSelector::new(Policy::LowestLatency, 1);
        let reps = replicas(3);
        let estimates = vec![
            PathEstimate {
                bandwidth: None,
                latency: Some(0.050),
            },
            PathEstimate {
                bandwidth: None,
                latency: Some(0.005),
            },
            PathEstimate {
                bandwidth: None,
                latency: Some(0.020),
            },
        ];
        assert_eq!(s.select(&reps, &estimates), Some(1));
    }

    #[test]
    fn round_robin_cycles() {
        let mut s = ReplicaSelector::new(Policy::RoundRobin, 1);
        let reps = replicas(3);
        let estimates = est(&[None, None, None]);
        let picks: Vec<usize> = (0..6)
            .map(|_| s.select(&reps, &estimates).unwrap())
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn random_is_deterministic_per_seed_and_covers() {
        let reps = replicas(4);
        let estimates = est(&[None, None, None, None]);
        let run = |seed: u64| -> Vec<usize> {
            let mut s = ReplicaSelector::new(Policy::Random, seed);
            (0..50)
                .map(|_| s.select(&reps, &estimates).unwrap())
                .collect()
        };
        assert_eq!(run(7), run(7));
        let picks = run(7);
        for i in 0..4 {
            assert!(picks.contains(&i), "candidate {i} never picked");
        }
    }

    #[test]
    fn empty_candidates_is_none() {
        let mut s = ReplicaSelector::new(Policy::BestBandwidth, 1);
        assert_eq!(s.select(&[], &[]), None);
    }

    #[test]
    fn suspect_replica_demoted_even_when_fastest() {
        let mut s = ReplicaSelector::new(Policy::BestBandwidth, 1);
        let mut reps = replicas(3);
        reps[1].suspect = true;
        // host1 has by far the best forecast, but it's quarantined.
        let estimates = est(&[Some(10e6), Some(90e6), Some(40e6)]);
        assert_eq!(s.select(&reps, &estimates), Some(2));
    }

    #[test]
    fn all_suspect_falls_back_to_full_set() {
        let mut s = ReplicaSelector::new(Policy::BestBandwidth, 1);
        let mut reps = replicas(3);
        for r in &mut reps {
            r.suspect = true;
        }
        let estimates = est(&[Some(10e6), Some(90e6), Some(40e6)]);
        assert_eq!(s.select(&reps, &estimates), Some(1));
    }

    #[test]
    fn round_robin_cycles_over_trusted_subset() {
        let mut s = ReplicaSelector::new(Policy::RoundRobin, 1);
        let mut reps = replicas(3);
        reps[0].suspect = true;
        let estimates = est(&[None, None, None]);
        let picks: Vec<usize> = (0..4)
            .map(|_| s.select(&reps, &estimates).unwrap())
            .collect();
        assert_eq!(picks, vec![1, 2, 1, 2]);
    }
}
