//! Multi-site transfer planning.
//!
//! "The ability to transfer multiple files from various sites concurrently
//! can enhance the aggregate transfer rate to a client. ... A RM can then
//! plan concurrent file transfers to maximize the number of different
//! sites from which files are obtained." (§4)
//!
//! The planner scores each candidate replica by its NWS bandwidth forecast
//! *discounted by how many in-flight transfers are already pulling from
//! that site*: with `k` concurrent pulls a site's remaining share is
//! roughly `bw / (k + 1)`. Maximizing the discounted score spreads
//! transfers across sites while still respecting measured bandwidth
//! differences. The load counts come from the request manager's
//! cross-request in-flight ledger (`HostLedger`), so concurrent users
//! spread over replicas too — a per-request count would let every
//! concurrent request stack onto the same best forecast.

use esg_replica::PathEstimate;

/// Score candidate replicas, given by their host names, and pick the best
/// index, or `None` if empty.
///
/// `host_load(h)` = number of in-flight transfers (across every request —
/// the manager's ledger) already assigned to host `h`. Taking a lookup
/// function instead of a snapshot map keeps the caller's cost at O(1) per
/// *candidate* — the manager used to clone its entire ledger for every
/// selection round, which at 100k-flow scale dominated the scheduler's
/// hot path. Unknown forecasts rank below all known ones (they still win
/// if nothing has a forecast — first such candidate).
pub fn plan_spread(
    hosts: &[&str],
    estimates: &[PathEstimate],
    host_load: impl Fn(&str) -> usize,
) -> Option<usize> {
    if hosts.is_empty() {
        return None;
    }
    assert_eq!(hosts.len(), estimates.len());
    let mut best: Option<(usize, f64, usize)> = None; // (idx, score, load)
    let mut best_unknown: Option<(usize, usize)> = None;
    for (i, (host, est)) in hosts.iter().zip(estimates).enumerate() {
        let load = host_load(host);
        match est.bandwidth {
            Some(bw) => {
                let score = bw / (load as f64 + 1.0);
                if best.is_none_or(|(_, s, _)| score > s) {
                    best = Some((i, score, load));
                }
            }
            None => {
                if best_unknown.is_none_or(|(_, l)| load < l) {
                    best_unknown = Some((i, load));
                }
            }
        }
    }
    best.map(|(i, _, _)| i).or(best_unknown.map(|(i, _)| i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn est(bw: &[Option<f64>]) -> Vec<PathEstimate> {
        bw.iter()
            .map(|&b| PathEstimate {
                bandwidth: b,
                latency: None,
            })
            .collect()
    }

    #[test]
    fn unloaded_picks_fastest() {
        let hosts = &["a", "b", "c"];
        let estimates = est(&[Some(10.0), Some(30.0), Some(20.0)]);
        let load: HashMap<String, usize> = HashMap::new();
        assert_eq!(
            plan_spread(hosts, &estimates, |h| load.get(h).copied().unwrap_or(0)),
            Some(1)
        );
    }

    #[test]
    fn load_discounts_the_fast_site() {
        let hosts = &["fast", "slow"];
        let estimates = est(&[Some(100.0), Some(60.0)]);
        let mut load = HashMap::new();
        // One pull already on `fast`: 100/2 = 50 < 60 → pick `slow`.
        load.insert("fast".to_string(), 1);
        assert_eq!(
            plan_spread(hosts, &estimates, |h| load.get(h).copied().unwrap_or(0)),
            Some(1)
        );
    }

    #[test]
    fn equal_sites_spread_round_robin() {
        let hosts = &["a", "b", "c"];
        let estimates = est(&[Some(50.0), Some(50.0), Some(50.0)]);
        let mut load: HashMap<String, usize> = HashMap::new();
        let mut picks = Vec::new();
        for _ in 0..6 {
            let i = plan_spread(hosts, &estimates, |h| load.get(h).copied().unwrap_or(0)).unwrap();
            picks.push(i);
            *load.entry(hosts[i].to_string()).or_default() += 1;
        }
        // Each site gets exactly two of the six assignments.
        for host in ["a", "b", "c"] {
            assert_eq!(load[host], 2, "{picks:?}");
        }
    }

    #[test]
    fn unknown_only_wins_when_nothing_known() {
        let hosts = &["known", "unknown"];
        let estimates = est(&[Some(1.0), None]);
        let load: HashMap<String, usize> = HashMap::new();
        assert_eq!(
            plan_spread(hosts, &estimates, |h| load.get(h).copied().unwrap_or(0)),
            Some(0)
        );
        let estimates = est(&[None, None]);
        assert_eq!(
            plan_spread(hosts, &estimates, |h| load.get(h).copied().unwrap_or(0)),
            Some(0)
        );
    }

    #[test]
    fn unknowns_spread_by_load() {
        let hosts = &["a", "b"];
        let estimates = est(&[None, None]);
        let mut load = HashMap::new();
        load.insert("a".to_string(), 2);
        assert_eq!(
            plan_spread(hosts, &estimates, |h| load.get(h).copied().unwrap_or(0)),
            Some(1)
        );
    }

    #[test]
    fn empty_is_none() {
        assert_eq!(plan_spread(&[], &[], |_| 0), None);
    }

    #[test]
    fn zero_replicas_with_stale_load_map_is_none() {
        // Load entries for hosts that no longer replicate the file must not
        // conjure a pick out of nothing.
        let mut load = HashMap::new();
        load.insert("ghost".to_string(), 3);
        assert_eq!(
            plan_spread(&[], &[], |h| load.get(h).copied().unwrap_or(0)),
            None
        );
    }

    #[test]
    fn single_host_candidates_pick_best_forecast() {
        // All replicas on one host: the shared load discounts every
        // candidate equally, so the raw forecast order decides.
        let hosts = &["only", "only", "only"];
        let estimates = est(&[Some(10.0), Some(30.0), Some(20.0)]);
        let mut load = HashMap::new();
        assert_eq!(
            plan_spread(hosts, &estimates, |h| load.get(h).copied().unwrap_or(0)),
            Some(1)
        );
        load.insert("only".to_string(), 5);
        assert_eq!(
            plan_spread(hosts, &estimates, |h| load.get(h).copied().unwrap_or(0)),
            Some(1)
        );
    }

    #[test]
    fn all_equal_forecasts_pick_first_deterministically() {
        // Strictly-greater comparison keeps the earliest candidate on ties,
        // so equal forecasts with equal load always yield index 0 — the
        // determinism the trace guards rely on.
        let hosts = &["a", "b", "c"];
        let estimates = est(&[Some(42.0), Some(42.0), Some(42.0)]);
        for _ in 0..4 {
            assert_eq!(plan_spread(hosts, &estimates, |_| 0), Some(0));
        }
    }
}
