//! Max-min fair rate allocation by progressive filling.
//!
//! Flow-level network simulation replaces per-packet dynamics with a
//! bandwidth-sharing model: every active flow crosses a set of *resources*
//! (link directions, NICs, host CPU budgets, disks), each with a finite
//! capacity, and may additionally carry its own rate ceiling (TCP window /
//! loss model). The allocator computes the classic max-min fair allocation:
//! repeatedly find the most constrained resource, freeze the flows it
//! bottlenecks at their fair share, subtract, and continue.
//!
//! There is one progressive-filling loop, `WaterFill::solve`. A
//! `WaterFill` holds a problem flat (CSR: `offsets`/`fres`/`caps` per flow,
//! `capacities` per resource) beside the loop's working arrays, and every
//! buffer is reused from one problem to the next, so a solve of a problem
//! no larger than one already seen does not go to the heap. `FlowNet`
//! assembles each component straight into the one it owns;
//! [`max_min_fair`] is the same loop behind the older `AllocFlow`
//! interface, paying a copy into a fresh `WaterFill` per call.
//!
//! The solve is a pure function of its inputs, and the result for a
//! connected component of the flow/resource graph does not depend on flows
//! outside that component (they share no finite resource, so they can never
//! bottleneck each other). `FlowNet` leans on both properties for its
//! incremental, component-scoped recompute: as long as a component's
//! problem is assembled canonically — flows ascending by id, resources
//! interned in first-encounter order — solving it in isolation is bitwise
//! identical to solving it as part of the whole network. Keep the loop
//! deterministic (no iteration over unordered maps, no reordering of its
//! scans) or `waterfill_is_bitwise_the_reference` below and the
//! differential suite in `tests/alloc_differential.rs` will catch the drift.

/// One flow's view for the allocator: the resource indices it crosses and
/// its intrinsic rate cap (bytes/sec; `f64::INFINITY` if uncapped).
#[derive(Debug, Clone)]
pub struct AllocFlow {
    pub resources: Vec<usize>,
    pub cap: f64,
}

/// Compute max-min fair rates.
///
/// `capacities[r]` is the capacity of resource `r` in bytes/sec (may be
/// `f64::INFINITY`). Returns one rate per flow. Flows with an empty resource
/// list (e.g. loopback transfers) get exactly their cap.
///
/// A convenience over `WaterFill` for callers that hold a problem as
/// `AllocFlow`s (the oracle, the property tests, the benchmark's iso
/// driver): it copies the problem into a fresh `WaterFill` and solves it
/// there. The live network never takes this path.
pub fn max_min_fair(capacities: &[f64], flows: &[AllocFlow]) -> Vec<f64> {
    // Sized exactly up front: this path pays for its buffers on every call.
    let mut fill = WaterFill {
        offsets: Vec::with_capacity(flows.len() + 1),
        fres: Vec::with_capacity(flows.iter().map(|f| f.resources.len()).sum()),
        caps: Vec::with_capacity(flows.len()),
        ..WaterFill::default()
    };
    fill.clear();
    fill.capacities.extend_from_slice(capacities);
    for f in flows {
        for &r in &f.resources {
            assert!(r < capacities.len(), "flow names resource {r}");
            fill.push_flow_resource(r);
        }
        fill.end_flow(f.cap);
    }
    fill.solve();
    fill.rate
}

/// One max-min fair problem in compressed-sparse-row form, together with
/// the working arrays of its solve, all reused from problem to problem:
/// flow `i` crosses resources `fres[offsets[i]..offsets[i + 1]]` and is
/// capped at `caps[i]`; resource `r` holds `capacities[r]` bytes/sec.
/// `FlowNet` keeps one for the life of the network and assembles every
/// component straight into it, so a solve goes to the heap only while a
/// buffer is still growing towards the largest problem seen.
#[derive(Debug, Default)]
pub(crate) struct WaterFill {
    capacities: Vec<f64>,
    offsets: Vec<usize>,
    fres: Vec<u32>,
    caps: Vec<f64>,
    rate: Vec<f64>,
    fixed: Vec<bool>,
    remaining: Vec<f64>,
    load: Vec<u32>,
}

impl WaterFill {
    /// Start a new problem: no resources, no flows.
    pub(crate) fn clear(&mut self) {
        self.capacities.clear();
        self.offsets.clear();
        self.offsets.push(0);
        self.fres.clear();
        self.caps.clear();
    }

    /// Register the next resource and return its id (dense, in order).
    pub(crate) fn push_resource(&mut self, capacity: f64) -> usize {
        self.capacities.push(capacity);
        self.capacities.len() - 1
    }

    /// Append resource `r` to the flow under assembly.
    pub(crate) fn push_flow_resource(&mut self, r: usize) {
        self.fres.push(r as u32);
    }

    /// Close the flow under assembly with its rate cap.
    pub(crate) fn end_flow(&mut self, cap: f64) {
        self.offsets.push(self.fres.len());
        self.caps.push(cap);
    }

    /// Progressive filling over the assembled problem: one rate per flow,
    /// valid until the next `clear`. The order of every scan below — the
    /// bottleneck search by resource id, cap freezes by flow index,
    /// bottleneck freezes by resource then flow — fixes the order of the
    /// float subtractions in `freeze` and therefore the bits of the result;
    /// it is part of the contract, not an implementation detail.
    pub(crate) fn solve(&mut self) -> &[f64] {
        let nf = self.caps.len();
        let nr = self.capacities.len();
        self.rate.clear();
        self.rate.resize(nf, 0.0);
        self.fixed.clear();
        self.fixed.resize(nf, false);
        // Remaining capacity per resource and number of unfixed flows on it.
        self.remaining.clear();
        self.remaining.extend_from_slice(&self.capacities);
        self.load.clear();
        self.load.resize(nr, 0);

        let (offsets, fres, caps) = (&self.offsets[..nf + 1], &self.fres[..], &self.caps[..nf]);
        let (rate, fixed) = (&mut self.rate[..nf], &mut self.fixed[..nf]);
        let (remaining, load) = (&mut self.remaining[..nr], &mut self.load[..nr]);
        let res_of = |i: usize| &fres[offsets[i]..offsets[i + 1]];
        for &r in fres {
            load[r as usize] += 1;
        }

        // Flows that cross no constrained resource are only bound by their cap.
        let mut unfixed = nf;
        for i in 0..nf {
            if res_of(i).is_empty() {
                rate[i] = caps[i];
                fixed[i] = true;
                unfixed -= 1;
            }
        }

        while unfixed > 0 {
            // Fair share the tightest resource could give each of its unfixed
            // flows.
            let mut bottleneck_share = f64::INFINITY;
            for r in 0..nr {
                if load[r] > 0 && remaining[r].is_finite() {
                    let share = (remaining[r] / load[r] as f64).max(0.0);
                    if share < bottleneck_share {
                        bottleneck_share = share;
                    }
                }
            }

            // Any unfixed flow whose own cap is at or below the bottleneck share
            // is frozen at its cap first: it cannot use its full fair share, so
            // freezing it releases capacity for others.
            let mut froze_capped = false;
            for i in 0..nf {
                if !fixed[i] && caps[i] <= bottleneck_share {
                    rate[i] = caps[i];
                    fixed[i] = true;
                    freeze(res_of(i), caps[i], remaining, load);
                    unfixed -= 1;
                    froze_capped = true;
                }
            }
            if froze_capped {
                continue;
            }

            if !bottleneck_share.is_finite() {
                // No constrained resource left: everything remaining is bound
                // only by its (infinite or large) cap.
                for i in 0..nf {
                    if !fixed[i] {
                        rate[i] = caps[i];
                        fixed[i] = true;
                        freeze(res_of(i), caps[i], remaining, load);
                    }
                }
                break;
            }

            // Freeze every unfixed flow crossing a bottleneck resource at the
            // bottleneck share.
            let eps = bottleneck_share * 1e-12 + 1e-12;
            let mut froze_any = false;
            for r in 0..nr {
                if load[r] == 0 || !remaining[r].is_finite() {
                    continue;
                }
                let share = remaining[r] / load[r] as f64;
                if share <= bottleneck_share + eps {
                    // This resource is (one of) the bottleneck(s).
                    for i in 0..nf {
                        if !fixed[i] && res_of(i).contains(&(r as u32)) {
                            rate[i] = bottleneck_share;
                            fixed[i] = true;
                            freeze(res_of(i), bottleneck_share, remaining, load);
                            unfixed -= 1;
                            froze_any = true;
                        }
                    }
                }
            }
            debug_assert!(froze_any, "progressive filling failed to make progress");
            if !froze_any {
                break;
            }
        }

        &self.rate
    }
}

/// Charge a flow frozen at `r_rate` to each resource it crosses, in the
/// flow's own resource order.
fn freeze(resources: &[u32], r_rate: f64, remaining: &mut [f64], load: &mut [u32]) {
    for &r in resources {
        let r = r as usize;
        if remaining[r].is_finite() {
            remaining[r] = (remaining[r] - r_rate).max(0.0);
        }
        load[r] -= 1;
    }
}

/// The allocator as it stood before `WaterFill`: `max_min_fair`'s body and
/// its `freeze`, verbatim. `waterfill_is_bitwise_the_reference` holds the
/// live loop to it bit for bit — the oracle `FlowNet::oracle_rates` shares
/// `WaterFill::solve` with the live path, so it cannot.
#[cfg(test)]
mod reference {
    use super::AllocFlow;

    pub(super) fn reference_max_min_fair(capacities: &[f64], flows: &[AllocFlow]) -> Vec<f64> {
        let nf = flows.len();
        let nr = capacities.len();
        let mut rate = vec![0.0_f64; nf];
        let mut fixed = vec![false; nf];

        // Remaining capacity per resource and number of unfixed flows on it.
        let mut remaining: Vec<f64> = capacities.to_vec();
        let mut load: Vec<usize> = vec![0; nr];
        for f in flows {
            for &r in &f.resources {
                load[r] += 1;
            }
        }

        // Flows that cross no constrained resource are only bound by their cap.
        for (i, f) in flows.iter().enumerate() {
            if f.resources.is_empty() {
                rate[i] = f.cap;
                fixed[i] = true;
            }
        }

        let mut unfixed = fixed.iter().filter(|&&x| !x).count();
        while unfixed > 0 {
            // Fair share the tightest resource could give each of its unfixed
            // flows.
            let mut bottleneck_share = f64::INFINITY;
            for r in 0..nr {
                if load[r] > 0 && remaining[r].is_finite() {
                    let share = (remaining[r] / load[r] as f64).max(0.0);
                    if share < bottleneck_share {
                        bottleneck_share = share;
                    }
                }
            }

            // Any unfixed flow whose own cap is at or below the bottleneck share
            // is frozen at its cap first: it cannot use its full fair share, so
            // freezing it releases capacity for others.
            let mut froze_capped = false;
            for i in 0..nf {
                if !fixed[i] && flows[i].cap <= bottleneck_share {
                    freeze(
                        i,
                        flows[i].cap,
                        flows,
                        &mut rate,
                        &mut fixed,
                        &mut remaining,
                        &mut load,
                    );
                    unfixed -= 1;
                    froze_capped = true;
                }
            }
            if froze_capped {
                continue;
            }

            if !bottleneck_share.is_finite() {
                // No constrained resource left: everything remaining is bound
                // only by its (infinite or large) cap.
                for i in 0..nf {
                    if !fixed[i] {
                        freeze(
                            i,
                            flows[i].cap,
                            flows,
                            &mut rate,
                            &mut fixed,
                            &mut remaining,
                            &mut load,
                        );
                    }
                }
                break;
            }

            // Freeze every unfixed flow crossing a bottleneck resource at the
            // bottleneck share.
            let eps = bottleneck_share * 1e-12 + 1e-12;
            let mut froze_any = false;
            for r in 0..nr {
                if load[r] == 0 || !remaining[r].is_finite() {
                    continue;
                }
                let share = remaining[r] / load[r] as f64;
                if share <= bottleneck_share + eps {
                    // This resource is (one of) the bottleneck(s).
                    for i in 0..nf {
                        if !fixed[i] && flows[i].resources.contains(&r) {
                            freeze(
                                i,
                                bottleneck_share,
                                flows,
                                &mut rate,
                                &mut fixed,
                                &mut remaining,
                                &mut load,
                            );
                            unfixed -= 1;
                            froze_any = true;
                        }
                    }
                }
            }
            debug_assert!(froze_any, "progressive filling failed to make progress");
            if !froze_any {
                break;
            }
        }

        rate
    }

    fn freeze(
        i: usize,
        r_rate: f64,
        flows: &[AllocFlow],
        rate: &mut [f64],
        fixed: &mut [bool],
        remaining: &mut [f64],
        load: &mut [usize],
    ) {
        rate[i] = r_rate;
        fixed[i] = true;
        for &r in &flows[i].resources {
            if remaining[r].is_finite() {
                remaining[r] = (remaining[r] - r_rate).max(0.0);
            }
            load[r] -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(resources: &[usize], cap: f64) -> AllocFlow {
        AllocFlow {
            resources: resources.to_vec(),
            cap,
        }
    }

    #[test]
    fn single_flow_gets_link() {
        let rates = max_min_fair(&[100.0], &[flow(&[0], f64::INFINITY)]);
        assert_eq!(rates, vec![100.0]);
    }

    #[test]
    fn two_flows_share_equally() {
        let rates = max_min_fair(
            &[100.0],
            &[flow(&[0], f64::INFINITY), flow(&[0], f64::INFINITY)],
        );
        assert_eq!(rates, vec![50.0, 50.0]);
    }

    #[test]
    fn capped_flow_releases_capacity() {
        let rates = max_min_fair(&[100.0], &[flow(&[0], 10.0), flow(&[0], f64::INFINITY)]);
        assert_eq!(rates, vec![10.0, 90.0]);
    }

    #[test]
    fn cap_equal_to_share_is_honoured() {
        let rates = max_min_fair(&[100.0], &[flow(&[0], 50.0), flow(&[0], 50.0)]);
        assert_eq!(rates, vec![50.0, 50.0]);
    }

    #[test]
    fn multi_resource_bottleneck() {
        // Flow 0 crosses both links; flow 1 only the second, wider one.
        // Classic max-min: f0 limited by resource 0 at 30; f1 then gets 70.
        let rates = max_min_fair(
            &[30.0, 100.0],
            &[flow(&[0, 1], f64::INFINITY), flow(&[1], f64::INFINITY)],
        );
        assert_eq!(rates, vec![30.0, 70.0]);
    }

    #[test]
    fn three_flows_two_resources() {
        // r0 = 60 shared by f0,f1; r1 = 100 shared by f1,f2.
        // f0,f1 get 30 each from r0; f2 gets remaining 70 of r1.
        let rates = max_min_fair(
            &[60.0, 100.0],
            &[
                flow(&[0], f64::INFINITY),
                flow(&[0, 1], f64::INFINITY),
                flow(&[1], f64::INFINITY),
            ],
        );
        assert_eq!(rates, vec![30.0, 30.0, 70.0]);
    }

    #[test]
    fn no_resources_means_cap() {
        let rates = max_min_fair(&[], &[flow(&[], 42.0)]);
        assert_eq!(rates, vec![42.0]);
    }

    #[test]
    fn infinite_resource_ignored() {
        let rates = max_min_fair(
            &[f64::INFINITY, 80.0],
            &[flow(&[0, 1], f64::INFINITY), flow(&[0], 5.0)],
        );
        assert_eq!(rates, vec![80.0, 5.0]);
    }

    #[test]
    fn zero_capacity_resource_stalls_flows() {
        let rates = max_min_fair(&[0.0], &[flow(&[0], f64::INFINITY)]);
        assert_eq!(rates, vec![0.0]);
    }

    #[test]
    fn empty_input() {
        let rates = max_min_fair(&[10.0], &[]);
        assert!(rates.is_empty());
    }

    #[test]
    fn conservation_never_violated() {
        // Random-ish deterministic topology: verify sum of rates through any
        // resource never exceeds its capacity.
        let caps = [100.0, 55.0, 200.0, 10.0];
        let flows = [
            flow(&[0, 1], f64::INFINITY),
            flow(&[1, 2], 40.0),
            flow(&[0, 2, 3], f64::INFINITY),
            flow(&[2], f64::INFINITY),
            flow(&[3], 3.0),
        ];
        let rates = max_min_fair(&caps, &flows);
        for (r, &cap) in caps.iter().enumerate() {
            let used: f64 = flows
                .iter()
                .zip(&rates)
                .filter(|(f, _)| f.resources.contains(&r))
                .map(|(_, &rate)| rate)
                .sum();
            assert!(
                used <= cap * (1.0 + 1e-9),
                "resource {r} overcommitted: {used} > {cap}"
            );
        }
        // Caps respected.
        for (f, &r) in flows.iter().zip(&rates) {
            assert!(r <= f.cap * (1.0 + 1e-9) + 1e-9);
        }
    }

    // ---- the one loop against the loop it replaced ----

    use super::reference::reference_max_min_fair;
    use proptest::prelude::*;

    proptest! {
        /// `WaterFill::solve` (through `max_min_fair`) returns the bits the
        /// pre-`WaterFill` allocator returns, on problems built to hit every
        /// branch: dead (0), unconstrained (+inf) and tied capacities, flows
        /// crossing nothing, unsorted and repeated resource lists, caps that
        /// are infinite, arbitrary, or exactly one resource's first fair
        /// share. Values are small multiples of 5 so ties are common.
        #[test]
        fn waterfill_is_bitwise_the_reference(
            res in prop::collection::vec((0u8..6, 1u32..40), 0..13),
            picks in prop::collection::vec(
                (prop::collection::vec(0usize..12, 0..5), 0u8..4, 1u32..60),
                1..65,
            ),
        ) {
            let capacities: Vec<f64> = res
                .iter()
                .map(|&(kind, v)| match kind {
                    0 => 0.0,
                    1 => f64::INFINITY,
                    _ => v as f64 * 5.0,
                })
                .collect();
            let nr = capacities.len();
            let lists: Vec<Vec<usize>> = picks
                .iter()
                .map(|(rs, _, _)| if nr == 0 { vec![] } else { rs.iter().map(|r| r % nr).collect() })
                .collect();
            let flows: Vec<AllocFlow> = picks
                .iter()
                .zip(&lists)
                .map(|(&(_, kind, v), rs)| {
                    let cap = match (kind, rs.first()) {
                        (0, _) => f64::INFINITY,
                        (1, Some(&r)) => {
                            let load = lists.iter().flatten().filter(|&&x| x == r).count();
                            capacities[r] / load as f64
                        }
                        _ => v as f64 * 2.5,
                    };
                    AllocFlow { resources: rs.clone(), cap }
                })
                .collect();
            let got = max_min_fair(&capacities, &flows);
            let want = reference_max_min_fair(&capacities, &flows);
            prop_assert_eq!(got.len(), want.len());
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert!(g.to_bits() == w.to_bits(), "flow {}: {} vs {}", i, g, w);
            }
        }
    }

    #[test]
    fn a_near_tie_freezes_at_the_bottleneck_share() {
        // Two resources whose fair shares differ by less than the
        // bottleneck test's `eps`: both freeze in one round, at the smaller.
        let capacities = [10.0, 10.0 * (1.0 + 1e-13)];
        let flows = [flow(&[0], f64::INFINITY), flow(&[1], f64::INFINITY)];
        assert!(capacities[1] > capacities[0]);
        assert_eq!(max_min_fair(&capacities, &flows), vec![10.0, 10.0]);
        assert_eq!(
            reference_max_min_fair(&capacities, &flows),
            vec![10.0, 10.0]
        );
    }

    #[test]
    fn a_waterfill_is_reusable_across_problems() {
        // A big problem, then a small one in the same buffers: nothing of
        // the first may leak into the second.
        let mut fill = WaterFill::default();
        fill.clear();
        for c in [100.0, 30.0, 60.0] {
            fill.push_resource(c);
        }
        for rs in [&[0usize, 1][..], &[1, 2], &[2], &[0]] {
            for &r in rs {
                fill.push_flow_resource(r);
            }
            fill.end_flow(f64::INFINITY);
        }
        assert_eq!(fill.solve(), &[15.0, 15.0, 45.0, 85.0][..]);
        fill.clear();
        fill.push_resource(100.0);
        fill.push_flow_resource(0);
        fill.end_flow(10.0);
        fill.push_flow_resource(0);
        fill.end_flow(f64::INFINITY);
        assert_eq!(fill.solve(), &[10.0, 90.0][..]);
    }
}
