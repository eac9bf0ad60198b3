//! Differential property tests for the online lifeline analyzer
//! (`LiveLifelines`): across random seeds, stall thresholds and fault
//! schedules (node outages and name-service blackouts hitting replica
//! holders, the tape site and the target alike), the tap must hold exactly
//! what an independent recount of the finished trace says it must — the
//! open spans with their parents, every file's closed-phase totals, the
//! trace horizon and its tallies — its totals must equal each offline
//! `LifelineSet::from_log` lifeline's, and the live stall probes must have
//! fired for *exactly* the spans the offline detector flags post-hoc.
//!
//! Case count is `PROPTEST_CASES`-bounded (default 96, CI runs 128);
//! each case runs one mixed disk+tape request under the fault schedule.

use esg::core::esg_testbed;
use esg::netlogger::LifelineSet;
use esg::reqman::submit_request;
use esg::simnet::prelude::{inject_all, Fault, FaultKind};
use esg::simnet::{SimDuration, SimTime};
use esg::storage::{Hrm, TapeParams};
use proptest::prelude::*;
use std::collections::BTreeSet;

#[path = "../crates/netlogger/tests/support/recount.rs"]
mod recount;

proptest! {
    /// The streaming-analyzer contract, differentially: the tap holds what
    /// the recount says, its totals agree with the from-scratch offline
    /// pass, and live stall detection is neither early, late, nor lossy.
    #[test]
    fn online_analyzer_is_bit_identical_to_offline_under_faults(
        seed in 0u64..5_000,
        threshold_choice in 0usize..4,
        faults in prop::collection::vec((0usize..7, 100u64..400, 1u64..60), 0..5),
    ) {
        let threshold_s = [5u64, 10, 20, 40][threshold_choice];
        let mut tb = esg_testbed(seed);
        tb.sim
            .world
            .rm
            .enable_live_analysis(SimDuration::from_secs(threshold_s));
        // One slow tape drive so staging reliably outlives the smaller
        // thresholds.
        tb.sim.world.rm.add_hrm(
            "hpss.lbl.gov",
            Hrm::new(
                TapeParams {
                    drives: 1,
                    mount: SimDuration::from_secs(10),
                    seek: SimDuration::from_secs(5),
                    rate: 25e6,
                },
                1 << 38,
            ),
        );
        tb.publish_dataset("prop.disk", 8, 2, 2_000_000, &[1, 3]);
        tb.publish_dataset("prop.tape", 2, 1, 4_000_000, &[0]);
        tb.start_nws(SimDuration::from_secs(25));
        tb.sim.run_until(SimTime::from_secs(100));

        // Fault targets 0..6 take a storage site down; 6 is a name-service
        // blackout. Schedules may overlap the request's whole lifetime.
        let schedule: Vec<Fault> = faults
            .iter()
            .map(|&(target, at, dur)| {
                Fault::new(
                    SimTime::from_secs(at),
                    SimDuration::from_secs(dur),
                    if target < tb.sites.len() {
                        FaultKind::NodeDown(tb.sites[target].node)
                    } else {
                        FaultKind::NameServiceDown
                    },
                )
            })
            .collect();
        inject_all(&mut tb.sim, &schedule);

        let tc = tb.sim.world.metadata.collection_of("prop.tape").unwrap();
        let mut files = tb.sim.world.metadata.request_files("prop.disk").unwrap();
        files.truncate(3);
        files.push((
            tc.clone(),
            tb.sim.world.metadata.all_files("prop.tape").unwrap()[0]
                .name
                .clone(),
        ));
        let client = tb.client;
        submit_request(&mut tb.sim, client, files, |s, o| s.world.outcomes.push(o));
        // No completion assertion: a schedule that kills the only replica
        // long enough fails files, and the analyzer must agree on the
        // resulting partial trace too.
        tb.sim.run_until(SimTime::from_secs(2_000));

        let rm = &tb.sim.world.rm;
        let live = rm.log.live().expect("analyzer attached");
        prop_assert_eq!(live.events_seen(), rm.log.len() as u64);

        prop_assert_eq!(recount::tap_matches_recount(live, &rm.log), Ok(()));
        let offline = LifelineSet::from_log(&rm.log);
        prop_assert_eq!(live.trace_end(), offline.trace_end);
        let t = threshold_s as f64;
        // Incrementally-maintained per-file phase totals (never rebuilt)
        // agree with each offline lifeline's tiling.
        for l in &offline.lifelines {
            let inc = live
                .file_phase_totals(l.request, &l.file)
                .unwrap_or_default();
            prop_assert_eq!(inc, l.phase_totals(), "incremental totals for {}", l.file);
        }

        // Live stall firings: counter, analyzer tally and trace agree, and
        // the fired span set IS the offline stall set at the armed
        // threshold — detection at open+threshold+1ns under the same
        // strict-> rule is neither early (a span that closed on time never
        // fires) nor lossy (every offline stall crossed the threshold
        // while open, so its probe fired).
        let fired: BTreeSet<u64> = rm
            .log
            .named("obs.stall")
            .map(|e| e.get_num("span").expect("span field") as u64)
            .collect();
        let fired_n = rm.log.named("obs.stall").count() as u64;
        prop_assert_eq!(rm.metrics.counter("obs.stalls"), fired_n);
        prop_assert_eq!(live.stalls_fired(), fired_n);
        prop_assert_eq!(fired.len() as u64, fired_n, "one firing per span");
        let detected: BTreeSet<u64> =
            offline.detect_stalls(t).iter().map(|s| s.span).collect();
        prop_assert_eq!(fired, detected);
    }
}
