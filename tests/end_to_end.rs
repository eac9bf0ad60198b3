//! Cross-crate integration tests: the whole prototype working together.

use esg::core::{esg_testbed, fetch_and_analyze, standard_synth};
use esg::nws::mds;
use esg::replica::Policy;
use esg::reqman::submit_request;
use esg::simnet::{SimDuration, SimTime};

fn published(seed: u64) -> (esg::core::EsgTestbed, esg::cdms::SynthParams) {
    let mut tb = esg_testbed(seed);
    let synth = standard_synth(32, 5);
    tb.publish_dataset("pcm_b06.61", 32, 8, 10_000_000, &[1, 3]);
    tb.start_nws(SimDuration::from_secs(25));
    tb.sim.run_until(SimTime::from_secs(100));
    (tb, synth)
}

#[test]
fn full_pipeline_metadata_to_visualization() {
    let (mut tb, synth) = published(1);
    let (outcome, product) = fetch_and_analyze(
        &mut tb,
        "pcm_b06.61",
        "pr",
        (0, 16),
        synth,
        SimTime::from_secs(7200),
    )
    .unwrap();
    assert_eq!(outcome.files.len(), 2);
    assert!(outcome.files.iter().all(|f| f.done));
    // Precipitation is non-negative everywhere.
    assert!(product.stats.min >= 0.0);
    assert!(product.stats.max > 1.0, "somewhere it rains");
    assert!(!product.ascii.is_empty());
}

#[test]
fn concurrent_requests_from_multiple_users() {
    let (mut tb, _) = published(2);
    let files = tb.sim.world.metadata.request_files("pcm_b06.61").unwrap();
    let client = tb.client;
    // Three overlapping requests ("multiple users concurrently", §4).
    for chunk in files.chunks(2) {
        submit_request(&mut tb.sim, client, chunk.to_vec(), |s, o| {
            s.world.outcomes.push(o)
        });
    }
    tb.sim.run_until(SimTime::from_secs(7200));
    assert_eq!(tb.sim.world.outcomes.len(), 2);
    assert!(tb
        .sim
        .world
        .outcomes
        .iter()
        .all(|o| o.files.iter().all(|f| f.done)));
}

#[test]
fn nws_measurements_flow_into_mds_directory() {
    let (mut tb, _) = published(3);
    // Publish NWS forecasts into the MDS directory, then read them back
    // the way the request manager's §5 description says it does.
    let pairs: Vec<_> = tb.sites.iter().map(|s| (s.node, tb.client)).collect();
    let names: std::collections::HashMap<_, _> = tb
        .sites
        .iter()
        .map(|s| (s.node, s.host.clone()))
        .chain(std::iter::once((tb.client, "vcdat.desktop".to_string())))
        .collect();
    let name_of = move |n: esg::simnet::NodeId| names[&n].clone();
    let mds_dir = &mut tb.sim.world.mds;
    mds::publish(&tb.sim.world.nws, &pairs, &name_of, mds_dir);
    let bw = mds::lookup_bandwidth(&tb.sim.world.mds, "pcmdi.llnl.gov", "vcdat.desktop");
    assert!(bw.is_some(), "LLNL forecast published to MDS");
    assert!(bw.unwrap() > 0.0);
}

#[test]
fn policy_choice_changes_selection_behaviour() {
    // With BestBandwidth, the faster (622 Mb/s access) LLNL site should
    // win over the 155 Mb/s ISI site for nearly all requests.
    let (mut tb, _) = published(4);
    tb.sim.world.rm.selector = esg::replica::ReplicaSelector::new(Policy::BestBandwidth, 9);
    let files = tb.sim.world.metadata.request_files("pcm_b06.61").unwrap();
    let client = tb.client;
    submit_request(&mut tb.sim, client, files, |s, o| s.world.outcomes.push(o));
    tb.sim.run_until(SimTime::from_secs(7200));
    let o = &tb.sim.world.outcomes[0];
    // publish_dataset placed replicas at sites[1] (LLNL) and sites[3] (ANL,
    // same 622 Mb/s access but 25 ms away): NWS should prefer LLNL.
    let llnl_picks = o
        .files
        .iter()
        .filter(|f| f.replica_host.as_deref() == Some("pcmdi.llnl.gov"))
        .count();
    assert!(
        llnl_picks * 2 >= o.files.len(),
        "BestBandwidth should mostly pick the fast close site: {llnl_picks}/{}",
        o.files.len()
    );
}

#[test]
fn netlogger_ulm_export_captures_the_run() {
    let (mut tb, synth) = published(5);
    fetch_and_analyze(
        &mut tb,
        "pcm_b06.61",
        "tas",
        (0, 8),
        synth,
        SimTime::from_secs(7200),
    )
    .unwrap();
    let ulm = tb.sim.world.rm.log.to_ulm();
    assert!(ulm.contains("EVNT=rm.request.submit"));
    assert!(ulm.contains("EVNT=rm.replica.selected"));
    assert!(ulm.contains("EVNT=rm.file.complete"));
    assert!(ulm.contains("EVNT=rm.request.complete"));
    // Timestamps are monotone.
    let times: Vec<f64> = ulm
        .lines()
        .filter_map(|l| l.strip_prefix("DATE=")?.split(' ').next()?.parse().ok())
        .collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn tape_resident_data_is_slower_but_cached_after() {
    let mut tb = esg_testbed(6);
    tb.publish_dataset("deep_archive", 8, 8, 12_500_000, &[0]); // HPSS site only
    tb.start_nws(SimDuration::from_secs(25));
    tb.sim.run_until(SimTime::from_secs(100));
    let collection = tb.sim.world.metadata.collection_of("deep_archive").unwrap();
    let file = tb.sim.world.metadata.all_files("deep_archive").unwrap()[0]
        .name
        .clone();
    let client = tb.client;
    submit_request(
        &mut tb.sim,
        client,
        vec![(collection.clone(), file.clone())],
        |s, o| s.world.outcomes.push(o),
    );
    tb.sim.run_until(SimTime::from_secs(7200));
    let cold = {
        let o = &tb.sim.world.outcomes[0];
        o.finished.since(o.started).as_secs_f64()
    };
    submit_request(&mut tb.sim, client, vec![(collection, file)], |s, o| {
        s.world.outcomes.push(o)
    });
    tb.sim.run_until(SimTime::from_secs(14_400));
    let warm = {
        let o = &tb.sim.world.outcomes[1];
        o.finished.since(o.started).as_secs_f64()
    };
    assert!(
        cold > 60.0,
        "cold read must pay tape mount+seek+stream: {cold}"
    );
    assert!(
        warm < cold / 3.0,
        "second read hits the HRM disk cache: {cold} vs {warm}"
    );
}

#[test]
fn gsi_secured_end_to_end_identity_flow() {
    // The security layer end to end: user delegates to the RM's proxy,
    // the proxy authenticates to a storage server, identities hold.
    use esg::gsi::{mutual_authenticate, CertificateAuthority};
    let ca = CertificateAuthority::new("/O=ESG/CN=CA", b"root");
    let user = ca.issue("/O=ESG/CN=climate-scientist", 0, 86_400);
    let server = ca.issue("/O=ESG/CN=gridftp.llnl.gov", 0, 86_400);
    // User delegates a 1-hour proxy to the request manager.
    let rm_proxy = user.delegate(0, 3_600, b"request-manager").unwrap();
    let user_secret = user.secret;
    let (client_id, server_id, keys) = mutual_authenticate(
        &rm_proxy,
        &server,
        &ca,
        100,
        &|s| (s.0 == "/O=ESG/CN=climate-scientist").then_some(user_secret),
        b"rm-to-llnl",
    )
    .unwrap();
    assert_eq!(client_id.0, "/O=ESG/CN=climate-scientist");
    assert_eq!(server_id.0, "/O=ESG/CN=gridftp.llnl.gov");
    // And the session keys protect a data channel.
    let (mut tx, mut rx) = esg::gsi::channel_pair(&keys, esg::gsi::Protection::Private);
    let sealed = tx.seal(b"climate bytes");
    assert_eq!(rx.open(&sealed).unwrap(), b"climate bytes");
}

#[test]
fn monitor_polls_do_not_force_recomputes() {
    // Regression: the RM monitor loop polls progress every few seconds via
    // transfer_bytes/transfer_rate/transfer_stalled. Those are read-only
    // queries — during a steady transfer (ramps finished, nothing dirty)
    // they must not trigger any allocation recomputes. Before the
    // incremental allocator, every poll forced a full solve.
    let mut tb = esg_testbed(9);
    // One 20 GB file on a disk site: long enough to straddle the window.
    tb.publish_dataset("steady.b06", 8, 8, 2_500_000_000, &[1]);
    let collection = tb.sim.world.metadata.collection_of("steady.b06").unwrap();
    let file = tb.sim.world.metadata.all_files("steady.b06").unwrap()[0]
        .name
        .clone();
    let client = tb.client;
    tb.sim.run_until(SimTime::from_secs(50));
    submit_request(&mut tb.sim, client, vec![(collection, file)], |s, o| {
        s.world.outcomes.push(o)
    });
    // Let connection setup and the slow-start ramp finish.
    tb.sim.run_until(SimTime::from_secs(120));
    assert!(
        tb.sim.world.outcomes.is_empty(),
        "transfer finished before the steady window; grow the file"
    );
    let before = tb.sim.net.alloc_stats();
    // ~20 poll intervals of steady transfer.
    tb.sim.run_until(SimTime::from_secs(180));
    assert!(
        tb.sim.world.outcomes.is_empty(),
        "transfer finished inside the steady window; grow the file"
    );
    let after = tb.sim.net.alloc_stats();
    assert_eq!(
        after.recompute_passes, before.recompute_passes,
        "monitor polls forced allocation recomputes during a steady transfer"
    );
    assert_eq!(after.components_solved, before.components_solved);
    // Sanity: the transfer is actually moving.
    tb.sim.run_until(SimTime::from_secs(7200));
    assert_eq!(tb.sim.world.outcomes.len(), 1);
    assert!(tb.sim.world.outcomes[0].files.iter().all(|f| f.done));
}
