//! The dynamic transfer monitor (Figure 4).
//!
//! Submits a three-file request (one file tape-resident behind the HRM)
//! and prints the monitor screen at several instants: progress bars on
//! top, replica selections in the middle, NetLogger messages at the
//! bottom — the same three panes as the paper's Figure 4.
//!
//! Run with: `cargo run --release --example transfer_monitor`

use esg::core::esg_testbed;
use esg::reqman::{render_monitor, submit_request};
use esg::simnet::{SimDuration, SimTime};

fn main() {
    let mut tb = esg_testbed(4);
    // Dataset with three chunks; disk replicas at LLNL + the tape site.
    tb.publish_dataset("pcm_b06.61", 24, 8, 25_000_000, &[0, 1]);
    tb.start_nws(SimDuration::from_secs(20));
    tb.sim.run_until(SimTime::from_secs(80));

    let collection = tb.sim.world.metadata.collection_of("pcm_b06.61").unwrap();
    let files = tb.sim.world.metadata.request_files("pcm_b06.61").unwrap();

    // Force one file to be tape-only so the staging pane shows.
    // (Remove its disk replica at LLNL; it remains at the HPSS site.)
    let tape_file = files[2].1.clone();
    tb.sim
        .world
        .rm
        .catalog
        .remove_file_from_location(&collection, "pcmdi.llnl.gov", &tape_file)
        .unwrap();

    let client = tb.client;
    let id = submit_request(&mut tb.sim, client, files, |s, o| s.world.outcomes.push(o));

    // Snapshot the monitor at a few instants, like a refreshing screen.
    for secs in [82.0, 95.0, 130.0, 220.0] {
        tb.sim.run_until(SimTime::from_secs_f64(secs));
        match tb.sim.world.rm.status(id) {
            Some(files) => {
                let screen = render_monitor(tb.sim.now(), &files, &tb.sim.world.rm.log);
                println!("{screen}");
                println!("{}", "=".repeat(72));
            }
            None => break, // finished early
        }
    }

    tb.sim.run_until(SimTime::from_secs(4000));
    let outcome = tb.sim.world.outcomes.first().expect("request completes");
    println!(
        "\nrequest complete at t={:.1}s — {} files, {:.0} MB total",
        outcome.finished.as_secs_f64(),
        outcome.files.len(),
        outcome.total_bytes as f64 / 1e6
    );
    for f in &outcome.files {
        println!(
            "  {:<34} from {}",
            f.name,
            f.replica_host.as_deref().unwrap_or("?")
        );
    }
}
