//! The SC'2000 striped-transfer experiment (Table 1), at demo length.
//!
//! Recreates the SciNet configuration — eight GigE workstations in Dallas
//! striping a 2 GB file to eight at LBNL with up to four TCP streams per
//! server (32 total) and 1 MB buffers — runs it for ten simulated minutes,
//! and prints the Table 1 statistics next to the paper's one-hour numbers.
//! (`cargo run --release -p esg-lab --bin lab -- table1` runs the full hour.)
//!
//! Run with: `cargo run --release --example sc2000_demo`

use esg::core::{run_table1, Table1Config};
use esg::simnet::SimDuration;

fn main() {
    println!("== SC'2000 SciNet striped transfer (Table 1, 10-minute demo) ==\n");
    let cfg = Table1Config {
        duration: SimDuration::from_mins(10),
        ..Table1Config::default()
    };
    println!("simulating 10 minutes of SC'00 show-floor transfer activity...\n");

    let r = run_table1(cfg);
    println!(
        "configuration: {} -> {} striped servers, {} streams/server ({} total), 1 MB buffers\n",
        r.striped_servers_source,
        r.striped_servers_destination,
        r.max_streams_per_server,
        r.max_streams_total,
    );

    println!("{:<44} {:>12} {:>12}", "metric", "measured", "paper (1h)");
    println!("{:-<70}", "");
    println!(
        "{:<44} {:>12} {:>12}",
        "Striped servers at source location", r.striped_servers_source, 8
    );
    println!(
        "{:<44} {:>12} {:>12}",
        "Striped servers at destination location", r.striped_servers_destination, 8
    );
    println!(
        "{:<44} {:>12} {:>12}",
        "Max simultaneous TCP streams per server", r.max_streams_per_server, 4
    );
    println!(
        "{:<44} {:>12} {:>12}",
        "Max simultaneous TCP streams overall", r.max_streams_total, 32
    );
    println!(
        "{:<44} {:>9.2} Gb/s {:>7} Gb/s",
        "Peak transfer rate over 0.1 seconds", r.peak_0_1s_gbps, 1.55
    );
    println!(
        "{:<44} {:>9.2} Gb/s {:>7} Gb/s",
        "Peak transfer rate over 5 seconds", r.peak_5s_gbps, 1.03
    );
    println!(
        "{:<44} {:>8.1} Mb/s {:>6} Mb/s",
        "Sustained transfer rate", r.sustained_mbps, 512.9
    );
    println!(
        "{:<44} {:>9.1} GB {:>9}",
        "Total data transferred (10 min here, 1 h paper)", r.total_gbytes, "230.8 GB"
    );
    println!(
        "\n{} partition transfers completed; every transfer paid full\n\
         connection setup + slow start (SC'00 had no data-channel caching).",
        r.transfers_completed
    );
}
