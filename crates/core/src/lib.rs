//! # esg-core — the Earth System Grid prototype, end to end
//!
//! Composes every subsystem into the Figure 1 architecture and provides the
//! paper's testbeds, the VCDAT-like client facade, the related-work
//! baselines and the experiment runners that regenerate each table/figure.

pub mod client;
pub mod experiments;
pub mod scenario;
pub mod world;

pub use client::{fetch_and_analyze, selection_screen, AnalysisProduct};
pub use experiments::{
    ablation_channel_caching, ablation_cpu_model, baseline_comparison, hrm_staging_comparison,
    nws_forecast_accuracy, planner_spread_comparison, replica_policy_comparison, run_fig8,
    run_table1, run_table1_metered, subsetting_comparison, sweep_buffer_size,
    sweep_parallel_streams, sweep_stripes, Fig8Results, SubsettingResult, Table1Config,
    Table1Results, SWEEP_LINK_MBPS,
};
pub use scenario::{
    esg_testbed, fig8_testbed, sc2000_scinet, standard_synth, EsgTestbed, Fig8Testbed,
    Sc2000Config, Sc2000Testbed, Site,
};
pub use world::{EsgSim, EsgWorld};
