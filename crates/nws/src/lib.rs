//! # esg-nws — Network Weather Service
//!
//! "NWS is a distributed system that periodically monitors and dynamically
//! forecasts the performance that various network and computational
//! resources can deliver over a given time interval" (§5). The request
//! manager uses its bandwidth forecasts to pick the best replica.
//!
//! * [`forecast`] — Wolski's predictor portfolio (last value, means,
//!   medians, exponential smoothing) and the adaptive meta-forecaster that
//!   answers with the historically best method.
//! * [`registry`] — per-path measurement store + the periodic probe sensor
//!   that runs on the simulator.
//! * [`mds`] — publication of forecasts into an LDAP directory, matching
//!   how the prototype accessed NWS "by the MDS information service".

pub mod forecast;
pub mod mds;
pub mod registry;

pub use forecast::{
    AdaptiveForecaster, ExpSmoothing, Forecaster, LastValue, RunningMean, SlidingMean,
    SlidingMedian,
};
pub use registry::{start_sensor, HasNws, NwsRegistry, DEFAULT_PROBE_BYTES};
