//! # esg-simnet — deterministic flow-level WAN simulator
//!
//! The substrate under the Earth System Grid reproduction: a discrete-event
//! simulator whose network model operates at *flow* granularity (SimGrid
//! style) rather than per-packet. Active TCP streams receive max-min fair
//! shares of every resource they cross — link directions, NICs, host CPU
//! interrupt budgets, disks — with per-flow ceilings from the TCP window
//! (`window/RTT`), the Mathis loss formula, and a slow-start ramp.
//!
//! This reproduces the phenomena the SC2001 paper measures (parallel-stream
//! and striping gains, buffer-size sensitivity, CPU saturation on GigE,
//! failure stalls and restarts) while simulating a 14-hour wide-area run in
//! milliseconds, deterministically.
//!
//! ## Layers
//!
//! * [`time`] — integer-nanosecond virtual clock.
//! * [`network`] — topology: nodes (hosts/routers), links, routing, CPU model.
//! * [`allocation`] — progressive-filling max-min fair bandwidth sharing.
//! * [`tcp`] — flow-level TCP throughput model (window, Mathis, slow start).
//! * [`flownet`] — the live network: flows, progress integration, stalls.
//! * [`kernel`] — the event loop: [`Sim`] with closure events and
//!   kernel-native flow-completion callbacks, and [`Completion`], the one
//!   type-erased callback a service stores for its caller.
//! * [`failure`] — fault injection (link/node outages, degradation, DNS).
//! * [`background`] — seeded on/off cross-traffic generation.
//!
//! ## Example
//!
//! ```
//! use esg_simnet::prelude::*;
//!
//! let mut topo = Topology::new();
//! let a = topo.add_node(Node::host("dallas"));
//! let b = topo.add_node(Node::host("berkeley"));
//! topo.add_link(a, b, 100e6, SimDuration::from_millis(10));
//!
//! let mut sim: Sim<Vec<f64>> = Sim::new(topo, Vec::new());
//! sim.start_flow(
//!     FlowSpec::new(a, b, 50e6).memory_to_memory(),
//!     |s| { let t = s.now().as_secs_f64(); s.world.push(t); },
//! ).unwrap();
//! sim.run();
//! assert_eq!(sim.world.len(), 1);
//! ```

pub mod allocation;
pub mod background;
pub(crate) mod eventindex;
pub mod failure;
pub mod flownet;
pub mod kernel;
pub mod network;
pub mod profile;
pub mod tcp;
pub mod time;

pub use flownet::{AllocStats, FlowError, FlowId, FlowNet, FlowSpec, FlowState};
pub use kernel::{Completion, Sim};
pub use network::{CpuModel, Dir, Link, LinkId, Node, NodeId, NodeKind, Topology};
pub use profile::ProfileReport;
pub use time::{SimDuration, SimTime};

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::background::{start_background, BackgroundTraffic};
    pub use crate::failure::{inject, inject_all, Fault, FaultKind};
    pub use crate::flownet::{AllocStats, FlowError, FlowId, FlowNet, FlowSpec, FlowState};
    pub use crate::kernel::Sim;
    pub use crate::network::{CpuModel, Dir, Link, LinkId, Node, NodeId, NodeKind, Topology};
    pub use crate::profile::ProfileReport;
    pub use crate::tcp::{TcpParams, MSS, MSS_JUMBO};
    pub use crate::time::{SimDuration, SimTime};
}
