//! The composed simulation world for the full ESG prototype.
//!
//! Every service the Figure 1 architecture shows lives here: the GridFTP
//! engine, the NWS registry, the request manager (with replica catalog and
//! HRMs inside), the CDMS metadata catalog, an MDS directory, and the
//! outcomes the request manager hands back. Protocol crates access their
//! slice through the `Has*` traits, so they stay decoupled; this crate is
//! the only place that knows the whole shape.

use esg_gridftp::simxfer::{GridFtpSim, HasGridFtp};
use esg_metadata::MetadataCatalog;
use esg_nws::{HasNws, NwsRegistry};
use esg_reqman::{CampaignOutcome, HasReqMan, RequestManager, RequestOutcome};
use esg_simnet::Sim;

/// The ESG world: all service state.
pub struct EsgWorld {
    pub gridftp: GridFtpSim,
    pub nws: NwsRegistry,
    pub rm: RequestManager,
    pub metadata: MetadataCatalog,
    /// MDS information directory (NWS publication target).
    pub mds: esg_directory::Directory,
    /// Completed request outcomes, in completion order.
    pub outcomes: Vec<RequestOutcome>,
    /// Completed campaign outcomes, in completion order.
    pub campaigns: Vec<CampaignOutcome>,
}

impl Default for EsgWorld {
    fn default() -> Self {
        EsgWorld {
            gridftp: GridFtpSim::new(),
            nws: NwsRegistry::new(),
            rm: RequestManager::default(),
            metadata: MetadataCatalog::new(),
            mds: esg_directory::Directory::new(),
            outcomes: Vec::new(),
            campaigns: Vec::new(),
        }
    }
}

impl HasGridFtp for EsgWorld {
    fn gridftp(&mut self) -> &mut GridFtpSim {
        &mut self.gridftp
    }
}

impl HasNws for EsgWorld {
    fn nws(&mut self) -> &mut NwsRegistry {
        &mut self.nws
    }
}

impl HasReqMan for EsgWorld {
    fn reqman(&mut self) -> &mut RequestManager {
        &mut self.rm
    }
}

/// The fully-typed simulator for ESG experiments.
pub type EsgSim = Sim<EsgWorld>;

#[cfg(test)]
mod tests {
    use super::*;
    use esg_simnet::{NodeId, Topology};

    #[test]
    fn world_constructs_and_traits_resolve() {
        let mut sim: EsgSim = Sim::new(Topology::new(), EsgWorld::default());
        // Exercise each accessor once.
        let (a, b) = (NodeId(0), NodeId(1));
        assert_eq!(sim.world.gridftp().cached_channels(a, b), 0);
        assert!(sim.world.nws().history(a, b).is_empty());
        assert!(sim.world.reqman().live_requests().is_empty());
        assert!(sim.world.outcomes.is_empty());
    }
}
