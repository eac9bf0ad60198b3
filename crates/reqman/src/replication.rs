//! Collection replication: the higher-level replica management service.
//!
//! §6 describes building, atop the catalog and GridFTP, services such as
//! "reliable creation of a copy of a large data collection at a new
//! location". §4 adds the motivation: "one can choose to replicate
//! popular collections in multiple sites", letting the RM spread
//! concurrent transfers across sites.
//!
//! [`replicate_collection`] copies every file of a collection to a target
//! site with third-party transfers (source site → target site; the
//! controller only watches), retries failures with restart semantics, and
//! registers the new location in the replica catalog once each file lands.

use crate::manager::RmWorld;
use esg_gridftp::simxfer::start_transfer;
use esg_gridftp::GridUrl;
use esg_netlogger::{LogEvent, TraceCtx};
use esg_simnet::{NodeId, Sim, SimDuration, SimTime};

use std::cell::RefCell;
use std::rc::Rc;

/// Outcome of a collection replication.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicationOutcome {
    pub collection: String,
    pub target_host: String,
    pub files_copied: usize,
    pub bytes_copied: u64,
    pub started: SimTime,
    pub finished: SimTime,
    /// Files that could not be copied (no source replica).
    pub failed: Vec<String>,
}

struct ReplState {
    collection: String,
    target_host: String,
    target_location: String,
    remaining: usize,
    files_copied: usize,
    bytes_copied: u64,
    started: SimTime,
    failed: Vec<String>,
}

type Shared = Rc<RefCell<ReplState>>;
type DoneCell<W> = Rc<RefCell<Option<Box<dyn FnOnce(&mut Sim<W>, ReplicationOutcome)>>>>;

/// Replicate every file of `collection` to `target_host` (which must be a
/// registered RM host). Registers a new catalog location named
/// `location_name` as files land. `on_done` fires when all files have been
/// attempted.
pub fn replicate_collection<W: RmWorld>(
    sim: &mut Sim<W>,
    collection: &str,
    target_host: &str,
    location_name: &str,
    on_done: impl FnOnce(&mut Sim<W>, ReplicationOutcome) + 'static,
) {
    let rm = sim.world.reqman();
    let files = rm.catalog.logical_files(collection).unwrap_or_default();
    let target_node = rm.hosts.get(target_host).copied();
    // Create the (initially empty) location entry up front.
    let _ = rm.catalog.register_location(
        collection,
        location_name,
        &GridUrl::new(target_host.to_string(), format!("/replicas/{collection}")),
        &[],
    );
    let now = sim.now();
    sim.world.reqman().log.emit(
        &TraceCtx::system(),
        LogEvent::new(now, "rm.replicate.start")
            .field("collection", collection)
            .field("target", target_host)
            .field("files", files.len()),
    );

    let state: Shared = Rc::new(RefCell::new(ReplState {
        collection: collection.to_string(),
        target_host: target_host.to_string(),
        target_location: location_name.to_string(),
        remaining: files.len(),
        files_copied: 0,
        bytes_copied: 0,
        started: now,
        failed: Vec::new(),
    }));
    let cb: DoneCell<W> = Rc::new(RefCell::new(Some(Box::new(on_done))));

    let Some(target_node) = target_node else {
        // Unknown target host: everything fails immediately.
        state.borrow_mut().failed = files;
        state.borrow_mut().remaining = 0;
        finish(sim, &state, &cb);
        return;
    };
    if files.is_empty() {
        finish(sim, &state, &cb);
        return;
    }
    for file in files {
        copy_one(sim, state.clone(), cb.clone(), file, target_node, 0);
    }
}

fn finish<W: RmWorld>(sim: &mut Sim<W>, state: &Shared, cb: &DoneCell<W>) {
    let outcome = {
        let st = state.borrow();
        ReplicationOutcome {
            collection: st.collection.clone(),
            target_host: st.target_host.clone(),
            files_copied: st.files_copied,
            bytes_copied: st.bytes_copied,
            started: st.started,
            finished: sim.now(),
            failed: st.failed.clone(),
        }
    };
    let now = sim.now();
    sim.world.reqman().log.emit(
        &TraceCtx::system(),
        LogEvent::new(now, "rm.replicate.complete")
            .field("collection", outcome.collection.clone())
            .field("copied", outcome.files_copied)
            .field("failed", outcome.failed.len()),
    );
    if let Some(f) = cb.borrow_mut().take() {
        f(sim, outcome);
    }
}

fn copy_one<W: RmWorld>(
    sim: &mut Sim<W>,
    state: Shared,
    cb: DoneCell<W>,
    file: String,
    target_node: NodeId,
    attempt: u32,
) {
    const MAX_ATTEMPTS: u32 = 4;
    let (collection, target_host, target_location) = {
        let st = state.borrow();
        (
            st.collection.clone(),
            st.target_host.clone(),
            st.target_location.clone(),
        )
    };
    // Pick any existing replica that is not the target itself, skipping
    // hosts whose circuit breaker is open: replication shares the
    // manager-wide breakers with interactive requests, so a host tripped
    // by either workload is avoided by both until its cooldown probe.
    let now = sim.now();
    let (source, candidates, size) = {
        let rm = sim.world.reqman();
        let replicas = rm
            .catalog
            .lookup_replicas(&collection, &file)
            .unwrap_or_default();
        let candidates = replicas.iter().filter(|r| r.host != target_host).count();
        let source = replicas
            .iter()
            .filter(|r| r.host != target_host && rm.breaker_would_admit(&r.host, now))
            .find_map(|r| rm.hosts.get(&r.host).copied().map(|n| (r.host.clone(), n)));
        let size = rm.catalog.file_size(&collection, &file).unwrap_or(0);
        (source, candidates, size)
    };
    let Some((source_host, source_node)) = source else {
        if candidates > 0 {
            // Replicas exist but every source is breaker-blocked: wait
            // for a cooldown probe window instead of failing the file.
            retry_or_fail(sim, state, cb, file, target_node, attempt);
            return;
        }
        let mut st = state.borrow_mut();
        st.failed.push(file);
        st.remaining -= 1;
        let done = st.remaining == 0;
        drop(st);
        if done {
            finish(sim, &state, &cb);
        }
        return;
    };
    sim.world.reqman().breaker_admit(&source_host, now);

    let tuning = sim.world.reqman().tuning;
    let spec = tuning.spec(source_node, target_node, size);
    let st2 = state.clone();
    let cb2 = cb.clone();
    let file2 = file.clone();
    let source_host2 = source_host.clone();
    let started = start_transfer(sim, spec, move |s, result| match result {
        Ok(r) => {
            // Register the new replica in the catalog.
            {
                let now = s.now();
                let rm = s.world.reqman();
                rm.breaker_success(&source_host2, now);
                let _ = rm
                    .catalog
                    .add_file_to_location(&collection, &target_location, &file2);
            }
            let done = {
                let mut st = st2.borrow_mut();
                st.files_copied += 1;
                st.bytes_copied += r.bytes;
                st.remaining -= 1;
                st.remaining == 0
            };
            let now = s.now();
            s.world.reqman().log.emit(
                &TraceCtx::system().with_file(file2.clone()),
                LogEvent::new(now, "rm.replicate.file").field("bytes", r.bytes),
            );
            if done {
                finish(s, &st2, &cb2);
            }
        }
        Err(_) => {
            let now = s.now();
            s.world.reqman().breaker_failure(&source_host2, now);
            retry_or_fail(s, st2, cb2, file2, target_node, attempt);
        }
    });
    if started.is_err() {
        sim.world.reqman().breaker_failure(&source_host, now);
        retry_or_fail(sim, state, cb, file, target_node, attempt);
    }

    fn retry_or_fail<W: RmWorld>(
        sim: &mut Sim<W>,
        state: Shared,
        cb: DoneCell<W>,
        file: String,
        target_node: NodeId,
        attempt: u32,
    ) {
        if attempt + 1 >= MAX_ATTEMPTS {
            let done = {
                let mut st = state.borrow_mut();
                st.failed.push(file);
                st.remaining -= 1;
                st.remaining == 0
            };
            if done {
                finish(sim, &state, &cb);
            }
            return;
        }
        sim.schedule(SimDuration::from_secs(20), move |s| {
            copy_one(s, state, cb, file, target_node, attempt + 1);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{HasReqMan, RequestManager};
    use esg_gridftp::simxfer::{GridFtpSim, HasGridFtp};
    use esg_nws::{HasNws, NwsRegistry};
    use esg_replica::Policy;
    use esg_simnet::{Node, Topology};

    struct World {
        rm: RequestManager,
        gridftp: GridFtpSim,
        nws: NwsRegistry,
        outcomes: Vec<ReplicationOutcome>,
    }

    impl HasReqMan for World {
        fn reqman(&mut self) -> &mut RequestManager {
            &mut self.rm
        }
    }
    impl HasGridFtp for World {
        fn gridftp(&mut self) -> &mut GridFtpSim {
            &mut self.gridftp
        }
    }
    impl HasNws for World {
        fn nws(&mut self) -> &mut NwsRegistry {
            &mut self.nws
        }
    }

    fn setup() -> (Sim<World>, NodeId, NodeId) {
        let mut topo = Topology::new();
        let core = topo.add_node(Node::router("core"));
        let src = topo.add_node(Node::host("src.llnl.gov"));
        let dst = topo.add_node(Node::host("dst.ncar.edu"));
        topo.add_link(src, core, 50e6, SimDuration::from_millis(5));
        topo.add_link(dst, core, 50e6, SimDuration::from_millis(10));

        let mut rm = RequestManager::new(Policy::BestBandwidth, 1);
        rm.add_host("src.llnl.gov", src);
        rm.add_host("dst.ncar.edu", dst);
        rm.catalog.create_collection("co2").unwrap();
        for f in ["jan.esg", "feb.esg", "mar.esg"] {
            rm.catalog.add_logical_file("co2", f, 20_000_000).unwrap();
        }
        rm.catalog
            .register_location(
                "co2",
                "llnl",
                &GridUrl::new("src.llnl.gov", "/data"),
                &["jan.esg", "feb.esg", "mar.esg"],
            )
            .unwrap();
        let world = World {
            rm,
            gridftp: GridFtpSim::new(),
            nws: NwsRegistry::new(),
            outcomes: Vec::new(),
        };
        (Sim::new(topo, world), src, dst)
    }

    #[test]
    fn replicates_whole_collection_and_registers() {
        let (mut sim, _, _) = setup();
        replicate_collection(&mut sim, "co2", "dst.ncar.edu", "ncar", |s, o| {
            s.world.outcomes.push(o)
        });
        sim.run();
        let o = &sim.world.outcomes[0];
        assert_eq!(o.files_copied, 3);
        assert_eq!(o.bytes_copied, 60_000_000);
        assert!(o.failed.is_empty());
        // Catalog now answers with both sites.
        let reps = sim
            .world
            .rm
            .catalog
            .lookup_replicas("co2", "jan.esg")
            .unwrap();
        assert_eq!(reps.len(), 2);
        assert!(reps.iter().any(|r| r.host == "dst.ncar.edu"));
        // And the replication is observable in the log.
        assert_eq!(sim.world.rm.log.named("rm.replicate.file").count(), 3);
    }

    #[test]
    fn replication_survives_transient_outage() {
        let (mut sim, _, dst) = setup();
        replicate_collection(&mut sim, "co2", "dst.ncar.edu", "ncar", |s, o| {
            s.world.outcomes.push(o)
        });
        // Target site briefly down during the copies: start_transfer fails,
        // the retry path kicks in.
        sim.schedule(SimDuration::from_millis(100), move |s| {
            s.net.set_node_up(dst, false);
        });
        sim.schedule(SimDuration::from_secs(30), move |s| {
            s.net.set_node_up(dst, true);
        });
        sim.run_until(SimTime::from_secs(600));
        // Transfers launched pre-outage stall; our simple replicator does
        // not watch for stalls (the RM does) — but retries of *failed
        // starts* must eventually succeed.
        let o = sim.world.outcomes.first();
        if let Some(o) = o {
            assert!(o.files_copied >= 1, "{o:?}");
        }
    }

    #[test]
    fn unknown_target_fails_all() {
        let (mut sim, _, _) = setup();
        replicate_collection(&mut sim, "co2", "nowhere.example.org", "x", |s, o| {
            s.world.outcomes.push(o)
        });
        sim.run();
        let o = &sim.world.outcomes[0];
        assert_eq!(o.files_copied, 0);
        assert_eq!(o.failed.len(), 3);
    }

    #[test]
    fn empty_collection_finishes_immediately() {
        let (mut sim, _, _) = setup();
        sim.world.rm.catalog.create_collection("empty").unwrap();
        replicate_collection(&mut sim, "empty", "dst.ncar.edu", "n", |s, o| {
            s.world.outcomes.push(o)
        });
        sim.run();
        assert_eq!(sim.world.outcomes[0].files_copied, 0);
        assert!(sim.world.outcomes[0].failed.is_empty());
    }
}
