//! A recompute pass does not go to the heap.
//!
//! Once the allocator's scratch buffers have grown to the shape of the
//! network, a pass — dirty lists → sorted seed list → flat component arena
//! → CSR `WaterFill` → `apply_rates` — must allocate nothing: at ESGF scale
//! the pass *is* the simulator's cost per file, and sixty short-lived heap
//! objects per pass were a third of it (EXPERIMENTS A23). This binary
//! installs a counting global allocator (which is why it is its own test
//! target) and holds the property on one `flow_storm` region — and, in a
//! second test, holds the kernel's completion drain to the same standard:
//! the list of finished flows is swapped with a spare, not dropped and
//! regrown at every completion instant.
//!
//! Run it in release too (`cargo test --release -p esg-simnet --test
//! alloc_free_pass`; CI does): that is the build whose allocation
//! behaviour the benchmark measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use esg_simnet::prelude::*;

thread_local! {
    /// `(allocations, reallocations)` made by this thread.
    static HEAP_CALLS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a const-initialised, destructor-free thread-local counter, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = HEAP_CALLS.try_with(|c| c.set((c.get().0 + 1, c.get().1)));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = HEAP_CALLS.try_with(|c| c.set((c.get().0, c.get().1 + 1)));
        // SAFETY: as for `dealloc`, and the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One region of the benchmark's `flow_storm`: a server feeding four
/// clients through a shared uplink, 30 ms RTT.
fn storm_region() -> (Topology, NodeId, Vec<NodeId>) {
    let mut topo = Topology::new();
    let server = topo.add_node(Node::host("server"));
    let router = topo.add_node(Node::router("router"));
    topo.add_link(server, router, 125e6, SimDuration::from_millis(10));
    let clients: Vec<NodeId> = (0..4)
        .map(|c| {
            let client = topo.add_node(Node::host(format!("client{c}")));
            topo.add_link(router, client, 77.75e6, SimDuration::from_millis(5));
            client
        })
        .collect();
    (topo, server, clients)
}

#[test]
fn a_warm_recompute_pass_performs_no_heap_allocation() {
    let (topo, server, clients) = storm_region();
    let mut net = FlowNet::new(topo);

    // 31 flows, one arriving each millisecond, all large enough that none
    // completes inside the test: every later pass is a slow-start boundary
    // (a 2 MB window takes ten doublings, 300 ms, to open).
    for i in 0..31u64 {
        let at = SimTime::ZERO + SimDuration::from_millis(i);
        net.advance_to(at);
        let spec = FlowSpec::new(server, clients[i as usize % 4], 150e6 + i as f64 * 1e6)
            .window(2e6)
            .memory_to_memory();
        net.start_flow(at, spec).expect("the region is connected");
    }
    // Warm-up: by 100 ms every flow has been through several passes over
    // the full 31-flow component, so every buffer has reached its size.
    net.advance_to(SimTime::ZERO + SimDuration::from_millis(100));

    let passes_before = net.alloc_stats().recompute_passes;
    let heap_before = HEAP_CALLS.with(Cell::get);
    // Step instant by instant, counting the slow-start boundaries crossed
    // (instants with several boundaries count once).
    let end = SimTime::ZERO + SimDuration::from_millis(400);
    let mut boundaries = 0u64;
    while net.next_event_time() <= end {
        let at = net.next_event_time();
        net.advance_to(at);
        boundaries += 1;
    }
    net.advance_to(end);
    let heap_after = HEAP_CALLS.with(Cell::get);
    let stats = net.alloc_stats();

    let passes = stats.recompute_passes - passes_before;
    assert!(passes >= 50, "only {passes} passes in the measured window");
    // A crossing by a flow held below its cap by the shared uplink makes
    // no pass.
    assert!(
        boundaries > passes,
        "{boundaries} boundary instants made {passes} passes"
    );
    assert_eq!(
        net.active_flow_count(),
        31,
        "a flow completed: resize the test"
    );
    assert_eq!(
        (heap_after.0 - heap_before.0, heap_after.1 - heap_before.1),
        (0, 0),
        "(allocations, reallocations) across {passes} warm recompute passes"
    );
}

#[test]
fn a_warm_completion_drain_performs_no_heap_allocation() {
    // 96 flows of staggered sizes sharing the uplink: one completion per
    // instant, each drained by the kernel (`Sim::run_until`) and followed
    // by a recompute pass over the survivors.
    let (topo, server, clients) = storm_region();
    let mut sim = Sim::new(topo, ());
    for i in 0..96u64 {
        let spec = FlowSpec::new(server, clients[i as usize % 4], 2e6 + i as f64 * 0.5e6)
            .window(2e6)
            .memory_to_memory();
        sim.start_flow_detached(spec)
            .expect("the region is connected");
    }
    // Warm-up: the first dozen completions size the completion lists.
    let mut horizon = SimTime::ZERO;
    while sim.net.active_flow_count() > 84 {
        horizon += SimDuration::from_millis(100);
        sim.run_until(horizon);
    }

    let active_before = sim.net.active_flow_count();
    let heap_before = HEAP_CALLS.with(Cell::get);
    while sim.net.active_flow_count() > 20 {
        horizon += SimDuration::from_millis(100);
        sim.run_until(horizon);
    }
    let heap_after = HEAP_CALLS.with(Cell::get);

    let completions = active_before - sim.net.active_flow_count();
    assert!(completions >= 50, "only {completions} completions drained");
    assert_eq!(
        (heap_after.0 - heap_before.0, heap_after.1 - heap_before.1),
        (0, 0),
        "(allocations, reallocations) across {completions} warm completion instants"
    );
}
