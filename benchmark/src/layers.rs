//! Per-layer metrics of a traced rep: profiler self times (scope minus
//! children, from `esg_simnet::profile`), the profiler's deterministic
//! counts, and the counts the workload harvested from the layers' public
//! accessors — combined into the names `spec::PER_LAYER` lists.

use crate::workloads::Rep;
use esg_simnet::profile;
use std::collections::BTreeMap;

pub type Values = BTreeMap<&'static str, f64>;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Layer metrics of one traced rep. `untraced_wall_s` is the undisturbed
/// wall of the same run's untraced reps.
pub fn of_traced_rep(rep: &Rep, untraced_wall_s: f64) -> Values {
    let mut out: Values = rep.values.clone();
    let get = |name: &str| rep.values.get(name).copied().unwrap_or(0.0);
    let files = get("files_total");

    if let Some(p) = &rep.profile {
        let kernel = p.self_s_of(profile::KERNEL);
        let alloc = p.self_s_of(profile::ALLOCATOR);
        let rm = p.self_s_of(profile::RM);
        let events = p.self_s_of(profile::EVENTS);
        let kernel_events = p.count_of("kernel.events") as f64;
        out.insert("simnet.kernel.self_s", kernel);
        out.insert("simnet.kernel.events", kernel_events);
        out.insert(
            "simnet.kernel.flow_callbacks",
            p.count_of("kernel.flow_callbacks") as f64,
        );
        out.insert(
            "simnet.kernel.ns_per_event",
            ratio(kernel * 1e9, kernel_events),
        );
        out.insert(
            "simnet.kernel.events_per_s",
            ratio(kernel_events, untraced_wall_s),
        );
        out.insert("simnet.events.self_s", events);
        out.insert("simnet.alloc.self_s", alloc);
        out.insert(
            "simnet.alloc.ns_per_flow_solve",
            ratio(alloc * 1e9, get("simnet.alloc.flow_solves")),
        );
        out.insert("reqman.rm.self_s", rm);
        out.insert("reqman.net_poll.self_s", p.self_s_of(profile::NET_POLL));
        out.insert("reqman.net_poll.calls", p.count_of("net_poll.calls") as f64);
        out.insert("reqman.journal.self_s", p.self_s_of(profile::JOURNAL));
        out.insert("reqman.pumps", p.count_of("rm.pumps") as f64);
        // Only the request-manager workloads spend `events` time on files.
        if rm > 0.0 {
            out.insert("reqman.us_per_file", ratio((rm + events) * 1e6, files));
        }
        out.insert(
            "trace.attributed_frac",
            ratio(p.attributed_s(), rep.wall_s()),
        );
    }
    // `loopback_xfer` has no simulator scopes; its spans are the timed
    // client calls.
    if rep.span_seconds > 0.0 {
        out.insert(
            "trace.attributed_frac",
            ratio(rep.span_seconds, rep.wall_s()),
        );
    }

    out.insert(
        "simnet.alloc.route_cache_hit_ratio",
        ratio(
            get("route_cache_hits"),
            get("route_cache_hits") + get("route_cache_misses"),
        ),
    );
    out.insert(
        "reqman.attempts_per_file",
        ratio(get("attempts"), get("files_completed")),
    );
    out.insert(
        "netlogger.trace.events_per_file",
        ratio(get("netlogger.trace.events"), files),
    );
    out.insert(
        "gridftp.sim.cache_hit_ratio",
        ratio(
            get("gridftp_cache_hits"),
            get("gridftp.sim.transfers_started"),
        ),
    );
    out.insert(
        "storage.hrm.cache_hit_ratio",
        ratio(
            get("hrm_cache_hits"),
            get("hrm_cache_hits") + get("hrm_cache_misses"),
        ),
    );
    out
}
