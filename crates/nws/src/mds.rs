//! MDS information service publication.
//!
//! "NWS information is accessed by the MDS information service" (§5) — MDS
//! (the Globus Metacomputing Directory Service) is itself an LDAP
//! directory. This module publishes the registry's current forecasts into
//! an [`esg_directory::Directory`] under `ou=NWS, o=Grid`, one entry per
//! directed path, and reads a bandwidth forecast back.

use crate::registry::NwsRegistry;
use esg_directory::{Directory, Dn, Entry, Filter, Scope};
use esg_simnet::NodeId;

/// The DN under which NWS data is published.
pub fn nws_base() -> Dn {
    Dn::parse("ou=NWS, o=Grid").expect("static DN")
}

/// Publish (or refresh) every path forecast into the directory.
///
/// `node_name` maps node ids to host names for the entry attributes.
pub fn publish(
    registry: &NwsRegistry,
    pairs: &[(NodeId, NodeId)],
    node_name: &dyn Fn(NodeId) -> String,
    dir: &mut Directory,
) {
    let base = nws_base();
    if dir.get(&base).is_none() {
        dir.add_with_ancestors(Entry::new(base.clone()).with("objectclass", "MdsNwsRoot"))
            .expect("publishing base");
    }
    for &(src, dst) in pairs {
        let Some(bw) = registry.forecast_bandwidth(src, dst) else {
            continue;
        };
        let lat = registry.forecast_latency(src, dst).unwrap_or(0.0);
        let dn = base.child("pair", format!("{}->{}", node_name(src), node_name(dst)));
        let mut entry = Entry::new(dn.clone())
            .with("objectclass", "MdsNwsPath")
            .with("srchost", node_name(src))
            .with("dsthost", node_name(dst));
        entry.set("bandwidthbytespersec", vec![format!("{bw:.0}")]);
        entry.set("latencyseconds", vec![format!("{lat:.6}")]);
        match dir.get_mut(&dn) {
            Some(e) => *e = entry,
            None => dir.add(entry).expect("parent exists"),
        }
    }
}

/// Read a published bandwidth forecast (bytes/sec) back out of MDS.
pub fn lookup_bandwidth(dir: &Directory, src_host: &str, dst_host: &str) -> Option<f64> {
    let filter = Filter::And(vec![
        Filter::eq("objectclass", "MdsNwsPath"),
        Filter::eq("srchost", src_host),
        Filter::eq("dsthost", dst_host),
    ]);
    let hits = dir.search(&nws_base(), Scope::OneLevel, &filter);
    hits.first()?.first("bandwidthbytespersec")?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use esg_simnet::SimTime;

    fn names(id: NodeId) -> String {
        ["lbnl", "anl", "isi"][id.0].to_string()
    }

    #[test]
    fn publish_and_lookup() {
        let mut r = NwsRegistry::new();
        let (a, b) = (NodeId(0), NodeId(1));
        for i in 0..5 {
            r.observe_bandwidth(a, b, SimTime::from_secs(i), 40e6);
            r.observe_latency(a, b, 0.025);
        }
        let mut dir = Directory::new();
        publish(&r, &[(a, b)], &names, &mut dir);
        let bw = lookup_bandwidth(&dir, "lbnl", "anl").unwrap();
        assert!((bw - 40e6).abs() < 1.0);
        let entry = dir.get(&nws_base().child("pair", "lbnl->anl")).unwrap();
        let lat: f64 = entry.first("latencyseconds").unwrap().parse().unwrap();
        assert!((lat - 0.025).abs() < 1e-6);
    }

    #[test]
    fn republish_updates_in_place() {
        let mut r = NwsRegistry::new();
        let (a, b) = (NodeId(0), NodeId(1));
        r.observe_bandwidth(a, b, SimTime::ZERO, 10e6);
        let mut dir = Directory::new();
        publish(&r, &[(a, b)], &names, &mut dir);
        let n_before = dir.len();
        for i in 1..20 {
            r.observe_bandwidth(a, b, SimTime::from_secs(i), 90e6);
        }
        publish(&r, &[(a, b)], &names, &mut dir);
        assert_eq!(dir.len(), n_before, "no duplicate entries");
        let bw = lookup_bandwidth(&dir, "lbnl", "anl").unwrap();
        assert!(bw > 50e6);
    }

    #[test]
    fn unmeasured_pairs_are_skipped() {
        let r = NwsRegistry::new();
        let mut dir = Directory::new();
        publish(&r, &[(NodeId(0), NodeId(1))], &names, &mut dir);
        assert_eq!(lookup_bandwidth(&dir, "lbnl", "anl"), None);
    }

    #[test]
    fn missing_pair_lookup_is_none() {
        let dir = Directory::new();
        assert_eq!(lookup_bandwidth(&dir, "x", "y"), None);
    }
}
