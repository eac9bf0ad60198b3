//! Differential property test for the catalog's lookup index.
//!
//! `lookup_replicas` used to be a one-level LDAP search under the
//! collection, `(&(objectclass=GlobusReplicaLocation)(filename=<file>))`,
//! whose cost grew with the number of `lf=` siblings and the length of
//! every location's `filename` list. That search is kept here, verbatim, as
//! the oracle: after every step of a random catalog history the indexed
//! lookup must return exactly what the search returns — same replicas, same
//! order, same errors — for every (collection, file) pair including
//! unknown and differently-cased ones, and the mutator-maintained index
//! must equal one rebuilt from the directory. The borrowed
//! `replica_hosts` view must be that search projected to
//! `(host, suspect)`, in the same order, and empty where the search finds
//! no collection. `file_digest`, answered from the index too, must be what
//! `Directory::get` finds on the file's `lf=` entry, whatever the spelling
//! of the collection and file names.
//!
//! Case count is `PROPTEST_CASES`-bounded (default 96, CI runs 128).

use super::*;
use proptest::prelude::*;

/// Names that collide on the directory's lower-cased keys but differ in
/// spelling, plus ones that do not collide.
const COLLECTIONS: [&str; 5] = ["Co2", "co2", "CO2", "pcm", "Pcm.B06"];
const LOCATIONS: [&str; 5] = ["LLNL", "llnl", "isi", "ISI", "anl"];
const FILES: [&str; 5] = ["a.nc", "A.nc", "b.nc", "c.nc", "d.nc"];
const HOSTS: [&str; 3] = ["sprite.llnl.gov", "jupiter.isi.edu", "Jupiter.isi.edu"];
const PATHS: [&str; 4] = ["", "/", "/data/co2", "/data/co2//"];
/// Digests, two of which differ only in case.
const DIGESTS: [&str; 3] = ["00ff", "00FF", "beef"];

/// The parent commit's `file_digest`: the first `digest` of the `lf=`
/// entry the directory finds.
fn digest_by_get<'a>(rc: &'a ReplicaCatalog, collection: &str, file: &str) -> Option<&'a str> {
    rc.dir
        .get(&ReplicaCatalog::file_dn(collection, file))
        .and_then(|e| e.first("digest"))
}

/// The parent commit's `lookup_replicas`.
fn lookup_by_search(
    rc: &ReplicaCatalog,
    collection: &str,
    file: &str,
) -> Result<Vec<Replica>, CatalogError> {
    let cdn = ReplicaCatalog::collection_dn(collection);
    if rc.dir.get(&cdn).is_none() {
        return Err(CatalogError::NoSuchCollection(collection.to_string()));
    }
    let f = Filter::And(vec![
        Filter::eq("objectclass", "GlobusReplicaLocation"),
        Filter::eq("filename", file),
    ]);
    let hits = rc.dir.search(&cdn, Scope::OneLevel, &f);
    Ok(hits
        .into_iter()
        .map(|e| {
            let host = e.first("hostname").unwrap_or("").to_string();
            let port: u16 = e
                .first("port")
                .and_then(|p| p.parse().ok())
                .unwrap_or(esg_gridftp::url::DEFAULT_PORT);
            let prefix = e.first("path").unwrap_or("");
            let full_path = if prefix.is_empty() {
                file.to_string()
            } else {
                format!("{}/{}", prefix.trim_end_matches('/'), file)
            };
            let mut url = GridUrl::new(host.clone(), full_path);
            url.scheme = e.first("protocol").unwrap_or("gsiftp").to_string();
            url.port = port;
            Replica {
                collection: collection.to_string(),
                location: e.dn.leaf().unwrap().value.clone(),
                host,
                url,
                suspect: e.first("suspect") == Some("true"),
            }
        })
        .collect())
}

/// Every probe the property makes after a step; `Err` is the first
/// disagreement.
fn check_against_oracle(rc: &ReplicaCatalog) -> Result<(), String> {
    for c in COLLECTIONS.iter().chain(&["ghost"]) {
        for f in FILES.iter().chain(&["ghost.nc"]) {
            let (got, want) = (rc.lookup_replicas(c, f), lookup_by_search(rc, c, f));
            if got != want {
                return Err(format!(
                    "lookup({c:?}, {f:?})\n indexed: {got:?}\n  search: {want:?}"
                ));
            }
            // The borrowed view is the search projected to (host, suspect),
            // in order; a collection the search cannot find is empty.
            let view: Vec<(&str, bool)> = rc.replica_hosts(c, f).collect();
            let want = want.unwrap_or_default();
            let projected: Vec<(&str, bool)> =
                want.iter().map(|r| (r.host.as_str(), r.suspect)).collect();
            if view != projected {
                return Err(format!(
                    "replica_hosts({c:?}, {f:?})\n    view: {view:?}\n  search: {projected:?}"
                ));
            }
            let (got, want) = (rc.file_digest(c, f), digest_by_get(rc, c, f));
            if got != want {
                return Err(format!(
                    "file_digest({c:?}, {f:?})\n indexed: {got:?}\n     get: {want:?}"
                ));
            }
        }
    }
    if rc.index != build_index(&rc.dir) {
        return Err(format!(
            "maintained index diverged from a rebuild\n maintained: {:?}\n    rebuilt: {:?}",
            rc.index,
            build_index(&rc.dir)
        ));
    }
    Ok(())
}

proptest! {
    #[test]
    fn indexed_lookup_equals_one_level_search(
        ops in prop::collection::vec(
            (0u8..10, 0usize..5, 0usize..5, 0usize..5, any::<u64>()),
            1..48,
        ),
    ) {
        let mut rc = ReplicaCatalog::new();
        for (step, &(kind, c, l, f, bits)) in ops.iter().enumerate() {
            let (coll, loc, file) = (COLLECTIONS[c], LOCATIONS[l], FILES[f]);
            let host = HOSTS[(bits % 3) as usize];
            match kind {
                0 => {
                    let _ = rc.create_collection(coll);
                }
                1 => {
                    if rc.add_logical_file(coll, file, bits % 1000).is_ok() {
                        let names = rc.logical_files(coll).unwrap();
                        let distinct: HashSet<&String> = names.iter().collect();
                        prop_assert_eq!(distinct.len(), names.len(), "filename list repeats a name");
                        prop_assert!(names.iter().any(|n| n == file));
                    }
                }
                2 => {
                    // Up to 8 names drawn with repetition; a third of the
                    // draws register a complete, duplicate-free collection.
                    let names: Vec<&str> = if bits % 3 == 0 {
                        FILES.to_vec()
                    } else {
                        (0..(bits >> 8) % 9)
                            .map(|i| FILES[((bits >> (12 + 3 * i)) % 5) as usize])
                            .collect()
                    };
                    let mut url = GridUrl::new(host, PATHS[((bits >> 4) % 4) as usize]);
                    if bits & 4 != 0 {
                        url.port = 2812;
                    }
                    if rc.register_location(coll, loc, &url, &names).is_ok() {
                        // The entry is what the parent's `Entry::add` loop built.
                        let mut want = Entry::new(ReplicaCatalog::location_dn(coll, loc))
                            .with("objectclass", "GlobusReplicaLocation")
                            .with("protocol", url.scheme.clone())
                            .with("hostname", url.host.clone())
                            .with("port", url.port.to_string())
                            .with("path", url.path.clone());
                        for n in &names {
                            want.add("filename", *n);
                        }
                        prop_assert_eq!(rc.dir.get(&want.dn), Some(&want));
                    }
                }
                3 => {
                    let _ = rc.add_file_to_location(coll, loc, file);
                }
                4 => {
                    let _ = rc.remove_file_from_location(coll, loc, file);
                }
                5 => {
                    let _ = rc.unregister_location(coll, loc);
                }
                6 | 7 => {
                    let _ = rc.set_host_suspect(coll, host, kind == 6);
                }
                8 => {
                    let digest = DIGESTS[(bits % 3) as usize];
                    let set = rc.set_file_digest(coll, file, digest);
                    prop_assert_eq!(set.is_ok(), digest_by_get(&rc, coll, file) == Some(digest));
                }
                _ => rc = ReplicaCatalog::from_ldif(&rc.to_ldif()).unwrap(),
            }
            if let Err(why) = check_against_oracle(&rc) {
                prop_assert!(false, "after step {step} {:?}: {why}", ops[step]);
            }
        }
    }
}

/// LDIF the API cannot produce: a location-class entry that is not a
/// `loc=` RDN, a `loc=` entry that is not location-class, a base spelled in
/// another case, a `filename` list with no `lf=` entries behind it, and an
/// `lf=` entry spelled in other cases with two digests.
#[test]
fn foreign_ldif_is_indexed_as_the_search_sees_it() {
    let ldif = "\
dn: o=Grid

dn: rc=esg replica catalog, o=Grid
objectclass: GlobusReplicaCatalog

dn: lc=Co2, rc=ESG Replica Catalog, o=Grid
objectclass: GlobusReplicaLogicalCollection
filename: a.nc
filename: b.nc

dn: lf=a.nc, lc=Co2, rc=ESG Replica Catalog, o=Grid
objectclass: GlobusReplicaLogicalFile
size: 1

dn: lf=D.nc, lc=co2, rc=esg replica catalog, o=Grid
objectclass: GlobusReplicaLogicalFile
digest: beef
digest: f00d

dn: site=anl, lc=Co2, rc=ESG Replica Catalog, o=Grid
objectclass: GlobusReplicaLocation
hostname: anl.gov
filename: a.nc

dn: loc=isi, lc=Co2, rc=ESG Replica Catalog, o=Grid
objectclass: SomethingElse
hostname: isi.edu
filename: a.nc

dn: loc=llnl, lc=Co2, rc=esg replica catalog, o=Grid
objectclass: GlobusReplicaLocation
hostname: llnl.gov
filename: a.nc
";
    let mut rc = ReplicaCatalog::from_ldif(ldif).unwrap();
    check_against_oracle(&rc).unwrap();
    let hosts: Vec<String> = rc
        .lookup_replicas("Co2", "a.nc")
        .unwrap()
        .into_iter()
        .map(|r| r.host)
        .collect();
    assert_eq!(hosts, ["anl.gov"]);
    assert_eq!(
        rc.replica_hosts("Co2", "a.nc").collect::<Vec<_>>(),
        [("anl.gov", false)]
    );
    assert_eq!(rc.replica_hosts("ghost", "a.nc").count(), 0);
    // The digest of an `lf=` entry spelled in other cases, first value.
    assert_eq!(rc.file_digest("CO2", "d.NC"), Some("beef"));
    assert_eq!(rc.file_digest("Co2", "a.nc"), None);

    // Mutators addressed at the unindexed `loc=` entries still reach the
    // directory, and the index keeps agreeing with the search.
    rc.add_file_to_location("Co2", "isi", "a.nc").unwrap();
    rc.add_file_to_location("Co2", "isi", "b.nc").unwrap();
    assert!(rc.remove_file_from_location("co2", "llnl", "a.nc").unwrap());
    check_against_oracle(&rc).unwrap();
    let isi = rc
        .dir
        .get(&ReplicaCatalog::location_dn("Co2", "isi"))
        .unwrap();
    assert_eq!(isi.values("filename"), &["a.nc", "b.nc"]);

    // `b.nc` is listed but has no `lf=` entry: backing it must not list it
    // twice, which is why this collection keeps the scanning add.
    rc.add_logical_file("Co2", "b.nc", 2).unwrap();
    rc.add_logical_file("Co2", "c.nc", 3).unwrap();
    assert_eq!(rc.logical_files("Co2").unwrap(), ["a.nc", "b.nc", "c.nc"]);
}
