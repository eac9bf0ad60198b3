//! The Globus replica catalog.
//!
//! "The catalog registers three types of entries: logical collections,
//! locations, and logical files." (§6.2) Figure 6 shows the layout this
//! module reproduces over the LDAP substrate:
//!
//! ```text
//! rc=ESG Replica Catalog, o=Grid
//! ├── lc=CO2 measurements 1998
//! │   ├── loc=jupiter.isi.edu     (partial collection)
//! │   ├── loc=sprite.llnl.gov    (complete collection)
//! │   ├── lf=jan_1998.nc  (size=1.5 GB)
//! │   └── lf=feb_1998.nc  ...
//! └── lc=CO2 measurements 1999 ...
//! ```
//!
//! Location entries carry "all information (protocol, hostname, port, path)
//! required to map from logical names for files to URLs". Logical-file
//! entries are optional in the real catalog (scalability); here they store
//! per-file sizes.

use esg_directory::{sibling_key, DirError, Directory, Dn, Entry, Filter, Rdn, Scope};
use esg_gridftp::GridUrl;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::OnceLock;

const LOCATION_CLASS: &str = "GlobusReplicaLocation";

/// Errors from catalog operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    NoSuchCollection(String),
    NoSuchLocation(String),
    NoSuchFile(String),
    AlreadyExists(String),
    Directory(String),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::NoSuchCollection(c) => write!(f, "no such collection: {c}"),
            CatalogError::NoSuchLocation(l) => write!(f, "no such location: {l}"),
            CatalogError::NoSuchFile(x) => write!(f, "no such logical file: {x}"),
            CatalogError::AlreadyExists(x) => write!(f, "already exists: {x}"),
            CatalogError::Directory(e) => write!(f, "directory error: {e}"),
        }
    }
}

impl std::error::Error for CatalogError {}

/// A physical replica of a logical file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replica {
    pub collection: String,
    pub location: String,
    pub host: String,
    pub url: GridUrl,
    /// Quarantined for repeatedly serving corrupt blocks; selection demotes
    /// suspect replicas until background re-verification clears them.
    pub suspect: bool,
}

/// The replica catalog, owning its directory subtree.
///
/// The directory is the single source of truth (`directory()` and MDS
/// co-hosting read it, and the tests' `to_ldif` dumps it). `index` is
/// derived from it — what slapd's `index filename eq` is to its database —
/// so that the per-file [`ReplicaCatalog::lookup_replicas`] costs
/// O(locations of the collection) instead of a scan over every `lf=`
/// sibling and every location's `filename` list. Every mutator below that
/// writes a location entry updates it; the tests' `from_ldif` rebuilds it
/// from an LDIF dump.
#[derive(Debug)]
pub struct ReplicaCatalog {
    dir: Directory,
    /// Keyed by lower-cased collection name, as the directory keys DNs.
    index: HashMap<String, CollectionIndex>,
}

#[derive(Debug)]
#[cfg_attr(test, derive(PartialEq))]
struct CollectionIndex {
    /// The collection's location entries by [`sibling_key`] of their leaf
    /// RDN, i.e. in the order a one-level search returns them.
    locations: BTreeMap<String, IndexedLocation>,
    /// Every value of the collection's `filename` list has an `lf=` entry
    /// behind it, so a successful `lf=` add proves a name new to the list.
    /// Always true for catalogs built through this API; an LDIF from a
    /// catalog that kept logical-file entries optional can clear it.
    files_backed: bool,
    /// The first `digest` value of every `lf=` entry that has one, keyed
    /// by the file name lower-cased, as the directory keys the entry.
    digests: HashMap<String, String>,
}

/// What `lookup_replicas` needs from one location entry, resolved once.
#[derive(Debug)]
#[cfg_attr(test, derive(PartialEq))]
struct IndexedLocation {
    /// Collection and location names as the entry's DN spells them. The
    /// directory finds an entry by lower-cased key but its one-level search
    /// compares parent RDNs exactly, so a lookup sees this location only
    /// when it spells the collection the way the registration did.
    collection: String,
    name: String,
    protocol: String,
    hostname: String,
    port: u16,
    path: String,
    suspect: bool,
    files: HashSet<String>,
}

impl CollectionIndex {
    fn empty(files_backed: bool) -> Self {
        CollectionIndex {
            locations: BTreeMap::new(),
            files_backed,
            digests: HashMap::new(),
        }
    }
}

impl IndexedLocation {
    fn new(collection: &str, name: &str, e: &Entry) -> Self {
        IndexedLocation {
            collection: collection.to_string(),
            name: name.to_string(),
            protocol: e.first("protocol").unwrap_or("gsiftp").to_string(),
            hostname: e.first("hostname").unwrap_or("").to_string(),
            port: e
                .first("port")
                .and_then(|p| p.parse().ok())
                .unwrap_or(esg_gridftp::url::DEFAULT_PORT),
            path: e.first("path").unwrap_or("").to_string(),
            suspect: e.first("suspect") == Some("true"),
            files: e.values("filename").iter().cloned().collect(),
        }
    }

    fn replica(&self, file: &str) -> Replica {
        let full_path = if self.path.is_empty() {
            file.to_string()
        } else {
            format!("{}/{}", self.path.trim_end_matches('/'), file)
        };
        let mut url = GridUrl::new(self.hostname.clone(), full_path);
        url.scheme = self.protocol.clone();
        url.port = self.port;
        Replica {
            collection: self.collection.clone(),
            location: self.name.clone(),
            host: self.hostname.clone(),
            url,
            suspect: self.suspect,
        }
    }
}

fn rc_base() -> &'static Dn {
    static BASE: OnceLock<Dn> = OnceLock::new();
    BASE.get_or_init(|| Dn::parse("rc=ESG Replica Catalog, o=Grid").expect("static DN"))
}

/// A collection's (or a file's) slot in the index: its name as the
/// directory keys it. Borrowed when the name is lower-case already, so a
/// lookup by such a name allocates nothing.
fn dir_key(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

/// The slot of `loc=<name>` among a collection's locations.
fn location_key(name: &str) -> String {
    sibling_key(&Rdn::new("loc", name))
}

impl Default for ReplicaCatalog {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplicaCatalog {
    pub fn new() -> Self {
        let mut dir = Directory::new();
        dir.add_with_ancestors(
            Entry::new(rc_base().clone()).with("objectclass", "GlobusReplicaCatalog"),
        )
        .expect("fresh directory");
        ReplicaCatalog {
            dir,
            index: HashMap::new(),
        }
    }

    /// Access to the underlying directory (for MDS co-hosting, dumps).
    pub fn directory(&self) -> &Directory {
        &self.dir
    }

    /// Dump the whole catalog as LDIF (how 2001 LDAP catalogs were
    /// administered and replicated between sites).
    #[cfg(test)]
    pub fn to_ldif(&self) -> String {
        esg_directory::ldif_dump(&self.dir)
    }

    /// Rebuild a catalog from an LDIF dump.
    #[cfg(test)]
    pub fn from_ldif(text: &str) -> Result<ReplicaCatalog, CatalogError> {
        let mut dir = Directory::new();
        esg_directory::ldif_load(&mut dir, text)
            .map_err(|e| CatalogError::Directory(e.to_string()))?;
        if dir.get(rc_base()).is_none() {
            return Err(CatalogError::Directory(
                "LDIF does not contain the replica catalog base".into(),
            ));
        }
        let index = build_index(&dir);
        Ok(ReplicaCatalog { dir, index })
    }

    fn collection_dn(name: &str) -> Dn {
        rc_base().child("lc", name)
    }

    fn location_dn(collection: &str, location: &str) -> Dn {
        Self::collection_dn(collection).child("loc", location)
    }

    fn file_dn(collection: &str, file: &str) -> Dn {
        Self::collection_dn(collection).child("lf", file)
    }

    /// The index slot of the entry at `location_dn(collection, location)`,
    /// if that entry is an indexed location.
    fn indexed_location_mut(
        &mut self,
        collection: &str,
        location: &str,
    ) -> Option<&mut IndexedLocation> {
        self.index
            .get_mut(dir_key(collection).as_ref())?
            .locations
            .get_mut(&location_key(location))
    }

    /// Create a logical collection.
    pub fn create_collection(&mut self, name: &str) -> Result<(), CatalogError> {
        self.dir
            .add(
                Entry::new(Self::collection_dn(name))
                    .with("objectclass", "GlobusReplicaLogicalCollection"),
            )
            .map_err(|e| match e {
                DirError::AlreadyExists(_) => CatalogError::AlreadyExists(name.to_string()),
                other => CatalogError::Directory(other.to_string()),
            })?;
        self.index
            .insert(dir_key(name).into_owned(), CollectionIndex::empty(true));
        Ok(())
    }

    /// All logical collection names.
    pub fn collections(&self) -> Vec<String> {
        let f = Filter::eq("objectclass", "GlobusReplicaLogicalCollection");
        self.dir
            .search(rc_base(), Scope::OneLevel, &f)
            .into_iter()
            .map(|e| e.dn.leaf().unwrap().value.clone())
            .collect()
    }

    /// Register a logical file (name + size) in a collection. The file
    /// name is also appended to the collection's `filename` attribute —
    /// the catalog's fast membership list.
    pub fn add_logical_file(
        &mut self,
        collection: &str,
        file: &str,
        size: u64,
    ) -> Result<(), CatalogError> {
        let cdn = Self::collection_dn(collection);
        let Some(col) = self.index.get(dir_key(collection).as_ref()) else {
            return Err(CatalogError::NoSuchCollection(collection.to_string()));
        };
        let files_backed = col.files_backed;
        self.dir
            .add(
                Entry::new(cdn.child("lf", file))
                    .with("objectclass", "GlobusReplicaLogicalFile")
                    .with("size", size.to_string()),
            )
            .map_err(|_| CatalogError::AlreadyExists(file.to_string()))?;
        // The `lf=` add just proved the name new (see `files_backed`), so
        // publishing N files is N appends, not N scans of a growing list.
        self.dir
            .modify(&cdn, |e| {
                if files_backed {
                    e.push_new("filename", file)
                } else {
                    e.add("filename", file)
                }
            })
            .map_err(|e| CatalogError::Directory(e.to_string()))
    }

    /// Logical files in a collection.
    pub fn logical_files(&self, collection: &str) -> Result<Vec<String>, CatalogError> {
        let cdn = Self::collection_dn(collection);
        let entry = self
            .dir
            .get(&cdn)
            .ok_or_else(|| CatalogError::NoSuchCollection(collection.to_string()))?;
        Ok(entry.values("filename").to_vec())
    }

    /// Size of a logical file.
    pub fn file_size(&self, collection: &str, file: &str) -> Result<u64, CatalogError> {
        let entry = self
            .dir
            .get(&Self::file_dn(collection, file))
            .ok_or_else(|| CatalogError::NoSuchFile(file.to_string()))?;
        entry
            .first_u64("size")
            .ok_or_else(|| CatalogError::Directory("missing size".into()))
    }

    /// Record the expected whole-file content digest (hex SHA-256 over the
    /// per-block digest sequence) on a logical-file entry. Clients verify
    /// delivered data against this before declaring a request complete.
    pub fn set_file_digest(
        &mut self,
        collection: &str,
        file: &str,
        digest_hex: &str,
    ) -> Result<(), CatalogError> {
        self.dir
            .modify(&Self::file_dn(collection, file), |e| {
                e.set("digest", vec![digest_hex.to_string()])
            })
            .map_err(|_| CatalogError::NoSuchFile(file.to_string()))?;
        // An `lf=` entry's parent is a collection entry, which is indexed.
        if let Some(col) = self.index.get_mut(dir_key(collection).as_ref()) {
            col.digests
                .insert(dir_key(file).into_owned(), digest_hex.to_string());
        }
        Ok(())
    }

    /// Expected content digest of a logical file, if registered. Answered
    /// from the index, with the directory's case rules: collection and file
    /// names match case-insensitively.
    pub fn file_digest(&self, collection: &str, file: &str) -> Option<&str> {
        self.index
            .get(dir_key(collection).as_ref())?
            .digests
            .get(dir_key(file).as_ref())
            .map(String::as_str)
    }

    /// Mark (or clear) every location of `collection` hosted on `host` as
    /// integrity-suspect. Returns how many location entries changed.
    pub fn set_host_suspect(
        &mut self,
        collection: &str,
        host: &str,
        suspect: bool,
    ) -> Result<usize, CatalogError> {
        let cdn = Self::collection_dn(collection);
        let Some(col) = self.index.get_mut(dir_key(collection).as_ref()) else {
            return Err(CatalogError::NoSuchCollection(collection.to_string()));
        };
        let f = Filter::And(vec![
            Filter::eq("objectclass", LOCATION_CLASS),
            Filter::eq("hostname", host),
        ]);
        let dns: Vec<Dn> = self
            .dir
            .search(&cdn, Scope::OneLevel, &f)
            .into_iter()
            .map(|e| e.dn.clone())
            .collect();
        for dn in &dns {
            self.dir
                .modify(dn, |e| {
                    if suspect {
                        e.set("suspect", vec!["true".to_string()]);
                    } else {
                        e.set("suspect", Vec::new());
                    }
                })
                .map_err(|e| CatalogError::Directory(e.to_string()))?;
            let leaf = dn.leaf().expect("a search hit below the collection");
            if let Some(loc) = col.locations.get_mut(&sibling_key(leaf)) {
                loc.suspect = suspect;
            }
        }
        Ok(dns.len())
    }

    /// Register a (possibly partial) physical location of a collection.
    /// `base_url`'s path is the directory prefix on the storage system.
    pub fn register_location(
        &mut self,
        collection: &str,
        location: &str,
        base_url: &GridUrl,
        files: &[&str],
    ) -> Result<(), CatalogError> {
        let Some(col) = self.index.get_mut(dir_key(collection).as_ref()) else {
            return Err(CatalogError::NoSuchCollection(collection.to_string()));
        };
        let mut entry = Entry::new(Self::location_dn(collection, location))
            .with("objectclass", LOCATION_CLASS)
            .with("protocol", base_url.scheme.clone())
            .with("hostname", base_url.host.clone())
            .with("port", base_url.port.to_string())
            .with("path", base_url.path.clone());
        // The entry is fresh, so only `files` itself can repeat a name:
        // de-duplicate it once (first occurrence wins, as `Entry::add`
        // would) instead of scanning the growing list per name.
        let mut seen = HashSet::with_capacity(files.len());
        let names: Vec<String> = files
            .iter()
            .filter(|f| seen.insert(**f))
            .map(|f| f.to_string())
            .collect();
        if !names.is_empty() {
            entry.set("filename", names);
        }
        let indexed = IndexedLocation::new(collection, location, &entry);
        self.dir
            .add(entry)
            .map_err(|_| CatalogError::AlreadyExists(location.to_string()))?;
        col.locations.insert(location_key(location), indexed);
        Ok(())
    }

    /// Add a file to an existing location (e.g. after replication).
    pub fn add_file_to_location(
        &mut self,
        collection: &str,
        location: &str,
        file: &str,
    ) -> Result<(), CatalogError> {
        // An indexed location knows in O(1) whether it already lists the
        // file; anything else at that DN takes the scanning `Entry::add`.
        let is_new = self
            .indexed_location_mut(collection, location)
            .map(|loc| loc.files.insert(file.to_string()));
        self.dir
            .modify(&Self::location_dn(collection, location), |e| match is_new {
                Some(true) => e.push_new("filename", file),
                Some(false) => {}
                None => e.add("filename", file),
            })
            .map_err(|_| CatalogError::NoSuchLocation(location.to_string()))
    }

    /// Remove a file from a location (partial deletion).
    pub fn remove_file_from_location(
        &mut self,
        collection: &str,
        location: &str,
        file: &str,
    ) -> Result<bool, CatalogError> {
        let mut removed = false;
        self.dir
            .modify(&Self::location_dn(collection, location), |e| {
                removed = e.remove_value("filename", file);
            })
            .map_err(|_| CatalogError::NoSuchLocation(location.to_string()))?;
        if let Some(loc) = self.indexed_location_mut(collection, location) {
            loc.files.remove(file);
        }
        Ok(removed)
    }

    /// Locations (names) registered for a collection.
    pub fn locations(&self, collection: &str) -> Result<Vec<String>, CatalogError> {
        let cdn = Self::collection_dn(collection);
        if self.dir.get(&cdn).is_none() {
            return Err(CatalogError::NoSuchCollection(collection.to_string()));
        }
        let f = Filter::eq("objectclass", LOCATION_CLASS);
        Ok(self
            .dir
            .search(&cdn, Scope::OneLevel, &f)
            .into_iter()
            .map(|e| e.dn.leaf().unwrap().value.clone())
            .collect())
    }

    /// Core query: every replica of a logical file, with its URL.
    ///
    /// This is step (1) of the request manager's per-file worker: "it finds
    /// all replicas for the file from the Replica Catalog using an LDAP
    /// protocol" (§4). Answered from the index, in the order and with the
    /// case rules of the one-level
    /// `(&(objectclass=GlobusReplicaLocation)(filename=<file>))` search it
    /// replaces (the test oracle in `differential.rs`).
    pub fn lookup_replicas(
        &self,
        collection: &str,
        file: &str,
    ) -> Result<Vec<Replica>, CatalogError> {
        let holders = self
            .holders(collection, file)
            .ok_or_else(|| CatalogError::NoSuchCollection(collection.to_string()))?;
        Ok(holders.map(|loc| loc.replica(file)).collect())
    }

    /// [`lookup_replicas`](Self::lookup_replicas) as a borrowed
    /// `(host, suspect)` view: the same replicas in the same order, with
    /// nothing built. An unknown collection is an empty view. This is what
    /// the request manager's selection rounds read, many times per file.
    pub fn replica_hosts<'a>(
        &'a self,
        collection: &'a str,
        file: &'a str,
    ) -> impl Iterator<Item = (&'a str, bool)> + Clone + 'a {
        self.holders(collection, file)
            .into_iter()
            .flatten()
            .map(|loc| (loc.hostname.as_str(), loc.suspect))
    }

    /// The one location filter both lookups project: the locations listing
    /// `file` that a one-level search under `collection`, spelled as given,
    /// returns, in its order. `None` when no such collection exists.
    fn holders<'a>(
        &'a self,
        collection: &'a str,
        file: &'a str,
    ) -> Option<impl Iterator<Item = &'a IndexedLocation> + Clone + 'a> {
        let col = self.index.get(dir_key(collection).as_ref())?;
        Some(
            col.locations
                .values()
                .filter(move |loc| loc.collection == collection && loc.files.contains(file)),
        )
    }
}

/// Whether `Directory::get` treats two RDN paths as the same entry.
#[cfg(test)]
fn same_entry(a: &[Rdn], b: &[Rdn]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.attr == y.attr && x.value.eq_ignore_ascii_case(&y.value))
}

/// Derive the lookup index from a directory: every `lc=` child of the
/// catalog base is a collection, every location-class child of one is
/// indexed if a one-level search from its collection could return it, and
/// every `lf=` child's digest is indexed as `Directory::get` finds it.
#[cfg(test)]
fn build_index(dir: &Directory) -> HashMap<String, CollectionIndex> {
    let base = &rc_base().rdns;
    let mut index: HashMap<String, CollectionIndex> = HashMap::new();
    // Tree order: a collection entry precedes its children.
    for e in dir.iter() {
        let rdns = e.dn.rdns.as_slice();
        match rdns {
            [lc, rest @ ..] if lc.attr == "lc" && same_entry(rest, base) => {
                let files_backed = e
                    .values("filename")
                    .iter()
                    .all(|f| dir.get(&ReplicaCatalog::file_dn(&lc.value, f)).is_some());
                index.insert(
                    dir_key(&lc.value).into_owned(),
                    CollectionIndex::empty(files_backed),
                );
            }
            [leaf, lc, rest @ ..]
                if lc.attr == "lc"
                    && rest == base.as_slice()
                    && e.values("objectclass").iter().any(|c| c == LOCATION_CLASS) =>
            {
                if let Some(col) = index.get_mut(dir_key(&lc.value).as_ref()) {
                    col.locations.insert(
                        sibling_key(leaf),
                        IndexedLocation::new(&lc.value, &leaf.value, e),
                    );
                }
            }
            _ => {}
        }
        if let [lf, lc, rest @ ..] = rdns {
            if lf.attr == "lf" && lc.attr == "lc" && same_entry(rest, base) {
                if let (Some(col), Some(digest)) = (
                    index.get_mut(dir_key(&lc.value).as_ref()),
                    e.first("digest"),
                ) {
                    col.digests
                        .insert(dir_key(&lf.value).into_owned(), digest.to_string());
                }
            }
        }
    }
    index
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact example of the paper's Figure 6.
    fn figure6() -> ReplicaCatalog {
        let mut rc = ReplicaCatalog::new();
        rc.create_collection("CO2 measurements 1998").unwrap();
        rc.create_collection("CO2 measurements 1999").unwrap();
        for month in ["jan_1998.nc", "feb_1998.nc", "mar_1998.nc"] {
            rc.add_logical_file("CO2 measurements 1998", month, 1_500_000_000)
                .unwrap();
        }
        // Partial collection at ISI, complete at LLNL.
        rc.register_location(
            "CO2 measurements 1998",
            "jupiter",
            &GridUrl::new("jupiter.isi.edu", "/data/co2/1998"),
            &["jan_1998.nc", "feb_1998.nc"],
        )
        .unwrap();
        rc.register_location(
            "CO2 measurements 1998",
            "sprite",
            &GridUrl::new("sprite.llnl.gov", "/pcmdi/co2-98"),
            &["jan_1998.nc", "feb_1998.nc", "mar_1998.nc"],
        )
        .unwrap();
        rc
    }

    #[test]
    fn collections_listed() {
        let rc = figure6();
        let mut cols = rc.collections();
        cols.sort();
        assert_eq!(cols, vec!["CO2 measurements 1998", "CO2 measurements 1999"]);
    }

    /// `Default` used to derive an empty directory without the catalog
    /// base, so the first `create_collection` failed with `NoSuchParent`
    /// and reported it as "already exists".
    #[test]
    fn default_is_a_usable_catalog() {
        let mut rc = ReplicaCatalog::default();
        rc.create_collection("x").unwrap();
        assert_eq!(
            rc.create_collection("x"),
            Err(CatalogError::AlreadyExists("x".into()))
        );
        assert_eq!(rc.collections(), ["x"]);
    }

    /// Entries are found by lower-cased key, so any spelling names the
    /// collection and its locations; but the one-level search under a
    /// collection compares the parent RDN exactly, so replicas are listed
    /// only to a lookup that spells the collection as the registration
    /// did. File names are case-sensitive throughout.
    #[test]
    fn lookup_case_rules_are_the_directorys() {
        let mut rc = figure6();
        let lower = "co2 measurements 1998";
        assert_eq!(rc.lookup_replicas(lower, "jan_1998.nc"), Ok(vec![]));
        assert!(rc
            .lookup_replicas("CO2 measurements 1998", "JAN_1998.nc")
            .unwrap()
            .is_empty());
        rc.add_file_to_location(lower, "JUPITER", "mar_1998.nc")
            .unwrap();
        let reps = rc
            .lookup_replicas("CO2 measurements 1998", "mar_1998.nc")
            .unwrap();
        let names: Vec<&str> = reps.iter().map(|r| r.location.as_str()).collect();
        assert_eq!(names, ["jupiter", "sprite"]);
    }

    #[test]
    fn duplicate_collection_rejected() {
        let mut rc = figure6();
        assert!(matches!(
            rc.create_collection("CO2 measurements 1998"),
            Err(CatalogError::AlreadyExists(_))
        ));
    }

    #[test]
    fn logical_files_and_sizes() {
        let rc = figure6();
        let files = rc.logical_files("CO2 measurements 1998").unwrap();
        assert_eq!(files.len(), 3);
        assert_eq!(
            rc.file_size("CO2 measurements 1998", "jan_1998.nc")
                .unwrap(),
            1_500_000_000
        );
        assert!(rc.file_size("CO2 measurements 1998", "ghost.nc").is_err());
        assert!(rc.logical_files("nope").is_err());
    }

    #[test]
    fn replica_lookup_both_sites() {
        let rc = figure6();
        let reps = rc
            .lookup_replicas("CO2 measurements 1998", "jan_1998.nc")
            .unwrap();
        assert_eq!(reps.len(), 2);
        let hosts: Vec<&str> = reps.iter().map(|r| r.host.as_str()).collect();
        assert!(hosts.contains(&"jupiter.isi.edu"));
        assert!(hosts.contains(&"sprite.llnl.gov"));
        let jupiter = reps.iter().find(|r| r.host == "jupiter.isi.edu").unwrap();
        assert_eq!(
            jupiter.url.to_string(),
            "gsiftp://jupiter.isi.edu/data/co2/1998/jan_1998.nc"
        );
    }

    #[test]
    fn partial_collection_respected() {
        let rc = figure6();
        // mar is only at LLNL (jupiter holds a partial collection).
        let reps = rc
            .lookup_replicas("CO2 measurements 1998", "mar_1998.nc")
            .unwrap();
        assert_eq!(reps.len(), 1);
        assert_eq!(reps[0].host, "sprite.llnl.gov");
    }

    #[test]
    fn replication_registers_new_copy() {
        let mut rc = figure6();
        rc.add_file_to_location("CO2 measurements 1998", "jupiter", "mar_1998.nc")
            .unwrap();
        let reps = rc
            .lookup_replicas("CO2 measurements 1998", "mar_1998.nc")
            .unwrap();
        assert_eq!(reps.len(), 2);
    }

    #[test]
    fn removal() {
        let mut rc = figure6();
        assert!(rc
            .remove_file_from_location("CO2 measurements 1998", "jupiter", "jan_1998.nc")
            .unwrap());
        assert!(!rc
            .remove_file_from_location("CO2 measurements 1998", "jupiter", "jan_1998.nc")
            .unwrap());
        let reps = rc
            .lookup_replicas("CO2 measurements 1998", "jan_1998.nc")
            .unwrap();
        assert_eq!(reps.len(), 1);
    }

    #[test]
    fn missing_file_has_no_replicas() {
        let rc = figure6();
        let reps = rc
            .lookup_replicas("CO2 measurements 1998", "ghost.nc")
            .unwrap();
        assert!(reps.is_empty());
    }

    #[test]
    fn ldif_round_trip_preserves_catalog() {
        let rc = figure6();
        let text = rc.to_ldif();
        assert!(text.contains("GlobusReplicaLogicalCollection"));
        let rc2 = ReplicaCatalog::from_ldif(&text).unwrap();
        let reps = rc2
            .lookup_replicas("CO2 measurements 1998", "jan_1998.nc")
            .unwrap();
        assert_eq!(reps.len(), 2);
        assert_eq!(
            rc2.file_size("CO2 measurements 1998", "jan_1998.nc")
                .unwrap(),
            1_500_000_000
        );
        assert!(ReplicaCatalog::from_ldif("dn: o=Nope\n").is_err());
    }

    #[test]
    fn file_digest_round_trip() {
        let mut rc = figure6();
        assert_eq!(rc.file_digest("CO2 measurements 1998", "jan_1998.nc"), None);
        rc.set_file_digest("CO2 measurements 1998", "jan_1998.nc", "abc123")
            .unwrap();
        assert_eq!(
            rc.file_digest("CO2 measurements 1998", "jan_1998.nc"),
            Some("abc123")
        );
        // Re-registering overwrites rather than accumulating values.
        rc.set_file_digest("CO2 measurements 1998", "jan_1998.nc", "def456")
            .unwrap();
        assert_eq!(
            rc.file_digest("CO2 measurements 1998", "jan_1998.nc"),
            Some("def456")
        );
        assert!(rc
            .set_file_digest("CO2 measurements 1998", "ghost.nc", "x")
            .is_err());
        // The digest survives an LDIF dump/reload cycle.
        let rc2 = ReplicaCatalog::from_ldif(&rc.to_ldif()).unwrap();
        assert_eq!(
            rc2.file_digest("CO2 measurements 1998", "jan_1998.nc"),
            Some("def456")
        );
    }

    #[test]
    fn suspect_marking_flows_through_lookup() {
        let mut rc = figure6();
        let reps = rc
            .lookup_replicas("CO2 measurements 1998", "jan_1998.nc")
            .unwrap();
        assert!(reps.iter().all(|r| !r.suspect));

        let n = rc
            .set_host_suspect("CO2 measurements 1998", "jupiter.isi.edu", true)
            .unwrap();
        assert_eq!(n, 1);
        let reps = rc
            .lookup_replicas("CO2 measurements 1998", "jan_1998.nc")
            .unwrap();
        let jupiter = reps.iter().find(|r| r.host == "jupiter.isi.edu").unwrap();
        let sprite = reps.iter().find(|r| r.host == "sprite.llnl.gov").unwrap();
        assert!(jupiter.suspect);
        assert!(!sprite.suspect);

        // Rehabilitation clears the mark.
        rc.set_host_suspect("CO2 measurements 1998", "jupiter.isi.edu", false)
            .unwrap();
        let reps = rc
            .lookup_replicas("CO2 measurements 1998", "jan_1998.nc")
            .unwrap();
        assert!(reps.iter().all(|r| !r.suspect));

        // Unknown host matches nothing; unknown collection errors.
        assert_eq!(
            rc.set_host_suspect("CO2 measurements 1998", "nowhere", true)
                .unwrap(),
            0
        );
        assert!(rc
            .set_host_suspect("nope", "jupiter.isi.edu", true)
            .is_err());
    }

    #[test]
    fn locations_listed() {
        let rc = figure6();
        let mut locs = rc.locations("CO2 measurements 1998").unwrap();
        locs.sort();
        assert_eq!(locs, vec!["jupiter", "sprite"]);
    }
}
