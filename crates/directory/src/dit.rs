//! The Directory Information Tree: an in-process LDAP-like store.
//!
//! Supports the operations the ESG prototype issues against its OpenLDAP
//! servers: add/modify/delete entries, lookup by DN, and scoped searches
//! (base / one-level / subtree) with RFC 2254-style filters.

use crate::dn::{Dn, Rdn};
use crate::entry::Entry;
use crate::filter::Filter;
use std::collections::BTreeMap;

/// Search scope, mirroring LDAP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Only the base entry itself.
    Base,
    /// Direct children of the base.
    OneLevel,
    /// The base and everything beneath it.
    Subtree,
}

/// Errors from directory operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirError {
    AlreadyExists(Dn),
    NoSuchEntry(Dn),
    /// Adding an entry whose parent doesn't exist.
    NoSuchParent(Dn),
    /// Deleting an entry that still has children.
    NotLeaf(Dn),
}

impl std::fmt::Display for DirError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DirError::AlreadyExists(dn) => write!(f, "entry already exists: {dn}"),
            DirError::NoSuchEntry(dn) => write!(f, "no such entry: {dn}"),
            DirError::NoSuchParent(dn) => write!(f, "parent does not exist: {dn}"),
            DirError::NotLeaf(dn) => write!(f, "entry has children: {dn}"),
        }
    }
}

impl std::error::Error for DirError {}

/// Sort key: DNs ordered by (depth, reversed-rdn-path) so that a subtree is
/// contiguous... simpler: store by normalized string key and filter. The
/// directory is small (thousands of entries), so linear scans on search are
/// acceptable and keep the code obviously correct.
#[derive(Debug, Default, Clone)]
pub struct Directory {
    entries: BTreeMap<String, Entry>,
}

fn key(dn: &Dn) -> String {
    // Reverse the RDN order so ancestors are string prefixes of descendants.
    let mut k = String::from("\u{1}"); // leading separator
    for r in dn.rdns.iter().rev() {
        push_rdn_key(&mut k, r);
    }
    k
}

fn push_rdn_key(k: &mut String, r: &Rdn) {
    k.push_str(&r.attr);
    k.push('=');
    k.extend(r.value.chars().map(|c| c.to_ascii_lowercase()));
    // Trailing separator so `lc=co2 1998` is never a prefix of its sibling
    // `lc=co2 1998 extra`, only of true descendants.
    k.push('\u{1}');
}

/// The component one RDN contributes to the tree's sort key. Siblings
/// iterate (and one-level searches answer) in the order of these strings,
/// so an index kept beside a [`Directory`] sorts on them to reproduce its
/// result order without walking the tree.
pub fn sibling_key(rdn: &Rdn) -> String {
    let mut k = String::new();
    push_rdn_key(&mut k, rdn);
    k
}

impl Directory {
    pub fn new() -> Self {
        Directory::default()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Add an entry. The parent must exist (except for depth-1 suffixes,
    /// which act as naming-context roots).
    pub fn add(&mut self, entry: Entry) -> Result<(), DirError> {
        let k = key(&entry.dn);
        if self.entries.contains_key(&k) {
            return Err(DirError::AlreadyExists(entry.dn));
        }
        if entry.dn.depth() > 1 {
            let parent = entry.dn.parent().unwrap();
            if !self.entries.contains_key(&key(&parent)) {
                return Err(DirError::NoSuchParent(parent));
            }
        }
        self.entries.insert(k, entry);
        Ok(())
    }

    /// Add an entry, creating any missing ancestors as bare entries.
    pub fn add_with_ancestors(&mut self, entry: Entry) -> Result<(), DirError> {
        let mut missing = Vec::new();
        let mut cur = entry.dn.parent();
        while let Some(dn) = cur {
            if dn.is_root() || self.entries.contains_key(&key(&dn)) {
                break;
            }
            missing.push(dn.clone());
            cur = dn.parent();
        }
        for dn in missing.into_iter().rev() {
            self.entries.insert(key(&dn), Entry::new(dn));
        }
        self.add(entry)
    }

    /// Fetch an entry by DN.
    pub fn get(&self, dn: &Dn) -> Option<&Entry> {
        self.entries.get(&key(dn))
    }

    /// Mutable access for modify operations.
    pub fn get_mut(&mut self, dn: &Dn) -> Option<&mut Entry> {
        self.entries.get_mut(&key(dn))
    }

    /// Apply a modification closure to an entry.
    pub fn modify(&mut self, dn: &Dn, f: impl FnOnce(&mut Entry)) -> Result<(), DirError> {
        match self.entries.get_mut(&key(dn)) {
            Some(e) => {
                f(e);
                Ok(())
            }
            None => Err(DirError::NoSuchEntry(dn.clone())),
        }
    }

    /// Delete a leaf entry.
    pub fn delete(&mut self, dn: &Dn) -> Result<Entry, DirError> {
        if !self.entries.contains_key(&key(dn)) {
            return Err(DirError::NoSuchEntry(dn.clone()));
        }
        if self.children(dn).next().is_some() {
            return Err(DirError::NotLeaf(dn.clone()));
        }
        Ok(self.entries.remove(&key(dn)).unwrap())
    }

    /// Delete an entry and its whole subtree; returns how many entries went.
    pub fn delete_subtree(&mut self, dn: &Dn) -> usize {
        let prefix = key(dn);
        let keys: Vec<String> = self
            .entries
            .range(prefix.clone()..)
            .take_while(|(k, _)| k.starts_with(&prefix))
            .map(|(k, _)| k.clone())
            .collect();
        let n = keys.len();
        for k in keys {
            self.entries.remove(&k);
        }
        n
    }

    /// Direct children of a DN.
    pub fn children<'a>(&'a self, dn: &Dn) -> impl Iterator<Item = &'a Entry> + 'a {
        let parent = dn.clone();
        self.subtree_iter(dn)
            .filter(move |e| e.dn.is_child_of(&parent))
    }

    fn subtree_iter<'a>(&'a self, dn: &Dn) -> impl Iterator<Item = &'a Entry> + 'a {
        let prefix = key(dn);
        self.entries
            .range(prefix.clone()..)
            .take_while(move |(k, _)| k.starts_with(&prefix))
            .map(|(_, e)| e)
    }

    /// Scoped, filtered search from `base`.
    pub fn search(&self, base: &Dn, scope: Scope, filter: &Filter) -> Vec<&Entry> {
        match scope {
            Scope::Base => self
                .get(base)
                .into_iter()
                .filter(|e| filter.matches(e))
                .collect(),
            Scope::OneLevel => self.children(base).filter(|e| filter.matches(e)).collect(),
            Scope::Subtree => self
                .subtree_iter(base)
                .filter(|e| filter.matches(e))
                .collect(),
        }
    }

    /// All entries (tests, dumps).
    pub fn iter(&self) -> impl Iterator<Item = &Entry> {
        self.entries.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Directory {
        let mut d = Directory::new();
        d.add(Entry::new(Dn::parse("o=Grid").unwrap())).unwrap();
        d.add(
            Entry::new(Dn::parse("rc=ESG, o=Grid").unwrap())
                .with("objectclass", "GlobusReplicaCatalog"),
        )
        .unwrap();
        d.add(
            Entry::new(Dn::parse("lc=CO2 1998, rc=ESG, o=Grid").unwrap())
                .with("objectclass", "GlobusReplicaLogicalCollection")
                .with("filename", "jan.nc")
                .with("filename", "feb.nc"),
        )
        .unwrap();
        d.add(
            Entry::new(Dn::parse("lc=CO2 1999, rc=ESG, o=Grid").unwrap())
                .with("objectclass", "GlobusReplicaLogicalCollection")
                .with("filename", "mar.nc"),
        )
        .unwrap();
        d.add(
            Entry::new(Dn::parse("loc=jupiter, lc=CO2 1998, rc=ESG, o=Grid").unwrap())
                .with("objectclass", "GlobusReplicaLocation")
                .with("host", "jupiter.isi.edu"),
        )
        .unwrap();
        d
    }

    #[test]
    fn add_get_round_trip() {
        let d = grid();
        let e = d
            .get(&Dn::parse("lc=CO2 1998, rc=ESG, o=Grid").unwrap())
            .unwrap();
        assert_eq!(e.values("filename").len(), 2);
    }

    #[test]
    fn dn_lookup_is_case_insensitive_in_attrs() {
        let d = grid();
        assert!(d
            .get(&Dn::parse("LC=CO2 1998, RC=ESG, O=Grid").unwrap())
            .is_some());
    }

    #[test]
    fn parent_required() {
        let mut d = Directory::new();
        let err = d
            .add(Entry::new(Dn::parse("a=1, b=2").unwrap()))
            .unwrap_err();
        assert!(matches!(err, DirError::NoSuchParent(_)));
    }

    #[test]
    fn add_with_ancestors_creates_path() {
        let mut d = Directory::new();
        d.add_with_ancestors(Entry::new(Dn::parse("a=1, b=2, c=3").unwrap()))
            .unwrap();
        assert_eq!(d.len(), 3);
        assert!(d.get(&Dn::parse("b=2, c=3").unwrap()).is_some());
    }

    #[test]
    fn duplicate_rejected() {
        let mut d = grid();
        let err = d
            .add(Entry::new(Dn::parse("rc=ESG, o=Grid").unwrap()))
            .unwrap_err();
        assert!(matches!(err, DirError::AlreadyExists(_)));
    }

    #[test]
    fn scoped_searches() {
        let d = grid();
        let base = Dn::parse("rc=ESG, o=Grid").unwrap();
        let any = Filter::parse("(objectclass=*)").unwrap();
        assert_eq!(d.search(&base, Scope::Base, &any).len(), 1);
        assert_eq!(d.search(&base, Scope::OneLevel, &any).len(), 2);
        assert_eq!(d.search(&base, Scope::Subtree, &any).len(), 4);
    }

    #[test]
    fn filtered_search() {
        let d = grid();
        let base = Dn::parse("o=Grid").unwrap();
        let f = Filter::parse("(filename=jan.nc)").unwrap();
        let hits = d.search(&base, Scope::Subtree, &f);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].dn.to_string(), "lc=CO2 1998, rc=ESG, o=Grid");
    }

    #[test]
    fn sibling_prefix_names_do_not_collide() {
        // "lc=CO2 1998" and a hypothetical "lc=CO2 1998 extra" must not be
        // confused by the prefix-based subtree scan.
        let mut d = grid();
        d.add(
            Entry::new(Dn::parse("lc=CO2 1998 extra, rc=ESG, o=Grid").unwrap())
                .with("objectclass", "GlobusReplicaLogicalCollection"),
        )
        .unwrap();
        let base = Dn::parse("lc=CO2 1998, rc=ESG, o=Grid").unwrap();
        let any = Filter::parse("(objectclass=*)").unwrap();
        // Subtree of "CO2 1998" should contain itself + its location child,
        // NOT the "CO2 1998 extra" sibling.
        let hits = d.search(&base, Scope::Subtree, &any);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn modify_in_place() {
        let mut d = grid();
        let dn = Dn::parse("lc=CO2 1999, rc=ESG, o=Grid").unwrap();
        d.modify(&dn, |e| e.add("filename", "apr.nc")).unwrap();
        assert_eq!(d.get(&dn).unwrap().values("filename").len(), 2);
        let missing = Dn::parse("lc=nope, rc=ESG, o=Grid").unwrap();
        assert!(d.modify(&missing, |_| ()).is_err());
    }

    #[test]
    fn delete_rules() {
        let mut d = grid();
        let parent = Dn::parse("lc=CO2 1998, rc=ESG, o=Grid").unwrap();
        assert!(matches!(d.delete(&parent), Err(DirError::NotLeaf(_))));
        let child = Dn::parse("loc=jupiter, lc=CO2 1998, rc=ESG, o=Grid").unwrap();
        d.delete(&child).unwrap();
        d.delete(&parent).unwrap();
        assert!(d.get(&parent).is_none());
    }

    #[test]
    fn delete_subtree_counts() {
        let mut d = grid();
        let n = d.delete_subtree(&Dn::parse("rc=ESG, o=Grid").unwrap());
        assert_eq!(n, 4);
        assert_eq!(d.len(), 1); // o=Grid remains
    }

    #[test]
    fn siblings_iterate_in_sibling_key_order() {
        let mut d = grid();
        let base = Dn::parse("lc=CO2 1998, rc=ESG, o=Grid").unwrap();
        for leaf in ["loc=Sprite", "lf=jan.nc", "loc=anl b", "loc=ANL", "site=x"] {
            let (attr, value) = leaf.split_once('=').unwrap();
            d.add(Entry::new(base.child(attr, value))).unwrap();
        }
        let keys: Vec<String> = d
            .children(&base)
            .map(|e| sibling_key(e.dn.leaf().unwrap()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(keys.len(), 6);
        assert_eq!(keys[1], "loc=anl\u{1}");
    }

    #[test]
    fn children_iterator() {
        let d = grid();
        let base = Dn::parse("rc=ESG, o=Grid").unwrap();
        let names: Vec<String> = d.children(&base).map(|e| e.dn.to_string()).collect();
        assert_eq!(names.len(), 2);
        assert!(names.iter().all(|n| n.contains("lc=CO2")));
    }
}
