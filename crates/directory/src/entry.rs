//! Directory entries: a DN plus multi-valued attributes.

use crate::dn::Dn;
use std::collections::BTreeMap;

/// A directory entry. Attribute names are case-insensitive (normalized to
/// lowercase); values are ordered, multi-valued strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    pub dn: Dn,
    attrs: BTreeMap<String, Vec<String>>,
}

impl Entry {
    pub fn new(dn: Dn) -> Self {
        Entry {
            dn,
            attrs: BTreeMap::new(),
        }
    }

    /// Builder-style attribute addition.
    pub fn with(mut self, attr: impl Into<String>, value: impl Into<String>) -> Self {
        self.add(attr, value);
        self
    }

    /// Add a value to an attribute (duplicates are kept out).
    pub fn add(&mut self, attr: impl Into<String>, value: impl Into<String>) {
        let attr = attr.into().to_ascii_lowercase();
        let value = value.into();
        let values = self.attrs.entry(attr).or_default();
        if !values.contains(&value) {
            values.push(value);
        }
    }

    /// Append a value the caller has already proven absent from the
    /// attribute. [`Entry::add`] scans the whole value list per call, which
    /// is quadratic for a bulk load of N known-distinct values; this is the
    /// O(1) append for that case.
    pub fn push_new(&mut self, attr: impl Into<String>, value: impl Into<String>) {
        let values = self
            .attrs
            .entry(attr.into().to_ascii_lowercase())
            .or_default();
        let value = value.into();
        debug_assert!(!values.contains(&value), "push_new of a present value");
        values.push(value);
    }

    /// Replace all values of an attribute.
    pub fn set(&mut self, attr: impl Into<String>, values: Vec<String>) {
        self.attrs.insert(attr.into().to_ascii_lowercase(), values);
    }

    /// Remove a single value; removes the attribute when no values remain.
    pub fn remove_value(&mut self, attr: &str, value: &str) -> bool {
        let attr = attr.to_ascii_lowercase();
        if let Some(values) = self.attrs.get_mut(&attr) {
            let before = values.len();
            values.retain(|v| v != value);
            let removed = values.len() != before;
            if values.is_empty() {
                self.attrs.remove(&attr);
            }
            return removed;
        }
        false
    }

    /// Remove an attribute entirely.
    pub fn remove_attr(&mut self, attr: &str) -> bool {
        self.attrs.remove(&attr.to_ascii_lowercase()).is_some()
    }

    /// All values of an attribute (empty slice if absent).
    pub fn values(&self, attr: &str) -> &[String] {
        self.attrs
            .get(&attr.to_ascii_lowercase())
            .map_or(&[], |v| v.as_slice())
    }

    /// The first value of an attribute.
    pub fn first(&self, attr: &str) -> Option<&str> {
        self.values(attr).first().map(|s| s.as_str())
    }

    /// First value parsed as u64.
    pub fn first_u64(&self, attr: &str) -> Option<u64> {
        self.first(attr)?.parse().ok()
    }

    /// LDIF-style rendering, for debugging and the examples' output.
    pub fn to_ldif(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        writeln!(s, "dn: {}", self.dn).unwrap();
        for (attr, values) in &self.attrs {
            for v in values {
                writeln!(s, "{attr}: {v}").unwrap();
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_query() {
        let mut e = Entry::new(Dn::parse("cn=x").unwrap());
        e.add("objectClass", "GlobusReplicaLogicalCollection");
        e.add("fileName", "a.nc");
        e.add("fileName", "b.nc");
        assert_eq!(e.values("filename").len(), 2);
        assert_eq!(
            e.first("objectclass"),
            Some("GlobusReplicaLogicalCollection")
        );
        assert_eq!(e.first("missing"), None);
    }

    #[test]
    fn duplicates_collapsed() {
        let mut e = Entry::new(Dn::root());
        e.add("a", "v");
        e.add("a", "v");
        assert_eq!(e.values("a").len(), 1);
    }

    #[test]
    fn push_new_appends_in_order_case_insensitive_attr() {
        let mut e = Entry::new(Dn::root());
        e.add("fileName", "a.nc");
        e.push_new("FILENAME", "b.nc");
        e.push_new("other", "x");
        assert_eq!(e.values("filename"), &["a.nc", "b.nc"]);
        assert_eq!(e.values("other"), &["x"]);
    }

    #[test]
    fn remove_value_and_attr() {
        let mut e = Entry::new(Dn::root());
        e.add("f", "1");
        e.add("f", "2");
        assert!(e.remove_value("f", "1"));
        assert!(!e.remove_value("f", "1"));
        assert_eq!(e.values("f"), &["2".to_string()]);
        assert!(e.remove_value("f", "2"));
        assert!(e.values("f").is_empty());
        e.add("g", "x");
        assert!(e.remove_attr("g"));
        assert!(!e.remove_attr("g"));
    }

    #[test]
    fn set_replaces() {
        let mut e = Entry::new(Dn::root());
        e.add("a", "old");
        e.set("a", vec!["new1".into(), "new2".into()]);
        assert_eq!(e.values("a").len(), 2);
        assert_eq!(e.first("a"), Some("new1"));
    }

    #[test]
    fn first_u64_parses() {
        let mut e = Entry::new(Dn::root());
        e.add("size", "1048576");
        e.add("name", "not a number");
        assert_eq!(e.first_u64("size"), Some(1048576));
        assert_eq!(e.first_u64("name"), None);
    }

    #[test]
    fn ldif_rendering() {
        let e = Entry::new(Dn::parse("lc=CO2, o=Grid").unwrap())
            .with("objectclass", "collection")
            .with("filename", "jan.nc");
        let ldif = e.to_ldif();
        assert!(ldif.starts_with("dn: lc=CO2, o=Grid\n"));
        assert!(ldif.contains("filename: jan.nc\n"));
    }
}
