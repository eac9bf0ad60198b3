//! LDIF (LDAP Data Interchange Format) import/export.
//!
//! The prototype's catalogs were administered the way all 2001 LDAP
//! deployments were: bulk-loaded and dumped as LDIF. This module supports
//! the subset the catalogs need — `dn:` lines, `attr: value` lines, blank
//! line separators, `#` comments and line continuations (a leading space
//! continues the previous line).

use crate::dit::{DirError, Directory};
use crate::dn::Dn;
use crate::entry::Entry;

/// An LDIF parse error with line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LdifError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for LdifError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LDIF error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LdifError {}

/// Parse LDIF text into entries (in file order).
pub fn parse(text: &str) -> Result<Vec<Entry>, LdifError> {
    // Unfold continuations first, tracking original line numbers.
    let mut unfolded: Vec<(usize, String)> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        if let Some(cont) = raw.strip_prefix(' ') {
            match unfolded.last_mut() {
                Some((_, prev)) => prev.push_str(cont),
                None => {
                    return Err(LdifError {
                        line: i + 1,
                        message: "continuation with nothing to continue".into(),
                    })
                }
            }
        } else {
            unfolded.push((i + 1, raw.to_string()));
        }
    }

    let mut entries = Vec::new();
    let mut current: Option<Entry> = None;
    for (line_no, line) in unfolded {
        let trimmed = line.trim_end();
        if trimmed.starts_with('#') {
            continue;
        }
        if trimmed.is_empty() {
            if let Some(e) = current.take() {
                entries.push(e);
            }
            continue;
        }
        let (attr, value) = trimmed.split_once(':').ok_or_else(|| LdifError {
            line: line_no,
            message: format!("missing `:` in `{trimmed}`"),
        })?;
        let attr = attr.trim();
        let value = value.trim();
        if attr.eq_ignore_ascii_case("dn") {
            if let Some(e) = current.take() {
                entries.push(e);
            }
            let dn = Dn::parse(value).map_err(|e| LdifError {
                line: line_no,
                message: e.to_string(),
            })?;
            current = Some(Entry::new(dn));
        } else {
            match current.as_mut() {
                Some(e) => e.add(attr, value),
                None => {
                    return Err(LdifError {
                        line: line_no,
                        message: format!("attribute `{attr}` before any dn"),
                    })
                }
            }
        }
    }
    if let Some(e) = current.take() {
        entries.push(e);
    }
    Ok(entries)
}

/// Load LDIF text into a directory, creating missing ancestors. Returns
/// how many entries were added.
pub fn ldif_load(dir: &mut Directory, text: &str) -> Result<usize, LdifError> {
    let entries = parse(text)?;
    let mut added = 0;
    for (i, e) in entries.into_iter().enumerate() {
        match dir.add_with_ancestors(e) {
            Ok(()) => added += 1,
            Err(DirError::AlreadyExists(dn)) => {
                return Err(LdifError {
                    line: i + 1,
                    message: format!("duplicate entry {dn}"),
                })
            }
            Err(other) => {
                return Err(LdifError {
                    line: i + 1,
                    message: other.to_string(),
                })
            }
        }
    }
    Ok(added)
}

/// Export every entry of a directory as LDIF (tree order), with long lines
/// folded at 76 characters per the RFC's convention.
pub fn ldif_dump(dir: &Directory) -> String {
    let mut out = String::new();
    for entry in dir.iter() {
        for raw_line in entry.to_ldif().lines() {
            fold_into(&mut out, raw_line);
        }
        out.push('\n');
    }
    out
}

fn fold_into(out: &mut String, line: &str) {
    const WIDTH: usize = 76;
    if line.len() <= WIDTH {
        out.push_str(line);
        out.push('\n');
        return;
    }
    // First segment at WIDTH, continuations at WIDTH-1 (leading space).
    let bytes = line.as_bytes();
    let mut start = 0;
    let mut first = true;
    while start < bytes.len() {
        let budget = if first { WIDTH } else { WIDTH - 1 };
        let mut end = (start + budget).min(bytes.len());
        // Don't split inside a UTF-8 character.
        while end < bytes.len() && !line.is_char_boundary(end) {
            end -= 1;
        }
        if !first {
            out.push(' ');
        }
        out.push_str(&line[start..end]);
        out.push('\n');
        start = end;
        first = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dit::Scope;
    use crate::filter::Filter;

    const SAMPLE: &str = "\
# The Figure 6 replica catalog, as LDIF.
dn: o=Grid
objectclass: organization

dn: rc=ESG Replica Catalog, o=Grid
objectclass: GlobusReplicaCatalog

dn: lc=CO2 measurements 1998, rc=ESG Replica Catalog, o=Grid
objectclass: GlobusReplicaLogicalCollection
filename: jan_1998.nc
filename: feb_1998.nc

dn: loc=jupiter, lc=CO2 measurements 1998, rc=ESG Replica Catalog, o=Grid
objectclass: GlobusReplicaLocation
hostname: jupiter.isi.edu
protocol: gsiftp
filename: jan_1998.nc
";

    #[test]
    fn parse_sample() {
        let entries = parse(SAMPLE).unwrap();
        assert_eq!(entries.len(), 4);
        assert_eq!(entries[2].values("filename").len(), 2);
        assert_eq!(entries[3].first("hostname"), Some("jupiter.isi.edu"));
    }

    #[test]
    fn load_builds_searchable_directory() {
        let mut dir = Directory::new();
        assert_eq!(ldif_load(&mut dir, SAMPLE).unwrap(), 4);
        let hits = dir.search(
            &Dn::parse("o=Grid").unwrap(),
            Scope::Subtree,
            &Filter::parse("(filename=jan_1998.nc)").unwrap(),
        );
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn dump_load_round_trip() {
        let mut dir = Directory::new();
        ldif_load(&mut dir, SAMPLE).unwrap();
        let text = ldif_dump(&dir);
        let mut dir2 = Directory::new();
        ldif_load(&mut dir2, &text).unwrap();
        assert_eq!(dir2.len(), dir.len());
        for e in dir.iter() {
            let e2 = dir2.get(&e.dn).expect("entry survives round trip");
            assert_eq!(e2, e);
        }
    }

    #[test]
    fn continuation_lines_unfold() {
        let text = "dn: cn=x\ndescription: a very long\n  value split across lines\n";
        let entries = parse(text).unwrap();
        assert_eq!(
            entries[0].first("description"),
            Some("a very long value split across lines")
        );
    }

    #[test]
    fn long_lines_fold_and_reparse() {
        let mut dir = Directory::new();
        let mut e = Entry::new(Dn::parse("cn=long").unwrap());
        let long_value = "x".repeat(300);
        e.add("payload", long_value.clone());
        dir.add_with_ancestors(e).unwrap();
        let text = ldif_dump(&dir);
        assert!(text.lines().all(|l| l.len() <= 76));
        let mut dir2 = Directory::new();
        ldif_load(&mut dir2, &text).unwrap();
        let got = dir2.get(&Dn::parse("cn=long").unwrap()).unwrap();
        assert_eq!(got.first("payload"), Some(long_value.as_str()));
    }

    #[test]
    fn errors_have_line_numbers() {
        let err = parse("dn: cn=x\nbroken line\n").unwrap_err();
        assert_eq!(err.line, 2);
        let err = parse("objectclass: before-dn\n").unwrap_err();
        assert_eq!(err.line, 1);
        let err = parse(" leading continuation\n").unwrap_err();
        assert_eq!(err.line, 1);
        let err = parse("dn: not a dn at all\n").unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn duplicate_load_rejected() {
        let mut dir = Directory::new();
        ldif_load(&mut dir, "dn: cn=a\nx: 1\n").unwrap();
        assert!(ldif_load(&mut dir, "dn: cn=a\nx: 2\n").is_err());
    }

    #[test]
    fn comments_and_trailing_entry_handled() {
        let entries = parse("# only a comment\ndn: cn=last\nattr: v").unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].first("attr"), Some("v"));
    }
}
