//! # esg-directory — LDAP-like directory substrate
//!
//! Both catalogs in the ESG prototype are LDAP directories: the CDMS
//! metadata catalog ("Based on Lightweight Directory Access Protocol") and
//! the Globus replica catalog (queried "using an LDAP protocol"). This crate
//! provides the directory semantics they need as an in-process store:
//!
//! * [`dn`] — distinguished names (`lc=CO2 1998, rc=ESG, o=Grid`).
//! * [`entry`] — entries with case-insensitive, multi-valued attributes.
//! * [`filter`] — RFC 2254-style search filters with boolean combinators.
//! * [`dit`] — the tree: add/modify/delete + scoped, filtered search.
//! * [`ldif`] — LDIF import/export for bulk catalog administration.
//!
//! Substitution note (see DESIGN.md): the prototype talked to OpenLDAP over
//! the wire; what it exercised is the hierarchical data model and search
//! semantics, which this crate reproduces. RPC latency for catalog access is
//! charged by the request manager when running under the simulator.

pub mod dit;
pub mod dn;
pub mod entry;
pub mod filter;
pub mod ldif;

pub use dit::{sibling_key, DirError, Directory, Scope};
pub use dn::{Dn, DnParseError, Rdn};
pub use entry::Entry;
pub use filter::{Filter, FilterParseError};
pub use ldif::{ldif_dump, ldif_load, LdifError};
