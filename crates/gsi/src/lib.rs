//! # esg-gsi — simulated Grid Security Infrastructure
//!
//! GridFTP's security layer [Foster et al., 1998] provides "robust and
//! flexible authentication, integrity, and confidentiality". This crate
//! reproduces its mechanisms without external dependencies:
//!
//! * [`mod@sha256`] — SHA-256 from scratch (NIST vectors in tests).
//! * [`hmac`] — HMAC-SHA-256 (RFC 4231 vectors) + labelled key derivation.
//! * [`chacha20`] — ChaCha20 stream cipher (RFC 8439 vectors) for
//!   data-channel confidentiality.
//! * [`cert`] — certificates, a CA trust anchor, and GSI *proxy
//!   delegation* (the request manager acts on the user's behalf).
//!   Signatures are simulated with HMAC under a shared-anchor trust model;
//!   see the module docs for the substitution rationale.
//! * [`handshake`] — mutual authentication with Diffie-Hellman key
//!   agreement; exports [`handshake::HANDSHAKE_ROUND_TRIPS`] so the
//!   simulator can price connection (re-)establishment, the cost that
//!   motivated GridFTP's data-channel caching.
//! * [`channel`] — sequenced, MACed, optionally encrypted records
//!   (control-channel protection and data-channel DCAU/PROT).

#![deny(unsafe_op_in_unsafe_fn)]

pub mod cert;
pub mod chacha20;
pub mod channel;
pub mod handshake;
pub mod hmac;
pub mod sha256;

pub use cert::{Certificate, CertificateAuthority, Credential, GsiError, SecEpoch, Subject};
pub use channel::{channel_pair, SealError, SecureChannel};
pub use handshake::{
    mutual_authenticate, Handshake, Hello, Proof, Protection, SessionKeys, HANDSHAKE_ROUND_TRIPS,
};
pub use hmac::{derive_key, hmac_sha256, verify_mac};
pub use sha256::{hex, sha256, Sha256};
