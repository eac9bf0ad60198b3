//! Simulated Grid Security Infrastructure credentials.
//!
//! GSI (ref. \[7\] in the paper) uses X.509 certificates with RSA signatures and *proxy
//! certificates* for delegation (a user signs a short-lived key so that
//! services like the request manager can act on their behalf). Implementing
//! RSA is out of scope for this reproduction, so signatures are simulated
//! with HMAC-SHA-256 under the issuer's key, and relying parties hold the
//! CA key as their trust anchor (a shared-key trust model, as in Kerberos).
//! The *semantics* exercised by the prototype — identity assertion, chain
//! validation, expiry, delegation depth — are all real.

use crate::hmac::hmac_sha256;
use crate::sha256::{hex, sha256};

/// Simulated clock for credential lifetimes (seconds since epoch 0 of the
/// simulation).
pub type SecEpoch = u64;

/// A distinguished name, e.g. `/O=Grid/OU=ANL/CN=Veronika`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Subject(pub String);

impl Subject {
    pub fn new(s: impl Into<String>) -> Self {
        Subject(s.into())
    }
}

impl std::fmt::Display for Subject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A certificate binding a subject to a key fingerprint, signed by an issuer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    pub subject: Subject,
    pub issuer: Subject,
    /// Fingerprint of the holder's (simulated) public key.
    pub key_fingerprint: String,
    pub not_before: SecEpoch,
    pub not_after: SecEpoch,
    /// Remaining delegation depth: `None` for end-entity certs issued by the
    /// CA, `Some(n)` for proxy certificates.
    pub proxy_depth: Option<u32>,
    /// Issuer's signature over the to-be-signed bytes.
    pub signature: [u8; 32],
}

impl Certificate {
    fn tbs(&self) -> Vec<u8> {
        let mut v = Vec::new();
        v.extend_from_slice(self.subject.0.as_bytes());
        v.push(0);
        v.extend_from_slice(self.issuer.0.as_bytes());
        v.push(0);
        v.extend_from_slice(self.key_fingerprint.as_bytes());
        v.push(0);
        v.extend_from_slice(&self.not_before.to_be_bytes());
        v.extend_from_slice(&self.not_after.to_be_bytes());
        match self.proxy_depth {
            None => v.push(0xff),
            Some(d) => {
                v.push(1);
                v.extend_from_slice(&d.to_be_bytes());
            }
        }
        v
    }

    pub fn valid_at(&self, now: SecEpoch) -> bool {
        self.not_before <= now && now <= self.not_after
    }
}

/// A private credential: certificate plus the holder's secret key material.
#[derive(Debug, Clone)]
pub struct Credential {
    pub cert: Certificate,
    /// Chain back to (but excluding) the CA: innermost proxy first.
    pub chain: Vec<Certificate>,
    /// Secret used to sign delegations and handshake transcripts.
    pub secret: [u8; 32],
}

impl Credential {
    /// Issue a proxy certificate valid for `lifetime` seconds, delegating to
    /// a fresh key. Returns the proxy credential whose chain includes this
    /// credential's certificate.
    pub fn delegate(
        &self,
        now: SecEpoch,
        lifetime: u64,
        seed: &[u8],
    ) -> Result<Credential, GsiError> {
        let depth = match self.cert.proxy_depth {
            None => u32::MAX, // end-entity can always delegate
            Some(0) => return Err(GsiError::DelegationDepthExceeded),
            Some(d) => d - 1,
        };
        if !self.cert.valid_at(now) {
            return Err(GsiError::Expired {
                subject: self.cert.subject.clone(),
            });
        }
        let proxy_secret = hmac_sha256(&self.secret, seed);
        let mut cert = Certificate {
            subject: Subject::new(format!("{}/CN=proxy", self.cert.subject)),
            issuer: self.cert.subject.clone(),
            key_fingerprint: hex(&sha256(&proxy_secret)),
            not_before: now,
            not_after: now + lifetime,
            proxy_depth: Some(depth.min(8)),
            signature: [0; 32],
        };
        cert.signature = hmac_sha256(&self.secret, &cert.tbs());
        let mut chain = vec![self.cert.clone()];
        chain.extend(self.chain.iter().cloned());
        Ok(Credential {
            cert,
            chain,
            secret: proxy_secret,
        })
    }

    /// The end-entity identity this credential ultimately speaks for
    /// (strips `/CN=proxy` components).
    pub fn identity(&self) -> Subject {
        self.chain
            .last()
            .map(|c| c.subject.clone())
            .unwrap_or_else(|| self.cert.subject.clone())
    }
}

/// A certificate authority: issues end-entity certificates and acts as the
/// trust anchor for verification.
#[derive(Debug, Clone)]
pub struct CertificateAuthority {
    pub name: Subject,
    secret: [u8; 32],
}

/// Errors from credential operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GsiError {
    BadSignature { subject: Subject },
    Expired { subject: Subject },
    UntrustedIssuer { issuer: Subject },
    DelegationDepthExceeded,
    BrokenChain,
    AuthenticationFailed(String),
}

impl std::fmt::Display for GsiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GsiError::BadSignature { subject } => write!(f, "bad signature on {subject}"),
            GsiError::Expired { subject } => write!(f, "credential expired: {subject}"),
            GsiError::UntrustedIssuer { issuer } => write!(f, "untrusted issuer: {issuer}"),
            GsiError::DelegationDepthExceeded => write!(f, "delegation depth exceeded"),
            GsiError::BrokenChain => write!(f, "certificate chain does not link"),
            GsiError::AuthenticationFailed(why) => write!(f, "authentication failed: {why}"),
        }
    }
}

impl std::error::Error for GsiError {}

impl CertificateAuthority {
    pub fn new(name: impl Into<String>, seed: &[u8]) -> Self {
        CertificateAuthority {
            name: Subject::new(name),
            secret: sha256(seed),
        }
    }

    /// Issue an end-entity credential for `subject`.
    pub fn issue(&self, subject: impl Into<String>, now: SecEpoch, lifetime: u64) -> Credential {
        let subject = Subject::new(subject);
        let secret = hmac_sha256(&self.secret, subject.0.as_bytes());
        let mut cert = Certificate {
            subject: subject.clone(),
            issuer: self.name.clone(),
            key_fingerprint: hex(&sha256(&secret)),
            not_before: now,
            not_after: now + lifetime,
            proxy_depth: None,
            signature: [0; 32],
        };
        cert.signature = hmac_sha256(&self.secret, &cert.tbs());
        Credential {
            cert,
            chain: Vec::new(),
            secret,
        }
    }

    /// Verify a certificate chain presented by a peer: innermost certificate
    /// first, ending at a certificate issued by this CA. Checks signatures,
    /// lifetimes, chain linkage and delegation depth. Returns the asserted
    /// end-entity identity.
    pub fn verify_chain(
        &self,
        presented: &[Certificate],
        now: SecEpoch,
        peer_secrets: &dyn Fn(&Subject) -> Option<[u8; 32]>,
    ) -> Result<Subject, GsiError> {
        if presented.is_empty() {
            return Err(GsiError::BrokenChain);
        }
        for (i, cert) in presented.iter().enumerate() {
            if !cert.valid_at(now) {
                return Err(GsiError::Expired {
                    subject: cert.subject.clone(),
                });
            }
            let is_last = i + 1 == presented.len();
            if is_last {
                // Must be issued (HMAC-signed) by this CA.
                if cert.issuer != self.name {
                    return Err(GsiError::UntrustedIssuer {
                        issuer: cert.issuer.clone(),
                    });
                }
                let expect = hmac_sha256(&self.secret, &cert.tbs());
                if expect != cert.signature {
                    return Err(GsiError::BadSignature {
                        subject: cert.subject.clone(),
                    });
                }
            } else {
                // Signed by the next certificate's subject key.
                let issuer_cert = &presented[i + 1];
                if cert.issuer != issuer_cert.subject {
                    return Err(GsiError::BrokenChain);
                }
                let issuer_secret =
                    peer_secrets(&issuer_cert.subject).ok_or(GsiError::BrokenChain)?;
                let expect = hmac_sha256(&issuer_secret, &cert.tbs());
                if expect != cert.signature {
                    return Err(GsiError::BadSignature {
                        subject: cert.subject.clone(),
                    });
                }
            }
        }
        Ok(presented.last().unwrap().subject.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ca() -> CertificateAuthority {
        CertificateAuthority::new("/O=Grid/CN=ESG CA", b"ca-seed")
    }

    #[test]
    fn issued_cert_validates() {
        let ca = ca();
        let cred = ca.issue("/O=Grid/CN=alice", 0, 3600);
        let chain = vec![cred.cert.clone()];
        let id = ca.verify_chain(&chain, 100, &|_| None).unwrap();
        assert_eq!(id.0, "/O=Grid/CN=alice");
    }

    #[test]
    fn expired_cert_rejected() {
        let ca = ca();
        let cred = ca.issue("/O=Grid/CN=alice", 0, 10);
        let chain = vec![cred.cert.clone()];
        let err = ca.verify_chain(&chain, 100, &|_| None).unwrap_err();
        assert!(matches!(err, GsiError::Expired { .. }));
    }

    #[test]
    fn tampered_cert_rejected() {
        let ca = ca();
        let cred = ca.issue("/O=Grid/CN=alice", 0, 3600);
        let mut cert = cred.cert.clone();
        cert.subject = Subject::new("/O=Grid/CN=mallory");
        let err = ca.verify_chain(&[cert], 100, &|_| None).unwrap_err();
        assert!(matches!(err, GsiError::BadSignature { .. }));
    }

    #[test]
    fn foreign_ca_rejected() {
        let ca1 = ca();
        let ca2 = CertificateAuthority::new("/O=Evil/CN=CA", b"other");
        let cred = ca2.issue("/O=Grid/CN=alice", 0, 3600);
        let err = ca1
            .verify_chain(std::slice::from_ref(&cred.cert), 100, &|_| None)
            .unwrap_err();
        assert!(matches!(err, GsiError::UntrustedIssuer { .. }));
    }

    #[test]
    fn delegation_produces_verifiable_proxy() {
        let ca = ca();
        let user = ca.issue("/O=Grid/CN=alice", 0, 3600);
        let proxy = user.delegate(10, 600, b"rm-session").unwrap();
        assert!(proxy.cert.proxy_depth.is_some());
        assert_eq!(proxy.identity().0, "/O=Grid/CN=alice");

        let mut chain = vec![proxy.cert.clone()];
        chain.extend(proxy.chain.iter().cloned());
        let user_secret = user.secret;
        let id = ca
            .verify_chain(&chain, 20, &|subj| {
                (subj.0 == "/O=Grid/CN=alice").then_some(user_secret)
            })
            .unwrap();
        assert_eq!(id.0, "/O=Grid/CN=alice");
    }

    #[test]
    fn delegation_depth_enforced() {
        let ca = ca();
        let user = ca.issue("/O=Grid/CN=alice", 0, 3600);
        let mut cred = user.delegate(0, 600, b"d0").unwrap();
        // Exhaust the depth budget.
        cred.cert.proxy_depth = Some(0);
        assert_eq!(
            cred.delegate(0, 600, b"d1").unwrap_err(),
            GsiError::DelegationDepthExceeded
        );
    }

    #[test]
    fn expired_credential_cannot_delegate() {
        let ca = ca();
        let user = ca.issue("/O=Grid/CN=alice", 0, 10);
        let err = user.delegate(100, 600, b"late").unwrap_err();
        assert!(matches!(err, GsiError::Expired { .. }));
    }

    #[test]
    fn proxy_has_short_lifetime() {
        let ca = ca();
        let user = ca.issue("/O=Grid/CN=alice", 0, 86400);
        let proxy = user.delegate(0, 600, b"s").unwrap();
        assert_eq!(proxy.cert.not_after, 600);
    }

    #[test]
    fn empty_chain_is_broken() {
        let ca = ca();
        assert_eq!(
            ca.verify_chain(&[], 0, &|_| None).unwrap_err(),
            GsiError::BrokenChain
        );
    }
}
