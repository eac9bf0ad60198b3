//! Secure record layer for authenticated channels.
//!
//! After a handshake, both sides hold [`SessionKeys`]. This module wraps
//! application records with sequence numbers, optional ChaCha20 encryption
//! and an HMAC trailer — the mechanism behind GridFTP's control-channel
//! protection and optional data-channel DCAU/PROT modes.

use crate::chacha20::ChaCha20;
use crate::handshake::{Protection, SessionKeys};
use crate::hmac::{hmac_sha256, verify_mac};

/// Error unsealing a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SealError {
    /// MAC verification failed: corruption or tampering.
    BadMac,
    /// Sequence number mismatch: replay or reordering.
    BadSequence { expected: u64, got: u64 },
    /// Record too short to contain its frame.
    Truncated,
}

impl std::fmt::Display for SealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SealError::BadMac => write!(f, "record MAC verification failed"),
            SealError::BadSequence { expected, got } => {
                write!(f, "bad sequence number: expected {expected}, got {got}")
            }
            SealError::Truncated => write!(f, "truncated record"),
        }
    }
}

impl std::error::Error for SealError {}

/// One direction of a protected channel.
pub struct SecureChannel {
    keys: SessionKeys,
    protection: Protection,
    send_seq: u64,
    recv_seq: u64,
}

const MAC_LEN: usize = 32;
const SEQ_LEN: usize = 8;

impl SecureChannel {
    pub fn new(keys: SessionKeys, protection: Protection) -> Self {
        SecureChannel {
            keys,
            protection,
            send_seq: 0,
            recv_seq: 0,
        }
    }

    pub fn protection(&self) -> Protection {
        self.protection
    }

    /// Per-record overhead in bytes added by `seal`.
    #[cfg(test)]
    pub fn overhead(&self) -> usize {
        match self.protection {
            Protection::Clear => 0,
            Protection::Safe | Protection::Private => SEQ_LEN + MAC_LEN,
        }
    }

    fn nonce_for(seq: u64) -> [u8; 12] {
        let mut n = [0u8; 12];
        n[4..12].copy_from_slice(&seq.to_be_bytes());
        n
    }

    /// Protect a record for sending.
    pub fn seal(&mut self, payload: &[u8]) -> Vec<u8> {
        let seq = self.send_seq;
        self.send_seq += 1;
        match self.protection {
            Protection::Clear => payload.to_vec(),
            Protection::Safe | Protection::Private => {
                let mut body = payload.to_vec();
                if self.protection == Protection::Private {
                    let mut c = ChaCha20::new(&self.keys.confidentiality, &Self::nonce_for(seq), 0);
                    c.apply(&mut body);
                }
                let mut out = Vec::with_capacity(SEQ_LEN + body.len() + MAC_LEN);
                out.extend_from_slice(&seq.to_be_bytes());
                out.extend_from_slice(&body);
                let mac = hmac_sha256(&self.keys.integrity, &out);
                out.extend_from_slice(&mac);
                out
            }
        }
    }

    /// Verify and unprotect a received record.
    pub fn open(&mut self, record: &[u8]) -> Result<Vec<u8>, SealError> {
        match self.protection {
            Protection::Clear => {
                self.recv_seq += 1;
                Ok(record.to_vec())
            }
            Protection::Safe | Protection::Private => {
                if record.len() < SEQ_LEN + MAC_LEN {
                    return Err(SealError::Truncated);
                }
                let (framed, mac_bytes) = record.split_at(record.len() - MAC_LEN);
                let mac: [u8; 32] = mac_bytes.try_into().unwrap();
                let expect = hmac_sha256(&self.keys.integrity, framed);
                if !verify_mac(&expect, &mac) {
                    return Err(SealError::BadMac);
                }
                let seq = u64::from_be_bytes(framed[..SEQ_LEN].try_into().unwrap());
                if seq != self.recv_seq {
                    return Err(SealError::BadSequence {
                        expected: self.recv_seq,
                        got: seq,
                    });
                }
                self.recv_seq += 1;
                let mut body = framed[SEQ_LEN..].to_vec();
                if self.protection == Protection::Private {
                    let mut c = ChaCha20::new(&self.keys.confidentiality, &Self::nonce_for(seq), 0);
                    c.apply(&mut body);
                }
                Ok(body)
            }
        }
    }
}

/// Build the sender/receiver pair for one logical connection.
pub fn channel_pair(keys: &SessionKeys, protection: Protection) -> (SecureChannel, SecureChannel) {
    (
        SecureChannel::new(keys.clone(), protection),
        SecureChannel::new(keys.clone(), protection),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys() -> SessionKeys {
        SessionKeys {
            integrity: [1u8; 32],
            confidentiality: [2u8; 32],
        }
    }

    #[test]
    fn clear_passes_through() {
        let (mut tx, mut rx) = channel_pair(&keys(), Protection::Clear);
        let sealed = tx.seal(b"hello");
        assert_eq!(sealed, b"hello");
        assert_eq!(rx.open(&sealed).unwrap(), b"hello");
    }

    #[test]
    fn safe_round_trip_with_visible_payload() {
        let (mut tx, mut rx) = channel_pair(&keys(), Protection::Safe);
        let sealed = tx.seal(b"payload");
        // Integrity-only: payload appears in the clear inside the frame.
        assert!(sealed.windows(7).any(|w| w == b"payload"));
        assert_eq!(rx.open(&sealed).unwrap(), b"payload");
    }

    #[test]
    fn private_hides_payload() {
        let (mut tx, mut rx) = channel_pair(&keys(), Protection::Private);
        let sealed = tx.seal(b"secret climate data");
        assert!(!sealed.windows(6).any(|w| w == b"secret"));
        assert_eq!(rx.open(&sealed).unwrap(), b"secret climate data");
    }

    #[test]
    fn tampering_detected() {
        let (mut tx, mut rx) = channel_pair(&keys(), Protection::Safe);
        let mut sealed = tx.seal(b"data");
        sealed[9] ^= 0xff;
        assert_eq!(rx.open(&sealed).unwrap_err(), SealError::BadMac);
    }

    #[test]
    fn replay_detected() {
        let (mut tx, mut rx) = channel_pair(&keys(), Protection::Safe);
        let sealed = tx.seal(b"one");
        rx.open(&sealed).unwrap();
        let err = rx.open(&sealed).unwrap_err();
        assert!(matches!(err, SealError::BadSequence { .. }));
    }

    #[test]
    fn sequence_of_records() {
        let (mut tx, mut rx) = channel_pair(&keys(), Protection::Private);
        for i in 0..10u32 {
            let msg = format!("record {i}");
            let sealed = tx.seal(msg.as_bytes());
            assert_eq!(rx.open(&sealed).unwrap(), msg.as_bytes());
        }
    }

    #[test]
    fn truncated_record_rejected() {
        let (mut tx, mut rx) = channel_pair(&keys(), Protection::Safe);
        let sealed = tx.seal(b"x");
        assert_eq!(rx.open(&sealed[..10]).unwrap_err(), SealError::Truncated);
    }

    #[test]
    fn overhead_reported() {
        let (tx_clear, _) = channel_pair(&keys(), Protection::Clear);
        let (tx_safe, _) = channel_pair(&keys(), Protection::Safe);
        assert_eq!(tx_clear.overhead(), 0);
        assert_eq!(tx_safe.overhead(), 40);
    }

    #[test]
    fn wrong_key_fails_mac() {
        let (mut tx, _) = channel_pair(&keys(), Protection::Safe);
        let other = SessionKeys {
            integrity: [9u8; 32],
            confidentiality: [2u8; 32],
        };
        let mut rx = SecureChannel::new(other, Protection::Safe);
        let sealed = tx.seal(b"data");
        assert_eq!(rx.open(&sealed).unwrap_err(), SealError::BadMac);
    }
}
