//! HMAC-SHA-256 (RFC 2104) for message authentication and key derivation.

use crate::sha256::Sha256;

const BLOCK: usize = 64;

/// Compute HMAC-SHA-256 of `data` under `key`.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; 32] {
    let mut k = [0u8; BLOCK];
    if key.len() > BLOCK {
        let d = {
            let mut h = Sha256::new();
            h.update(key);
            h.finalize()
        };
        k[..32].copy_from_slice(&d);
    } else {
        k[..key.len()].copy_from_slice(key);
    }

    let mut ipad = [0x36u8; BLOCK];
    let mut opad = [0x5cu8; BLOCK];
    for i in 0..BLOCK {
        ipad[i] ^= k[i];
        opad[i] ^= k[i];
    }

    let mut inner = Sha256::new();
    inner.update(&ipad);
    inner.update(data);
    let inner_digest = inner.finalize();

    let mut outer = Sha256::new();
    outer.update(&opad);
    outer.update(&inner_digest);
    outer.finalize()
}

/// Constant-time comparison of two MACs.
pub fn verify_mac(expected: &[u8; 32], actual: &[u8; 32]) -> bool {
    let mut diff = 0u8;
    for (a, b) in expected.iter().zip(actual) {
        diff |= a ^ b;
    }
    diff == 0
}

/// Simple HKDF-like key derivation: expand a shared secret into labelled
/// session keys (`derive(secret, "data-integrity")`, etc.).
pub fn derive_key(secret: &[u8], label: &str) -> [u8; 32] {
    hmac_sha256(secret, label.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::{hex, sha256_portable};

    /// RFC 2104 written out over a one-shot hash: the second opinion that
    /// lets the vectors run on the portable compress path as well.
    fn hmac_over(hash: fn(&[u8]) -> [u8; 32], key: &[u8], data: &[u8]) -> [u8; 32] {
        let mut k = if key.len() > BLOCK {
            hash(key).to_vec()
        } else {
            key.to_vec()
        };
        k.resize(BLOCK, 0);
        let pad = |byte: u8| k.iter().map(|b| b ^ byte).collect::<Vec<u8>>();
        let inner = hash(&[pad(0x36), data.to_vec()].concat());
        hash(&[pad(0x5c), inner.to_vec()].concat())
    }

    /// An RFC 4231 vector, on both compress paths.
    fn assert_vector(key: &[u8], data: &[u8], expected: &str) {
        assert_eq!(hex(&hmac_sha256(key, data)), expected, "dispatched path");
        let portable = hmac_over(sha256_portable, key, data);
        assert_eq!(hex(&portable), expected, "portable path");
    }

    #[test]
    fn rfc4231_case_1() {
        assert_vector(
            &[0x0b; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        );
    }

    #[test]
    fn rfc4231_case_2() {
        assert_vector(
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        );
    }

    #[test]
    fn rfc4231_case_long_key() {
        // Case 6: 131-byte key (forces the key-hashing path).
        assert_vector(
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        );
    }

    #[test]
    fn verify_detects_mismatch() {
        let a = hmac_sha256(b"k", b"m");
        let mut b = a;
        b[31] ^= 1;
        assert!(verify_mac(&a, &a.clone()));
        assert!(!verify_mac(&a, &b));
    }

    #[test]
    fn derived_keys_differ_by_label() {
        let s = b"shared secret";
        assert_ne!(derive_key(s, "integrity"), derive_key(s, "confidentiality"));
        assert_eq!(derive_key(s, "integrity"), derive_key(s, "integrity"));
    }
}
