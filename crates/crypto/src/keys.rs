//! Fixed-size key wrappers with derivation helpers, and a small cache of
//! expanded AES key schedules for hot paths that repeatedly seal/open blocks
//! under the same handful of keys.

use std::sync::{Arc, Mutex};

use crate::aes::Aes256;
use crate::hmac::HmacSha256;
use crate::sha256::sha256;

/// Error returned when constructing a key from a wrongly-sized slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyError {
    /// Expected key length in bytes.
    pub expected: usize,
    /// Observed length in bytes.
    pub got: usize,
}

impl core::fmt::Display for KeyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "invalid key length: expected {} bytes, got {}",
            self.expected, self.got
        )
    }
}

impl std::error::Error for KeyError {}

/// A 256-bit symmetric key. This is the key type used for block encryption,
/// header keys and content keys throughout the reproduction.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key256(pub [u8; 32]);

impl Key256 {
    /// Derive a key from an arbitrary passphrase by hashing.
    pub fn from_passphrase(passphrase: &str) -> Self {
        Self(sha256(passphrase.as_bytes()))
    }

    /// Construct from a slice, checking the length.
    pub fn from_slice(bytes: &[u8]) -> Result<Self, KeyError> {
        if bytes.len() != 32 {
            return Err(KeyError {
                expected: 32,
                got: bytes.len(),
            });
        }
        let mut k = [0u8; 32];
        k.copy_from_slice(bytes);
        Ok(Self(k))
    }

    /// Derive a labelled sub-key, e.g. a header key and a content key from a
    /// single file access key (Section 4.2.1 gives each hidden file a header
    /// key and a content key).
    pub fn derive(&self, label: &str) -> Key256 {
        Key256(HmacSha256::mac(&self.0, label.as_bytes()))
    }

    /// Raw bytes of the key.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

/// A small most-recently-used cache of expanded [`Aes256`] key schedules.
///
/// Every sealed-block operation needs the key schedule of its [`Key256`];
/// without a cache the schedule is re-expanded on every block touch even
/// though an agent cycles through a handful of keys (the global volume key,
/// or a few per-file content/header keys). The cache hands out shared
/// [`Arc`] handles, so a schedule can be used concurrently while newer keys
/// rotate older ones out.
pub struct AesScheduleCache {
    /// Most-recently-used first.
    entries: Mutex<Vec<(Key256, Arc<Aes256>)>>,
    capacity: usize,
}

impl AesScheduleCache {
    /// Create a cache holding at most `capacity` expanded schedules.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be non-zero");
        Self {
            entries: Mutex::new(Vec::with_capacity(capacity)),
            capacity,
        }
    }

    /// The expanded cipher for `key`, expanding and caching it on first use.
    pub fn get(&self, key: &Key256) -> Arc<Aes256> {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(pos) = entries.iter().position(|(k, _)| k == key) {
            // The usual hit is already at the front (an agent reseals block
            // after block under one key): nothing moves under the lock.
            if pos != 0 {
                entries[..=pos].rotate_right(1);
            }
            return entries[0].1.clone();
        }
        let cipher = Arc::new(Aes256::new(&key.0));
        if entries.len() == self.capacity {
            entries.pop();
        }
        entries.insert(0, (*key, cipher.clone()));
        cipher
    }

    /// The cached keys, most recently used first.
    #[cfg(test)]
    fn order(&self) -> Vec<Key256> {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.iter().map(|(k, _)| *k).collect()
    }

    /// Number of schedules currently cached.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for AesScheduleCache {
    /// A 16-entry cache: ample for one agent's working set (global key plus
    /// the header/content keys of the files it touches between evictions).
    fn default() -> Self {
        Self::new(16)
    }
}

impl core::fmt::Debug for AesScheduleCache {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print cached key material.
        f.debug_struct("AesScheduleCache")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl core::fmt::Debug for Key256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Keys are never printed.
        write!(f, "Key256(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passphrase_derivation_is_deterministic() {
        assert_eq!(
            Key256::from_passphrase("open sesame"),
            Key256::from_passphrase("open sesame")
        );
        assert_ne!(
            Key256::from_passphrase("open sesame"),
            Key256::from_passphrase("open Sesame")
        );
    }

    #[test]
    fn from_slice_checks_length() {
        assert!(Key256::from_slice(&[0u8; 32]).is_ok());
        assert_eq!(
            Key256::from_slice(&[0u8; 31]),
            Err(KeyError {
                expected: 32,
                got: 31
            })
        );
    }

    #[test]
    fn derived_subkeys_are_independent() {
        let fak = Key256::from_passphrase("file access key");
        let header = fak.derive("header");
        let content = fak.derive("content");
        assert_ne!(header, content);
        assert_ne!(header, fak);
        // Deterministic.
        assert_eq!(header, fak.derive("header"));
    }

    #[test]
    fn schedule_cache_reuses_and_evicts() {
        use crate::{BlockCipher, CbcCipher};

        let cache = AesScheduleCache::new(2);
        let k1 = Key256::from_passphrase("one");
        let k2 = Key256::from_passphrase("two");
        let k3 = Key256::from_passphrase("three");

        let first = cache.get(&k1);
        assert!(Arc::ptr_eq(&first, &cache.get(&k1)), "hit returns same Arc");
        assert_eq!(cache.len(), 1);

        cache.get(&k2);
        cache.get(&k3); // evicts k1 (capacity 2, LRU)
        assert_eq!(cache.len(), 2);
        assert!(
            !Arc::ptr_eq(&first, &cache.get(&k1)),
            "evicted key is re-expanded"
        );

        // A cached schedule encrypts identically to a fresh one, including
        // through the CBC wrapper via the blanket Arc impl.
        let mut via_cache = [0x42u8; 16];
        cache.get(&k1).encrypt_block(&mut via_cache);
        let mut fresh = [0x42u8; 16];
        crate::Aes256::new(k1.as_bytes()).encrypt_block(&mut fresh);
        assert_eq!(via_cache, fresh);

        let cbc = CbcCipher::new(cache.get(&k1));
        let data = vec![7u8; 64];
        let sealed = cbc.encrypt(&[1u8; 16], &data).unwrap();
        assert_eq!(cbc.decrypt(&[1u8; 16], &sealed).unwrap(), data);
    }

    #[test]
    fn hits_keep_most_recently_used_order() {
        let cache = AesScheduleCache::new(8);
        let keys: Vec<Key256> = (0..5u8).map(|i| Key256([i; 32])).collect();
        let handles: Vec<_> = keys.iter().map(|k| cache.get(k)).collect();
        let order = |ids: [usize; 5]| ids.map(|i| keys[i]).to_vec();
        assert_eq!(cache.order(), order([4, 3, 2, 1, 0]));

        // A hit at the front leaves order and length as they are.
        assert!(Arc::ptr_eq(&cache.get(&keys[4]), &handles[4]));
        assert_eq!(cache.order(), order([4, 3, 2, 1, 0]));
        assert_eq!(cache.len(), 5);

        // A hit at position 3 moves to the front; the three entries it
        // passes shift down one, the one behind it stays.
        assert!(Arc::ptr_eq(&cache.get(&keys[1]), &handles[1]));
        assert_eq!(cache.order(), order([1, 4, 3, 2, 0]));
        assert_eq!(cache.len(), 5);

        // The last entry, then a miss: the new key goes in front of it.
        assert!(Arc::ptr_eq(&cache.get(&keys[0]), &handles[0]));
        assert_eq!(cache.order(), order([0, 1, 4, 3, 2]));
        let fresh = Key256([9; 32]);
        cache.get(&fresh);
        assert_eq!(cache.order()[..2], [fresh, keys[0]]);
        assert_eq!(cache.len(), 6);
    }

    #[test]
    fn debug_does_not_leak_key_material() {
        let k = Key256::from_passphrase("secret");
        let printed = format!("{k:?}");
        assert!(!printed.contains("secret"));
        assert_eq!(printed, "Key256(..)");
    }
}
