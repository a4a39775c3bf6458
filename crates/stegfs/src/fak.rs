//! File access keys.
//!
//! Section 4.2.1 of the paper:
//!
//! > the FAK of each hidden file comprises 3 components – the location of the
//! > file header, a header key for encrypting the header information, and a
//! > content key for encrypting the file content. \[...\] Within the FAK of a
//! > dummy file, only the location of the header and the header key are used;
//! > the content key is not utilized because the file contains only random
//! > bytes.
//!
//! > With this scheme, a user who is being compelled to disclose his hidden
//! > files can just expose some dummy files and remain silent on his hidden
//! > data. He can even reveal the header key for a hidden file but give a
//! > wrong content key, and claim that the file is a dummy.

use stegfs_crypto::{HmacSha256, Key256};

use crate::wire::{Reader, Writer};

/// The access key to one hidden (or dummy) file.
///
/// All three components are derived deterministically from a master secret
/// and the file's path, so users only need to remember (or store on a
/// smartcard) one secret per file — or a single master passphrase from which
/// per-file secrets are derived.
#[derive(Clone, PartialEq, Eq)]
pub struct FileAccessKey {
    /// Secret from which the header location is derived.
    location_secret: Key256,
    /// Key encrypting the header block.
    header_key: Key256,
    /// Key encrypting the content blocks, if known. `None` models a user who
    /// discloses a header but withholds (or never had) the content key — i.e.
    /// a dummy file or a deniable disclosure.
    content_key: Option<Key256>,
}

impl FileAccessKey {
    /// Derive a full FAK from a master secret. Header and content keys are
    /// independent sub-keys of the master.
    pub fn from_master(master: &Key256) -> Self {
        Self {
            location_secret: master.derive("stegfs:location"),
            header_key: master.derive("stegfs:header"),
            content_key: Some(master.derive("stegfs:content")),
        }
    }

    /// Derive a FAK from a passphrase (convenience for examples and tests).
    pub fn from_passphrase(passphrase: &str) -> Self {
        Self::from_master(&Key256::from_passphrase(passphrase))
    }

    /// Construct a FAK from explicit components.
    pub fn from_parts(
        location_secret: Key256,
        header_key: Key256,
        content_key: Option<Key256>,
    ) -> Self {
        Self {
            location_secret,
            header_key,
            content_key,
        }
    }

    /// The same FAK with the content key withheld: what a coerced owner would
    /// reveal while claiming the file is a dummy.
    pub fn without_content_key(&self) -> Self {
        Self {
            location_secret: self.location_secret,
            header_key: self.header_key,
            content_key: None,
        }
    }

    /// The same FAK with a deliberately wrong content key — the other
    /// deniability move Section 4.2.1 describes.
    pub fn with_wrong_content_key(&self) -> Self {
        Self {
            location_secret: self.location_secret,
            header_key: self.header_key,
            content_key: Some(self.header_key.derive("stegfs:decoy-content")),
        }
    }

    /// Key encrypting the header block.
    pub fn header_key(&self) -> &Key256 {
        &self.header_key
    }

    /// Key encrypting content blocks, if available.
    pub fn content_key(&self) -> Option<&Key256> {
        self.content_key.as_ref()
    }

    /// Whether a content key is present.
    pub fn has_content_key(&self) -> bool {
        self.content_key.is_some()
    }

    /// Length of the [`FileAccessKey::to_bytes`] encoding.
    pub const ENCODED_LEN: usize = 1 + 32 + 32 + 32;

    /// Serialise the FAK: a presence flag for the content key followed by the
    /// three 32-byte components (zeros standing in for a withheld content
    /// key). Callers must treat the result as key material — the resilience
    /// tier only ever writes it sealed inside the volume anchor's encrypted
    /// payload.
    pub fn to_bytes(&self) -> [u8; Self::ENCODED_LEN] {
        let mut out = [0u8; Self::ENCODED_LEN];
        let mut w = Writer::over(&mut out[..]);
        w.u8(u8::from(self.content_key.is_some()))
            .bytes(self.location_secret.as_bytes())
            .bytes(self.header_key.as_bytes());
        if let Some(ck) = &self.content_key {
            w.bytes(ck.as_bytes());
        }
        out
    }

    /// Inverse of [`FileAccessKey::to_bytes`]. Returns `None` on a wrong
    /// length or an unknown presence flag.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != Self::ENCODED_LEN {
            return None;
        }
        let mut r = Reader::new(bytes);
        let has_content_key = match r.u8().ok()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let (location_secret, header_key, content_key) =
            (r.key().ok()?, r.key().ok()?, r.key().ok()?);
        Some(Self {
            location_secret,
            header_key,
            content_key: has_content_key.then_some(content_key),
        })
    }

    /// Derive the header block location for a file at `path` on a volume with
    /// `payload_blocks` payload blocks and public `salt`, plus a probe
    /// sequence for collision resolution.
    ///
    /// The location is `HMAC(location_secret, salt ‖ path ‖ probe) mod
    /// payload_blocks`, mapped into `1..num_blocks` (block 0 is the
    /// superblock). Without the FAK the sequence is unpredictable; with it,
    /// the agent can find the header directly — Section 4.1.2.
    pub fn header_location(
        &self,
        salt: &[u8; 16],
        path: &str,
        probe: u32,
        payload_blocks: u64,
    ) -> u64 {
        let msg = Writer::new()
            .bytes(salt)
            .bytes(path.as_bytes())
            .u32(probe)
            .finish();
        let h = HmacSha256::derive_u64(self.location_secret.as_bytes(), &msg);
        1 + (h % payload_blocks)
    }
}

impl core::fmt::Debug for FileAccessKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FileAccessKey")
            .field("has_content_key", &self.content_key.is_some())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic() {
        let a = FileAccessKey::from_passphrase("alice-secret");
        let b = FileAccessKey::from_passphrase("alice-secret");
        assert_eq!(a, b);
        assert_ne!(a, FileAccessKey::from_passphrase("bob-secret"));
    }

    #[test]
    fn header_and_content_keys_differ() {
        let fak = FileAccessKey::from_passphrase("secret");
        assert_ne!(fak.header_key(), fak.content_key().unwrap());
    }

    #[test]
    fn header_location_depends_on_everything() {
        let fak = FileAccessKey::from_passphrase("secret");
        let other = FileAccessKey::from_passphrase("other");
        let salt = [1u8; 16];
        let salt2 = [2u8; 16];
        let n = 1_000_000;
        let base = fak.header_location(&salt, "/a", 0, n);
        assert_eq!(base, fak.header_location(&salt, "/a", 0, n));
        assert_ne!(base, fak.header_location(&salt, "/b", 0, n));
        assert_ne!(base, fak.header_location(&salt, "/a", 1, n));
        assert_ne!(base, fak.header_location(&salt2, "/a", 0, n));
        assert_ne!(base, other.header_location(&salt, "/a", 0, n));
    }

    #[test]
    fn header_location_never_hits_superblock() {
        let fak = FileAccessKey::from_passphrase("x");
        let salt = [0u8; 16];
        for probe in 0..64 {
            for n in [2u64, 3, 10, 1000] {
                let loc = fak.header_location(&salt, "/f", probe, n);
                assert!(loc >= 1 && loc <= n, "loc {loc} for n {n}");
            }
        }
    }

    #[test]
    fn withheld_and_wrong_content_keys() {
        let fak = FileAccessKey::from_passphrase("secret");
        let withheld = fak.without_content_key();
        assert!(!withheld.has_content_key());
        assert_eq!(withheld.header_key(), fak.header_key());

        let decoy = fak.with_wrong_content_key();
        assert!(decoy.has_content_key());
        assert_ne!(decoy.content_key(), fak.content_key());
        // Location and header key are unchanged, so the decoy opens the same
        // header.
        let salt = [9u8; 16];
        assert_eq!(
            decoy.header_location(&salt, "/f", 0, 100),
            fak.header_location(&salt, "/f", 0, 100)
        );
    }

    #[test]
    fn byte_roundtrip_preserves_all_components() {
        let fak = FileAccessKey::from_passphrase("roundtrip");
        let bytes = fak.to_bytes();
        assert_eq!(bytes.len(), FileAccessKey::ENCODED_LEN);
        assert_eq!(FileAccessKey::from_bytes(&bytes).unwrap(), fak);

        let withheld = fak.without_content_key();
        let decoded = FileAccessKey::from_bytes(&withheld.to_bytes()).unwrap();
        assert_eq!(decoded, withheld);
        assert!(!decoded.has_content_key());
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(FileAccessKey::from_bytes(&[0u8; 10]).is_none());
        let mut bytes = FileAccessKey::from_passphrase("x").to_bytes();
        bytes[0] = 7;
        assert!(FileAccessKey::from_bytes(&bytes).is_none());
    }

    #[test]
    fn debug_does_not_leak_secrets() {
        let fak = FileAccessKey::from_passphrase("super secret passphrase");
        let s = format!("{fak:?}");
        assert!(!s.contains("secret"));
    }

    /// Bytes produced by the encoder as it stood before the port onto
    /// `wire`: the format must not move.
    #[test]
    fn golden_vectors_are_bit_identical() {
        const GOLDEN_FAK: &[u8] = b"\
            \x01\xfc\xf2\x5c\x4c\x76\xc4\xf1\xff\x4d\x4c\x96\xe1\x7b\x73\xd9\x16\xf1\x16\x77\
            \xb4\xaa\xe4\xae\xcd\x08\xe0\x8a\x38\xe5\x25\x06\x60\x1e\xd2\x7a\x3a\x4a\x09\x84\
            \xbe\xee\xe6\xf2\x4c\xf8\x0b\x2e\xe8\x4a\xa5\xde\x3f\xad\xe1\x63\xeb\xa3\x41\xee\
            \x65\x15\xb8\x1a\x1d\x6f\x22\x9b\xd5\xab\x55\x6a\x38\x46\x13\x9c\x0f\xf8\x8f\xcd\
            \x9e\xe4\x0e\xdc\x7d\x20\x8b\xdc\x8e\x01\x3d\x32\x64\xb5\x83\x0f\xa4";
        const GOLDEN_FAK_WITHHELD: &[u8] = b"\
            \x00\xfc\xf2\x5c\x4c\x76\xc4\xf1\xff\x4d\x4c\x96\xe1\x7b\x73\xd9\x16\xf1\x16\x77\
            \xb4\xaa\xe4\xae\xcd\x08\xe0\x8a\x38\xe5\x25\x06\x60\x1e\xd2\x7a\x3a\x4a\x09\x84\
            \xbe\xee\xe6\xf2\x4c\xf8\x0b\x2e\xe8\x4a\xa5\xde\x3f\xad\xe1\x63\xeb\xa3\x41\xee\
            \x65\x15\xb8\x1a\x1d\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\
            \x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00";
        let fak = FileAccessKey::from_passphrase("golden");
        assert_eq!(fak.to_bytes(), GOLDEN_FAK);
        assert_eq!(FileAccessKey::from_bytes(GOLDEN_FAK).unwrap(), fak);
        let withheld = fak.without_content_key();
        assert_eq!(withheld.to_bytes(), GOLDEN_FAK_WITHHELD);
        assert_eq!(
            FileAccessKey::from_bytes(GOLDEN_FAK_WITHHELD).unwrap(),
            withheld
        );
    }
}
