//! The wire layer: how a structure is laid out in a (sealed) data field, and
//! how a bad one is refused.
//!
//! Every persistent byte sits on a raw shared volume the attacker can read
//! and write (Section 3.2), so every decoder is a parser of hostile input.
//! All of them — in this crate, `stegfs-resilience` and `stegfs-oblivious` —
//! read through one [`Reader`] and write through one [`Writer`]:
//!
//! * integers are little-endian and fixed-width;
//! * every [`Reader`] step is bounds-checked and fails with a [`WireError`]
//!   naming the step and its offset — never a panic;
//! * a declared element count passes [`Reader::count`] *before* anything is
//!   allocated for it, so a hostile count costs nothing;
//! * a self-authenticating structure is framed `MAGIC ‖ body ‖ HMAC₁₆(MAGIC ‖
//!   body)` by [`Writer::finish_tagged`] and checked by [`Reader::tag16`]. The
//!   block cipher layer has no MAC (every block must decrypt to *something*),
//!   so random fill, a torn write and a wrong key all fail the tag and decode
//!   to "nothing here".

use stegfs_crypto::{HmacSha256, Key256};

use crate::error::FsError;

/// Length of the truncated HMAC-SHA-256 closing an authenticated frame.
pub const TAG_LEN: usize = 16;

/// A decoding step the input could not satisfy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireError {
    /// The step that failed.
    pub what: &'static str,
    /// Byte offset at which it started.
    pub at: usize,
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "malformed or truncated {} at byte {}",
            self.what, self.at
        )
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for FsError {
    fn from(e: WireError) -> Self {
        FsError::Corrupt(e.to_string())
    }
}

/// Where a [`Writer`] puts its bytes: a growing `Vec<u8>` or a fixed
/// `&mut [u8]` field. Writing past the end of a fixed field is an encoder
/// bug and panics.
pub trait Sink {
    /// Store `bytes` at offset `at` (always the current end of a `Vec`).
    fn put(&mut self, at: usize, bytes: &[u8]);
    /// Zero-fill `at..to`.
    fn zero(&mut self, at: usize, to: usize);
}

impl Sink for Vec<u8> {
    fn put(&mut self, _at: usize, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    fn zero(&mut self, _at: usize, to: usize) {
        self.resize(to, 0);
    }
}

impl Sink for &mut [u8] {
    fn put(&mut self, at: usize, bytes: &[u8]) {
        self[at..at + bytes.len()].copy_from_slice(bytes);
    }

    fn zero(&mut self, at: usize, to: usize) {
        self[at..to].fill(0);
    }
}

/// Append-only little-endian encoder.
#[derive(Debug, Default)]
pub struct Writer<B> {
    buf: B,
    pos: usize,
}

impl Writer<Vec<u8>> {
    /// Encode into a fresh, growing buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`Self::new`] with room for `bytes` bytes reserved up front: for the
    /// encoders on a hot path that know their size.
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bytes),
            pos: 0,
        }
    }

    /// The bytes written.
    pub fn finish(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.buf)
    }

    /// The bytes written, followed by the first [`TAG_LEN`] bytes of their
    /// HMAC under `mac`.
    pub fn finish_tagged(&mut self, mac: &HmacSha256) -> Vec<u8> {
        let tag = mac.mac_with(&self.buf);
        self.bytes(&tag[..TAG_LEN]).finish()
    }
}

impl<'a> Writer<&'a mut [u8]> {
    /// Encode over the front of `field`; bytes never written keep their
    /// value.
    pub fn over(field: &'a mut [u8]) -> Self {
        Self { buf: field, pos: 0 }
    }
}

impl<B: Sink> Writer<B> {
    /// Append raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.buf.put(self.pos, bytes);
        self.pos += bytes.len();
        self
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.bytes(&[v])
    }

    /// Append a little-endian `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Append a string as its `u16` byte length, then its bytes.
    pub fn str16(&mut self, s: &str) -> &mut Self {
        self.u16(s.len() as u16).bytes(s.as_bytes())
    }

    /// Zero-fill up to offset `to` (reserved bytes, unused slots, padding).
    pub fn skip_to(&mut self, to: usize) -> &mut Self {
        assert!(to >= self.pos, "skip_to({to}) behind offset {}", self.pos);
        self.buf.zero(self.pos, to);
        self.pos = to;
        self
    }
}

/// Bounds-checked little-endian cursor over untrusted bytes.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Offset of the next byte to be read.
    pub fn pos(&self) -> usize {
        self.pos
    }

    fn fail<T>(&self, what: &'static str) -> Result<T, WireError> {
        Err(WireError { what, at: self.pos })
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        match self.buf[self.pos..].get(..n) {
            Some(bytes) => {
                self.pos += n;
                Ok(bytes)
            }
            None => self.fail(what),
        }
    }

    /// The next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n, "byte run")
    }

    /// Every byte not yet read.
    pub fn rest(&mut self) -> &'a [u8] {
        let rest = &self.buf[self.pos..];
        self.pos = self.buf.len();
        rest
    }

    fn take_array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], WireError> {
        match self.buf[self.pos..].split_first_chunk() {
            Some((bytes, _)) => {
                self.pos += N;
                Ok(*bytes)
            }
            None => self.fail(what),
        }
    }

    /// The next `N` bytes as an array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        self.take_array("fixed-width field")
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_le_bytes)
    }

    /// `n` little-endian `u64`s (block locations, mostly), `n` admitted by
    /// [`Self::count`] first.
    pub fn u64s(&mut self, n: usize) -> Result<Vec<u64>, WireError> {
        (0..self.count(n as u64, 8)?).map(|_| self.u64()).collect()
    }

    /// A 32-byte key.
    pub fn key(&mut self) -> Result<Key256, WireError> {
        self.take_array("key").map(Key256)
    }

    /// Require the next bytes to equal `magic`.
    pub fn magic(&mut self, magic: &[u8]) -> Result<(), WireError> {
        let at = self.pos;
        if self.take(magic.len(), "magic")? == magic {
            Ok(())
        } else {
            Err(WireError { what: "magic", at })
        }
    }

    /// The next `n` bytes as UTF-8.
    pub fn str(&mut self, n: usize) -> Result<&'a str, WireError> {
        let at = self.pos;
        core::str::from_utf8(self.take(n, "string")?).map_err(|_| WireError {
            what: "UTF-8 string",
            at,
        })
    }

    /// A string written by [`Writer::str16`].
    pub fn str16(&mut self) -> Result<&'a str, WireError> {
        let n = self.u16()?;
        self.str(n as usize)
    }

    /// Jump forward to offset `to`, over reserved bytes or unused slots.
    pub fn skip_to(&mut self, to: usize) -> Result<(), WireError> {
        if to < self.pos || to > self.buf.len() {
            return self.fail("skip");
        }
        self.pos = to;
        Ok(())
    }

    /// Admit a `declared` number of elements of at least `elem_bytes` bytes
    /// each only if the unread bytes can hold them, so that the caller may
    /// allocate and loop on the result. A count the input cannot back is
    /// refused here, before any allocation.
    pub fn count(&self, declared: impl Into<u64>, elem_bytes: usize) -> Result<usize, WireError> {
        debug_assert!(elem_bytes > 0);
        let unread = (self.buf.len() - self.pos) as u64;
        match declared.into().checked_mul(elem_bytes as u64) {
            Some(need) if need <= unread => Ok((need / elem_bytes as u64) as usize),
            _ => self.fail("element count"),
        }
    }

    /// Authenticate everything read so far against the next [`TAG_LEN`]
    /// bytes: the check matching [`Writer::finish_tagged`].
    pub fn tag16(&mut self, mac: &HmacSha256) -> Result<(), WireError> {
        let at = self.pos;
        let expect = mac.mac_with(&self.buf[..at]);
        if self.take(TAG_LEN, "tag")? == &expect[..TAG_LEN] {
            Ok(())
        } else {
            Err(WireError { what: "tag", at })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac() -> HmacSha256 {
        HmacSha256::new(b"wire test key")
    }

    #[test]
    fn scalars_roundtrip_little_endian() {
        let bytes = Writer::new()
            .u8(0xab)
            .u16(0x0102)
            .u32(0x0304_0506)
            .u64(0x0708_090a_0b0c_0d0e)
            .str16("päth")
            .bytes(b"xyz")
            .finish();
        assert_eq!(
            bytes[..7],
            [0xab, 0x02, 0x01, 0x06, 0x05, 0x04, 0x03],
            "little-endian, no padding"
        );
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Ok(0xab));
        assert_eq!(r.u16(), Ok(0x0102));
        assert_eq!(r.u32(), Ok(0x0304_0506));
        assert_eq!(r.u64(), Ok(0x0708_090a_0b0c_0d0e));
        assert_eq!(r.str16(), Ok("päth"));
        assert_eq!(r.array::<3>(), Ok(*b"xyz"));
        assert_eq!(r.pos(), bytes.len());
        assert!(r.rest().is_empty());
    }

    #[test]
    fn every_step_is_bounds_checked() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(
            r.u32(),
            Err(WireError {
                what: "fixed-width field",
                at: 0
            })
        );
        assert_eq!(r.u16(), Ok(0x0201), "a failed step consumes nothing");
        assert_eq!(r.u64().unwrap_err().at, 2);
        assert!(r.bytes(2).is_err());
        assert!(r.bytes(usize::MAX).is_err());
        assert!(r.key().is_err());
        assert!(r.skip_to(4).is_err());
        assert!(r.skip_to(1).is_err(), "never backwards");
        assert!(r.skip_to(3).is_ok());
        assert!(r.u8().is_err());
        assert!(r.tag16(&mac()).is_err());
    }

    #[test]
    fn magic_and_strings_are_checked() {
        let mut r = Reader::new(b"MAGIC!\x02\x00\xff\xfe");
        assert!(r.clone().magic(b"MAGIC?").is_err());
        assert!(r.clone().magic(b"MAGIC!\x02\x00\xff\xfe-longer").is_err());
        assert_eq!(r.magic(b"MAGIC!"), Ok(()));
        assert_eq!(
            r.str16(),
            Err(WireError {
                what: "UTF-8 string",
                at: 8
            })
        );
    }

    #[test]
    fn hostile_counts_are_refused_before_allocation() {
        // 12 bytes claiming u32::MAX 35-byte entries: the parent allocated
        // 150 GB for this and aborted.
        let input = [0xffu8; 12];
        let mut r = Reader::new(&input);
        r.skip_to(8).unwrap();
        let declared = r.u32().unwrap();
        assert_eq!(
            r.count(declared, 35),
            Err(WireError {
                what: "element count",
                at: 12
            })
        );
        // Products that overflow u64 are refused, not wrapped.
        assert!(r.count(u64::MAX, 16).is_err());
        assert!(r.count(u64::MAX / 8, 16).is_err());

        let r = Reader::new(&[0u8; 70]);
        assert_eq!(r.clone().u64s(2), Ok(vec![0, 0]));
        assert!(r.clone().u64s(9).is_err());
        assert!(r.clone().u64s(usize::MAX).is_err());
        assert_eq!(r.count(2u16, 35), Ok(2));
        assert!(r.count(3u16, 35).is_err());
        assert_eq!(r.count(0u8, 35), Ok(0));
    }

    #[test]
    fn tagged_frame_roundtrips_and_rejects_any_change() {
        let frame = Writer::new()
            .bytes(b"FRAME001")
            .u64(77)
            .finish_tagged(&mac());
        assert_eq!(frame.len(), 8 + 8 + TAG_LEN);
        let open = |bytes: &[u8], mac: &HmacSha256| -> Result<u64, WireError> {
            let mut r = Reader::new(bytes);
            r.magic(b"FRAME001")?;
            let v = r.u64()?;
            r.tag16(mac)?;
            Ok(v)
        };
        assert_eq!(open(&frame, &mac()), Ok(77));
        // Zero padding behind the tag (a sealed field's tail) is not covered.
        let mut padded = frame.clone();
        padded.resize(64, 0);
        assert_eq!(open(&padded, &mac()), Ok(77));

        for i in 0..frame.len() {
            let mut flipped = frame.clone();
            flipped[i] ^= 1;
            assert!(open(&flipped, &mac()).is_err(), "flip at {i}");
            assert!(open(&frame[..i], &mac()).is_err(), "cut at {i}");
        }
        assert_eq!(
            open(&frame, &HmacSha256::new(b"other key")),
            Err(WireError {
                what: "tag",
                at: 16
            })
        );
    }

    #[test]
    fn fixed_field_writer_zero_fills_only_what_it_skips() {
        let mut field = [0xeeu8; 16];
        let end = field.len();
        Writer::over(&mut field[..]).u16(0x0102).skip_to(4).u8(9);
        assert_eq!(field[..6], [2, 1, 0, 0, 9, 0xee]);
        Writer::over(&mut field[..]).u8(7).skip_to(end);
        assert_eq!(field, [7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);

        let grown = Writer::new().u8(1).skip_to(4).u8(2).finish();
        assert_eq!(grown, [1, 0, 0, 0, 2]);
    }

    #[test]
    #[should_panic(expected = "behind offset")]
    fn skipping_backwards_is_an_encoder_bug() {
        Writer::new().u32(1).skip_to(2);
    }

    #[test]
    fn wire_errors_become_corrupt() {
        let e: FsError = WireError {
            what: "magic",
            at: 40,
        }
        .into();
        assert_eq!(
            e,
            FsError::Corrupt("malformed or truncated magic at byte 40".to_string())
        );
    }
}
