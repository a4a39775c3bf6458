//! Sealing and opening of physical blocks.
//!
//! Every payload block on the volume has the shape described in Section 4.1.1
//! and Figure 5 of the paper:
//!
//! ```text
//! +----------------+--------------------------------------+
//! |   IV (16 B)    |  data field (block_size - 16 bytes,  |
//! |                |  CBC-encrypted under a 256-bit key)  |
//! +----------------+--------------------------------------+
//! ```
//!
//! A *dummy update* is precisely [`BlockCodec::reseal`]: read the block,
//! decrypt the data field, pick a fresh random IV, re-encrypt, write it back.
//! The plaintext is untouched but every ciphertext byte changes, so a
//! snapshot-diffing attacker cannot tell it apart from a genuine data update.

use std::cell::Cell;
use std::sync::Arc;

use stegfs_blockdev::{BlockDevice, BlockId};
use stegfs_crypto::{Aes256, AesScheduleCache, CbcCipher, HashDrbg, Key256, PIPELINE_WIDTH};

use crate::error::FsError;
use crate::layout::IV_SIZE;

/// Seals plaintext data fields into `IV || ciphertext` physical blocks and
/// opens them again.
///
/// The codec keeps a small cache of expanded AES key schedules: agents seal
/// and reseal thousands of blocks under a handful of keys (the global volume
/// key, or a few per-file header/content keys), so re-running the key
/// expansion per block would dominate the cipher cost.
pub struct BlockCodec {
    block_size: usize,
    schedules: AesScheduleCache,
}

impl BlockCodec {
    /// Create a codec for a given physical block size.
    pub fn new(block_size: usize) -> Self {
        assert!(
            block_size > IV_SIZE && (block_size - IV_SIZE).is_multiple_of(16),
            "block size must leave a 16-byte-aligned data field"
        );
        Self {
            block_size,
            schedules: AesScheduleCache::default(),
        }
    }

    /// Physical block size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Size of the plaintext data field in bytes.
    pub fn data_field_len(&self) -> usize {
        self.block_size - IV_SIZE
    }

    /// Seal `plaintext` (at most `data_field_len` bytes; shorter inputs are
    /// zero-padded) into a full physical block under `key`, using a fresh IV
    /// drawn from `rng`.
    pub fn seal(
        &self,
        key: &Key256,
        plaintext: &[u8],
        rng: &mut HashDrbg,
    ) -> Result<Vec<u8>, FsError> {
        let mut block = vec![0u8; self.block_size];
        self.lay_out(&mut block, plaintext, rng)?;
        self.seal_blocks_in_place(key, &mut block)?;
        Ok(block)
    }

    /// Lay one physical block out for [`Self::seal_blocks_in_place`]: a fresh
    /// IV drawn from `rng`, then `plaintext`, then zero padding.
    pub fn lay_out(
        &self,
        block: &mut [u8],
        plaintext: &[u8],
        rng: &mut HashDrbg,
    ) -> Result<(), FsError> {
        if plaintext.len() > self.data_field_len() {
            return Err(FsError::Cipher(format!(
                "plaintext of {} bytes exceeds data field of {} bytes",
                plaintext.len(),
                self.data_field_len()
            )));
        }
        self.check_block(block)?;
        let (iv, field) = block.split_at_mut(IV_SIZE);
        rng.fill_bytes(iv);
        field[..plaintext.len()].copy_from_slice(plaintext);
        field[plaintext.len()..].fill(0);
        Ok(())
    }

    /// Seal a contiguous run of laid-out `IV || plaintext` physical blocks in
    /// place under `key`: every data field is CBC-encrypted under the IV in
    /// front of it. The blocks are independent CBC chains, so they go through
    /// the cipher [`PIPELINE_WIDTH`] at a time
    /// ([`CbcCipher::encrypt_many_in_place`]) instead of one serial chain
    /// after another.
    ///
    /// The caller draws the IVs. As long as it draws them in the order a
    /// block-at-a-time [`Self::seal`] loop would, the run is byte-identical
    /// to that loop's output — which is what keeps device images unchanged
    /// where a seal-then-write loop was turned into a batched one.
    pub fn seal_blocks_in_place(&self, key: &Key256, run: &mut [u8]) -> Result<(), FsError> {
        self.check_run(run)?;
        let cbc = self.cbc(key);
        for group in run.chunks_mut(PIPELINE_WIDTH * self.block_size) {
            let mut ivs = [[0u8; IV_SIZE]; PIPELINE_WIDTH];
            let mut fields: [&mut [u8]; PIPELINE_WIDTH] = Default::default();
            let mut n = 0;
            for block in group.chunks_exact_mut(self.block_size) {
                let (iv, field) = split_iv_mut(block)?;
                ivs[n] = *iv;
                fields[n] = field;
                n += 1;
            }
            cbc.encrypt_many_in_place(&ivs[..n], &mut fields[..n])?;
        }
        Ok(())
    }

    /// Open a contiguous run of physical blocks in place under `key`, the
    /// inverse of [`Self::seal_blocks_in_place`]: every data field is
    /// CBC-decrypted where it lies under the IV in front of it, which stays.
    /// Nothing is copied, so a ranged device read can be opened in the
    /// buffer it arrived in.
    pub fn open_in_place(&self, key: &Key256, run: &mut [u8]) -> Result<(), FsError> {
        self.check_run(run)?;
        let cbc = self.cbc(key);
        for block in run.chunks_exact_mut(self.block_size) {
            let (iv, field) = split_iv_mut(block)?;
            cbc.decrypt_in_place(iv, field)?;
        }
        Ok(())
    }

    /// The cipher half of a dummy update, in place: decrypt the physical
    /// block's data field under the IV in front of it, replace that IV with
    /// `fresh_iv`, re-encrypt the identical plaintext.
    pub fn reseal_in_place(
        &self,
        key: &Key256,
        physical: &mut [u8],
        fresh_iv: &[u8; IV_SIZE],
    ) -> Result<(), FsError> {
        self.check_block(physical)?;
        // One schedule lookup for both directions.
        let cbc = self.cbc(key);
        let (iv, field) = split_iv_mut(physical)?;
        cbc.decrypt_in_place(iv, field)?;
        *iv = *fresh_iv;
        cbc.encrypt_in_place(iv, field)?;
        Ok(())
    }

    /// CBC under `key`'s cached schedule.
    fn cbc(&self, key: &Key256) -> CbcCipher<Arc<Aes256>> {
        CbcCipher::new(self.schedules.get(key))
    }

    fn check_run(&self, run: &[u8]) -> Result<(), FsError> {
        if !run.len().is_multiple_of(self.block_size) {
            return Err(FsError::Cipher(format!(
                "run of {} bytes is not a whole number of {}-byte blocks",
                run.len(),
                self.block_size
            )));
        }
        Ok(())
    }

    fn check_block(&self, physical: &[u8]) -> Result<(), FsError> {
        if physical.len() != self.block_size {
            return Err(FsError::Cipher(format!(
                "physical block of {} bytes, expected {}",
                physical.len(),
                self.block_size
            )));
        }
        Ok(())
    }

    fn check_field(&self, dst: &[u8]) -> Result<(), FsError> {
        if dst.len() != self.data_field_len() {
            return Err(FsError::Cipher(format!(
                "destination of {} bytes, expected a data field of {}",
                dst.len(),
                self.data_field_len()
            )));
        }
        Ok(())
    }

    /// Open a physical block under `key`, returning the full plaintext data
    /// field (including any zero padding the caller added at seal time).
    pub fn open(&self, key: &Key256, physical: &[u8]) -> Result<Vec<u8>, FsError> {
        let mut data = vec![0u8; self.data_field_len()];
        self.open_into(key, physical, &mut data)?;
        Ok(data)
    }

    /// [`Self::open`] into a buffer the caller owns: `dst` must be exactly
    /// one data field long and receives the decrypted field. The ciphertext
    /// is decrypted from where it lies into `dst`, never copied.
    pub fn open_into(&self, key: &Key256, physical: &[u8], dst: &mut [u8]) -> Result<(), FsError> {
        self.check_block(physical)?;
        self.check_field(dst)?;
        let (iv, field) = split_iv(physical)?;
        self.cbc(key).decrypt_into(iv, field, dst)?;
        Ok(())
    }

    /// Write `plaintext` sealed under `key` to `block` on `device`.
    pub fn write_sealed<D: BlockDevice + ?Sized>(
        &self,
        device: &D,
        block: BlockId,
        key: &Key256,
        plaintext: &[u8],
        rng: &mut HashDrbg,
    ) -> Result<(), FsError> {
        self.write_sealed_many(device, key, &[(block, plaintext)], rng)
    }

    /// Seal every `(block, plaintext)` of `blocks` under `key` and write it:
    /// the same IV draws, device writes and bytes, in the same order, as one
    /// [`Self::write_sealed`] per entry, but sealed [`PIPELINE_WIDTH`] blocks
    /// at a time ([`Self::seal_blocks_in_place`]) before that group's writes
    /// go out.
    pub fn write_sealed_many<D: BlockDevice + ?Sized>(
        &self,
        device: &D,
        key: &Key256,
        blocks: &[(BlockId, &[u8])],
        rng: &mut HashDrbg,
    ) -> Result<(), FsError> {
        let bs = self.block_size;
        let mut staging = vec![0u8; blocks.len().min(PIPELINE_WIDTH) * bs];
        for group in blocks.chunks(PIPELINE_WIDTH) {
            let run = &mut staging[..group.len() * bs];
            for (physical, (_, plaintext)) in run.chunks_exact_mut(bs).zip(group) {
                self.lay_out(physical, plaintext, rng)?;
            }
            self.seal_blocks_in_place(key, run)?;
            for (physical, &(block, _)) in run.chunks_exact(bs).zip(group) {
                device.write_block(block, physical)?;
            }
        }
        Ok(())
    }

    /// Read `block` from `device` and open it under `key`.
    pub fn read_sealed<D: BlockDevice + ?Sized>(
        &self,
        device: &D,
        block: BlockId,
        key: &Key256,
    ) -> Result<Vec<u8>, FsError> {
        let mut data = vec![0u8; self.data_field_len()];
        self.with_scratch(|scratch| self.read_sealed_into(device, block, key, scratch, &mut data))?;
        Ok(data)
    }

    /// Run `f` on a per-thread buffer of one physical block, for a block that
    /// is read only to be opened somewhere else: nothing to allocate or zero
    /// per read. The buffer is taken out of its slot for the call, so an `f`
    /// that comes back here (a device layered on another codec) finds the
    /// slot empty and gets a buffer of its own.
    pub fn with_scratch<R>(&self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        thread_local! {
            static SCRATCH: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
        }
        let mut scratch = SCRATCH.take();
        scratch.resize(self.block_size, 0);
        let result = f(&mut scratch);
        SCRATCH.set(scratch);
        result
    }

    /// [`Self::read_sealed`] without allocating: the physical block is read
    /// into `scratch` (one block long, reusable across calls) and opened into
    /// `dst` (one data field long).
    pub fn read_sealed_into<D: BlockDevice + ?Sized>(
        &self,
        device: &D,
        block: BlockId,
        key: &Key256,
        scratch: &mut [u8],
        dst: &mut [u8],
    ) -> Result<(), FsError> {
        // Refuse a malformed call before it costs (and shows) a device read.
        self.check_block(scratch)?;
        self.check_field(dst)?;
        device.read_block(block, scratch)?;
        self.open_into(key, scratch, dst)
    }

    /// Perform a *dummy update* on `block`: decrypt, choose a fresh IV,
    /// re-encrypt the identical plaintext, write back. Section 4.1.3:
    /// "the agent reads in the selected block, decrypts it, assigns a new
    /// random number to its IV, re-encrypts it, and then writes it back."
    ///
    /// The whole round trip runs in one physical-block buffer: the data field
    /// is decrypted in place (hitting the cipher's pipelined wide-decrypt
    /// path), the IV is replaced, and the same bytes are re-encrypted in
    /// place — no separate plaintext allocation, and the identical single IV
    /// draw from `rng` as the seal/open formulation, so replay determinism
    /// is unchanged.
    pub fn reseal<D: BlockDevice + ?Sized>(
        &self,
        device: &D,
        block: BlockId,
        key: &Key256,
        rng: &mut HashDrbg,
    ) -> Result<(), FsError> {
        self.reseal_with(device, block, key, |iv| rng.fill_bytes(iv))
    }

    /// [`Self::reseal`] with the fresh IV drawn by `draw_iv`, called once
    /// between the device read and the device write — so a caller whose
    /// generator sits behind a lock can hold it for the draw alone.
    pub(crate) fn reseal_with<D: BlockDevice + ?Sized>(
        &self,
        device: &D,
        block: BlockId,
        key: &Key256,
        draw_iv: impl FnOnce(&mut [u8; IV_SIZE]),
    ) -> Result<(), FsError> {
        self.with_scratch(|physical| {
            device.read_block(block, physical)?;
            let mut fresh_iv = [0u8; IV_SIZE];
            draw_iv(&mut fresh_iv);
            self.reseal_in_place(key, physical, &fresh_iv)?;
            device.write_block(block, physical)?;
            Ok(())
        })
    }
}

/// A physical block as its IV and its data field.
fn split_iv(block: &[u8]) -> Result<(&[u8; IV_SIZE], &[u8]), FsError> {
    block.split_first_chunk().ok_or_else(|| no_iv(block.len()))
}

/// [`split_iv`] for a block about to be rewritten in place.
fn split_iv_mut(block: &mut [u8]) -> Result<(&mut [u8; IV_SIZE], &mut [u8]), FsError> {
    let len = block.len();
    block.split_first_chunk_mut().ok_or_else(|| no_iv(len))
}

fn no_iv(len: usize) -> FsError {
    FsError::Cipher(format!("block of {len} bytes is shorter than its IV"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use stegfs_blockdev::MemDevice;

    fn codec() -> BlockCodec {
        BlockCodec::new(4096)
    }

    fn key(tag: u8) -> Key256 {
        Key256([tag; 32])
    }

    #[test]
    fn seal_open_roundtrip() {
        let c = codec();
        let mut rng = HashDrbg::from_u64(1);
        let plaintext = vec![0x55u8; 1000];
        let sealed = c.seal(&key(1), &plaintext, &mut rng).unwrap();
        assert_eq!(sealed.len(), 4096);
        let opened = c.open(&key(1), &sealed).unwrap();
        assert_eq!(&opened[..1000], &plaintext[..]);
        assert!(opened[1000..].iter().all(|&b| b == 0));
    }

    #[test]
    fn wrong_key_garbles_data() {
        let c = codec();
        let mut rng = HashDrbg::from_u64(2);
        let sealed = c.seal(&key(1), b"top secret data", &mut rng).unwrap();
        let opened = c.open(&key(2), &sealed).unwrap();
        assert_ne!(&opened[..15], b"top secret data");
    }

    #[test]
    fn oversized_plaintext_rejected() {
        let c = codec();
        let mut rng = HashDrbg::from_u64(3);
        let too_big = vec![0u8; c.data_field_len() + 1];
        assert!(c.seal(&key(1), &too_big, &mut rng).is_err());
    }

    #[test]
    fn reseal_changes_ciphertext_but_not_plaintext() {
        let c = codec();
        let dev = MemDevice::new(8, 4096);
        let mut rng = HashDrbg::from_u64(4);
        c.write_sealed(&dev, 3, &key(9), b"hidden payload", &mut rng)
            .unwrap();
        let mut before = vec![0u8; 4096];
        dev.read_block(3, &mut before).unwrap();

        c.reseal(&dev, 3, &key(9), &mut rng).unwrap();

        let mut after = vec![0u8; 4096];
        dev.read_block(3, &mut after).unwrap();
        assert_ne!(before, after, "ciphertext must change");
        // Every 16-byte lane changes thanks to CBC chaining off a fresh IV.
        let differing = before
            .chunks(16)
            .zip(after.chunks(16))
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(differing, 4096 / 16);

        let opened = c.read_sealed(&dev, 3, &key(9)).unwrap();
        assert_eq!(&opened[..14], b"hidden payload");
    }

    #[test]
    fn in_place_reseal_is_byte_identical_to_open_then_seal() {
        // The single-buffer reseal must produce exactly the bytes the
        // open-then-seal formulation would, from the same DRBG state —
        // replayed benches and the determinism suite depend on it.
        let c = codec();
        let dev_a = MemDevice::new(4, 4096);
        let dev_b = MemDevice::new(4, 4096);
        let mut rng = HashDrbg::from_u64(42);
        let sealed = c.seal(&key(6), b"same bytes either way", &mut rng).unwrap();
        dev_a.write_block(2, &sealed).unwrap();
        dev_b.write_block(2, &sealed).unwrap();

        let mut rng_a = HashDrbg::from_u64(77);
        c.reseal(&dev_a, 2, &key(6), &mut rng_a).unwrap();

        let mut rng_b = HashDrbg::from_u64(77);
        let plaintext = c.read_sealed(&dev_b, 2, &key(6)).unwrap();
        c.write_sealed(&dev_b, 2, &key(6), &plaintext, &mut rng_b)
            .unwrap();

        let mut a = vec![0u8; 4096];
        let mut b = vec![0u8; 4096];
        dev_a.read_block(2, &mut a).unwrap();
        dev_b.read_block(2, &mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn batched_seal_is_byte_identical_to_a_seal_loop() {
        // No blocks, one, a partial group, a full group, one over, two over
        // two groups: laying blocks out in order and sealing the run must
        // give exactly the bytes (and leave the DRBG exactly where) a
        // block-at-a-time seal loop does.
        let c = codec();
        for n in [0usize, 1, 3, 8, 9, 17] {
            let plaintexts: Vec<Vec<u8>> = (0..n)
                .map(|i| vec![0x5A ^ i as u8; 100 + 211 * i])
                .collect();
            let mut loop_rng = HashDrbg::from_u64(21);
            let expected: Vec<u8> = plaintexts
                .iter()
                .flat_map(|p| c.seal(&key(2), p, &mut loop_rng).unwrap())
                .collect();

            // Stale bytes in the staging run: lay_out owns every byte.
            let mut run_rng = HashDrbg::from_u64(21);
            let mut run = vec![0xEEu8; n * 4096];
            for (block, p) in run.chunks_exact_mut(4096).zip(&plaintexts) {
                c.lay_out(block, p, &mut run_rng).unwrap();
            }
            c.seal_blocks_in_place(&key(2), &mut run).unwrap();
            assert_eq!(run, expected, "run of {n}");
            assert_eq!(run_rng.next_u64(), loop_rng.clone().next_u64());

            // The seal-then-write form: same image, same write order.
            let dev = stegfs_blockdev::TracingDevice::new(MemDevice::new(64, 4096));
            let mut many_rng = HashDrbg::from_u64(21);
            let blocks: Vec<(BlockId, &[u8])> = plaintexts
                .iter()
                .enumerate()
                .map(|(i, p)| (60 - 3 * i as u64, p.as_slice()))
                .collect();
            c.write_sealed_many(&dev, &key(2), &blocks, &mut many_rng)
                .unwrap();
            let written: Vec<BlockId> = dev.log().records().iter().map(|r| r.block).collect();
            let targets: Vec<BlockId> = blocks.iter().map(|&(b, _)| b).collect();
            assert_eq!(written, targets);
            for (&(block, _), sealed) in blocks.iter().zip(expected.chunks_exact(4096)) {
                let mut on_device = vec![0u8; 4096];
                dev.read_block(block, &mut on_device).unwrap();
                assert_eq!(on_device, sealed);
            }
            assert_eq!(many_rng.next_u64(), loop_rng.next_u64());
        }
    }

    #[test]
    fn malformed_runs_are_rejected() {
        let c = codec();
        let mut rng = HashDrbg::from_u64(22);
        let mut run = vec![0u8; 4096 + 100];
        assert!(c.seal_blocks_in_place(&key(1), &mut run).is_err());
        assert!(c.lay_out(&mut run, b"x", &mut rng).is_err());
        let too_big = vec![0u8; c.data_field_len() + 1];
        assert!(c.lay_out(&mut run[..4096], &too_big, &mut rng).is_err());
        assert!(c
            .reseal_in_place(&key(1), &mut run[..4000], &[0u8; IV_SIZE])
            .is_err());
    }

    #[test]
    fn into_forms_match_the_allocating_ones() {
        let c = codec();
        let dev = MemDevice::new(8, 4096);
        let mut rng = HashDrbg::from_u64(23);
        let mut scratch = vec![0xEEu8; 4096];
        // Stale bytes in the destination: open_into owns every byte of it.
        let mut field = vec![0xEEu8; c.data_field_len()];
        for (block, len) in [(1u64, 0usize), (2, 15), (3, 1000), (4, 4080)] {
            let plaintext: Vec<u8> = (0..len).map(|i| (i * 7 + block as usize) as u8).collect();
            c.write_sealed(&dev, block, &key(5), &plaintext, &mut rng)
                .unwrap();
            // Right key and wrong key: the same bytes either way.
            for k in [key(5), key(6)] {
                let expected = c.read_sealed(&dev, block, &k).unwrap();
                c.read_sealed_into(&dev, block, &k, &mut scratch, &mut field)
                    .unwrap();
                assert_eq!(field, expected);
                field.fill(0xEE);
                c.open_into(&k, &scratch, &mut field).unwrap();
                assert_eq!(field, c.open(&k, &scratch).unwrap());
            }
        }

        // Errors: a short physical block, a destination that is not one data
        // field, a block past the device — each typed, each as the
        // allocating form reports it, none touching the destination.
        field.fill(0xEE);
        let short = c.open(&key(5), &scratch[..4000]).unwrap_err();
        assert_eq!(
            c.open_into(&key(5), &scratch[..4000], &mut field),
            Err(short)
        );
        for bad in [0usize, 4079, 4081] {
            let mut dst = vec![0xEEu8; bad];
            assert!(matches!(
                c.open_into(&key(5), &scratch, &mut dst),
                Err(FsError::Cipher(_))
            ));
            assert!(matches!(
                c.read_sealed_into(&dev, 1, &key(5), &mut scratch, &mut dst),
                Err(FsError::Cipher(_))
            ));
            assert!(dst.iter().all(|&b| b == 0xEE));
        }
        assert!(matches!(
            c.read_sealed_into(&dev, 1, &key(5), &mut scratch[..100], &mut field),
            Err(FsError::Cipher(_))
        ));
        let past = c.read_sealed(&dev, 8, &key(5)).unwrap_err();
        assert_eq!(
            c.read_sealed_into(&dev, 8, &key(5), &mut scratch, &mut field),
            Err(past)
        );
        assert!(field.iter().all(|&b| b == 0xEE));
    }

    #[test]
    fn open_in_place_matches_open_block_by_block() {
        // An empty run, one block, a partial and a full pipeline group and
        // one over: each block's field is what `open` returns for it, each
        // IV is left alone, and sealing the opened run again restores it.
        let c = codec();
        for n in [0usize, 1, 3, 8, 9] {
            let mut rng = HashDrbg::from_u64(31);
            let sealed: Vec<u8> = (0..n)
                .flat_map(|i| {
                    c.seal(&key(3), &vec![0xA0 ^ i as u8; 50 + 400 * i], &mut rng)
                        .unwrap()
                })
                .collect();
            for k in [key(3), key(4)] {
                let mut run = sealed.clone();
                c.open_in_place(&k, &mut run).unwrap();
                for (opened, physical) in run.chunks_exact(4096).zip(sealed.chunks_exact(4096)) {
                    assert_eq!(opened[..IV_SIZE], physical[..IV_SIZE]);
                    assert_eq!(opened[IV_SIZE..], c.open(&k, physical).unwrap()[..]);
                }
                c.seal_blocks_in_place(&k, &mut run).unwrap();
                assert_eq!(run, sealed, "run of {n}");
            }
        }
        let mut ragged = vec![0u8; 4096 + 100];
        assert!(matches!(
            c.open_in_place(&key(3), &mut ragged),
            Err(FsError::Cipher(_))
        ));
    }

    #[test]
    fn sealed_block_looks_random() {
        // Rough distinguishability check: byte histogram of a sealed block of
        // zeros should not be wildly skewed (all 256 values roughly equally
        // likely), unlike the plaintext which is a single value.
        let c = codec();
        let mut rng = HashDrbg::from_u64(5);
        let sealed = c.seal(&key(1), &vec![0u8; 4080], &mut rng).unwrap();
        let mut counts = [0u32; 256];
        for &b in &sealed {
            counts[b as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert!(
            max < 50,
            "suspiciously repetitive ciphertext (max count {max})"
        );
    }

    #[test]
    fn mid_range_tear_is_caught_by_relocation_read_back() {
        // A batched flush of relocated blocks goes through write_blocks and
        // the range tears *inside* a block (sub-sector crash). A read-back
        // of each destination must classify it as landed or not — the
        // mid-torn sealed block may not silently pass.
        use stegfs_blockdev::FaultDevice;
        let c = codec();
        let dev = FaultDevice::new(MemDevice::new(8, 4096));
        let mut rng = HashDrbg::from_u64(11);
        let payloads: Vec<Vec<u8>> = (0..3).map(|i| vec![0xa0 + i as u8; 64]).collect();
        let mut batch = Vec::new();
        for p in &payloads {
            batch.extend_from_slice(&c.seal(&key(4), p, &mut rng).unwrap());
        }
        // Power fails one block in: that block lands, then 20 bytes of the
        // second block: its new IV plus a few ciphertext bytes, the rest stale.
        dev.arm_cut_torn(1, 20);
        dev.write_blocks(4, &batch).unwrap();
        // Destination 4 landed and reads back as written.
        let ok = c.read_sealed(&dev, 4, &key(4)).unwrap();
        assert_eq!(&ok[..64], &payloads[0][..]);
        // Destination 5 is mid-torn: the new IV no longer matches the stale
        // ciphertext tail, so the opened plaintext cannot equal the sealed one.
        let torn = c.read_sealed(&dev, 5, &key(4)).unwrap();
        assert_ne!(&torn[..64], &payloads[1][..]);
        // Destination 6 was dropped entirely (still the old content).
        let dropped = c.read_sealed(&dev, 6, &key(4)).unwrap();
        assert_ne!(&dropped[..64], &payloads[2][..]);
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn misaligned_block_size_panics() {
        BlockCodec::new(100);
    }
}
