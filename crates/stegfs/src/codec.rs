//! Sealing and opening of physical blocks.
//!
//! Every payload block on the volume has the shape described in Section 4.1.1
//! and Figure 5 of the paper — an IV, then a data field CBC-encrypted under a
//! 256-bit key and seeded by that IV — with the data field cut into up to
//! eight contiguous CBC *lanes*, each chain seeded from the one stored IV:
//!
//! ```text
//! +-----------+---------+---------+-- ... --+---------+
//! |  IV (16 B)| lane 0  | lane 1  |         | lane 7  |  data field:
//! |           |         |         |         |         |  block_size - 16 B
//! +-----------+---------+---------+-- ... --+---------+
//!               CBC under CBC under           CBC under
//!               E_k(IV⊕0) E_k(IV⊕1)           E_k(IV⊕7)
//! ```
//!
//! A field of `n` AES blocks has `L = min(8, n)` lanes; the first `n mod L`
//! are one AES block longer than the rest (a 4 KiB block: seven lanes of 32
//! blocks and one of 31; a 512-byte block: seven of 4 and one of 3). Lane
//! `i` is chained from `E_k(IV ⊕ i)`, `i` XORed into the IV's last byte — an
//! independent PRP output per lane, lane 0 included, so no lane is chained
//! from the stored IV itself. A fresh IV still changes every lane and so
//! every ciphertext byte, and the block still carries exactly one IV.
//!
//! Lanes exist so that *one* block fills the multi-buffer CBC kernel
//! ([`CbcCipher::encrypt_many_in_place`], [`PIPELINE_WIDTH`] chains in
//! flight): a serial chain leaves the pipelined cipher mostly idle, and the
//! agents seal, reseal and relocate blocks one at a time. Decryption needs
//! no lanes to be parallel — one whole-field CBC decrypt under lane 0's IV
//! gets every block right but the first of each later lane, which is then
//! fixed with one XOR.
//!
//! The layout is the codec owner's choice, fixed when it builds its codec:
//! [`BlockCodec::new`] lanes every field, [`BlockCodec::one_chain`] keeps one
//! chain under the stored IV. The oblivious store keeps one chain: it only
//! ever seals whole level runs of blocks, which fill the kernel's lanes with
//! one block each already, and a run of laned blocks would seal no faster.
//!
//! A *dummy update* is precisely [`BlockCodec::reseal`]: read the block,
//! decrypt the data field, pick a fresh random IV, re-encrypt, write it back.
//! The plaintext is untouched but every ciphertext byte changes, so a
//! snapshot-diffing attacker cannot tell it apart from a genuine data update.

use std::cell::Cell;
use std::mem;
use std::sync::Arc;

use stegfs_blockdev::{BlockDevice, BlockId};
use stegfs_crypto::{
    Aes256, AesScheduleCache, CbcCipher, HashDrbg, Key256, AES_BLOCK_SIZE, PIPELINE_WIDTH,
};

use crate::error::FsError;
use crate::layout::IV_SIZE;

/// Most lanes a data field is cut into: one per chain the multi-buffer CBC
/// kernel keeps in flight.
const MAX_LANES: usize = PIPELINE_WIDTH;

/// How a data field's AES blocks split into CBC lanes.
#[derive(Clone, Copy)]
struct Lanes {
    /// Number of lanes, each chained from its own seed (a field of one AES
    /// block is one lane).
    count: usize,
    /// AES blocks of the shorter lanes.
    short: usize,
    /// Lanes `0..long` are one AES block longer than the rest.
    long: usize,
    /// Index of each lane's first AES block in the field.
    starts: [usize; MAX_LANES],
}

impl Lanes {
    fn new(blocks: usize) -> Self {
        let count = MAX_LANES.min(blocks);
        let (short, long) = (blocks / count, blocks % count);
        Self {
            count,
            short,
            long,
            starts: core::array::from_fn(|i| i * short + i.min(long)),
        }
    }

    /// Encrypt one field in place, in two kernel calls: every lane's first
    /// `short` AES blocks together, then the long lanes' last block, each
    /// chained from the ciphertext block in front of it — CBC simply
    /// continues across the two calls.
    fn encrypt(&self, cbc: &Cbc, iv: &[u8; IV_SIZE], field: &mut [u8]) -> Result<(), FsError> {
        let Self {
            count, short, long, ..
        } = *self;
        let seeds = self.seeds(cbc, iv)?;
        let mut heads: [&mut [u8]; MAX_LANES] = Default::default();
        let mut tails: [&mut [u8]; MAX_LANES] = Default::default();
        let mut rest = field;
        for (i, (head, tail)) in heads.iter_mut().zip(&mut tails).take(count).enumerate() {
            (*head, rest) = mem::take(&mut rest).split_at_mut(short * AES_BLOCK_SIZE);
            if i < long {
                (*tail, rest) = mem::take(&mut rest).split_at_mut(AES_BLOCK_SIZE);
            }
        }
        cbc.encrypt_many_in_place(&seeds[..count], &mut heads[..count])?;
        if long > 0 {
            let mut chains = [[0u8; AES_BLOCK_SIZE]; MAX_LANES];
            for (chain, head) in chains.iter_mut().zip(&heads[..long]) {
                chain.copy_from_slice(&head[head.len() - AES_BLOCK_SIZE..]);
            }
            cbc.encrypt_many_in_place(&chains[..long], &mut tails[..long])?;
        }
        Ok(())
    }

    /// Decrypt one field in place: one whole-field CBC decrypt under lane 0's
    /// seed, then [`Self::fixes`].
    fn decrypt(&self, cbc: &Cbc, iv: &[u8; IV_SIZE], field: &mut [u8]) -> Result<(), FsError> {
        let seeds = self.seeds(cbc, iv)?;
        let fixes = self.fixes(&seeds, field);
        cbc.decrypt_in_place(&seeds[0], field)?;
        self.apply(&fixes, field);
        Ok(())
    }

    /// [`Self::decrypt`] from `src`, which stays, into `dst`.
    fn decrypt_into(
        &self,
        cbc: &Cbc,
        iv: &[u8; IV_SIZE],
        src: &[u8],
        dst: &mut [u8],
    ) -> Result<(), FsError> {
        let seeds = self.seeds(cbc, iv)?;
        let fixes = self.fixes(&seeds, src);
        cbc.decrypt_into(&seeds[0], src, dst)?;
        self.apply(&fixes, dst);
        Ok(())
    }

    /// Every lane's chain seed `E_k(IV ⊕ i)`, `i` in the IV's last byte, from
    /// one multi-buffer call: CBC of one block under a zero IV is the block
    /// cipher itself.
    fn seeds(&self, cbc: &Cbc, iv: &[u8; IV_SIZE]) -> Result<[[u8; IV_SIZE]; MAX_LANES], FsError> {
        let mut seeds = [*iv; MAX_LANES];
        let mut bufs: [&mut [u8]; MAX_LANES] = Default::default();
        for (i, (buf, seed)) in bufs.iter_mut().zip(&mut seeds).enumerate() {
            seed[IV_SIZE - 1] ^= i as u8;
            *buf = seed;
        }
        let zeros = [[0u8; IV_SIZE]; MAX_LANES];
        cbc.encrypt_many_in_place(&zeros[..self.count], &mut bufs[..self.count])?;
        Ok(seeds)
    }

    /// What a whole-field decrypt under lane 0's seed gets wrong, read from
    /// the `ciphertext` before it is decrypted: it chains each later lane's
    /// first block from the ciphertext block in front of it instead of from
    /// that lane's seed, so XOR-ing in both puts the block right.
    fn fixes(
        &self,
        seeds: &[[u8; IV_SIZE]; MAX_LANES],
        ciphertext: &[u8],
    ) -> [[u8; AES_BLOCK_SIZE]; MAX_LANES] {
        let (blocks, _) = ciphertext.as_chunks::<AES_BLOCK_SIZE>();
        let mut fixes = [[0u8; AES_BLOCK_SIZE]; MAX_LANES];
        let later = 1..self.count;
        let lanes = fixes[later.clone()].iter_mut().zip(&seeds[later.clone()]);
        for ((fix, seed), &start) in lanes.zip(&self.starts[later]) {
            *fix = blocks[start - 1];
            xor_into(fix, seed);
        }
        fixes
    }

    /// XOR each later lane's [`Self::fixes`] into its first decrypted block.
    fn apply(&self, fixes: &[[u8; AES_BLOCK_SIZE]; MAX_LANES], plaintext: &mut [u8]) {
        let (blocks, _) = plaintext.as_chunks_mut::<AES_BLOCK_SIZE>();
        let later = 1..self.count;
        for (fix, &start) in fixes[later.clone()].iter().zip(&self.starts[later]) {
            xor_into(&mut blocks[start], fix);
        }
    }
}

/// Seals plaintext data fields into `IV || ciphertext` physical blocks and
/// opens them again.
///
/// The codec keeps a small cache of expanded AES key schedules: agents seal
/// and reseal thousands of blocks under a handful of keys (the global volume
/// key, or a few per-file header/content keys), so re-running the key
/// expansion per block would dominate the cipher cost.
pub struct BlockCodec {
    block_size: usize,
    /// `None`: one chain under the stored IV.
    lanes: Option<Lanes>,
    schedules: AesScheduleCache,
}

impl BlockCodec {
    /// Create a codec for a given physical block size, whose data fields are
    /// cut into up to [`PIPELINE_WIDTH`] CBC lanes (the module docs give the
    /// layout). Every StegFS volume block is sealed this way.
    pub fn new(block_size: usize) -> Self {
        Self::with_lanes(block_size, true)
    }

    /// Create a codec whose data fields are each one CBC chain under the
    /// stored IV: the format of the oblivious store's slots, which are only
    /// ever sealed as whole runs of blocks, [`PIPELINE_WIDTH`] chains to a
    /// kernel call.
    pub fn one_chain(block_size: usize) -> Self {
        Self::with_lanes(block_size, false)
    }

    fn with_lanes(block_size: usize, laned: bool) -> Self {
        assert!(
            block_size > IV_SIZE && (block_size - IV_SIZE).is_multiple_of(AES_BLOCK_SIZE),
            "block size must leave a 16-byte-aligned data field"
        );
        Self {
            block_size,
            lanes: laned.then(|| Lanes::new((block_size - IV_SIZE) / AES_BLOCK_SIZE)),
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
    /// place under `key`: every data field is encrypted under the IV in front
    /// of it. A laned block fills the multi-buffer kernel by itself, so the
    /// blocks go through one at a time; one-chain blocks are independent
    /// chains, so they go through [`PIPELINE_WIDTH`] at a time
    /// ([`CbcCipher::encrypt_many_in_place`]).
    ///
    /// The caller draws the IVs. As long as it draws them in the order a
    /// block-at-a-time [`Self::seal`] loop would, the run is byte-identical
    /// to that loop's output — which is what keeps device images unchanged
    /// where a seal-then-write loop was turned into a batched one.
    pub fn seal_blocks_in_place(&self, key: &Key256, run: &mut [u8]) -> Result<(), FsError> {
        self.check_run(run)?;
        let cbc = self.cbc(key);
        if let Some(lanes) = &self.lanes {
            for block in run.chunks_exact_mut(self.block_size) {
                let (iv, field) = split_iv_mut(block)?;
                lanes.encrypt(&cbc, iv, field)?;
            }
            return Ok(());
        }
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
    /// decrypted where it lies under the IV in front of it, which stays.
    /// Nothing is copied, so a ranged device read can be opened in the
    /// buffer it arrived in.
    pub fn open_in_place(&self, key: &Key256, run: &mut [u8]) -> Result<(), FsError> {
        self.check_run(run)?;
        let cbc = self.cbc(key);
        for block in run.chunks_exact_mut(self.block_size) {
            let (iv, field) = split_iv_mut(block)?;
            self.decrypt_field(&cbc, iv, field)?;
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
        self.decrypt_field(&cbc, iv, field)?;
        *iv = *fresh_iv;
        self.encrypt_field(&cbc, iv, field)
    }

    /// CBC under `key`'s cached schedule.
    fn cbc(&self, key: &Key256) -> Cbc {
        CbcCipher::new(self.schedules.get(key))
    }

    /// Encrypt one data field in place under its stored `iv`.
    fn encrypt_field(
        &self,
        cbc: &Cbc,
        iv: &[u8; IV_SIZE],
        field: &mut [u8],
    ) -> Result<(), FsError> {
        match &self.lanes {
            Some(lanes) => lanes.encrypt(cbc, iv, field),
            None => Ok(cbc.encrypt_in_place(iv, field)?),
        }
    }

    /// Decrypt one data field in place under its stored `iv`.
    fn decrypt_field(
        &self,
        cbc: &Cbc,
        iv: &[u8; IV_SIZE],
        field: &mut [u8],
    ) -> Result<(), FsError> {
        match &self.lanes {
            Some(lanes) => lanes.decrypt(cbc, iv, field),
            None => Ok(cbc.decrypt_in_place(iv, field)?),
        }
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
        let cbc = self.cbc(key);
        match &self.lanes {
            Some(lanes) => lanes.decrypt_into(&cbc, iv, field, dst),
            None => Ok(cbc.decrypt_into(iv, field, dst)?),
        }
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

    /// Seal every `(block, plaintext)` of `blocks` under `key` and write it,
    /// one entry after another in a per-thread scratch block: the same IV
    /// draws, device writes and bytes, in the same order, as one
    /// [`Self::write_sealed`] per entry, with one schedule lookup for all.
    pub fn write_sealed_many<D: BlockDevice + ?Sized>(
        &self,
        device: &D,
        key: &Key256,
        blocks: &[(BlockId, &[u8])],
        rng: &mut HashDrbg,
    ) -> Result<(), FsError> {
        let cbc = self.cbc(key);
        self.with_scratch(|physical| {
            for &(block, plaintext) in blocks {
                self.lay_out(physical, plaintext, rng)?;
                let (iv, field) = split_iv_mut(physical)?;
                self.encrypt_field(&cbc, iv, field)?;
                device.write_block(block, physical)?;
            }
            Ok(())
        })
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
    /// is decrypted in place, the IV is replaced, and the same bytes are
    /// re-encrypted in place, every lane in one multi-buffer call — no
    /// separate plaintext allocation, and the identical single IV draw from
    /// `rng` as the seal/open formulation, so replay determinism is
    /// unchanged.
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

/// CBC under one cached key schedule.
type Cbc = CbcCipher<Arc<Aes256>>;

fn xor_into(block: &mut [u8; AES_BLOCK_SIZE], other: &[u8; AES_BLOCK_SIZE]) {
    for (b, o) in block.iter_mut().zip(other) {
        *b ^= o;
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
    use stegfs_crypto::{Backend, BlockCipher};

    fn codec() -> BlockCodec {
        BlockCodec::new(4096)
    }

    fn key(tag: u8) -> Key256 {
        Key256([tag; 32])
    }

    /// Lane lengths in AES blocks of a field of `blocks` AES blocks, worked
    /// out afresh: `min(8, blocks)` lanes, the first `blocks mod lanes` one
    /// block longer.
    fn reference_lanes(blocks: usize) -> Vec<usize> {
        let lanes = blocks.min(8);
        (0..lanes)
            .map(|i| blocks / lanes + usize::from(i < blocks % lanes))
            .collect()
    }

    /// Lane `i`'s chain seed `E_k(IV ⊕ i)`, one block cipher call.
    fn reference_lane_iv(aes: &Aes256, iv: &[u8; IV_SIZE], i: usize) -> [u8; 16] {
        let mut seed = *iv;
        seed[15] ^= i as u8;
        aes.encrypt_block(&mut seed);
        seed
    }

    /// The laned seal of one field, one AES block at a time: `IV || lanes`.
    fn reference_seal(aes: &Aes256, iv: &[u8; IV_SIZE], field: &[u8]) -> Vec<u8> {
        let mut out = iv.to_vec();
        let mut blocks = field.chunks_exact(16);
        for (i, len) in reference_lanes(field.len() / 16).into_iter().enumerate() {
            let mut chain = reference_lane_iv(aes, iv, i);
            for block in blocks.by_ref().take(len) {
                for (c, p) in chain.iter_mut().zip(block) {
                    *c ^= p;
                }
                aes.encrypt_block(&mut chain);
                out.extend_from_slice(&chain);
            }
        }
        assert_eq!(out.len(), IV_SIZE + field.len());
        out
    }

    /// The inverse of [`reference_seal`], one AES block at a time: the field.
    fn reference_open(aes: &Aes256, physical: &[u8]) -> Vec<u8> {
        let (iv, field) = physical.split_first_chunk::<IV_SIZE>().unwrap();
        let mut out = Vec::with_capacity(field.len());
        let mut blocks = field.chunks_exact(16);
        for (i, len) in reference_lanes(field.len() / 16).into_iter().enumerate() {
            let mut chain = reference_lane_iv(aes, iv, i);
            for block in blocks.by_ref().take(len) {
                let mut plain = [0u8; 16];
                plain.copy_from_slice(block);
                aes.decrypt_block(&mut plain);
                for (p, c) in plain.iter_mut().zip(chain) {
                    *p ^= c;
                }
                out.extend_from_slice(&plain);
                chain.copy_from_slice(block);
            }
        }
        out
    }

    fn patterned(len: usize, salt: u8) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + 7) as u8 ^ salt).collect()
    }

    #[test]
    fn laned_codec_matches_the_block_at_a_time_reference_at_every_length() {
        // Every field length from one AES block to 259 (16 ..= 4 144 bytes):
        // fewer blocks than lanes, 31 (512-byte blocks), 255 (4 KiB), 257
        // (the oblivious store's 4 128-byte blocks) and every ragged split.
        let k = key(0x3A);
        let aes = Aes256::new(k.as_bytes());
        for field_len in (16..=4144).step_by(16) {
            let bs = field_len + IV_SIZE;
            let c = BlockCodec::new(bs);
            assert_eq!(c.lanes.map(|l| l.count), Some((field_len / 16).min(8)));
            let plain = patterned(field_len, field_len as u8);
            let mut rng = HashDrbg::from_u64(field_len as u64);

            // seal: its IV is the first draw, its bytes the reference's.
            let sealed = c.seal(&k, &plain, &mut rng).unwrap();
            let iv: [u8; IV_SIZE] = *sealed.first_chunk().unwrap();
            assert_eq!(
                sealed,
                reference_seal(&aes, &iv, &plain),
                "seal, {field_len} B"
            );

            // seal_blocks_in_place over a run of three laid-out blocks.
            let mut run = vec![0u8; 3 * bs];
            let mut expected = Vec::new();
            for (j, block) in run.chunks_exact_mut(bs).enumerate() {
                let p = patterned(field_len, j as u8);
                c.lay_out(block, &p, &mut rng).unwrap();
                let iv: [u8; IV_SIZE] = *block.first_chunk().unwrap();
                expected.extend(reference_seal(&aes, &iv, &p));
            }
            c.seal_blocks_in_place(&k, &mut run).unwrap();
            assert_eq!(run, expected, "seal_blocks_in_place, {field_len} B");

            // Every opening form is the reference's open.
            assert_eq!(c.open(&k, &sealed).unwrap(), plain, "open, {field_len} B");
            let mut dst = vec![0xEEu8; field_len];
            c.open_into(&k, &sealed, &mut dst).unwrap();
            assert_eq!(dst, plain, "open_into, {field_len} B");
            // Opening bytes that are no seal's output agrees too.
            let noise = patterned(bs, 0x99);
            assert_eq!(c.open(&k, &noise).unwrap(), reference_open(&aes, &noise));
            let mut opened = run.clone();
            c.open_in_place(&k, &mut opened).unwrap();
            for (o, s) in opened.chunks_exact(bs).zip(run.chunks_exact(bs)) {
                assert_eq!(o[..IV_SIZE], s[..IV_SIZE]);
                assert_eq!(o[IV_SIZE..], reference_open(&aes, s)[..], "open_in_place");
            }

            // reseal_in_place: the reference seal of the same field under
            // the fresh IV.
            let fresh = [field_len as u8 ^ 0x5C; IV_SIZE];
            let mut resealed = sealed.clone();
            c.reseal_in_place(&k, &mut resealed, &fresh).unwrap();
            assert_eq!(
                resealed,
                reference_seal(&aes, &fresh, &plain),
                "reseal, {field_len} B"
            );
        }
    }

    /// The known-answer block: a 4 096-byte block of fixed key, IV and
    /// plaintext, sealed in place.
    fn known_answer_block() -> (Key256, Vec<u8>) {
        let k = Key256(core::array::from_fn(|i| 0x40 + i as u8));
        let mut block: Vec<u8> = (0..IV_SIZE as u8).collect();
        block.extend((0..4080).map(|i| (i % 251) as u8));
        (k, block)
    }

    const KNOWN_ANSWER_SHA256: &str =
        "e1ee7e58402cea33822d5e334efcd2130456fac41041d3e18a4193d7fea83c3a";

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn laned_4k_block_known_answer() {
        // Pinned on the process's backend (CI runs this suite under `auto`,
        // `aesni` and `portable`), and the reference chain on every backend
        // this CPU has gives the same bytes.
        let (k, plain) = known_answer_block();
        let mut sealed = plain.clone();
        codec().seal_blocks_in_place(&k, &mut sealed).unwrap();
        assert_eq!(hex(&stegfs_crypto::sha256(&sealed)), KNOWN_ANSWER_SHA256);
        let iv: [u8; IV_SIZE] = *plain.first_chunk().unwrap();
        for backend in [Backend::Portable, Backend::AesNi, Backend::Vaes] {
            if backend.is_available() {
                let aes = Aes256::with_backend(k.as_bytes(), backend).unwrap();
                assert_eq!(
                    reference_seal(&aes, &iv, &plain[IV_SIZE..]),
                    sealed,
                    "{backend:?}"
                );
            }
        }
        let mut opened = sealed;
        codec().open_in_place(&k, &mut opened).unwrap();
        assert_eq!(opened, plain);
    }

    #[test]
    fn one_chain_codec_is_plain_cbc_under_the_stored_iv() {
        // The oblivious store's format: one CBC chain per field, seeded by
        // the stored IV itself, whatever the block size.
        let k = key(0x61);
        let cbc = CbcCipher::new(Aes256::new(k.as_bytes()));
        for bs in [32usize, 144, 512, 4096, 4128] {
            let c = BlockCodec::one_chain(bs);
            assert!(c.lanes.is_none());
            let plain = patterned(bs - IV_SIZE, 0x17);
            let mut rng = HashDrbg::from_u64(bs as u64);
            let sealed = c.seal(&k, &plain, &mut rng).unwrap();
            let (iv, field) = sealed.split_first_chunk::<IV_SIZE>().unwrap();
            let mut expected = plain.clone();
            cbc.encrypt_in_place(iv, &mut expected).unwrap();
            assert_eq!(field, &expected[..], "{bs}-byte block");
            assert_eq!(c.open(&k, &sealed).unwrap(), plain);
            // Nine blocks: a full kernel group and one over.
            let mut run = vec![0u8; 9 * bs];
            let mut expected = Vec::new();
            for block in run.chunks_exact_mut(bs) {
                c.lay_out(block, &plain, &mut rng).unwrap();
                let iv: [u8; IV_SIZE] = *block.first_chunk().unwrap();
                expected.extend(iv);
                expected.extend(cbc.encrypt(&iv, &plain).unwrap());
            }
            c.seal_blocks_in_place(&k, &mut run).unwrap();
            assert_eq!(run, expected, "{bs}-byte run");
        }
    }

    proptest::proptest! {
        /// A flipped ciphertext byte garbles the AES block it hit and flips
        /// one byte of the next block of its lane — nothing in another lane.
        #[test]
        fn a_ciphertext_flip_stays_in_its_lane(
            blocks in 1usize..260,
            at in proptest::prelude::any::<u64>(),
            bit in 0u32..8,
            salt in proptest::prelude::any::<u8>(),
        ) {
            let bs = IV_SIZE + 16 * blocks;
            let c = BlockCodec::new(bs);
            let k = key(salt);
            let plain = patterned(bs - IV_SIZE, salt);
            let sealed = c.seal(&k, &plain, &mut HashDrbg::from_u64(at)).unwrap();
            let byte = (at % (bs - IV_SIZE) as u64) as usize;
            let mut hit = sealed.clone();
            hit[IV_SIZE + byte] ^= 1 << bit;
            let opened = c.open(&k, &hit).unwrap();

            let hit_block = byte / 16;
            let lanes = reference_lanes(blocks);
            let lane_end: usize = lanes
                .iter()
                .scan(0, |end, len| { *end += len; Some(*end) })
                .find(|&end| end > hit_block)
                .unwrap();
            for (j, (o, p)) in opened.chunks_exact(16).zip(plain.chunks_exact(16)).enumerate() {
                if j == hit_block {
                    proptest::prop_assert_ne!(o, p);
                } else if j == hit_block + 1 && j < lane_end {
                    // CBC: the next block of the lane gets exactly the flip.
                    let flipped: Vec<usize> =
                        (0..16).filter(|&x| o[x] != p[x]).collect();
                    proptest::prop_assert_eq!(flipped, vec![byte % 16]);
                } else {
                    proptest::prop_assert_eq!(o, p, "block {} of {}", j, blocks);
                }
            }
        }
    }

    #[test]
    fn the_stored_iv_seeds_every_lane() {
        // One IV bit changes the first plaintext block of every lane when
        // opening, and every ciphertext block when sealing.
        for bs in [IV_SIZE + 16, IV_SIZE + 5 * 16, 512, 4096, 4128] {
            let c = BlockCodec::new(bs);
            let plain = patterned(bs - IV_SIZE, 0x42);
            let sealed = c.seal(&key(8), &plain, &mut HashDrbg::from_u64(9)).unwrap();
            let starts: Vec<usize> = reference_lanes((bs - IV_SIZE) / 16)
                .iter()
                .scan(0, |start, len| {
                    let this = *start;
                    *start += len;
                    Some(this)
                })
                .collect();
            for bit in [0usize, 7, 64, 127] {
                let mut other = sealed.clone();
                other[bit / 8] ^= 1 << (bit % 8);
                let opened = c.open(&key(8), &other).unwrap();
                for (j, (o, p)) in opened
                    .chunks_exact(16)
                    .zip(plain.chunks_exact(16))
                    .enumerate()
                {
                    assert_eq!(
                        o != p,
                        starts.contains(&j),
                        "{bs} B, IV bit {bit}, block {j}"
                    );
                }
                let iv: [u8; IV_SIZE] = *other.first_chunk().unwrap();
                let mut resealed = sealed.clone();
                c.reseal_in_place(&key(8), &mut resealed, &iv).unwrap();
                for (a, b) in resealed[IV_SIZE..]
                    .chunks(16)
                    .zip(sealed[IV_SIZE..].chunks(16))
                {
                    assert_ne!(a, b, "{bs} B, IV bit {bit}");
                }
            }
        }
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
