//! `crypto_baseline`: wall-clock throughput of the cryptographic substrate,
//! written to `BENCH_crypto.json` to seed the repo's performance trajectory.
//!
//! Unlike the figure bins (which report *simulated* 2004-era disk time), this
//! binary measures the real machine, in four tiers:
//!
//! 1. **Active backend** — whatever runtime dispatch selected (VAES or
//!    AES-NI + SHA-NI on modern x86-64, portable elsewhere), the
//!    configuration every read, dummy update and reseal in the reproduction
//!    actually runs. Each metric's detail records the `[aes=…, sha256=…]`
//!    backend pair so a committed number can never be misattributed to the
//!    wrong code path. Beside the active CBC encrypt sits
//!    `aes256_cbc_encrypt_generic`: the trait's default chaining loop over
//!    the same backend's `encrypt_block`, i.e. what the mode costs when it is
//!    not a backend kernel.
//! 2. **Forced `aesni`** (where the CPU has it) — the cipher rows on the
//!    128-bit kernels, which is what a CPU without VAES runs and what the
//!    VAES backend's narrow groups and tails run.
//! 3. **Forced portable** — the same measurements with the T-table AES and
//!    scalar SHA-256 pinned, the portable floor every CPU gets.
//! 4. **Byte-oriented reference AES** — the textbook implementation, kept as
//!    the denominator for the historical T-table speedup trajectory.
//!
//! The hardware/portable and portable/reference ratios are reported as their
//! own `*_speedup` metrics. Run with `--quick` (or `STEGFS_BENCH_QUICK=1`)
//! for a CI-sized run; the JSON schema is identical, with `"quick": true`
//! recorded so trajectory tooling can separate the two.

use stegfs_base::BlockCodec;
use stegfs_bench::harness::{pick, quick_mode, timed};
use stegfs_bench::report::{print_metrics_table, render_bench_json, BenchMetric as Metric};
use stegfs_blockdev::MemDevice;
use stegfs_crypto::{
    backend, backend_name, reference, sha256_backend_name, sha256_many, Aes256, Backend,
    BlockCipher, CbcCipher, HashDrbg, HmacSha256, Key256, Sha256, SHA_LANES,
};

/// Throughput floor committed with the T-table-only codebase (PR 8's
/// BENCH_crypto.json); the AES-NI acceptance gates below are multiples of it.
const BASELINE_CBC_DECRYPT_MBPS: f64 = 172.901;
const BASELINE_CODEC_RESEAL_BLOCKS_S: f64 = 19_359.4;

fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Single-block throughput with static dispatch: block-at-a-time calls
/// walking a codec-sized buffer of independent blocks — the shape the
/// per-block T-table loop sees.
fn single_block_mbps<C: BlockCipher>(cipher: &C, iters: u64) -> (f64, f64) {
    let mut buf = vec![0x5Au8; 4096];
    let blocks_per_pass = (buf.len() / 16) as u64;
    let passes = iters.div_ceil(blocks_per_pass);
    let total = mb(passes * blocks_per_pass * 16);
    let mut pass = |decrypt: bool| {
        timed(passes, || {
            for block in buf.chunks_exact_mut(16) {
                let block: &mut [u8; 16] = block.try_into().expect("16-byte lanes");
                if decrypt {
                    cipher.decrypt_block(block);
                } else {
                    cipher.encrypt_block(block);
                }
            }
        })
    };
    let enc = pass(false);
    let dec = pass(true);
    std::hint::black_box(&buf);
    (total / enc, total / dec)
}

/// `cipher`'s single-block methods and nothing else: CBC through this wrapper
/// runs the trait's default loops.
struct SingleBlocks<'a, C>(&'a C);

impl<C: BlockCipher> BlockCipher for SingleBlocks<'_, C> {
    fn encrypt_block(&self, block: &mut [u8; 16]) {
        self.0.encrypt_block(block);
    }

    fn decrypt_block(&self, block: &mut [u8; 16]) {
        self.0.decrypt_block(block);
    }
}

/// Lane counts of the multi-buffer CBC encrypt rows: one chain (a reseal),
/// the journal's and the write plan's two- and three-block groups, four, and
/// a full pipeline group (a level re-order, a file creation).
const CBC_LANES: [usize; 5] = [1, 2, 3, 4, 8];

/// The cipher half of the substrate under whatever AES backend is currently
/// selected. Construction happens inside so every cipher snapshots the
/// forced backend.
struct CipherSuite {
    aes256_enc: f64,
    aes256_dec: f64,
    /// MB/s at each of [`CBC_LANES`].
    cbc_enc: [f64; CBC_LANES.len()],
    cbc_enc_generic: f64,
    cbc_dec: f64,
    reseal: f64,
}

fn run_cipher_suite(key: &Key256) -> CipherSuite {
    let block_iters = pick(2_000_000u64, 100_000);
    let aes256 = Aes256::new(key.as_bytes());
    let (aes256_enc, aes256_dec) = single_block_mbps(&aes256, block_iters);

    // CBC over the codec's 4080-byte data field, in place: `lanes`
    // independent chains a call, then one field decrypted.
    let cbc = CbcCipher::new(&aes256);
    let cbc_iters = pick(20_000u64, 400);
    let cbc_enc = CBC_LANES.map(|lanes| {
        let mut fields = vec![vec![0xA5u8; 4080]; lanes];
        let mut bufs: Vec<&mut [u8]> = fields.iter_mut().map(Vec::as_mut_slice).collect();
        let ivs: Vec<[u8; 16]> = (0..lanes).map(|i| [i as u8; 16]).collect();
        let iters = cbc_iters.div_ceil(lanes as u64);
        let secs = timed(iters, || {
            cbc.encrypt_many_in_place(&ivs, &mut bufs).expect("aligned");
        });
        mb(iters * lanes as u64 * 4080) / secs
    });
    let mut buf = vec![0xA5u8; 4080];
    let iv = [7u8; 16];
    let generic = CbcCipher::new(SingleBlocks(&aes256));
    let enc_generic = timed(cbc_iters, || {
        generic.encrypt_in_place(&iv, &mut buf).expect("aligned");
    });
    let dec = timed(cbc_iters, || {
        cbc.decrypt_in_place(&iv, &mut buf).expect("aligned");
    });
    let cbc_enc_generic = mb(cbc_iters * 4080) / enc_generic;
    let cbc_dec = mb(cbc_iters * 4080) / dec;

    // The sealed-block codec: in-place open + fresh IV + seal per reseal.
    let codec = BlockCodec::new(4096);
    let device = MemDevice::new(64, 4096);
    let mut rng = HashDrbg::from_u64(9);
    codec
        .write_sealed(&device, 0, key, &[0u8; 4080], &mut rng)
        .expect("seed block");
    let reseal_iters = pick(20_000u64, 400);
    let reseal = reseal_iters as f64
        / timed(reseal_iters, || {
            codec.reseal(&device, 0, key, &mut rng).expect("reseal");
        });

    CipherSuite {
        aes256_enc,
        aes256_dec,
        cbc_enc,
        cbc_enc_generic,
        cbc_dec,
        reseal,
    }
}

/// The cipher suite's CBC and reseal rows, named `<row><suffix>`.
fn push_cbc_rows(metrics: &mut Vec<Metric>, suite: &CipherSuite, suffix: &str, note: &str) {
    for (lanes, mbps) in CBC_LANES.into_iter().zip(suite.cbc_enc) {
        let (name, detail) = match lanes {
            1 => (
                format!("aes256_cbc_encrypt{suffix}"),
                format!("4080 B in place, one chain {note}"),
            ),
            n => (
                format!("aes256_cbc_encrypt_x{n}{suffix}"),
                format!("{n} x 4080 B in place, chains interleaved {note}"),
            ),
        };
        metrics.push(Metric::new(&name, "MB/s", mbps, detail));
    }
    metrics.push(Metric::new(
        format!("aes256_cbc_decrypt{suffix}"),
        "MB/s",
        suite.cbc_dec,
        format!("4080 B in place {note}"),
    ));
    metrics.push(Metric::new(
        format!("codec_reseal{suffix}"),
        "blocks/s",
        suite.reseal,
        format!("4 KB dummy update: in-place open + fresh IV + seal {note}"),
    ));
}

/// The hash half of the substrate under whatever SHA-256 path is currently
/// selected.
struct HashSuite {
    sha: f64,
    sha_xn: f64,
    hmac: f64,
    hmac_xn: f64,
    drbg_fill: f64,
    derive: f64,
}

fn run_hash_suite(key: &Key256) -> HashSuite {
    // SHA-256 / HMAC-SHA-256 over page-sized messages.
    let data = vec![0x3Cu8; 4096];
    let hash_iters = pick(20_000u64, 400);
    let sha = mb(hash_iters * 4096)
        / timed(hash_iters, || {
            let mut h = Sha256::new();
            h.update(&data);
            std::hint::black_box(h.finalize());
        });
    let keyed = HmacSha256::new(key.as_bytes());
    let hmac = mb(hash_iters * 4096)
        / timed(hash_iters, || {
            std::hint::black_box(keyed.mac_with(&data));
        });

    // The multi-buffer hashes: SHA_LANES independent data fields walked in
    // lockstep — the shape a delta-parity write plan or a scrub batch MACs.
    let fields = vec![vec![0x3Cu8; 4080]; SHA_LANES];
    let fields: Vec<&[u8]> = fields.iter().map(Vec::as_slice).collect();
    let mut digests = vec![[0u8; 32]; SHA_LANES];
    let xn_iters = hash_iters.div_ceil(SHA_LANES as u64);
    let xn_total = mb(xn_iters * SHA_LANES as u64 * 4080);
    let sha_xn = xn_total
        / timed(xn_iters, || {
            sha256_many(&fields, &mut digests);
            std::hint::black_box(&digests);
        });
    let hmac_xn = xn_total
        / timed(xn_iters, || {
            keyed.mac_many(&fields, &mut digests);
            std::hint::black_box(&digests);
        });

    // The generator filling one 4 KB block — a randomised (abandoned) block.
    let mut rng = HashDrbg::from_u64(5);
    let mut block = vec![0u8; 4096];
    let drbg_fill = mb(hash_iters * 4096)
        / timed(hash_iters, || {
            rng.fill_bytes(&mut block);
            std::hint::black_box(&block);
        });

    // The block-location derivation shape: 16-byte messages, u64 out — two
    // compressions from the cached ipad/opad states on stack buffers.
    let derive_iters = pick(1_000_000u64, 20_000);
    let msg = [0x11u8; 16];
    let derive = derive_iters as f64
        / timed(derive_iters, || {
            std::hint::black_box(keyed.derive_u64_with(&msg));
        });

    HashSuite {
        sha,
        sha_xn,
        hmac,
        hmac_xn,
        drbg_fill,
        derive,
    }
}

fn main() {
    let quick = quick_mode();
    let key = Key256::from_passphrase("crypto baseline");
    let mut metrics: Vec<Metric> = Vec::new();

    // A run requested as `aesni` must actually have measured hardware AES.
    // backend::active() already panics when the CPU lacks the feature; this
    // re-check makes the refusal explicit at the point the label is minted.
    let requested = std::env::var("STEGFS_CRYPTO_BACKEND").unwrap_or_default();
    let label = format!("[aes={}, sha256={}]", backend_name(), sha256_backend_name());
    if requested == "aesni" || requested == "vaes" {
        assert_eq!(
            backend_name(),
            requested,
            "STEGFS_CRYPTO_BACKEND={requested} but the active backend is {label}; \
             refusing to emit a {requested}-labelled baseline from a fallback path"
        );
    }
    let hardware_active = backend::active() != Backend::Portable;

    // --- Tier 1: the active (runtime-dispatched) backend. ---
    let active = run_cipher_suite(&key);
    let active_hash = run_hash_suite(&key);
    let tag = |what: &str| format!("{what} {label}");
    metrics.push(Metric::new(
        "aes256_ecb_encrypt",
        "MB/s",
        active.aes256_enc,
        tag("single blocks"),
    ));
    metrics.push(Metric::new(
        "aes256_ecb_decrypt",
        "MB/s",
        active.aes256_dec,
        tag("single blocks"),
    ));
    push_cbc_rows(&mut metrics, &active, "", &label);
    metrics.push(Metric::new(
        "aes256_cbc_encrypt_generic",
        "MB/s",
        active.cbc_enc_generic,
        tag("4080 B in place, the trait's default loop over encrypt_block"),
    ));
    metrics.push(Metric::new(
        "sha256",
        "MB/s",
        active_hash.sha,
        tag("4096 B"),
    ));
    metrics.push(Metric::new(
        "hmac_sha256",
        "MB/s",
        active_hash.hmac,
        tag("4096 B, precomputed key state"),
    ));
    let lanes = format!("{SHA_LANES} x 4080 B, chains interleaved");
    metrics.push(Metric::new(
        "sha256_xN",
        "MB/s",
        active_hash.sha_xn,
        tag(&lanes),
    ));
    metrics.push(Metric::new(
        "hmac_sha256_xN",
        "MB/s",
        active_hash.hmac_xn,
        tag(&format!("{lanes}, precomputed key state")),
    ));
    metrics.push(Metric::new(
        "drbg_fill_4k",
        "MB/s",
        active_hash.drbg_fill,
        tag(&format!(
            "4096 B per draw, {SHA_LANES} output blocks per step"
        )),
    ));
    metrics.push(Metric::new(
        "hmac_derive_u64",
        "ops/s",
        active_hash.derive,
        tag("16 B messages, two compressions from the cached key states"),
    ));

    // --- Tier 2: forced aesni (the 128-bit kernels), cipher rows only. ---
    let aesni = Backend::AesNi.is_available().then(|| {
        backend::force(Backend::AesNi);
        let suite = run_cipher_suite(&key);
        backend::force_auto();
        suite
    });
    if let Some(aesni) = &aesni {
        push_cbc_rows(&mut metrics, aesni, "_aesni", "forced aesni");
    }

    // --- Tier 3: forced portable (T-table AES, scalar SHA-256). ---
    backend::force(Backend::Portable);
    let portable = run_cipher_suite(&key);
    let portable_hash = run_hash_suite(&key);
    backend::force_auto();
    metrics.push(Metric::new(
        "aes256_ecb_encrypt_ttable",
        "MB/s",
        portable.aes256_enc,
        "single blocks, forced portable".to_string(),
    ));
    metrics.push(Metric::new(
        "aes256_ecb_decrypt_ttable",
        "MB/s",
        portable.aes256_dec,
        "single blocks, forced portable".to_string(),
    ));
    push_cbc_rows(&mut metrics, &portable, "_portable", "forced portable");
    metrics.push(Metric::new(
        "sha256_portable",
        "MB/s",
        portable_hash.sha,
        "4096 B, forced scalar".to_string(),
    ));
    metrics.push(Metric::new(
        "hmac_sha256_portable",
        "MB/s",
        portable_hash.hmac,
        "4096 B, forced scalar".to_string(),
    ));
    metrics.push(Metric::new(
        "hmac_derive_u64_portable",
        "ops/s",
        portable_hash.derive,
        "16 B messages, forced scalar".to_string(),
    ));

    // --- Tier 4: the byte-oriented reference AES (trajectory denominator). ---
    let ref_iters = pick(200_000u64, 20_000);
    let (ref256_enc, ref256_dec) =
        single_block_mbps(&reference::Aes256::new(key.as_bytes()), ref_iters);
    metrics.push(Metric::new(
        "aes256_ecb_encrypt_reference",
        "MB/s",
        ref256_enc,
        "single blocks, byte-oriented".to_string(),
    ));
    metrics.push(Metric::new(
        "aes256_ecb_decrypt_reference",
        "MB/s",
        ref256_dec,
        "single blocks, byte-oriented".to_string(),
    ));

    // --- Speedup ratios. ---
    // The reproduction's per-block unit of work is the reseal round trip
    // (decrypt + re-encrypt), so the harmonic-combined throughput ratio is
    // the speedup every dummy update actually sees.
    let roundtrip = |enc: f64, dec: f64| 1.0 / (1.0 / enc + 1.0 / dec);
    let ttable_speedup_enc = portable.aes256_enc / ref256_enc;
    let ttable_speedup_dec = portable.aes256_dec / ref256_dec;
    let ttable_speedup_rt =
        roundtrip(portable.aes256_enc, portable.aes256_dec) / roundtrip(ref256_enc, ref256_dec);
    metrics.push(Metric::new(
        "aes256_ttable_speedup_encrypt",
        "x",
        ttable_speedup_enc,
        "ttable MB/s / reference MB/s".to_string(),
    ));
    metrics.push(Metric::new(
        "aes256_ttable_speedup_decrypt",
        "x",
        ttable_speedup_dec,
        "ttable MB/s / reference MB/s".to_string(),
    ));
    metrics.push(Metric::new(
        "aes256_ttable_speedup_roundtrip",
        "x",
        ttable_speedup_rt,
        "decrypt+encrypt round trip (the reseal unit of work)".to_string(),
    ));
    let hw_speedup_enc = active.aes256_enc / portable.aes256_enc;
    let hw_speedup_dec = active.aes256_dec / portable.aes256_dec;
    let cbc_dec_speedup = active.cbc_dec / portable.cbc_dec;
    let [cbc_enc_x1, .., cbc_enc_x8] = active.cbc_enc;
    let cbc_interleave_speedup = cbc_enc_x8 / cbc_enc_x1;
    let cbc_fused_speedup = cbc_enc_x1 / active.cbc_enc_generic;
    let reseal_speedup = active.reseal / portable.reseal;
    let sha_speedup = active_hash.sha / portable_hash.sha;
    let hmac_interleave_speedup = active_hash.hmac_xn / active_hash.hmac;
    metrics.push(Metric::new(
        "aes256_hw_speedup_encrypt",
        "x",
        hw_speedup_enc,
        tag("active single-block / portable single-block"),
    ));
    metrics.push(Metric::new(
        "aes256_hw_speedup_decrypt",
        "x",
        hw_speedup_dec,
        tag("active single-block / portable single-block"),
    ));
    metrics.push(Metric::new(
        "cbc_decrypt_hw_speedup",
        "x",
        cbc_dec_speedup,
        tag("active / portable, 4080 B in place"),
    ));
    metrics.push(Metric::new(
        "cbc_encrypt_fused_speedup",
        "x",
        cbc_fused_speedup,
        tag("backend kernel / the trait's default loop, one 4080 B chain"),
    ));
    metrics.push(Metric::new(
        "cbc_encrypt_interleave_speedup",
        "x",
        cbc_interleave_speedup,
        tag("x8 interleaved / single chain, per 4080 B block"),
    ));
    metrics.push(Metric::new(
        "codec_reseal_hw_speedup",
        "x",
        reseal_speedup,
        tag("active / portable reseal"),
    ));
    metrics.push(Metric::new(
        "sha256_hw_speedup",
        "x",
        sha_speedup,
        tag("active / scalar compression"),
    ));
    metrics.push(Metric::new(
        "hmac_interleave_speedup",
        "x",
        hmac_interleave_speedup,
        tag(&format!(
            "x{SHA_LANES} interleaved / single chain, per 4 KB message"
        )),
    ));

    // --- Report. ---
    print_metrics_table(
        &format!(
            "crypto_baseline (wall-clock{}, {label}): cipher and update-path throughput",
            if quick { ", quick mode" } else { "" }
        ),
        &metrics,
    );
    println!(
        "\nHardware vs portable: {hw_speedup_enc:.1}x ECB encrypt, {hw_speedup_dec:.1}x \
         ECB decrypt, {cbc_dec_speedup:.1}x CBC decrypt, {reseal_speedup:.1}x reseal, \
         {sha_speedup:.1}x SHA-256; one CBC-encrypt chain {cbc_fused_speedup:.2}x the default \
         loop, 8 interleaved chains {cbc_interleave_speedup:.2}x one chain, {SHA_LANES} \
         interleaved HMAC chains {hmac_interleave_speedup:.2}x one chain"
    );

    // Acceptance gates for the hardware backends, asserted only where one
    // actually ran and only in full mode (quick runs are too noisy).
    // Correctness is unconditional — the cross-backend KAT suites cover it.
    if hardware_active && !quick {
        assert!(
            active.cbc_dec >= 3.0 * BASELINE_CBC_DECRYPT_MBPS,
            "aes256_cbc_decrypt {:.1} MB/s is below 3x the T-table baseline ({:.1} MB/s)",
            active.cbc_dec,
            BASELINE_CBC_DECRYPT_MBPS
        );
        assert!(
            active.reseal >= 2.0 * BASELINE_CODEC_RESEAL_BLOCKS_S,
            "codec_reseal {:.0} blocks/s is below 2x the T-table baseline ({:.0} blocks/s)",
            active.reseal,
            BASELINE_CODEC_RESEAL_BLOCKS_S
        );
        // CBC as a backend kernel must beat CBC as a loop over the same
        // backend's single-block method, or the kernel is not what ran.
        assert!(
            cbc_fused_speedup >= 1.15,
            "aes256_cbc_encrypt {cbc_enc_x1:.1} MB/s is below 1.15x aes256_cbc_encrypt_generic \
             ({:.1} MB/s)",
            active.cbc_enc_generic
        );
        println!(
            "acceptance: cbc_decrypt {:.0} MB/s >= 3x {BASELINE_CBC_DECRYPT_MBPS:.1}, \
             reseal {:.0} blocks/s >= 2x {BASELINE_CODEC_RESEAL_BLOCKS_S:.0}, \
             cbc_encrypt {cbc_enc_x1:.0} MB/s >= 1.15x generic {:.0}",
            active.cbc_dec, active.reseal, active.cbc_enc_generic
        );
        // The wide decrypt must beat the 128-bit one it replaces.
        if let (Backend::Vaes, Some(aesni)) = (backend::active(), &aesni) {
            assert!(
                active.cbc_dec >= 1.5 * aesni.cbc_dec,
                "aes256_cbc_decrypt {:.1} MB/s on vaes is below 1.5x the forced-aesni row \
                 ({:.1} MB/s)",
                active.cbc_dec,
                aesni.cbc_dec
            );
            println!(
                "acceptance: vaes cbc_decrypt {:.0} MB/s >= 1.5x aesni {:.0}",
                active.cbc_dec, aesni.cbc_dec
            );
        }
    }

    let path = "BENCH_crypto.json";
    std::fs::write(
        path,
        render_bench_json("stegfs-crypto-baseline/v1", quick, &metrics),
    )
    .expect("write BENCH_crypto.json");
    println!("wrote {path} ({} metrics)", metrics.len());
}
