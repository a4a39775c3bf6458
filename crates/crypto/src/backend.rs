//! Runtime selection of the cryptographic backends.
//!
//! The crate ships three AES backends (the portable fused-T-table cipher, an
//! AES-NI one built on `aesenc`/`aesdec` intrinsics, and a VAES one that puts
//! the two CBC passes with independent blocks on 512-bit `vaesenc`/`vaesdec`)
//! and two SHA-256 compression paths (scalar and SHA-NI). CBC mode is a
//! method of the AES backend ([`crate::BlockCipher`]), so a backend decides
//! not only how a round runs but how the mode is laid around the rounds.
//! Which one runs is decided **once per process** from CPU feature detection
//! (`std::arch::is_x86_feature_detected!`) plus an environment override, and
//! every `Aes256`/`Sha256` constructed afterwards snapshots that choice. The
//! SHA-256 path is not a setting of its own: it follows the AES one (scalar
//! under `portable`, else SHA-NI where the CPU reports it). All backends are
//! byte-for-byte equivalent — the cross-backend KAT and property suites
//! enforce it — so the selection can never leak into ciphertexts, traces or
//! attacker statistics; only wall-clock speed changes.
//!
//! ## Override
//!
//! `STEGFS_CRYPTO_BACKEND` controls the choice:
//!
//! * `auto` (or unset) — fastest detected path: VAES where the CPU reports
//!   `vaes`, `avx2` and `avx512f`, else AES-NI where it reports `aes`, else
//!   portable; SHA-NI where detected, else scalar.
//! * `portable` — the pure-Rust paths (T-table AES, scalar SHA-256)
//!   everywhere, regardless of CPU support. Used by CI's cross-backend legs
//!   and to measure the portable tier with `benchmark/`.
//! * `aesni` — *require* the AES-NI path. If the CPU does not support it the
//!   process panics at selection time instead of silently falling back, so a
//!   benchmark labelled `aesni` is guaranteed to have measured hardware AES.
//!   SHA-256 still uses SHA-NI where detected, else scalar. On a
//!   CPU where `auto` picks VAES this pins the 128-bit kernels.
//! * `vaes` — *require* the VAES path, under the same refuse-to-fall-back
//!   rule.
//!
//! Any other value is a hard error — a typo must not silently benchmark the
//! wrong cipher.

use core::sync::atomic::{AtomicU8, Ordering};

/// Which AES implementation executes block operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The pure-Rust fused-T-table cipher; compiled everywhere.
    Portable,
    /// Hardware AES via `aesenc`/`aesdec`/`aeskeygenassist` (x86-64 only).
    AesNi,
    /// [`Backend::AesNi`] with CBC decrypt and the eight-lane CBC encrypt on
    /// 512-bit `vaesdec`/`vaesenc` (x86-64 with VAES and AVX-512F).
    Vaes,
}

/// Which SHA-256 compression-function path executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sha256Backend {
    /// The pure-Rust FIPS 180-2 compression function; compiled everywhere.
    Scalar,
    /// Hardware compression via `sha256msg1`/`sha256msg2`/`sha256rnds2`.
    ShaNi,
}

impl Backend {
    /// Whether this backend can run on the current CPU.
    pub fn is_available(self) -> bool {
        match self {
            Backend::Portable => true,
            Backend::AesNi => aesni_detected(),
            Backend::Vaes => vaes_detected(),
        }
    }

    /// Stable lowercase name used in benchmark labels and error messages.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Portable => "portable",
            Backend::AesNi => "aesni",
            Backend::Vaes => "vaes",
        }
    }
}

impl Sha256Backend {
    /// Whether this backend can run on the current CPU.
    pub fn is_available(self) -> bool {
        match self {
            Sha256Backend::Scalar => true,
            Sha256Backend::ShaNi => shani_detected(),
        }
    }

    /// Stable lowercase name used in benchmark labels and error messages.
    pub fn name(self) -> &'static str {
        match self {
            Sha256Backend::Scalar => "scalar",
            Sha256Backend::ShaNi => "sha-ni",
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn aesni_detected() -> bool {
    std::arch::is_x86_feature_detected!("aes")
}

#[cfg(not(target_arch = "x86_64"))]
fn aesni_detected() -> bool {
    false
}

/// The wide kernels are AVX-512 code and fall back on the AES-NI ones for
/// tails and narrow groups.
#[cfg(target_arch = "x86_64")]
fn vaes_detected() -> bool {
    aesni_detected()
        && std::arch::is_x86_feature_detected!("vaes")
        && std::arch::is_x86_feature_detected!("avx2")
        && std::arch::is_x86_feature_detected!("avx512f")
}

#[cfg(not(target_arch = "x86_64"))]
fn vaes_detected() -> bool {
    false
}

/// SHA-NI compression also uses `palignr` and `pblendw`, from the two SSE
/// extensions checked beside `sha`.
#[cfg(target_arch = "x86_64")]
fn shani_detected() -> bool {
    std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("ssse3")
        && std::arch::is_x86_feature_detected!("sse4.1")
}

#[cfg(not(target_arch = "x86_64"))]
fn shani_detected() -> bool {
    false
}

// Encodings for the cached selections. 0 doubles as "not yet selected".
const UNSET: u8 = 0;
const AES_PORTABLE: u8 = 1;
const AES_AESNI: u8 = 2;
const AES_VAES: u8 = 3;
const SHA_SCALAR: u8 = 1;
const SHA_SHANI: u8 = 2;

static AES_ACTIVE: AtomicU8 = AtomicU8::new(UNSET);
static SHA_ACTIVE: AtomicU8 = AtomicU8::new(UNSET);

/// The fastest available AES backend, honoring the environment override.
fn resolve_from_env() -> Backend {
    let requested = std::env::var("STEGFS_CRYPTO_BACKEND").unwrap_or_default();
    match requested.as_str() {
        "" | "auto" => best_aes(),
        "portable" => Backend::Portable,
        "aesni" => {
            assert!(
                Backend::AesNi.is_available(),
                "STEGFS_CRYPTO_BACKEND=aesni, but this CPU does not report AES-NI; \
                 refusing to fall back silently (use auto or portable)"
            );
            Backend::AesNi
        }
        "vaes" => {
            assert!(
                Backend::Vaes.is_available(),
                "STEGFS_CRYPTO_BACKEND=vaes, but this CPU does not report VAES with \
                 AVX-512F; refusing to fall back silently (use auto, aesni or portable)"
            );
            Backend::Vaes
        }
        other => panic!(
            "unknown STEGFS_CRYPTO_BACKEND value {other:?} \
             (expected auto, portable, aesni or vaes)"
        ),
    }
}

fn best_aes() -> Backend {
    if Backend::Vaes.is_available() {
        Backend::Vaes
    } else if Backend::AesNi.is_available() {
        Backend::AesNi
    } else {
        Backend::Portable
    }
}

/// The SHA-256 path that goes with `aes`: scalar under `Portable`, else
/// SHA-NI where detected.
fn sha_for(aes: Backend) -> Sha256Backend {
    if aes != Backend::Portable && Sha256Backend::ShaNi.is_available() {
        Sha256Backend::ShaNi
    } else {
        Sha256Backend::Scalar
    }
}

/// Select `aes` and the SHA-256 path that goes with it.
fn store(aes: Backend) {
    let aes_code = match aes {
        Backend::Portable => AES_PORTABLE,
        Backend::AesNi => AES_AESNI,
        Backend::Vaes => AES_VAES,
    };
    let sha_code = match sha_for(aes) {
        Sha256Backend::Scalar => SHA_SCALAR,
        Sha256Backend::ShaNi => SHA_SHANI,
    };
    AES_ACTIVE.store(aes_code, Ordering::Relaxed);
    SHA_ACTIVE.store(sha_code, Ordering::Relaxed);
}

fn select_if_unset() {
    if AES_ACTIVE.load(Ordering::Relaxed) == UNSET {
        store(resolve_from_env());
    }
}

/// The AES backend new [`crate::Aes256`] instances use.
pub fn active() -> Backend {
    select_if_unset();
    match AES_ACTIVE.load(Ordering::Relaxed) {
        AES_AESNI => Backend::AesNi,
        AES_VAES => Backend::Vaes,
        _ => Backend::Portable,
    }
}

/// The compression path new [`crate::Sha256`] instances use.
pub fn sha256_active() -> Sha256Backend {
    select_if_unset();
    match SHA_ACTIVE.load(Ordering::Relaxed) {
        SHA_SHANI => Sha256Backend::ShaNi,
        _ => Sha256Backend::Scalar,
    }
}

/// Name of the active AES backend: `"vaes"`, `"aesni"` or `"portable"`.
pub fn backend_name() -> &'static str {
    active().name()
}

/// Name of the active SHA-256 path: `"sha-ni"` or `"scalar"`.
pub fn sha256_backend_name() -> &'static str {
    sha256_active().name()
}

/// Force the whole stack onto `backend` for every cipher and hasher
/// constructed afterwards: `Portable` selects T-table AES + scalar SHA-256,
/// `AesNi` and `Vaes` select that AES backend plus SHA-NI where detected,
/// else scalar SHA-256.
///
/// Intended for the determinism suite, which asserts that experiment outputs
/// are byte-identical across backends. Panics if `backend` is not
/// available on this CPU — a forced hardware measurement must never silently
/// run other code. Instances created before the call keep their backend.
pub fn force(backend: Backend) {
    assert!(
        backend.is_available(),
        "cannot force crypto backend {:?}: not available on this CPU",
        backend
    );
    store(backend);
}

/// Undo [`force`]: re-resolve from `STEGFS_CRYPTO_BACKEND` and CPU detection.
pub fn force_auto() {
    store(resolve_from_env());
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Held by the unit tests that read the process-wide selection, so the
    /// one test that changes it cannot switch it under them.
    pub(crate) fn selection_lock() -> MutexGuard<'static, ()> {
        static SELECTION: Mutex<()> = Mutex::new(());
        SELECTION
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn portable_is_always_available() {
        assert!(Backend::Portable.is_available());
        assert!(Sha256Backend::Scalar.is_available());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Backend::Portable.name(), "portable");
        assert_eq!(Backend::AesNi.name(), "aesni");
        assert_eq!(Backend::Vaes.name(), "vaes");
        assert_eq!(Sha256Backend::Scalar.name(), "scalar");
        assert_eq!(Sha256Backend::ShaNi.name(), "sha-ni");
    }

    #[test]
    fn active_backend_is_available_and_named() {
        let _selection = selection_lock();
        let aes = active();
        assert!(aes.is_available());
        assert_eq!(backend_name(), aes.name());
        let sha = sha256_active();
        assert!(sha.is_available());
        assert_eq!(sha256_backend_name(), sha.name());
    }

    #[test]
    fn sha256_path_follows_the_backend_setting() {
        let _selection = selection_lock();
        force(Backend::Portable);
        assert_eq!(sha256_active(), Sha256Backend::Scalar);
        let hardware = if Sha256Backend::ShaNi.is_available() {
            Sha256Backend::ShaNi
        } else {
            Sha256Backend::Scalar
        };
        for b in [Backend::AesNi, Backend::Vaes] {
            if b.is_available() {
                force(b);
                assert_eq!(sha256_active(), hardware, "after force({})", b.name());
            }
        }
        force_auto();
    }
}
