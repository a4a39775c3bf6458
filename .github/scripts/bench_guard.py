#!/usr/bin/env python3
"""Trajectory guard for the quick-mode BENCH_*.json reports CI produces.

    bench_guard.py <report.json> [--expect-backend portable]

Not a threshold gate: it fails on malformed, empty or mislabelled output,
never on throughput (CI machines vary; the committed full-mode reports are
the reference). What a report must contain is looked up by its `schema`
string in SPECS below; the few checks that are not "name present, value
sane" are the functions a spec lists under `extra`.
"""

import argparse
import json
import math
import re
import sys

BACKEND_LABEL = re.compile(r"\[aes=(portable|aesni|vaes), sha256=(scalar|sha-ni)\]")


def crypto_labels(by_name, _args):
    """Structural, not performance: every active-tier metric carries the
    [aes=..., sha256=...] tag, so a committed number can never be
    misattributed to the wrong code path."""
    for active in (
        "aes256_ecb_encrypt", "aes256_cbc_encrypt", "aes256_cbc_encrypt_x8",
        "aes256_cbc_encrypt_generic", "aes256_cbc_decrypt", "sha256",
        "hmac_derive_u64", "codec_reseal",
    ):
        detail = by_name[active]["detail"]
        assert BACKEND_LABEL.search(detail), f"{active} lacks a backend label: {detail!r}"


def crypto_aesni_tier(by_name, _args):
    """The forced-aesni tier (where the CPU has AES-NI) is whole or absent."""
    tier = {n for n in by_name if n.endswith("_aesni")}
    whole = {f"aes256_cbc_encrypt{lanes}_aesni" for lanes in ("", "_x2", "_x3", "_x4", "_x8")}
    whole |= {"aes256_cbc_decrypt_aesni", "codec_reseal_aesni"}
    assert tier in (set(), whole), sorted(tier ^ whole)


def crypto_hmac_lanes(by_name, _args):
    """On SHA-NI the interleaved MAC must beat one chain, or the lanes are not
    reaching the hardware; the scalar path takes the lanes one after another,
    so going through the multi-buffer entry must cost it next to nothing."""
    lanes, single = by_name["hmac_sha256_xN"], by_name["hmac_sha256"]
    if "sha256=sha-ni" in lanes["detail"]:
        assert lanes["value"] >= 1.25 * single["value"], (lanes["value"], single["value"])
    if "sha256=scalar" in lanes["detail"]:
        assert lanes["value"] >= 0.9 * single["value"], (lanes["value"], single["value"])


def crypto_expected_backend(by_name, args):
    """With --expect-backend portable the active tier must report the
    T-table / scalar paths."""
    if args.expect_backend is None:
        return
    detail = by_name["aes256_cbc_decrypt"]["detail"]
    assert "[aes=portable, sha256=scalar]" in detail, detail
    detail = by_name["hmac_sha256_xN"]["detail"]
    assert "sha256=scalar" in detail, detail


# schema -> what a quick-mode report must hold.
#   min_metrics: floor on the number of metrics
#   required:    names that must be present
#   extra:       further structural checks, (by_name, args) -> None
SPECS = {
    "stegfs-crypto-baseline/v1": {
        "min_metrics": 24,
        "required": (
            # Active (runtime-dispatched) tier.
            "aes256_ecb_encrypt", "aes256_ecb_decrypt", "aes256_cbc_encrypt",
            "aes256_cbc_encrypt_x2", "aes256_cbc_encrypt_x3", "aes256_cbc_encrypt_x4",
            "aes256_cbc_encrypt_x8", "aes256_cbc_encrypt_generic", "aes256_cbc_decrypt",
            "sha256", "sha256_xN", "hmac_sha256", "hmac_sha256_xN", "drbg_fill_4k",
            "hmac_derive_u64", "codec_reseal",
            # Forced-portable tier.
            "aes256_ecb_encrypt_ttable", "aes256_cbc_encrypt_portable",
            "aes256_cbc_encrypt_x8_portable", "aes256_cbc_decrypt_portable",
            "sha256_portable", "codec_reseal_portable",
            # Reference tier + speedup trajectory.
            "aes256_ecb_encrypt_reference", "aes256_ttable_speedup_roundtrip",
            "aes256_hw_speedup_decrypt", "cbc_decrypt_hw_speedup",
            "cbc_encrypt_fused_speedup", "cbc_encrypt_interleave_speedup",
            "codec_reseal_hw_speedup", "sha256_hw_speedup", "hmac_interleave_speedup",
        ),
        "extra": (crypto_labels, crypto_aesni_tier, crypto_hmac_lanes, crypto_expected_backend),
    },
    "stegfs-resilience-baseline/v1": {
        "min_metrics": 12,
        "required": (
            "encode_mb_s_4_1", "encode_mb_s_4_2", "encode_mb_s_8_2", "decode_mb_s_8_2",
            "read_plain_mb_s", "read_resilient_mb_s_8_2", "read_check_ns_per_block_4_1",
            "read_check_ns_per_block_4_2", "read_check_ns_per_block_8_2", "read_overhead_4_1",
            "read_overhead_4_2", "read_overhead_8_2", "scrub_clean_mb_s",
            "scrub_degraded_mb_s", "clean_read_latency_ms", "recovery_read_latency_ms",
            "fast_check_x8_mb_s",
        ),
        # A difference of two timings: a loaded runner's quick run can put
        # the faster read behind the slower one.
        "signed": (
            "read_check_ns_per_block_4_1", "read_check_ns_per_block_4_2",
            "read_check_ns_per_block_8_2",
        ),
    },
    "stegfs-recovery-baseline/v1": {
        "min_metrics": 7,
        "required": (
            "mount_recovery_ms_0", "mount_recovery_ms_1", "mount_recovery_ms_2",
            "mount_recovery_ms_4", "delta_rewrite_writes", "full_rewrite_writes",
            "delta_rewrite_io_saving",
        ),
    },
    "stegfs-scale-baseline/v1": {
        "min_metrics": 8,
        "required": (
            "registered_users", "register_throughput", "checkpoint_ms", "reopen_ms",
            "churn_throughput", "storm_session_cycles", "resident_records_peak",
            "resident_bound_ratio",
        ),
    },
    "stegfs-oblivious-baseline/v1": {
        "min_metrics": 5,
        "required": (
            "reorder_sim_time_scalar", "reorder_sim_time_batched", "batch_io_speedup_reorder",
            "reorder_mean_sim_ms", "sort_ios_per_reorder",
        ),
    },
}


def check(report, args):
    schema = report["schema"]
    assert schema in SPECS, f"unknown schema {schema!r}"
    spec = SPECS[schema]
    assert report["quick"] is True, "not a quick-mode report"
    metrics = report["metrics"]
    assert len(metrics) >= spec["min_metrics"], f"only {len(metrics)} metrics"
    for m in metrics:
        assert m["name"] and m["unit"], m
        value = m["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), m
        assert math.isfinite(value) and (value > 0 or m["name"] in spec.get("signed", ())), m
    by_name = {m["name"]: m for m in metrics}
    for required in spec["required"]:
        assert required in by_name, f"missing metric {required}"
    for extra in spec.get("extra", ()):
        extra(by_name, args)
    return schema, len(metrics)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report")
    parser.add_argument("--expect-backend", choices=("portable",))
    args = parser.parse_args()
    with open(args.report) as f:
        report = json.load(f)
    try:
        schema, count = check(report, args)
    except AssertionError as failure:
        sys.exit(f"{args.report}: FAILED: {failure}")
    print(f"OK: {args.report}: {schema}, {count} metrics")


if __name__ == "__main__":
    main()
