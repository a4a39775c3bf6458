#!/usr/bin/env python3
"""Trajectory guard for the quick-mode BENCH_*.json reports CI produces.

    bench_guard.py <report.json>

Not a threshold gate: it fails on malformed or empty output, never on
throughput (CI machines vary; the committed full-mode reports are the
reference). What a report must contain is looked up by its `schema` string
in SPECS below.
"""

import argparse
import json
import math
import sys

# schema -> what a quick-mode report must hold.
#   min_metrics: floor on the number of metrics
#   required:    names that must be present
SPECS = {
    "stegfs-resilience-baseline/v1": {
        "min_metrics": 12,
        "required": (
            "read_plain_mb_s", "read_resilient_mb_s_8_2", "read_check_ns_per_block_4_1",
            "read_check_ns_per_block_4_2", "read_check_ns_per_block_8_2", "read_overhead_4_1",
            "read_overhead_4_2", "read_overhead_8_2", "scrub_clean_mb_s",
            "scrub_degraded_mb_s", "clean_read_latency_ms", "recovery_read_latency_ms",
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


def check(report):
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
        assert math.isfinite(value) and value > 0, m
    names = {m["name"] for m in metrics}
    for required in spec["required"]:
        assert required in names, f"missing metric {required}"
    return schema, len(metrics)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report")
    args = parser.parse_args()
    with open(args.report) as f:
        report = json.load(f)
    try:
        schema, count = check(report)
    except AssertionError as failure:
        sys.exit(f"{args.report}: FAILED: {failure}")
    print(f"OK: {args.report}: {schema}, {count} metrics")


if __name__ == "__main__":
    main()
