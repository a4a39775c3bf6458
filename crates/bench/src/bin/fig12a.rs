//! Figure 12(a): per-block access time of the oblivious storage versus the
//! agent's buffer size, compared with a plain StegFS read.
//!
//! Expected shape: the oblivious store costs a small multiple (the paper
//! reports 5–12×; `--quick` here gives 13.4× at 8 MB and 4.4× at 128 MB) of
//! a single StegFS random-block read, and the cost falls as the buffer grows
//! (fewer levels). The sweep reads through the whole store
//! in random order, exactly as the paper's experiment does. Each buffer size
//! is an independent store, so the sweep points run concurrently via
//! [`fan_out`].

use stegfs_bench::harness::{fan_out, oblivious_sweep, sweep_buffer_points, OBLIVIOUS_SCALE};
use stegfs_bench::report::print_table;

fn main() {
    println!("(geometry scaled down by {OBLIVIOUS_SCALE}x, N/B ratios preserved)");
    let rows = fan_out(sweep_buffer_points(), |(mb, buffer_blocks)| {
        let sweep = oblivious_sweep(mb, buffer_blocks, 12_000 + mb);
        vec![
            format!("{mb}"),
            format!("{:.4}", sweep.mean_read_us / 1_000_000.0),
            format!("{:.4}", sweep.stegfs_read_us / 1_000_000.0),
            format!("{:.1}x", sweep.mean_read_us / sweep.stegfs_read_us),
        ]
    });
    print_table(
        "Figure 12(a): access time (s) per block read, oblivious storage vs StegFS, vs buffer size (MB)",
        &["buffer (MB)", "Obli-Store (s)", "StegFS (s)", "ratio"],
        &rows,
    );
}
