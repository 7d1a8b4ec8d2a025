//! Fig 11: LLaMA2 under different sequence lengths (256 – 16 K).
//!
//! Run with `cargo run --release -p fusecu-bench --bin fig11_seqlen`.
//! Pass `--serial` to disable the parallel evaluation engine and
//! `--no-disk-cache` to skip the persistent cache in `target/fusecu-cache/`.

use fusecu::pipeline::sequence_sweep_with;
use fusecu::prelude::*;
use fusecu_bench::{header, write_csv};

fn main() {
    let cache = DiskCacheSession::from_args();
    let parallelism = Parallelism::from_args();
    header("Fig 11: LLaMA2 normalized memory access | utilization vs sequence length");
    print!("{:<10}", "seq len");
    for p in Platform::ALL {
        print!(" {:>14}", p.name());
    }
    println!("  {:>12}", "fusion gain");

    let sweep = sequence_sweep_with(&zoo::fig11_seq_lengths(), parallelism);
    for (s, row) in &sweep {
        print!("{:<10}", s);
        for p in Platform::ALL {
            print!(
                "   {:>5.3}|{:<5.3}",
                row.normalized_ma(p),
                row.utilization(p)
            );
        }
        // The fusion-specific saving relative to the unfused twin design.
        let gain = 1.0 - row.normalized_ma(Platform::FuseCu) / row.normalized_ma(Platform::UnfCu);
        println!("  {:>11.1}%", 100.0 * gain);
    }
    println!();
    println!(
        "paper: robust across lengths, with greater memory-access reduction at longer sequences"
    );
    let mut csv_rows = Vec::new();
    for (s, row) in &sweep {
        for p in Platform::ALL {
            csv_rows.push(vec![
                s.to_string(),
                p.name().to_string(),
                format!("{:.6}", row.normalized_ma(p)),
                format!("{:.6}", row.utilization(p)),
            ]);
        }
    }
    if let Ok(path) = write_csv(
        "fig11_seqlen",
        &["seq_len", "platform", "normalized_ma", "utilization"],
        &csv_rows,
    ) {
        println!("data written to {}", path.display());
    }
    println!(
        "operator cache: {} (attention shapes recur across sequence lengths)",
        fusecu::arch::op_cache_counters().stats
    );
    println!("{}", cache.summary());
    if std::env::args().any(|a| a == "--stats-json") {
        println!("{}", cache.stats_json());
    }
}
