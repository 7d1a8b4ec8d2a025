//! Fig 10: normalized memory access (bars) and utilization (lines) of the
//! five platforms across the seven Table II models.
//!
//! Run with `cargo run --release -p fusecu-bench --bin fig10_comparison`.
//! Pass `--serial` to disable the parallel evaluation engine and
//! `--no-disk-cache` to skip the persistent cache in `target/fusecu-cache/`.

use fusecu::pipeline::{compare_suite_with, suite_means, PlatformRow};
use fusecu::prelude::*;
use fusecu_bench::{header, pct, write_csv};

fn main() {
    let cache = DiskCacheSession::from_args();
    let parallelism = Parallelism::from_args();
    header("Fig 10: normalized memory access | utilization, per model");
    print!("{:<12}", "model");
    for p in Platform::ALL {
        print!(" {:>14}", p.name());
    }
    println!();

    let rows: Vec<PlatformRow> =
        compare_suite_with(&zoo::all(), &ArraySpec::paper_default(), parallelism);
    for row in &rows {
        print!("{:<12}", row.model.name);
        for p in Platform::ALL {
            print!(
                "   {:>5.3}|{:<5.3}",
                row.normalized_ma(p),
                row.utilization(p)
            );
        }
        println!();
    }

    let mut csv_rows = Vec::new();
    for row in &rows {
        for p in Platform::ALL {
            csv_rows.push(vec![
                row.model.name.clone(),
                p.name().to_string(),
                format!("{:.6}", row.normalized_ma(p)),
                format!("{:.6}", row.utilization(p)),
                format!("{:.6}", row.speedup(p, Platform::Tpuv4i)),
            ]);
        }
    }
    if let Ok(path) = write_csv(
        "fig10_comparison",
        &["model", "platform", "normalized_ma", "utilization", "speedup_vs_tpu"],
        &csv_rows,
    ) {
        println!("\ndata written to {}", path.display());
    }

    header("Fig 10 means and headline comparisons");
    let means = suite_means(&rows);
    println!(
        "{:<10} {:>14} {:>12} {:>16}",
        "platform", "norm. MA", "utilization", "speedup vs TPU"
    );
    for (p, ma, util, spd) in &means {
        println!("{:<10} {:>14.3} {:>12.3} {:>16.3}", p.name(), ma, util, spd);
    }

    let ma_of = |p: Platform| means.iter().find(|(q, ..)| *q == p).unwrap().1;
    let spd_of = |p: Platform| means.iter().find(|(q, ..)| *q == p).unwrap().3;
    let fuse = ma_of(Platform::FuseCu);
    let unf = ma_of(Platform::UnfCu);

    println!();
    println!("FuseCU data-movement saving:");
    println!(
        "  vs TPUv4i   {}  (paper: 63.6%)",
        pct(1.0 - fuse / ma_of(Platform::Tpuv4i))
    );
    println!(
        "  vs Gemmini  {}  (paper: 62.4%)",
        pct(1.0 - fuse / ma_of(Platform::Gemmini))
    );
    println!(
        "  vs Planaria {}  (paper: 38.7%)",
        pct(1.0 - fuse / ma_of(Platform::Planaria))
    );
    println!("UnfCU data-movement saving:");
    println!(
        "  vs TPUv4i   {}  (paper: 42.6%)",
        pct(1.0 - unf / ma_of(Platform::Tpuv4i))
    );
    println!(
        "  vs Gemmini  {}  (paper: 41.0%)",
        pct(1.0 - unf / ma_of(Platform::Gemmini))
    );
    println!(
        "  vs Planaria {}  (paper: 4.5%)",
        pct(1.0 - unf / ma_of(Platform::Planaria))
    );
    // Energy (extension): MACs are platform-invariant, so all savings come
    // from the eliminated memory traffic.
    let e = fusecu::arch::EnergyModel::nm28();
    let energy = |p: Platform| -> f64 {
        rows.iter().map(|r| e.graph_energy_uj(r.perf(p))).sum()
    };
    println!("FuseCU energy saving (15 pJ/B DRAM, 0.1 pJ/MAC):");
    println!(
        "  vs TPUv4i   {}   (dram share of TPUv4i: {})",
        pct(1.0 - energy(Platform::FuseCu) / energy(Platform::Tpuv4i)),
        pct(rows
            .iter()
            .map(|r| e.dram_share(r.perf(Platform::Tpuv4i)))
            .sum::<f64>()
            / rows.len() as f64)
    );
    println!("FuseCU speedup:");
    println!(
        "  vs TPUv4i   {:.2}x (paper: 1.33x)",
        spd_of(Platform::FuseCu) / spd_of(Platform::Tpuv4i)
    );
    println!(
        "  vs Gemmini  {:.2}x (paper: 1.25x)",
        spd_of(Platform::FuseCu) / spd_of(Platform::Gemmini)
    );
    println!(
        "  vs Planaria {:.2}x (paper: 1.14x)",
        spd_of(Platform::FuseCu) / spd_of(Platform::Planaria)
    );
    println!(
        "\noperator cache: {} (shapes repeated across layers and models are optimized once)",
        fusecu::arch::op_cache_counters().stats
    );
    println!("{}", cache.summary());
    if std::env::args().any(|a| a == "--stats-json") {
        println!("{}", cache.stats_json());
    }
}
