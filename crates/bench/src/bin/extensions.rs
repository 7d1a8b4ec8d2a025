//! Beyond the paper's evaluation: the extension experiments this
//! reproduction adds — autoregressive decode, the two-level memory
//! hierarchy with the §IV-B un-tiling bound, and convolution lowering.
//!
//! Run with `cargo run --release -p fusecu-bench --bin extensions`. Pass
//! `--no-disk-cache` to skip the persistent cache in `target/fusecu-cache/`.

use fusecu::dataflow::hierarchy::{optimize_two_level, untiling_bound};
use fusecu::dataflow::principles::try_optimize_with;
use fusecu::ir::Conv2d;
use fusecu::pipeline::compare_platforms_decode_with;
use fusecu::prelude::*;
use fusecu_bench::{header, write_csv};

fn decode_sweep() {
    let parallelism = Parallelism::from_args();
    header("Extension 1: LLaMA2 autoregressive decode vs KV-cache length");
    println!(
        "{:<10} {:>14} {:>14} {:>16}",
        "context", "TPUv4i util", "FuseCU util", "FuseCU speedup"
    );
    let mut rows = Vec::new();
    for context in [512u64, 2048, 8192, 32_768] {
        let row = compare_platforms_decode_with(&zoo::llama2(), context, parallelism);
        let spd = row.speedup(Platform::FuseCu, Platform::Tpuv4i);
        println!(
            "{:<10} {:>14.4} {:>14.4} {:>15.2}x",
            context,
            row.utilization(Platform::Tpuv4i),
            row.utilization(Platform::FuseCu),
            spd
        );
        rows.push(vec![
            context.to_string(),
            format!("{:.6}", row.utilization(Platform::Tpuv4i)),
            format!("{:.6}", row.utilization(Platform::FuseCu)),
            format!("{:.6}", spd),
        ]);
    }
    if let Ok(path) = write_csv(
        "ext_decode",
        &["context", "tpu_util", "fusecu_util", "fusecu_speedup"],
        &rows,
    ) {
        println!("data written to {}", path.display());
    }
    println!("(decode collapses to skinny matmuls; everyone is memory-bound,");
    println!(" flexible fabrics lose less utilization)");
}

fn hierarchy_bound() {
    header("Extension 2: register-level principles and the 2N un-tiling bound");
    let model = CostModel::paper();
    let n = 128u64;
    println!("fabric edge N = {n}; bound = {}", untiling_bound(n));
    println!("{:>8} {:>14} {:>12}", "Dmin", "register class", "untiled?");
    for dmin in [32u64, 64, 128, 192, 255, 256, 384, 512] {
        let tile = MatMul::new(512, dmin, 512);
        let inner = try_optimize_with(&model, tile, n * n).expect("registers feasible");
        println!(
            "{:>8} {:>14} {:>12}",
            dmin,
            inner.class().map(|c| c.to_string()).unwrap_or_default(),
            inner.tiling().is_untiled(tile, MmDim::K)
        );
    }

    // Both traffic levels for the paper's worked example.
    let mm = MatMul::new(1024, 768, 768);
    let df = optimize_two_level(&model, mm, 512 * 1024, n * n).expect("capacities feasible");
    println!();
    println!(
        "BERT projection two-level plan: DRAM<->buffer {} elems, buffer<->PEs {} elems",
        df.dram_ma().total(),
        df.buffer_ma().total()
    );
}

fn conv_regimes() {
    header("Extension 3: principles on im2col-lowered convolutions (24 KiB buffer)");
    let buffer = 24 * 1024;
    let model = CostModel::paper();
    let oracle = ExhaustiveSearch::new(model);
    let layers = [
        ("res2 3x3", Conv2d::same(8, 64, 56, 64, 3)),
        ("res3 3x3", Conv2d::same(8, 128, 28, 128, 3)),
        ("res4 1x1", Conv2d::same(8, 256, 14, 1024, 1)),
        ("res5 3x3", Conv2d::same(8, 512, 7, 512, 3)),
    ];
    println!(
        "{:<10} {:>9} {:>12} {:>10} {:>9}",
        "layer", "regime", "class", "MA/ideal", "= oracle"
    );
    for (name, conv) in layers {
        let mm = conv.to_matmul().expect("valid layer");
        let best = fusecu::optimize(mm, buffer);
        let searched = oracle.optimize(mm, buffer).best().total_ma();
        assert_eq!(best.total_ma(), searched, "{name}");
        println!(
            "{:<10} {:>9} {:>12} {:>9.3}x {:>9}",
            name,
            BufferRegime::classify(mm, buffer).to_string(),
            best.class().map(|c| c.to_string()).unwrap_or_default(),
            best.total_ma() as f64 / mm.ideal_ma() as f64,
            "yes"
        );
    }
}

fn main() {
    let cache = DiskCacheSession::from_args();
    decode_sweep();
    hierarchy_bound();
    conv_regimes();
    println!(
        "\noperator cache: {}",
        fusecu::arch::op_cache_counters().stats
    );
    println!("{}", cache.summary());
    if std::env::args().any(|a| a == "--stats-json") {
        println!("{}", cache.stats_json());
    }
}
