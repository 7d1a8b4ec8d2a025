//! Operator-cache key sharing, measured on the process-global cache.
//!
//! This lives in its own integration-test binary so the cache counters
//! start at zero and stay deterministic: a single #[test] is the only
//! code that touches the global operator cache in this process.

use fusecu_arch::{op_cache_counters, optimize_op_cached, ArraySpec, Platform};
use fusecu_dataflow::CostModel;
use fusecu_ir::MatMul;

#[test]
fn bandwidth_and_cu_sweeps_share_one_cache_entry() {
    let model = CostModel::read_write();
    let mm = MatMul::new(768, 512, 640);
    let base = ArraySpec::paper_default();

    // First evaluation computes the candidate list: one miss.
    let first = optimize_op_cached(&base, Platform::FuseCu, &model, mm, 4);
    let s = op_cache_counters().stats;
    assert_eq!((s.hits, s.misses), (0, 1));

    // A bandwidth/CU-count/instance-count sweep re-scores the same
    // candidates: every further lookup hits. (The PR 1 cache keyed on the
    // whole ArraySpec, so each bandwidth point recomputed the expensive
    // tiling search from scratch.)
    let mut sweep = 0u64;
    for bw in [256u64, 448, 512, 1024] {
        for cus in [1u64, 2, 4] {
            let spec = ArraySpec {
                bw_elems_per_cycle: bw,
                num_cus: cus,
                ..base
            };
            let perf = optimize_op_cached(&spec, Platform::FuseCu, &model, mm, 4);
            assert_eq!(perf.total_ma(), first.total_ma());
            sweep += 1;
        }
    }
    let s = op_cache_counters().stats;
    assert_eq!((s.hits, s.misses), (sweep, 1), "sweep points must share the entry");

    // Changing a tiling input (buffer budget) is a genuinely new key.
    let bigger = ArraySpec {
        buffer_elems: 2 * base.buffer_elems,
        ..base
    };
    optimize_op_cached(&bigger, Platform::FuseCu, &model, mm, 4);
    let s = op_cache_counters().stats;
    assert_eq!(s.misses, 2);
}
