//! Search fitness backends: analytical scoring vs simulator-in-the-loop.
//!
//! Every searcher in this crate ranks candidates by a scalar cost. This
//! module abstracts where that scalar comes from:
//!
//! * [`Fitness::Analytical`] — the closed-form loop-nest memory-access
//!   model ([`CostModel::evaluate`]), thousands of evaluations per
//!   millisecond. This is the default and what the paper's DAT baseline
//!   uses.
//! * [`Fitness::Simulated`] — each candidate nest is *replayed* on the
//!   simulator's tiled drivers and scored by the traffic the replay
//!   measures. With the default [`SimMode::TrafficOnly`] this runs
//!   through the driver's closed-form fast path — near-analytical speed —
//!   while [`SimMode::Full`] keeps the orders-of-magnitude-heavier
//!   data-moving replay that justifies parallel population scoring. Either
//!   way it closes the loop: the closed form is differentially pinned
//!   against the naive accounting walk the full replay runs on.
//! * [`Fitness::Latency`] — score by the arch cycle model instead of
//!   traffic: `max(compute, DRAM)` cycles of the nest on a given
//!   [`ArraySpec`] (see `fusecu_arch::latency`). A genuinely different
//!   objective — per-tile systolic fill/drain makes many small tiles
//!   expensive in cycles even when they are cheap in traffic, so latency
//!   and traffic rank some genome pairs in opposite orders.
//!
//! The simulated backend itself has two modes ([`SimMode`]):
//!
//! * [`SimMode::TrafficOnly`] (the default for `Fitness::Simulated`)
//!   prices the replay schedule in closed form through [`measure_nest`] /
//!   [`measure_fused_nest`] and skips all value movement — no operands are
//!   materialized and scoring allocates nothing. The sim crate's
//!   differential tests prove its counters equal the naive oracle's.
//! * [`SimMode::Full`] replays real tile data with golden tile kernels
//!   through a shared [`SimScratch`](fusecu_sim::SimScratch) arena
//!   ([`execute_nest_with`] / [`execute_fused_nest_with`]) on *every*
//!   genome, measuring traffic on the naive accounting walk. It clocks no PE (that is the sim crate's
//!   `CuArray` / `FuseCuFabric` engine). Scorers keep a [`ScratchPool`]
//!   alive across genome replays, so steady-state scoring is
//!   allocation-free here too: each scoring thread checks an arena out,
//!   replays into it, and returns it.
//!
//! The operand values are irrelevant to the score (traffic counting never
//! looks at the data), so the matrices are seeded deterministically per
//! shape and shared read-only across scoring threads. The simulator
//! counts the paper's per-visit traffic, so a simulated scorer requires
//! [`CostModel::paper`] accounting (its constructors panic otherwise);
//! under it the backends agree exactly on every feasible nest (the driver
//! tests prove measured == evaluated), so they induce the same ranking.
//! The simulated backend exists to *keep* that true as the model evolves,
//! and to catch it the moment it breaks.

use fusecu_arch::{fused_latency, nest_latency, ArraySpec};
use fusecu_dataflow::{CostModel, LoopNest, PartialSumPolicy};
use fusecu_fusion::{FusedNest, FusedPair};
use fusecu_ir::MatMul;
use fusecu_sim::driver::{
    execute_fused_nest_with, execute_nest_with, measure_fused_nest, measure_nest,
};
use fusecu_sim::{Matrix, ScratchLease, ScratchPool, SimMode};

/// Which objective a searcher ranks candidates by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Fitness {
    /// Score by the analytical loop-nest model (fast; the default).
    #[default]
    Analytical,
    /// Score by traffic measured while replaying the nest on the
    /// simulator's tiled drivers. The default [`SimMode::TrafficOnly`]
    /// replay is closed-form and cheap; [`SimMode::Full`] moves real data
    /// and is where parallel scoring pays for itself. The simulator counts
    /// the paper's per-visit traffic only, so the scorers panic when this
    /// backend is paired with any other [`PartialSumPolicy`].
    Simulated,
    /// Score by the arch cycle model: `max(compute, DRAM)` cycles of the
    /// nest on the given array (`fusecu_arch::latency`). Cheap and
    /// closed-form, but a *different* objective from traffic: a nest that
    /// moves more data with fewer, fuller tiles can win.
    Latency(ArraySpec),
}

impl Fitness {
    /// Whether a single evaluation is heavy enough that population
    /// scoring should fan out across cores by default, given the replay
    /// mode the backend actually resolves to.
    ///
    /// The decision is **cost-aware**: only `Simulated` in
    /// [`SimMode::Full`] moves real data per genome and costs enough to
    /// amortize a thread handoff. `Analytical`, `Latency`, and —
    /// crucially — `Simulated` in the default [`SimMode::TrafficOnly`]
    /// are closed-form, ~tens of nanoseconds per score: cheaper than the
    /// handoff itself, so fanning them out *inverts* into a slowdown
    /// (the 56× parallel-scaling cliff `BENCH_sim.json` recorded).
    /// `mode` is ignored by the non-simulated backends.
    pub fn prefers_parallel_scoring(self, mode: SimMode) -> bool {
        matches!(self, Fitness::Simulated) && mode == SimMode::Full
    }
}

/// Seed base for the deterministic operand matrices. The seeds only pick
/// matrix *values*, which the traffic accounting never reads — any fixed
/// constants give identical scores.
const OPERAND_SEED: u64 = 0x00F1_7E55;

/// The simulator-side state of a scorer: which replay mode to run, the
/// read-only operands ([`SimMode::Full`] only), and a pool of scratch
/// arenas reused across genome replays and shared across scoring threads.
#[derive(Debug)]
struct SimBackend<Ops> {
    mode: SimMode,
    /// `Some` in [`SimMode::Full`]; `TrafficOnly` never touches data.
    operands: Option<Ops>,
    pool: ScratchPool,
}

impl<Ops> SimBackend<Ops> {
    /// The backend for `fitness`, in [`SimMode::TrafficOnly`]; `None`
    /// unless `fitness` is [`Fitness::Simulated`].
    ///
    /// # Panics
    ///
    /// Panics for [`Fitness::Simulated`] under any accounting but
    /// [`PartialSumPolicy::PerVisit`]: the simulator counts per-visit
    /// traffic only, so it would score a nest differently from `model`.
    fn for_fitness(fitness: Fitness, model: &CostModel) -> Option<SimBackend<Ops>> {
        if fitness != Fitness::Simulated {
            return None;
        }
        assert_eq!(
            model.partial_sums,
            PartialSumPolicy::PerVisit,
            "simulated fitness counts per-visit traffic only"
        );
        Some(SimBackend {
            mode: SimMode::TrafficOnly,
            operands: None,
            pool: ScratchPool::new(),
        })
    }

    /// The scratch lease a session holds: one arena in [`SimMode::Full`],
    /// none for the closed form.
    fn lease(&self) -> Option<ScratchLease<'_>> {
        (self.mode == SimMode::Full).then(|| self.pool.lease())
    }
}

/// A per-`optimize()` scorer for single-operator loop nests.
///
/// Construction is cheap for [`Fitness::Analytical`] and for the default
/// [`SimMode::TrafficOnly`] simulated backend; opting into
/// [`SimMode::Full`] via [`NestScorer::with_sim_mode`] materializes the
/// `A`/`B` operands once so every genome replays against the same
/// read-only data (safe to share across [`crate::parallel::par_map`]
/// workers — each thread checks a scratch arena out of the pool).
#[derive(Debug)]
pub struct NestScorer {
    model: CostModel,
    mm: MatMul,
    latency: Option<ArraySpec>,
    sim: Option<SimBackend<(Matrix, Matrix)>>,
}

impl NestScorer {
    /// Builds a scorer for `mm` under `model` with the given backend.
    /// [`Fitness::Simulated`] defaults to [`SimMode::TrafficOnly`].
    ///
    /// # Panics
    ///
    /// Panics for [`Fitness::Simulated`] when `model` does not charge
    /// partial sums [`PartialSumPolicy::PerVisit`], the only accounting
    /// the simulator measures.
    pub fn new(fitness: Fitness, model: CostModel, mm: MatMul) -> NestScorer {
        let sim = SimBackend::for_fitness(fitness, &model);
        let latency = match fitness {
            Fitness::Latency(spec) => Some(spec),
            _ => None,
        };
        NestScorer {
            model,
            mm,
            latency,
            sim,
        }
    }

    /// Selects the simulated replay mode; [`SimMode::Full`] materializes
    /// the operand matrices. No-op for an analytical scorer.
    #[must_use]
    pub fn with_sim_mode(mut self, mode: SimMode) -> NestScorer {
        if let Some(sim) = &mut self.sim {
            sim.mode = mode;
            sim.operands = (mode == SimMode::Full).then(|| {
                let mm = self.mm;
                (
                    Matrix::pseudo_random(mm.m() as usize, mm.k() as usize, OPERAND_SEED),
                    Matrix::pseudo_random(mm.k() as usize, mm.l() as usize, OPERAND_SEED + 1),
                )
            });
        }
        self
    }

    /// Scalar cost of `nest` under the selected backend — total memory
    /// access for the traffic backends, cycles for [`Fitness::Latency`].
    /// Feasibility (buffer fit) is the caller's concern; this only scores.
    ///
    /// One-shot convenience: pays a [`ScratchPool`] checkout per call in
    /// [`SimMode::Full`]. Batch callers (a GA generation, an exhaustive
    /// scan) should open a [`NestScorer::session`] and score through it.
    pub fn score(&self, nest: &LoopNest) -> u64 {
        self.session().score(nest)
    }

    /// Opens a batch-scoring session: in [`SimMode::Full`] this leases
    /// one scratch arena from the pool and holds it for the session's
    /// lifetime, so a worker scoring a whole sub-population pays the
    /// pool lock once per batch instead of once per genome. For the
    /// closed-form backends the session is stateless and free.
    ///
    /// Sessions are per-thread (they hold the leased arena mutably);
    /// the scorer itself stays shareable, so each `par_map_batched`
    /// worker opens its own session off the same `&NestScorer`.
    pub fn session(&self) -> NestSession<'_> {
        NestSession {
            scorer: self,
            scratch: self.sim.as_ref().and_then(SimBackend::lease),
        }
    }
}

/// A per-worker batch-scoring handle for [`NestScorer`]: holds the
/// [`SimMode::Full`] scratch lease across every score in the batch.
#[derive(Debug)]
pub struct NestSession<'s> {
    scorer: &'s NestScorer,
    /// `Some` only when the backend replays real data ([`SimMode::Full`]).
    scratch: Option<ScratchLease<'s>>,
}

impl NestSession<'_> {
    /// Scalar cost of `nest`; identical to [`NestScorer::score`] — the
    /// session only changes *where* the scratch checkout happens, never
    /// the score.
    pub fn score(&mut self, nest: &LoopNest) -> u64 {
        let scorer = self.scorer;
        if let Some(spec) = &scorer.latency {
            return nest_latency(spec, &scorer.model, scorer.mm, nest);
        }
        match &scorer.sim {
            None => scorer.model.evaluate(scorer.mm, nest).total(),
            Some(sim) => match (sim.mode, &sim.operands) {
                // The tiled replay: move real data on every genome.
                (SimMode::Full, Some((a, b))) => {
                    let scratch = self
                        .scratch
                        .as_mut()
                        .expect("full-mode session holds a scratch lease");
                    execute_nest_with(a, b, scorer.mm, nest, scratch).total()
                }
                _ => measure_nest(scorer.mm, nest).total(),
            },
        }
    }
}

/// A per-`optimize()` scorer for fused-pair nests; the fused analogue of
/// [`NestScorer`].
#[derive(Debug)]
pub struct FusedScorer {
    model: CostModel,
    pair: FusedPair,
    latency: Option<ArraySpec>,
    sim: Option<SimBackend<(Matrix, Matrix, Matrix)>>,
}

impl FusedScorer {
    /// Builds a scorer for `pair` under `model` with the given backend.
    /// [`Fitness::Simulated`] defaults to [`SimMode::TrafficOnly`].
    ///
    /// # Panics
    ///
    /// Panics for [`Fitness::Simulated`] when `model` does not charge
    /// partial sums [`PartialSumPolicy::PerVisit`] (see
    /// [`NestScorer::new`]).
    pub fn new(fitness: Fitness, model: CostModel, pair: FusedPair) -> FusedScorer {
        let sim = SimBackend::for_fitness(fitness, &model);
        let latency = match fitness {
            Fitness::Latency(spec) => Some(spec),
            _ => None,
        };
        FusedScorer {
            model,
            pair,
            latency,
            sim,
        }
    }

    /// Selects the simulated replay mode; [`SimMode::Full`] materializes
    /// the operand matrices. No-op for an analytical scorer.
    #[must_use]
    pub fn with_sim_mode(mut self, mode: SimMode) -> FusedScorer {
        use fusecu_fusion::FusedDim::{K, L, M, N};
        if let Some(sim) = &mut self.sim {
            sim.mode = mode;
            sim.operands = (mode == SimMode::Full).then(|| {
                let d = |t| self.pair.dim(t) as usize;
                (
                    Matrix::pseudo_random(d(M), d(K), OPERAND_SEED + 2),
                    Matrix::pseudo_random(d(K), d(L), OPERAND_SEED + 3),
                    Matrix::pseudo_random(d(L), d(N), OPERAND_SEED + 4),
                )
            });
        }
        self
    }

    /// Scalar cost of `nest` under the selected backend — total
    /// external-tensor traffic, or cycles for [`Fitness::Latency`].
    ///
    /// One-shot convenience; batch callers should open a
    /// [`FusedScorer::session`] (see [`NestScorer::session`]).
    pub fn score(&self, nest: &FusedNest) -> u64 {
        self.session().score(nest)
    }

    /// Opens a batch-scoring session holding one scratch lease for
    /// [`SimMode::Full`]; stateless and free for the closed-form
    /// backends. See [`NestScorer::session`].
    pub fn session(&self) -> FusedSession<'_> {
        FusedSession {
            scorer: self,
            scratch: self.sim.as_ref().and_then(SimBackend::lease),
        }
    }
}

/// A per-worker batch-scoring handle for [`FusedScorer`]; the fused
/// analogue of [`NestSession`].
#[derive(Debug)]
pub struct FusedSession<'s> {
    scorer: &'s FusedScorer,
    /// `Some` only when the backend replays real data ([`SimMode::Full`]).
    scratch: Option<ScratchLease<'s>>,
}

impl FusedSession<'_> {
    /// Scalar cost of `nest`; identical to [`FusedScorer::score`].
    pub fn score(&mut self, nest: &FusedNest) -> u64 {
        let scorer = self.scorer;
        if let Some(spec) = &scorer.latency {
            return fused_latency(spec, &scorer.model, &scorer.pair, nest);
        }
        match &scorer.sim {
            None => nest.evaluate(&scorer.model, &scorer.pair).total(),
            Some(sim) => match (sim.mode, &sim.operands) {
                // The tiled replay: move real data on every genome.
                (SimMode::Full, Some((a, b, d))) => {
                    let scratch = self
                        .scratch
                        .as_mut()
                        .expect("full-mode session holds a scratch lease");
                    execute_fused_nest_with(a, b, d, &scorer.pair, nest, scratch)
                        .iter()
                        .sum()
                }
                _ => measure_fused_nest(&scorer.pair, nest).iter().sum(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusecu_dataflow::Tiling;
    use fusecu_fusion::FusedTiling;
    use fusecu_ir::MmDim;

    const MODEL: CostModel = CostModel {
        partial_sums: fusecu_dataflow::PartialSumPolicy::PerVisit,
    };

    #[test]
    fn backends_agree_on_paper_accounting() {
        let mm = MatMul::new(14, 9, 11);
        let analytical = NestScorer::new(Fitness::Analytical, MODEL, mm);
        let traffic_only = NestScorer::new(Fitness::Simulated, MODEL, mm);
        let full = NestScorer::new(Fitness::Simulated, MODEL, mm).with_sim_mode(SimMode::Full);
        for order in LoopNest::orders() {
            for tiling in [Tiling::new(1, 1, 1), Tiling::new(4, 3, 5), Tiling::new(14, 9, 11)] {
                let nest = LoopNest::new(order, tiling);
                let reference = analytical.score(&nest);
                assert_eq!(
                    traffic_only.score(&nest),
                    reference,
                    "traffic-only, order {order:?} tiling {tiling}"
                );
                assert_eq!(
                    full.score(&nest),
                    reference,
                    "full, order {order:?} tiling {tiling}"
                );
            }
        }
    }

    #[test]
    fn fused_backends_agree_on_paper_accounting() {
        let pair =
            FusedPair::try_new(MatMul::new(12, 5, 10), MatMul::new(12, 10, 7)).unwrap();
        let analytical = FusedScorer::new(Fitness::Analytical, MODEL, pair);
        let traffic_only = FusedScorer::new(Fitness::Simulated, MODEL, pair);
        let full =
            FusedScorer::new(Fitness::Simulated, MODEL, pair).with_sim_mode(SimMode::Full);
        for outer_is_m in [true, false] {
            for (tm, tk, tl, tn) in [(1u64, 1, 1, 1), (4, 2, 5, 3), (12, 5, 10, 7)] {
                let nest = FusedNest::new(outer_is_m, FusedTiling::new(tm, tk, tl, tn));
                let reference = analytical.score(&nest);
                assert_eq!(traffic_only.score(&nest), reference, "traffic-only {nest}");
                assert_eq!(full.score(&nest), reference, "full {nest}");
            }
        }
    }

    #[test]
    fn simulated_scorer_is_shareable_across_threads() {
        // The GA scores populations through scoped threads; the scorer
        // must give identical answers from any of them, in both modes.
        let mm = MatMul::new(10, 8, 6);
        let nest = LoopNest::new([MmDim::M, MmDim::K, MmDim::L], Tiling::new(3, 4, 2));
        for mode in [SimMode::TrafficOnly, SimMode::Full] {
            let scorer = NestScorer::new(Fitness::Simulated, MODEL, mm).with_sim_mode(mode);
            let expected = scorer.score(&nest);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| assert_eq!(scorer.score(&nest), expected));
                }
            });
        }
    }

    #[test]
    fn default_backend_is_analytical() {
        assert_eq!(Fitness::default(), Fitness::Analytical);
    }

    #[test]
    fn parallel_preference_is_cost_aware() {
        // Only the one genuinely heavy backend — Simulated moving real
        // data per genome — prefers fan-out. Every closed-form score
        // (analytical, latency, the default TrafficOnly replay) is
        // cheaper than a thread handoff and must default to serial.
        assert!(Fitness::Simulated.prefers_parallel_scoring(SimMode::Full));
        assert!(!Fitness::Simulated.prefers_parallel_scoring(SimMode::TrafficOnly));
        for mode in [SimMode::Full, SimMode::TrafficOnly] {
            assert!(!Fitness::Analytical.prefers_parallel_scoring(mode));
            assert!(!Fitness::Latency(ArraySpec::paper_default()).prefers_parallel_scoring(mode));
        }
    }

    #[test]
    fn sessions_score_identically_to_one_shot_calls() {
        let mm = MatMul::new(14, 9, 11);
        let nests: Vec<LoopNest> = LoopNest::orders()
            .iter()
            .map(|&o| LoopNest::new(o, Tiling::new(4, 3, 5)))
            .collect();
        for scorer in [
            NestScorer::new(Fitness::Analytical, MODEL, mm),
            NestScorer::new(Fitness::Simulated, MODEL, mm),
            NestScorer::new(Fitness::Simulated, MODEL, mm).with_sim_mode(SimMode::Full),
            NestScorer::new(Fitness::Latency(ArraySpec::paper_default()), MODEL, mm),
        ] {
            let mut session = scorer.session();
            for nest in &nests {
                assert_eq!(session.score(nest), scorer.score(nest));
            }
        }
    }

    #[test]
    fn full_mode_session_leases_one_arena_for_the_whole_batch() {
        let mm = MatMul::new(10, 8, 6);
        let scorer = NestScorer::new(Fitness::Simulated, MODEL, mm).with_sim_mode(SimMode::Full);
        let pool_idle = |s: &NestScorer| s.sim.as_ref().unwrap().pool.idle();
        {
            let mut session = scorer.session();
            let nest = LoopNest::new([MmDim::M, MmDim::K, MmDim::L], Tiling::new(3, 4, 2));
            session.score(&nest);
            session.score(&nest);
            // The arena stays checked out across scores within a session.
            assert_eq!(pool_idle(&scorer), 0);
        }
        assert_eq!(pool_idle(&scorer), 1, "drop returns the arena");
        // TrafficOnly sessions never touch the pool.
        let cheap = NestScorer::new(Fitness::Simulated, MODEL, mm);
        let _session = cheap.session();
        assert_eq!(pool_idle(&cheap), 0);
    }

    #[test]
    #[should_panic(expected = "per-visit traffic only")]
    fn simulated_nest_scorer_refuses_read_write_accounting() {
        let _ = NestScorer::new(
            Fitness::Simulated,
            CostModel::read_write(),
            MatMul::new(6, 6, 6),
        );
    }

    #[test]
    #[should_panic(expected = "per-visit traffic only")]
    fn simulated_fused_scorer_refuses_read_write_accounting() {
        let pair = FusedPair::try_new(MatMul::new(6, 5, 4), MatMul::new(6, 4, 3)).unwrap();
        let _ = FusedScorer::new(Fitness::Simulated, CostModel::read_write(), pair);
    }

    #[test]
    fn latency_fitness_ranks_a_genome_pair_differently_than_traffic() {
        // The satellite objective test: latency is a *genuinely different*
        // objective, not a rescaled traffic. Shredding L into unit tiles
        // minimizes MA on this shape (4 736 vs 6 016 elements) but pays
        // systolic fill/drain on every one of its 32 tiles (9 728 vs 1 120
        // compute cycles on the paper's 128×128 array, where both nests
        // are compute-bound) — so the two backends order the pair in
        // opposite directions.
        let mm = MatMul::new(48, 40, 32);
        let order = [MmDim::M, MmDim::K, MmDim::L];
        let low_traffic = LoopNest::new(order, Tiling::new(48, 40, 1));
        let low_latency = LoopNest::new(order, Tiling::new(24, 20, 32));
        let traffic = NestScorer::new(Fitness::Analytical, MODEL, mm);
        let latency =
            NestScorer::new(Fitness::Latency(ArraySpec::paper_default()), MODEL, mm);
        assert!(
            traffic.score(&low_traffic) < traffic.score(&low_latency),
            "traffic must prefer the shredded nest: {} vs {}",
            traffic.score(&low_traffic),
            traffic.score(&low_latency)
        );
        assert!(
            latency.score(&low_traffic) > latency.score(&low_latency),
            "latency must prefer the fuller tiles: {} vs {}",
            latency.score(&low_traffic),
            latency.score(&low_latency)
        );
    }

    #[test]
    fn latency_fitness_scores_fused_nests() {
        // Fused plumbing: the latency backend flows through FusedScorer
        // and ranks the all-unit tiling strictly worse than whole tiles.
        let pair =
            FusedPair::try_new(MatMul::new(12, 5, 10), MatMul::new(12, 10, 7)).unwrap();
        let scorer =
            FusedScorer::new(Fitness::Latency(ArraySpec::paper_default()), MODEL, pair);
        let whole = FusedNest::new(true, FusedTiling::new(12, 5, 10, 7));
        let unit = FusedNest::new(true, FusedTiling::new(1, 1, 1, 1));
        assert!(scorer.score(&whole) > 0);
        assert!(scorer.score(&whole) < scorer.score(&unit));
    }

    #[test]
    fn latency_scorer_builds_no_sim_backend() {
        let scorer =
            NestScorer::new(Fitness::Latency(ArraySpec::paper_default()), MODEL, MatMul::new(6, 6, 6));
        assert!(scorer.sim.is_none());
        assert!(scorer.latency.is_some());
        // with_sim_mode is a no-op without a simulated backend.
        let scorer = scorer.with_sim_mode(SimMode::Full);
        assert!(scorer.sim.is_none());
    }

    #[test]
    fn simulated_default_mode_is_traffic_only() {
        // TrafficOnly is the default sim mode: no operands materialize.
        let scorer = NestScorer::new(Fitness::Simulated, MODEL, MatMul::new(6, 6, 6));
        let sim = scorer.sim.as_ref().expect("simulated backend present");
        assert_eq!(sim.mode, SimMode::TrafficOnly);
        assert!(sim.operands.is_none());
        assert!(scorer.sim.as_ref().unwrap().pool.idle() == 0);
    }
}
