//! A genetic searcher over the fused-pair nest space — the inter-operator
//! half of the DAT baseline.
//!
//! DAT explores fused tiling/scheduling with a genetic algorithm over the
//! joint space; this module mirrors that for [`FusedNest`]s. The genome is
//! `(shared-loop order, tile index per fused dimension)` over balanced
//! representatives. As with the intra-operator GA, there is no optimality
//! guarantee — the closed-form fused optimizer in `fusecu-fusion` is the
//! one that matches the [`crate::fused_exhaustive`] oracle.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fusecu_dataflow::tiling::balanced_tiles;
use fusecu_dataflow::CostModel;
use fusecu_fusion::{FusedDataflow, FusedDim, FusedNest, FusedPair, FusedTiling};

use crate::fitness::{Fitness, FusedScorer, FusedSession};
use fusecu_sim::SimMode;
use crate::genetic::GeneticConfig;
use crate::parallel::{par_map_batched, Parallelism};

#[derive(Debug, Clone, Copy)]
struct Genome {
    outer_is_m: bool,
    tiles: [usize; 4],
}

/// Genetic searcher over fused nests.
#[derive(Debug, Clone)]
pub struct FusedGenetic {
    model: CostModel,
    config: GeneticConfig,
    fitness: Fitness,
    sim_mode: SimMode,
    parallelism: Option<Parallelism>,
}

impl FusedGenetic {
    /// Creates a searcher with default hyper-parameters.
    pub fn new(model: CostModel) -> FusedGenetic {
        FusedGenetic {
            model,
            config: GeneticConfig::default(),
            fitness: Fitness::Analytical,
            sim_mode: SimMode::TrafficOnly,
            parallelism: None,
        }
    }

    /// Creates a searcher with explicit hyper-parameters.
    ///
    /// # Panics
    ///
    /// Panics when the configuration cannot run.
    pub fn with_config(model: CostModel, config: GeneticConfig) -> FusedGenetic {
        assert!(config.population >= 2, "population must hold two parents");
        assert!(config.tournament >= 1, "tournament size must be positive");
        FusedGenetic {
            model,
            config,
            fitness: Fitness::Analytical,
            sim_mode: SimMode::TrafficOnly,
            parallelism: None,
        }
    }

    /// Selects the fitness backend (see [`crate::fitness::Fitness`]).
    /// [`Fitness::Simulated`] replays every genome's fused nest through
    /// the fabric driver; combined with [`SimMode::Full`] it flips
    /// population scoring to [`Parallelism::Auto`] by default (the
    /// default [`SimMode::TrafficOnly`] replay is closed-form and stays
    /// serial). [`Fitness::Latency`] ranks by the arch cycle model
    /// (`max(compute, DRAM)`), so the winning fused nest may
    /// legitimately differ from the minimum-traffic one.
    pub fn with_fitness(mut self, fitness: Fitness) -> FusedGenetic {
        self.fitness = fitness;
        self
    }

    /// Selects the simulated replay mode (ignored by the analytical
    /// backend); see [`crate::GeneticSearch::with_sim_mode`].
    pub fn with_sim_mode(mut self, mode: SimMode) -> FusedGenetic {
        self.sim_mode = mode;
        self
    }

    /// Overrides the population-scoring parallelism. As in
    /// [`crate::genetic::GeneticSearch`], results are identical to a
    /// serial run: scoring is pure and all randomness stays on the single
    /// caller-side RNG stream.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> FusedGenetic {
        self.parallelism = Some(parallelism);
        self
    }

    /// The parallelism population scoring actually runs with: an
    /// explicit setting always wins, else the cost-aware default over
    /// the final resolved `(fitness, sim_mode)` pair — see
    /// [`crate::GeneticSearch::effective_parallelism`].
    pub fn effective_parallelism(&self) -> Parallelism {
        self.parallelism.unwrap_or(if self.fitness.prefers_parallel_scoring(self.sim_mode) {
            Parallelism::Auto
        } else {
            Parallelism::Serial
        })
    }

    /// Runs the GA; `None` when even the unit fused tiling does not fit.
    pub fn optimize(&self, pair: FusedPair, bs: u64) -> Option<(FusedDataflow, u64)> {
        let unit = FusedNest::new(true, FusedTiling::new(1, 1, 1, 1));
        if !unit.fits(&pair, bs) {
            return None;
        }
        let candidates: [Vec<u64>; 4] = [FusedDim::M, FusedDim::K, FusedDim::L, FusedDim::N]
            .map(|d| balanced_tiles(pair.dim(d)));
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut evaluations = 0u64;
        let scorer = FusedScorer::new(self.fitness, self.model, pair).with_sim_mode(self.sim_mode);
        let parallelism = self.effective_parallelism();

        // Pure, so a population can be scored from any worker thread; the
        // session only carries reusable scratch, never score state.
        let fitness = |session: &mut FusedSession, g: &Genome| -> u64 {
            let nest = FusedNest::new(
                g.outer_is_m,
                FusedTiling::new(
                    candidates[0][g.tiles[0]],
                    candidates[1][g.tiles[1]],
                    candidates[2][g.tiles[2]],
                    candidates[3][g.tiles[3]],
                ),
            );
            let footprint = nest.footprint(&pair);
            if footprint > bs {
                return u64::MAX / 2 + (footprint - bs).min(u64::MAX / 4);
            }
            session.score(&nest)
        };
        // Per-round counting keeps `evaluations` independent of how
        // scoring is parallelized (every genome scores exactly once).
        // Each worker opens one scoring session per generation.
        let score = |pop: &[Genome]| -> Vec<(u64, Genome)> {
            par_map_batched(
                parallelism,
                pop,
                || scorer.session(),
                |session, _, g| (fitness(session, g), *g),
            )
        };

        let mut population = vec![Genome {
            outer_is_m: true,
            tiles: [0; 4],
        }];
        while population.len() < self.config.population {
            population.push(Genome {
                outer_is_m: rng.gen_bool(0.5),
                tiles: [
                    rng.gen_range(0..candidates[0].len()),
                    rng.gen_range(0..candidates[1].len()),
                    rng.gen_range(0..candidates[2].len()),
                    rng.gen_range(0..candidates[3].len()),
                ],
            });
        }
        let mut scored = score(&population);
        evaluations += population.len() as u64;
        scored.sort_by_key(|(f, _)| *f);

        for _ in 0..self.config.generations {
            let mut next: Vec<Genome> = scored
                .iter()
                .take(self.config.elitism)
                .map(|(_, g)| *g)
                .collect();
            while next.len() < self.config.population {
                let parent = |rng: &mut StdRng| -> Genome {
                    let mut best = scored[rng.gen_range(0..scored.len())];
                    for _ in 1..self.config.tournament {
                        let c = scored[rng.gen_range(0..scored.len())];
                        if c.0 < best.0 {
                            best = c;
                        }
                    }
                    best.1
                };
                let (pa, pb) = (parent(&mut rng), parent(&mut rng));
                let mut child = Genome {
                    outer_is_m: if rng.gen_bool(0.5) {
                        pa.outer_is_m
                    } else {
                        pb.outer_is_m
                    },
                    tiles: [0; 4],
                };
                for (i, (gene, pool)) in child.tiles.iter_mut().zip(&candidates).enumerate() {
                    *gene = if rng.gen_bool(0.5) {
                        pa.tiles[i]
                    } else {
                        pb.tiles[i]
                    };
                    if rng.gen_bool(self.config.mutation_rate) {
                        *gene = rng.gen_range(0..pool.len());
                    }
                }
                if rng.gen_bool(self.config.mutation_rate) {
                    child.outer_is_m = !child.outer_is_m;
                }
                next.push(child);
            }
            scored = score(&next);
            evaluations += next.len() as u64;
            scored.sort_by_key(|(f, _)| *f);
        }

        let (_, best) = scored[0];
        let nest = FusedNest::new(
            best.outer_is_m,
            FusedTiling::new(
                candidates[0][best.tiles[0]],
                candidates[1][best.tiles[1]],
                candidates[2][best.tiles[2]],
                candidates[3][best.tiles[3]],
            ),
        );
        Some((FusedDataflow::score(&self.model, pair, nest), evaluations))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusecu_fusion::optimize_pair;
    use fusecu_ir::MatMul;

    const MODEL: CostModel = CostModel {
        partial_sums: fusecu_dataflow::PartialSumPolicy::PerVisit,
    };

    fn pair(m: u64, k: u64, l: u64, n: u64) -> FusedPair {
        FusedPair::try_new(MatMul::new(m, k, l), MatMul::new(m, l, n)).unwrap()
    }

    #[test]
    fn finds_feasible_fused_nests() {
        let ga = FusedGenetic::new(MODEL);
        let p = pair(128, 32, 96, 64);
        for bs in [64u64, 2_048, 65_536] {
            let (d, evals) = ga.optimize(p, bs).unwrap();
            assert!(d.footprint() <= bs, "bs={bs}");
            assert!(evals > 0);
        }
    }

    #[test]
    fn never_beats_the_closed_forms() {
        let ga = FusedGenetic::new(MODEL);
        for p in [pair(64, 16, 48, 32), pair(96, 96, 96, 96), pair(40, 8, 120, 8)] {
            for bs in [128u64, 4_096, 50_000] {
                let (found, _) = ga.optimize(p, bs).unwrap();
                let principled = optimize_pair(&MODEL, p, bs).unwrap();
                assert!(
                    found.total_ma() >= principled.total_ma(),
                    "{p} bs={bs}: GA {} below closed form {}",
                    found.total_ma(),
                    principled.total_ma()
                );
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let p = pair(64, 64, 64, 64);
        let a = FusedGenetic::new(MODEL).optimize(p, 10_000).unwrap();
        let b = FusedGenetic::new(MODEL).optimize(p, 10_000).unwrap();
        assert_eq!(a.0.total_ma(), b.0.total_ma());
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn infeasible_buffer_returns_none() {
        assert!(FusedGenetic::new(MODEL).optimize(pair(8, 8, 8, 8), 2).is_none());
    }

    #[test]
    fn parallelism_decision_survives_builder_ordering() {
        // Cost-aware default over the final (fitness, sim_mode) pair,
        // independent of builder call order; explicit choice still wins.
        let sim = Fitness::Simulated;
        let fit_then_mode = FusedGenetic::new(MODEL).with_fitness(sim).with_sim_mode(SimMode::Full);
        let mode_then_fit = FusedGenetic::new(MODEL).with_sim_mode(SimMode::Full).with_fitness(sim);
        assert_eq!(fit_then_mode.effective_parallelism(), Parallelism::Auto);
        assert_eq!(mode_then_fit.effective_parallelism(), Parallelism::Auto);
        // Default TrafficOnly simulated scoring is closed form: serial.
        let cheap = FusedGenetic::new(MODEL).with_fitness(sim);
        assert_eq!(cheap.effective_parallelism(), Parallelism::Serial);
        let pinned = cheap.with_parallelism(Parallelism::Threads(3));
        assert_eq!(pinned.effective_parallelism(), Parallelism::Threads(3));
        // Downgrading Full → TrafficOnly after the fact flips the decision.
        let full_to_cheap = FusedGenetic::new(MODEL)
            .with_fitness(sim)
            .with_sim_mode(SimMode::Full)
            .with_sim_mode(SimMode::TrafficOnly);
        assert_eq!(full_to_cheap.effective_parallelism(), Parallelism::Serial);
    }

    #[test]
    fn simulated_fitness_serial_and_parallel_agree_exactly() {
        let p = pair(24, 10, 20, 12);
        let sim = Fitness::Simulated;
        for bs in [64u64, 2_000] {
            let analytical = FusedGenetic::new(MODEL).optimize(p, bs).unwrap();
            let serial = FusedGenetic::new(MODEL)
                .with_fitness(sim)
                .with_parallelism(Parallelism::Serial)
                .optimize(p, bs)
                .unwrap();
            // Paper accounting: the backends agree on every score, so the
            // winner and evaluation count match the analytical run too.
            assert_eq!(serial.0.total_ma(), analytical.0.total_ma(), "bs={bs}");
            assert_eq!(serial.1, analytical.1, "bs={bs}");
            for par in [Parallelism::Auto, Parallelism::Threads(4)] {
                let parallel = FusedGenetic::new(MODEL)
                    .with_fitness(sim)
                    .with_parallelism(par)
                    .optimize(p, bs)
                    .unwrap();
                assert_eq!(parallel.0, serial.0, "bs={bs} par={par:?}");
                assert_eq!(parallel.1, serial.1, "bs={bs} par={par:?}");
            }
        }
    }
}
