//! A DAT/GAMMA-style genetic dataflow searcher.
//!
//! DAT \[15\] couples mixed-integer programming with a genetic algorithm;
//! GAMMA \[7\] searches mappings with a GA outright. This module implements
//! the GA half faithfully enough to reproduce its characteristic behavior
//! in Fig 9: it usually finds the optimum, but carries no guarantee — on
//! some (shape, buffer) points it returns a slightly worse dataflow than
//! the principles, exactly as the paper reports for DAT.
//!
//! The genome is `(loop order, tile-index per dimension)` over the balanced
//! tile representatives, i.e. the same space the exhaustive oracle scans.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fusecu_dataflow::{CostModel, LoopNest, Tiling};
use fusecu_ir::{MatMul, MmDim};

use crate::exhaustive::SearchResult;
use crate::fitness::{Fitness, NestScorer, NestSession};
use fusecu_sim::SimMode;
use crate::parallel::{par_map_batched, Parallelism};
use crate::space::balanced_tiles;

/// Hyper-parameters of the genetic searcher.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneticConfig {
    /// Individuals per generation.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// Individuals copied unchanged into the next generation.
    pub elitism: usize,
    /// RNG seed; searches are deterministic given the seed.
    pub seed: u64,
}

impl Default for GeneticConfig {
    fn default() -> GeneticConfig {
        GeneticConfig {
            population: 64,
            generations: 60,
            tournament: 3,
            mutation_rate: 0.15,
            elitism: 2,
            seed: 0xF05E_C0DE,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Genome {
    order: usize,      // index into LoopNest::orders()
    tiles: [usize; 3], // indices into the per-dim candidate lists
}

/// The genetic searcher.
#[derive(Debug, Clone)]
pub struct GeneticSearch {
    model: CostModel,
    config: GeneticConfig,
    fitness: Fitness,
    sim_mode: SimMode,
    parallelism: Option<Parallelism>,
}

impl GeneticSearch {
    /// Creates a searcher with default hyper-parameters.
    ///
    /// Population scoring defaults to serial for every closed-form
    /// backend — analytical, latency, and [`Fitness::Simulated`] in its
    /// default [`SimMode::TrafficOnly`] replay, all of which score a
    /// genome in nanoseconds, far below the cost of a thread handoff.
    /// Only `Simulated` + [`SimMode::Full`] (real data movement per
    /// genome) flips the default to [`Parallelism::Auto`]; the sweep
    /// engine already saturates cores *across* GA calls either way.
    /// [`GeneticSearch::with_parallelism`] overrides any default.
    pub fn new(model: CostModel) -> GeneticSearch {
        GeneticSearch {
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
    /// Panics when the configuration cannot run (population below two or an
    /// empty tournament).
    pub fn with_config(model: CostModel, config: GeneticConfig) -> GeneticSearch {
        assert!(config.population >= 2, "population must hold two parents");
        assert!(config.tournament >= 1, "tournament size must be positive");
        GeneticSearch {
            model,
            config,
            fitness: Fitness::Analytical,
            sim_mode: SimMode::TrafficOnly,
            parallelism: None,
        }
    }

    /// Selects the fitness backend (see [`Fitness`]). The winner and the
    /// evaluation count are byte-identical across the traffic backends for
    /// paper accounting; the simulated backend re-derives the objective
    /// from the fabric instead of trusting the model, and
    /// [`Fitness::Latency`] optimizes cycles instead of traffic (so its
    /// winner may legitimately differ).
    pub fn with_fitness(mut self, fitness: Fitness) -> GeneticSearch {
        self.fitness = fitness;
        self
    }

    /// Selects the simulated replay mode (ignored by the analytical and
    /// latency backends). The default [`SimMode::TrafficOnly`] scores
    /// through the driver's closed-form fast path; [`SimMode::Full`]
    /// replays real operand data through shared scratch arenas. Scores are
    /// identical either way.
    pub fn with_sim_mode(mut self, mode: SimMode) -> GeneticSearch {
        self.sim_mode = mode;
        self
    }

    /// Scores each generation's population through
    /// [`par_map_batched`] with the given parallelism. The result is
    /// identical to a serial run: fitness evaluation is pure, scored
    /// populations keep their generation order (the sort is stable), and
    /// all randomness — seeding, selection, crossover, mutation — stays
    /// on the single caller-side RNG stream.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> GeneticSearch {
        self.parallelism = Some(parallelism);
        self
    }

    /// The parallelism population scoring actually runs with: an explicit
    /// [`GeneticSearch::with_parallelism`] choice always wins; otherwise
    /// the decision is **cost-aware** over the final resolved
    /// `(fitness, sim_mode)` pair — [`Parallelism::Auto`] only for
    /// [`Fitness::Simulated`] in [`SimMode::Full`] (the one backend whose
    /// per-genome cost amortizes a thread handoff), serial for every
    /// closed-form backend including the default
    /// [`SimMode::TrafficOnly`]. Evaluated lazily, so
    /// `with_fitness`/`with_sim_mode` construction order never changes
    /// the answer.
    pub fn effective_parallelism(&self) -> Parallelism {
        self.parallelism.unwrap_or(if self.fitness.prefers_parallel_scoring(self.sim_mode) {
            Parallelism::Auto
        } else {
            Parallelism::Serial
        })
    }

    /// Runs the GA; `None` when even the unit tiling does not fit.
    pub fn optimize(&self, mm: MatMul, bs: u64) -> Option<SearchResult> {
        if !Tiling::new(1, 1, 1).fits(mm, bs) {
            return None;
        }
        let candidates: [Vec<u64>; 3] =
            [MmDim::M, MmDim::K, MmDim::L].map(|d| balanced_tiles(mm.dim(d)));
        let orders = LoopNest::orders();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut evaluations = 0u64;
        let scorer = NestScorer::new(self.fitness, self.model, mm).with_sim_mode(self.sim_mode);
        let parallelism = self.effective_parallelism();

        // Pure, so a population can be scored from any worker thread; the
        // session only carries reusable scratch, never score state.
        let fitness = |session: &mut NestSession, g: &Genome| -> u64 {
            let tiling = Tiling::new(
                candidates[0][g.tiles[0]],
                candidates[1][g.tiles[1]],
                candidates[2][g.tiles[2]],
            );
            let footprint = tiling.buffer_elems(mm);
            if footprint > bs {
                // Infeasible: heavily penalized, but graded so the GA can
                // climb back toward feasibility. Never simulated — an
                // infeasible nest has no buffer schedule to replay.
                return u64::MAX / 2 + (footprint - bs).min(u64::MAX / 4);
            }
            session.score(&LoopNest::new(orders[g.order], tiling))
        };
        // Every genome is scored exactly once per round, so counting by
        // round keeps `evaluations` identical to per-call counting — and
        // independent of how scoring is parallelized. Each worker opens
        // one scoring session per generation (one scratch checkout per
        // claimed batch, not per genome).
        let score = |pop: &[Genome]| -> Vec<(u64, Genome)> {
            par_map_batched(
                parallelism,
                pop,
                || scorer.session(),
                |session, _, g| (fitness(session, g), *g),
            )
        };

        // Seed with the always-feasible unit tiling plus random genomes.
        let mut population: Vec<Genome> = Vec::with_capacity(self.config.population);
        population.push(Genome {
            order: 0,
            tiles: [0, 0, 0],
        });
        while population.len() < self.config.population {
            population.push(Genome {
                order: rng.gen_range(0..orders.len()),
                tiles: [
                    rng.gen_range(0..candidates[0].len()),
                    rng.gen_range(0..candidates[1].len()),
                    rng.gen_range(0..candidates[2].len()),
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
                // Uniform crossover over the four genes.
                let mut child = Genome {
                    order: if rng.gen_bool(0.5) { pa.order } else { pb.order },
                    tiles: [0; 3],
                };
                for i in 0..3 {
                    child.tiles[i] = if rng.gen_bool(0.5) {
                        pa.tiles[i]
                    } else {
                        pb.tiles[i]
                    };
                }
                // Mutation.
                if rng.gen_bool(self.config.mutation_rate) {
                    child.order = rng.gen_range(0..orders.len());
                }
                for (gene, pool) in child.tiles.iter_mut().zip(&candidates) {
                    if rng.gen_bool(self.config.mutation_rate) {
                        *gene = rng.gen_range(0..pool.len());
                    }
                }
                next.push(child);
            }
            scored = score(&next);
            evaluations += next.len() as u64;
            scored.sort_by_key(|(f, _)| *f);
        }

        let (best_fitness, best) = scored[0];
        debug_assert!(best_fitness < u64::MAX / 2, "unit tiling seed is feasible");
        let tiling = Tiling::new(
            candidates[0][best.tiles[0]],
            candidates[1][best.tiles[1]],
            candidates[2][best.tiles[2]],
        );
        let df = self
            .model
            .dataflow(mm, LoopNest::new(orders[best.order], tiling));
        Some(SearchResult::new(df, evaluations))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::ExhaustiveSearch;

    const MODEL: CostModel = CostModel {
        partial_sums: fusecu_dataflow::PartialSumPolicy::PerVisit,
    };

    #[test]
    fn finds_feasible_solutions() {
        let ga = GeneticSearch::new(MODEL);
        let mm = MatMul::new(256, 96, 192);
        for bs in [64u64, 4_096, 100_000] {
            let r = ga.optimize(mm, bs).unwrap();
            assert!(r.best().buffer_elems() <= bs, "bs={bs}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mm = MatMul::new(128, 128, 128);
        let a = GeneticSearch::new(MODEL).optimize(mm, 10_000).unwrap();
        let b = GeneticSearch::new(MODEL).optimize(mm, 10_000).unwrap();
        assert_eq!(a.best().total_ma(), b.best().total_ma());
        assert_eq!(a.evaluations(), b.evaluations());
    }

    #[test]
    fn close_to_exhaustive_optimum() {
        // The GA should land within a small factor of the oracle — the
        // paper's Fig 9 shows DAT tracking the principles closely, with
        // occasional misses.
        let mm = MatMul::new(384, 96, 256);
        let oracle = ExhaustiveSearch::new(MODEL);
        let ga = GeneticSearch::new(MODEL);
        for bs in [512u64, 8_192, 131_072] {
            let opt = oracle.optimize(mm, bs).best().total_ma();
            let found = ga.optimize(mm, bs).unwrap().best().total_ma();
            assert!(found >= opt, "GA cannot beat the oracle");
            assert!(
                (found as f64) <= 1.25 * opt as f64,
                "bs={bs}: GA at {found}, oracle at {opt}"
            );
        }
    }

    #[test]
    fn infeasible_buffer_returns_none() {
        assert!(GeneticSearch::new(MODEL)
            .optimize(MatMul::new(8, 8, 8), 2)
            .is_none());
    }

    #[test]
    fn parallel_scoring_matches_serial_exactly() {
        // The acceptance bar for ROADMAP item 1: same seed, same answer,
        // same evaluation count, regardless of worker count.
        let mm = MatMul::new(384, 96, 256);
        for bs in [512u64, 8_192, 131_072] {
            let serial = GeneticSearch::new(MODEL)
                .with_parallelism(Parallelism::Serial)
                .optimize(mm, bs)
                .unwrap();
            for par in [Parallelism::Auto, Parallelism::Threads(4)] {
                let parallel = GeneticSearch::new(MODEL)
                    .with_parallelism(par)
                    .optimize(mm, bs)
                    .unwrap();
                assert_eq!(parallel, serial, "bs={bs} par={par:?}");
            }
        }
    }

    #[test]
    fn simulated_fitness_matches_analytical_winner() {
        // Under paper accounting measured traffic equals the model
        // exactly, so the two backends must pick byte-identical winners
        // with byte-identical evaluation counts.
        let mm = MatMul::new(48, 24, 36);
        for bs in [96u64, 1_024, 20_000] {
            let analytical = GeneticSearch::new(MODEL).optimize(mm, bs).unwrap();
            let simulated = GeneticSearch::new(MODEL)
                .with_fitness(crate::fitness::Fitness::Simulated)
                .optimize(mm, bs)
                .unwrap();
            assert_eq!(simulated, analytical, "bs={bs}");
        }
    }

    #[test]
    fn simulated_fitness_serial_and_parallel_agree_exactly() {
        // The tentpole acceptance bar: a serial simulated run and a
        // parallel simulated run at the same seed are byte-identical.
        let mm = MatMul::new(48, 24, 36);
        let sim = crate::fitness::Fitness::Simulated;
        for bs in [96u64, 1_024, 20_000] {
            let serial = GeneticSearch::new(MODEL)
                .with_fitness(sim)
                .with_parallelism(Parallelism::Serial)
                .optimize(mm, bs)
                .unwrap();
            for par in [Parallelism::Auto, Parallelism::Threads(4)] {
                let parallel = GeneticSearch::new(MODEL)
                    .with_fitness(sim)
                    .with_parallelism(par)
                    .optimize(mm, bs)
                    .unwrap();
                assert_eq!(parallel, serial, "bs={bs} par={par:?}");
            }
        }
    }

    #[test]
    fn latency_fitness_finds_feasible_nests_deterministically() {
        // The latency backend is a genuinely different objective, but it
        // still has to respect buffer feasibility and the single-RNG
        // determinism contract of the GA.
        let fit = crate::fitness::Fitness::Latency(fusecu_arch::ArraySpec::paper_default());
        let mm = MatMul::new(256, 96, 192);
        for bs in [512u64, 8_192, 100_000] {
            let a = GeneticSearch::new(MODEL)
                .with_fitness(fit)
                .optimize(mm, bs)
                .unwrap();
            assert!(a.best().buffer_elems() <= bs, "bs={bs}");
            let b = GeneticSearch::new(MODEL)
                .with_fitness(fit)
                .optimize(mm, bs)
                .unwrap();
            assert_eq!(a, b, "bs={bs}: latency GA must be deterministic");
        }
    }

    #[test]
    fn parallelism_default_is_cost_aware() {
        let ga = GeneticSearch::new(MODEL);
        assert_eq!(ga.effective_parallelism(), Parallelism::Serial);
        // Simulated fitness in its default TrafficOnly mode is closed
        // form — cheaper than a thread handoff, so it must stay serial.
        let sim = ga.clone().with_fitness(crate::fitness::Fitness::Simulated);
        assert_eq!(sim.effective_parallelism(), Parallelism::Serial);
        // Only full data-moving replay fans out by default.
        let full = sim.clone().with_sim_mode(SimMode::Full);
        assert_eq!(full.effective_parallelism(), Parallelism::Auto);
        // Latency is closed-form too.
        let lat = ga
            .clone()
            .with_fitness(crate::fitness::Fitness::Latency(fusecu_arch::ArraySpec::paper_default()));
        assert_eq!(lat.effective_parallelism(), Parallelism::Serial);
        // An explicit choice wins over every backend default.
        let pinned = full.with_parallelism(Parallelism::Threads(2));
        assert_eq!(pinned.effective_parallelism(), Parallelism::Threads(2));
        let forced = sim.with_parallelism(Parallelism::Auto);
        assert_eq!(forced.effective_parallelism(), Parallelism::Auto);
    }

    #[test]
    fn parallelism_decision_survives_builder_ordering() {
        // The decision must read the *final* (fitness, sim_mode) pair:
        // both builder orderings resolve identically, in both directions.
        let sim = crate::fitness::Fitness::Simulated;
        let fit_then_mode = GeneticSearch::new(MODEL).with_fitness(sim).with_sim_mode(SimMode::Full);
        let mode_then_fit = GeneticSearch::new(MODEL).with_sim_mode(SimMode::Full).with_fitness(sim);
        assert_eq!(fit_then_mode.effective_parallelism(), Parallelism::Auto);
        assert_eq!(mode_then_fit.effective_parallelism(), Parallelism::Auto);
        let back_to_cheap =
            GeneticSearch::new(MODEL).with_sim_mode(SimMode::Full).with_fitness(sim).with_sim_mode(SimMode::TrafficOnly);
        assert_eq!(back_to_cheap.effective_parallelism(), Parallelism::Serial);
    }

    #[test]
    fn tiny_config_still_runs() {
        let cfg = GeneticConfig {
            population: 2,
            generations: 1,
            tournament: 1,
            mutation_rate: 0.0,
            elitism: 1,
            seed: 7,
        };
        let r = GeneticSearch::with_config(MODEL, cfg)
            .optimize(MatMul::new(16, 16, 16), 100)
            .unwrap();
        assert!(r.best().buffer_elems() <= 100);
    }
}
