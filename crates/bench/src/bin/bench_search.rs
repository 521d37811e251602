//! Records the search-strategy trajectory point (`BENCH_search.json`):
//! one-shot sample-and-rank versus NSGA-II evolution at matched
//! evaluation budgets.
//!
//! NSGA-II with population P over G generations scores P*(G+1)
//! candidates, so the fair one-shot comparison samples exactly that many
//! circuits in a single round. Both strategies share the reference
//! workload (moons on ibm_lagos), the same seed, and the same composite
//! score, so the `quality_ratio` column isolates what the evolutionary
//! operators buy per evaluation. The binary asserts that evolution spends
//! exactly the granted budget, and exits 1 unless the front is
//! non-degenerate at every budget: `front_size >= 2` mutually
//! non-dominated circuits.

use elivagar::{run_search, Nsga2Config, RunOptions, SearchConfig};
use elivagar_bench::{gate, time_ns, Bound};
use elivagar_datasets::moons;
use serde::Serialize;
use std::process::ExitCode;

#[derive(Serialize)]
struct Report {
    threads: usize,
    budgets: Vec<Budget>,
}

#[derive(Serialize)]
struct Budget {
    /// Total candidate evaluations granted to each strategy.
    evals: usize,
    population: usize,
    generations: usize,
    oneshot_best_score: f64,
    nsga2_best_score: f64,
    /// `nsga2_best_score / oneshot_best_score`: > 1 means evolution found
    /// a better circuit than sampling the same number of random ones.
    quality_ratio: f64,
    /// Mutually non-dominated circuits over (RepCap, CNR, 2q count,
    /// depth) on the final front.
    front_size: usize,
    oneshot_wall_ns: u64,
    nsga2_wall_ns: u64,
}

fn reference_config() -> SearchConfig {
    let mut config = SearchConfig::for_task(3, 8, 2, 2).fast();
    config.num_candidates = 6;
    config
}

fn main() -> ExitCode {
    let device = elivagar_device::devices::ibm_lagos();
    let dataset = moons(60, 20, 3).normalized(std::f64::consts::PI);

    let mut budgets = Vec::new();
    for (population, generations) in [(6usize, 2usize), (8, 4)] {
        let evals = population * (generations + 1);

        let mut oneshot = reference_config();
        oneshot.num_candidates = evals;
        let (oneshot_wall_ns, oneshot_result) = time_ns(|| {
            run_search(&device, &dataset, &oneshot, &RunOptions::default())
                .expect("one-shot search on the reference workload")
        });
        let oneshot_best = oneshot_result.scored[0].score.expect("sorted by score");

        let nsga2 = reference_config().with_nsga2(
            Nsga2Config::default()
                .with_population(population)
                .with_generations(generations),
        );
        let (nsga2_wall_ns, nsga2_result) = time_ns(|| {
            run_search(&device, &dataset, &nsga2, &RunOptions::default())
                .expect("nsga2 search on the reference workload")
        });
        let nsga2_best = nsga2_result.scored[0].score.expect("sorted by score");
        let front = nsga2_result.pareto.expect("nsga2 surfaces a front");

        assert_eq!(
            nsga2_result.scored.len(),
            evals,
            "evolution must spend exactly the granted budget"
        );
        budgets.push(Budget {
            evals,
            population,
            generations,
            oneshot_best_score: oneshot_best,
            nsga2_best_score: nsga2_best,
            quality_ratio: nsga2_best / oneshot_best,
            front_size: front.members.len(),
            oneshot_wall_ns,
            nsga2_wall_ns,
        });
    }

    let bounds: Vec<Bound> = budgets
        .iter()
        .map(|b| Bound::at_least(&format!("front_size at {} evals", b.evals), b.front_size, 2))
        .collect();
    let report = Report { threads: elivagar_sim::num_threads(), budgets };
    gate::finish("search", &report, &bounds)
}
