//! Search hyperparameters (paper Section 7.5 defaults).

use elivagar_circuit::Gate;

/// The pool of gates Algorithm 1 samples from.
#[derive(Clone, Debug, PartialEq)]
pub struct GateSet {
    /// Single-qubit gate choices.
    pub one_qubit: Vec<Gate>,
    /// Two-qubit gate choices (must contain at least one non-parametric
    /// gate so generation can always top up entanglement without spending
    /// parameter budget).
    pub two_qubit: Vec<Gate>,
}

impl GateSet {
    /// The RXYZ + CZ gate set from QuantumNAS (its best-performing set,
    /// used by the paper for both QuantumNAS and the Random baseline).
    pub fn rxyz_cz() -> Self {
        GateSet {
            one_qubit: vec![Gate::Rx, Gate::Ry, Gate::Rz],
            two_qubit: vec![Gate::Cz],
        }
    }

    /// Elivagar's richer default space: rotations and U3 plus CX/CZ and
    /// controlled/Ising entanglers.
    pub fn elivagar_default() -> Self {
        GateSet {
            one_qubit: vec![Gate::Rx, Gate::Ry, Gate::Rz, Gate::U3],
            two_qubit: vec![Gate::Cx, Gate::Cz, Gate::Crx, Gate::Cry, Gate::Crz, Gate::Rzz],
        }
    }
}

/// How candidate circuits obtain their data embedding (Fig. 10 ablation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EmbeddingPolicy {
    /// Co-search embeddings: random parametric gates are designated as
    /// embedding gates (Algorithm 1, line 14).
    #[default]
    Searched,
    /// Fixed angle embedding prepended to every candidate.
    FixedAngle,
    /// Fixed IQP embedding prepended to every candidate.
    FixedIqp,
}

/// Whether circuits are generated on device subgraphs (Algorithm 1) or
/// device-unaware with arbitrary connectivity (the Fig. 9 baseline, which
/// must then be routed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum GenerationStrategy {
    /// Device- and noise-aware generation on topology subgraphs.
    #[default]
    DeviceAware,
    /// Device-unaware all-to-all generation (routed with SABRE before
    /// execution).
    DeviceUnaware,
}

/// Which predictors rank the candidates (Fig. 9 ablation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SelectionStrategy {
    /// Pick a candidate uniformly at random.
    Random,
    /// Rank by RepCap only (no CNR rejection or weighting).
    RepCapOnly,
    /// Full Elivagar: CNR rejection then composite CNR/RepCap score.
    #[default]
    Full,
}

/// NSGA-II hyperparameters for the multi-objective evolutionary search
/// mode ([`StrategyChoice::Nsga2`]).
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub struct Nsga2Config {
    /// Population size per generation.
    pub population: usize,
    /// Offspring generations after the initial population.
    pub generations: usize,
    /// Probability that a child is produced by crossover (otherwise it is
    /// a mutated clone of the first tournament winner).
    pub crossover_rate: f64,
    /// Probability that a child receives one mutation operator
    /// application on top of crossover/cloning.
    pub mutation_rate: f64,
}

impl Default for Nsga2Config {
    fn default() -> Self {
        Nsga2Config {
            population: 16,
            generations: 8,
            crossover_rate: 0.9,
            mutation_rate: 0.9,
        }
    }
}

impl Nsga2Config {
    /// Sets the population size.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` (tournaments need two members).
    pub fn with_population(mut self, n: usize) -> Self {
        assert!(n >= 2, "NSGA-II needs a population of at least 2");
        self.population = n;
        self
    }

    /// Sets the number of offspring generations.
    pub fn with_generations(mut self, n: usize) -> Self {
        self.generations = n;
        self
    }
}

/// Which search driver proposes and selects candidates.
///
/// `OneShot` is the paper's pipeline: sample `num_candidates` circuits
/// once, rank by the composite CNR/RepCap score, pick the top one.
/// `Nsga2` evolves candidates toward a Pareto front over
/// (RepCap, CNR, two-qubit count, depth) with mutation/crossover over the
/// candidate IR.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum StrategyChoice {
    /// The paper's one-shot sample-and-rank pipeline.
    #[default]
    OneShot,
    /// NSGA-II multi-objective evolutionary search.
    Nsga2(Nsga2Config),
}

/// All knobs of one Elivagar search.
///
/// Construct with [`SearchConfig::for_task`] and refine through the
/// `with_*` builders; the struct is `#[non_exhaustive]` so new knobs can
/// be added without breaking downstream crates.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub struct SearchConfig {
    /// Candidate circuits to generate (`N_C`).
    pub num_candidates: usize,
    /// Qubits per candidate circuit.
    pub num_qubits: usize,
    /// Trainable parameter budget (Table 2).
    pub param_budget: usize,
    /// Number of embedding gate-slots (`O_conf.n_embeds`).
    pub num_embed_gates: usize,
    /// Measured qubits (`O_conf.n_meas`).
    pub num_measured: usize,
    /// Input feature dimensionality.
    pub feature_dim: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Probability that a sampled gate is two-qubit.
    pub two_qubit_fraction: f64,
    /// Gate pool.
    pub gateset: GateSet,
    /// Subgraphs drawn per candidate before the quality-weighted pick
    /// (Algorithm 1, line 1).
    pub subgraph_candidates: usize,
    /// Clifford replicas per candidate (`M`, paper default 32).
    pub clifford_replicas: usize,
    /// Noisy stabilizer trajectories per replica.
    pub cnr_trajectories: usize,
    /// Finite shots per CNR measurement. `None` (the default) compares
    /// each replica's exact ideal and noisy distributions; `Some(shots)`
    /// makes [`crate::cnr::cnr`] compare `shots`-sample histograms of the
    /// two instead, adding hardware-realistic sampling noise. `Some(0)`
    /// makes `cnr` panic.
    pub cnr_shots: Option<usize>,
    /// Absolute CNR rejection threshold (paper default 0.7).
    pub cnr_threshold: f64,
    /// Fraction of candidates kept after CNR ranking (paper default 0.5).
    pub cnr_keep_fraction: f64,
    /// RepCap samples per class (`d_c`, paper default 16).
    pub repcap_samples_per_class: usize,
    /// RepCap parameter initializations (`n_p`, paper default 32).
    pub repcap_param_inits: usize,
    /// Random measurement bases per representation (`n_bases`).
    pub repcap_bases: usize,
    /// CNR weight in the composite score (`alpha_CNR`, paper default 0.5).
    pub alpha_cnr: f64,
    /// Per-candidate evaluation budget in circuit executions across the
    /// CNR and RepCap stages. A candidate whose next stage would exceed
    /// the budget is quarantined ("skipped") instead of evaluated, so a
    /// pathological circuit degrades gracefully rather than monopolizing
    /// the pool. `None` (the default) is unlimited.
    pub eval_budget: Option<u64>,
    /// Embedding policy.
    pub embedding: EmbeddingPolicy,
    /// Generation strategy.
    pub generation: GenerationStrategy,
    /// Selection strategy.
    pub selection: SelectionStrategy,
    /// Search driver: the paper's one-shot pipeline or NSGA-II evolution.
    pub strategy: StrategyChoice,
    /// Post-search cohort training: train the top
    /// [`elivagar_ml::TrainConfig::cohort`] candidates together through
    /// fused cross-candidate dispatches (with optional successive-halving
    /// early termination via
    /// [`elivagar_ml::TrainConfig::halving_rungs`]). `None` (the default)
    /// skips training, the historical behavior.
    pub train: Option<elivagar_ml::TrainConfig>,
    /// RNG seed.
    pub seed: u64,
}

impl SearchConfig {
    /// Paper-default hyperparameters for a task shape.
    pub fn for_task(
        num_qubits: usize,
        param_budget: usize,
        feature_dim: usize,
        num_classes: usize,
    ) -> Self {
        let num_measured = if num_classes == 2 {
            1
        } else {
            num_classes.min(num_qubits)
        };
        SearchConfig {
            num_candidates: 64,
            num_qubits,
            param_budget,
            // One embedding slot per input feature so searched embeddings
            // can cover the whole input (they cost no trainable budget).
            num_embed_gates: feature_dim.max(2),
            num_measured,
            feature_dim,
            num_classes,
            two_qubit_fraction: 0.35,
            gateset: GateSet::elivagar_default(),
            subgraph_candidates: 8,
            clifford_replicas: 32,
            cnr_trajectories: 64,
            cnr_shots: None,
            cnr_threshold: 0.7,
            cnr_keep_fraction: 0.5,
            repcap_samples_per_class: 16,
            repcap_param_inits: 32,
            repcap_bases: 4,
            alpha_cnr: 0.5,
            eval_budget: None,
            embedding: EmbeddingPolicy::default(),
            generation: GenerationStrategy::default(),
            selection: SelectionStrategy::default(),
            strategy: StrategyChoice::default(),
            train: None,
            seed: 0,
        }
    }

    /// A reduced-cost variant for tests and smoke benchmarks: fewer
    /// candidates, replicas, and parameter initializations.
    pub fn fast(mut self) -> Self {
        self.num_candidates = self.num_candidates.min(12);
        self.clifford_replicas = 8;
        self.cnr_trajectories = 16;
        self.repcap_samples_per_class = 4;
        self.repcap_param_inits = 4;
        self.repcap_bases = 2;
        self
    }

    /// Sets the candidate pool size (`N_C`). Prefer this over mutating
    /// [`SearchConfig::num_candidates`] directly — the builders keep call
    /// sites stable if the config representation changes.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_candidates(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one candidate");
        self.num_candidates = n;
        self
    }

    /// Scores CNR from `shots` finite measurement shots per replica
    /// instead of exact distributions, matching how a hardware CNR
    /// measurement behaves.
    ///
    /// # Panics
    ///
    /// Panics if `shots` is zero.
    pub fn with_shots(mut self, shots: usize) -> Self {
        assert!(shots > 0, "need at least one shot");
        self.cnr_shots = Some(shots);
        self
    }

    /// Sets the search seed. Everything downstream — candidate generation,
    /// CNR replicas, RepCap parameter draws — derives from it.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the search driver: the paper's one-shot pipeline
    /// ([`StrategyChoice::OneShot`]) or NSGA-II evolution.
    pub fn with_strategy(mut self, strategy: StrategyChoice) -> Self {
        self.strategy = strategy;
        self
    }

    /// Switches the search to NSGA-II multi-objective evolution with the
    /// given hyperparameters. Shorthand for
    /// `with_strategy(StrategyChoice::Nsga2(params))`.
    pub fn with_nsga2(self, params: Nsga2Config) -> Self {
        self.with_strategy(StrategyChoice::Nsga2(params))
    }

    /// Trains the top [`elivagar_ml::TrainConfig::cohort`] candidates
    /// after selection, as one fused cohort. Shorthand for setting
    /// [`SearchConfig::train`].
    pub fn with_train(mut self, train: elivagar_ml::TrainConfig) -> Self {
        self.train = Some(train);
        self
    }

    /// Caps the circuit executions any single candidate may spend across
    /// its CNR and RepCap evaluations; candidates over the cap are
    /// quarantined instead of evaluated.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero.
    pub fn with_eval_budget(mut self, budget: u64) -> Self {
        assert!(budget > 0, "evaluation budget must be positive");
        self.eval_budget = Some(budget);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_section_7_5() {
        let c = SearchConfig::for_task(4, 20, 4, 2);
        assert_eq!(c.clifford_replicas, 32);
        assert_eq!(c.repcap_samples_per_class, 16);
        assert_eq!(c.repcap_param_inits, 32);
        assert!((c.cnr_threshold - 0.7).abs() < 1e-12);
        assert!((c.cnr_keep_fraction - 0.5).abs() < 1e-12);
        assert!((c.alpha_cnr - 0.5).abs() < 1e-12);
        assert_eq!(c.num_measured, 1);
    }

    #[test]
    fn multiclass_measures_one_qubit_per_class() {
        let c = SearchConfig::for_task(10, 72, 36, 10);
        assert_eq!(c.num_measured, 10);
    }

    #[test]
    fn builders_compose_and_defaults_stay_exact() {
        let c = SearchConfig::for_task(4, 20, 4, 2)
            .with_candidates(5)
            .with_shots(1024)
            .with_seed(99);
        assert_eq!(c.num_candidates, 5);
        assert_eq!(c.cnr_shots, Some(1024));
        assert_eq!(c.seed, 99);
        assert_eq!(SearchConfig::for_task(4, 20, 4, 2).cnr_shots, None);
    }

    #[test]
    #[should_panic(expected = "at least one shot")]
    fn zero_shots_is_rejected() {
        let _ = SearchConfig::for_task(4, 20, 4, 2).with_shots(0);
    }

    #[test]
    fn strategy_defaults_to_one_shot_and_builder_switches_it() {
        let c = SearchConfig::for_task(4, 20, 4, 2);
        assert_eq!(c.strategy, StrategyChoice::OneShot);
        let evolved = c.with_nsga2(Nsga2Config::default().with_population(8).with_generations(4));
        match &evolved.strategy {
            StrategyChoice::Nsga2(p) => {
                assert_eq!(p.population, 8);
                assert_eq!(p.generations, 4);
            }
            other => panic!("unexpected strategy {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "population of at least 2")]
    fn degenerate_nsga2_population_is_rejected() {
        let _ = Nsga2Config::default().with_population(1);
    }

    #[test]
    fn gatesets_contain_nonparametric_two_qubit_gates() {
        for set in [GateSet::rxyz_cz(), GateSet::elivagar_default()] {
            assert!(set.two_qubit.iter().any(|g| !g.is_parametric()));
        }
    }
}
