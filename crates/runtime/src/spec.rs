//! Job specifications: simulations as data.
//!
//! A [`JobSpec`] fully describes a Monte-Carlo simulation job — protocol
//! (by registry name and parameters), initial configuration, stopping
//! rule, optional adversary, trial count, master seed, round cap, and the
//! shard size of the executor. Specs serialise to and from JSON (see
//! [`crate::json`]) and hash to a stable content id that keys
//! checkpoints. Every key of every block is declared once, in the
//! `spec_blocks!` invocation below; the writer, the reader and its
//! unknown-key check follow from that declaration.
//!
//! Trial `t` of a job always derives its RNG as
//! `od_sampling::rng_for(master_seed, t)`, so results are bit-identical
//! to a direct `Simulation` loop over the same seeds (the reference loop
//! of `od-experiments`' `runtime_equivalence` test) regardless of shard
//! size or thread schedule.

use crate::error::RuntimeError;
use crate::json::{self, Json};
use crate::spec_keys::{read_block, spec_blocks, write_block, JOB};
use od_core::registry::{build_protocol, DynProtocol, ProtocolParams};
use od_core::OpinionCounts;

/// How the initial opinion configuration is constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InitialSpec {
    /// `n` vertices spread (near-)evenly over `k` opinions.
    Balanced {
        /// Number of vertices.
        n: u64,
        /// Number of opinions.
        k: usize,
    },
    /// Opinion 0 leads every other opinion by `margin` vertices.
    LeaderMargin {
        /// Number of vertices.
        n: u64,
        /// Number of opinions.
        k: usize,
        /// The leader's margin.
        margin: u64,
    },
    /// Explicit per-opinion counts.
    Counts(
        /// The counts vector.
        Vec<u64>,
    ),
}

/// The most opinion slots a job may configure. Building a configuration
/// allocates one `u64` per slot, so the cap bounds what any spec can make
/// validation allocate (128 MiB), far above every experiment's `k`.
const MAX_OPINIONS: usize = 1 << 24;

impl InitialSpec {
    /// Builds the configuration.
    ///
    /// # Errors
    ///
    /// Rejects more than 2²⁴ opinion slots as [`RuntimeError::Spec`] and
    /// propagates configuration errors as [`RuntimeError::Core`].
    pub fn build(&self) -> Result<OpinionCounts, RuntimeError> {
        let k = match self {
            Self::Balanced { k, .. } | Self::LeaderMargin { k, .. } => *k,
            Self::Counts(counts) => counts.len(),
        };
        if k > MAX_OPINIONS {
            return Err(spec_err(&format!(
                "initial: {k} opinion slots exceed the cap of {MAX_OPINIONS}"
            )));
        }
        let counts = match self {
            Self::Balanced { n, k } => OpinionCounts::balanced(*n, *k),
            Self::LeaderMargin { n, k, margin } => {
                OpinionCounts::with_leader_margin(*n, *k, *margin)
            }
            Self::Counts(counts) => OpinionCounts::from_counts(counts.clone()),
        };
        counts.map_err(|e| RuntimeError::Core(od_core::Error::Config(e)))
    }
}

/// When a trial stops (besides the round cap).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopRule {
    /// Run until full consensus (the default).
    Consensus,
    /// Stop once the plurality fraction reaches `threshold`.
    MaxFraction(
        /// The fraction threshold in `(0, 1]`.
        f64,
    ),
    /// Stop once `γ = Σ α_i²` reaches `threshold`.
    Gamma(
        /// The γ threshold in `(0, 1]`.
        f64,
    ),
}

impl StopRule {
    fn validate(&self) -> Result<(), RuntimeError> {
        let threshold = match self {
            Self::Consensus => return Ok(()),
            Self::MaxFraction(t) | Self::Gamma(t) => *t,
        };
        if threshold > 0.0 && threshold <= 1.0 {
            Ok(())
        } else {
            Err(spec_err("stop.threshold must be in (0, 1]"))
        }
    }
}

/// The executor's per-trial engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Track full outcomes: winner, final support, stop reason.
    Full,
    /// The same sample path as `Full`, recording no winner. Kept for its
    /// key and content hash; at a consensus round the stop rule is
    /// checked first, so a rule that holds there reports `Stopped`.
    Compacted,
}

/// The adversary corrupting the configuration each round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdversarySpec {
    /// Adversary strategy: `boost-runner-up`, `support-weakest`, or
    /// `random-noise`.
    pub kind: String,
    /// Per-round corruption budget `F`.
    pub budget: u64,
}

impl AdversarySpec {
    /// Instantiates the adversary.
    ///
    /// # Errors
    ///
    /// Returns a spec error for unknown kinds.
    pub fn build(&self) -> Result<Box<dyn od_core::adversary::Adversary + Send>, RuntimeError> {
        use od_core::adversary::{BoostRunnerUp, RandomNoise, SupportWeakest};
        match self.kind.as_str() {
            "boost-runner-up" => Ok(Box::new(BoostRunnerUp::new(self.budget))),
            "support-weakest" => Ok(Box::new(SupportWeakest::new(self.budget))),
            "random-noise" => Ok(Box::new(RandomNoise::new(self.budget))),
            other => Err(spec_err(&format!(
                "unknown adversary kind '{other}' (known: boost-runner-up, support-weakest, random-noise)"
            ))),
        }
    }
}

/// How the initial configuration is laid out over the graph's vertices.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum OpinionAssignment {
    /// Deal opinions round-robin over vertex ids (`v % k` for balanced
    /// starts) — the symmetric default.
    #[default]
    Striped,
    /// Contiguous vertex blocks per opinion — correlates opinion with
    /// community structure on block-structured graphs (SBM, barbell).
    Blocks,
    /// Per-community opinion mixes: row `b` gives the opinion fractions
    /// inside community `b` of the family's block structure
    /// ([`GraphFamily::community_blocks`]); counts are realised by
    /// largest-remainder rounding and dealt round-robin within the
    /// block. The job's `initial` contributes only `n` and `k`.
    Proportions(
        /// One fraction row per community; each row has `k` entries
        /// summing to 1.
        Vec<Vec<f64>>,
    ),
    /// One uniform opinion per community: community `b` wholly starts at
    /// `block_opinions[b]`. The job's `initial` contributes only `n`
    /// and `k`.
    PerBlock(
        /// One opinion index (`< k`) per community.
        Vec<u32>,
    ),
}

/// A graph family plus its parameters, as job data. The vertex count is
/// always the job's `initial` population size `n`.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphFamily {
    /// The complete graph with self-loops (the paper's substrate), as an
    /// *agent-level* workload.
    Complete,
    /// Erdős–Rényi `G(n, p)`, optionally over a Hamiltonian-cycle
    /// backbone.
    ErdosRenyi {
        /// Edge probability.
        p: f64,
        /// Adds the cycle `0–1–…–(n−1)–0` under the random edges, so the
        /// graph has no isolated vertices at any `p`. Sparse regimes
        /// (`p` below `≈ ln n / n`) produce isolated vertices with high
        /// probability and are otherwise rejected, because a degree-0
        /// vertex has no neighbor to pull an opinion from.
        backbone: bool,
    },
    /// Random `d`-regular graph (an expander w.h.p. for `d ≥ 3`).
    RandomRegular {
        /// Vertex degree.
        d: u64,
    },
    /// Two-community stochastic block model.
    StochasticBlockModel {
        /// Intra-community edge probability.
        p_in: f64,
        /// Inter-community edge probability.
        p_out: f64,
    },
    /// The cycle `C_n`.
    Cycle,
    /// The `width × height` torus grid (`width · height` must equal `n`).
    Torus2d {
        /// Grid width.
        width: u64,
        /// Grid height.
        height: u64,
    },
    /// Two `n/2`-cliques joined by one bridge edge (`n` must be even).
    Barbell,
    /// Clique core of `core` vertices plus `n − core` degree-1 periphery
    /// vertices.
    CorePeriphery {
        /// Core size.
        core: u64,
    },
    /// The star `K_{1,n−1}`.
    Star,
}

/// The most neighbor entries a generated graph may hold: two per edge
/// (one per self-loop), indexed by the CSR's `u32` offsets. The
/// random-regular stub count `n·d` is the same figure.
const MAX_NEIGHBOR_ENTRIES: u64 = u32::MAX as u64;

/// The most vertex pairs a stochastic-block-model spec may have. Its
/// generator flips one coin per pair whatever `p_in` and `p_out` are:
/// 2.5–4.3 ns a pair, measured as whole release `od-run` jobs at n =
/// 20 000 and 40 000 (p_in = 10⁻³, p_out = 5·10⁻⁴) on a 2-vCPU Xeon. The
/// cap, 2³³ pairs (n ≤ 131 072), so bounds one generation to about 20–40
/// s, where n = 10⁶ would flip 5·10¹¹ coins for 20 minutes or more.
const MAX_SBM_PAIRS: u64 = 1 << 33;

/// Rejects a random family whose expected edge count `edges` needs more
/// than [`MAX_NEIGHBOR_ENTRIES`], before anything is generated: a worker
/// would otherwise try to hold every edge.
fn check_edge_count(edges: f64, context: &str) -> Result<(), RuntimeError> {
    if 2.0 * edges > MAX_NEIGHBOR_ENTRIES as f64 {
        Err(spec_err(&format!(
            "{context}: the family's parameters expect {edges:.0} edges, more than the \
             {} a graph's u32 CSR offsets can index",
            MAX_NEIGHBOR_ENTRIES / 2
        )))
    } else {
        Ok(())
    }
}

impl GraphFamily {
    /// The family's community decomposition of the vertex range `0..n`:
    /// SBM and barbell split into the two halves their generators use,
    /// core–periphery into core and periphery; every other family is one
    /// community. Drives the `proportions`/`per-block` assignments.
    #[must_use]
    // One whole-graph community really is a single-element range list.
    #[allow(clippy::single_range_in_vec_init)]
    pub fn community_blocks(&self, n: usize) -> Vec<std::ops::Range<usize>> {
        match self {
            Self::StochasticBlockModel { .. } | Self::Barbell => {
                vec![0..n / 2, n / 2..n]
            }
            Self::CorePeriphery { core } => {
                let core = (*core as usize).min(n);
                vec![0..core, core..n]
            }
            _ => vec![0..n],
        }
    }

    /// Validates the family parameters against the population size `n`.
    ///
    /// # Errors
    ///
    /// Returns a spec error for infeasible `(family, n)` combinations.
    fn validate(&self, n: u64, context: &str) -> Result<(), RuntimeError> {
        let prob_ok = |p: f64| (0.0..=1.0).contains(&p) && !p.is_nan();
        match self {
            Self::Complete => Ok(()),
            Self::ErdosRenyi { p, backbone } => {
                if !prob_ok(*p) {
                    return Err(spec_err(&format!("{context}.p must be in [0, 1]")));
                }
                let n = n as f64;
                let backbone = if *backbone { n } else { 0.0 };
                check_edge_count(p * n * (n - 1.0) / 2.0 + backbone, context)
            }
            Self::RandomRegular { d } => {
                // n <= u32::MAX (checked by the graph block) and d < n, so
                // n·d fits u64.
                if *d == 0 || *d >= n || !(n * d).is_multiple_of(2) {
                    Err(spec_err(&format!(
                        "{context}: no simple {d}-regular graph on {n} vertices exists"
                    )))
                } else if n * d > MAX_NEIGHBOR_ENTRIES {
                    Err(spec_err(&format!(
                        "{context}: a {d}-regular graph on {n} vertices has {} stubs, \
                         more than the generator's u32 ids can index",
                        n * d
                    )))
                } else {
                    Ok(())
                }
            }
            Self::StochasticBlockModel { p_in, p_out } => {
                if n < 2 {
                    Err(spec_err(&format!(
                        "{context}: stochastic-block-model needs n >= 2"
                    )))
                } else if n * (n - 1) / 2 > MAX_SBM_PAIRS {
                    // n <= u32::MAX (checked by the graph block), so n·(n − 1)
                    // fits u64.
                    Err(spec_err(&format!(
                        "{context}: stochastic-block-model on {n} vertices has {} vertex \
                         pairs, more than the {MAX_SBM_PAIRS} its generator may flip a coin for",
                        n * (n - 1) / 2
                    )))
                } else if prob_ok(*p_in) && prob_ok(*p_out) {
                    // The generator's two halves, as `community_blocks`.
                    let (a, b) = ((n / 2) as f64, (n - n / 2) as f64);
                    let inside = (a * (a - 1.0) + b * (b - 1.0)) / 2.0;
                    check_edge_count(p_in * inside + p_out * a * b, context)
                } else {
                    Err(spec_err(&format!("{context}.p_in/p_out must be in [0, 1]")))
                }
            }
            Self::Cycle => {
                if n < 3 {
                    Err(spec_err(&format!("{context}: cycle needs n >= 3")))
                } else {
                    Ok(())
                }
            }
            Self::Torus2d { width, height } => {
                if *width < 3 || *height < 3 {
                    Err(spec_err(&format!(
                        "{context}: torus needs width >= 3 and height >= 3"
                    )))
                } else if width.checked_mul(*height) != Some(n) {
                    Err(spec_err(&format!(
                        "{context}: torus width * height = {} must equal n = {n}",
                        width.saturating_mul(*height)
                    )))
                } else {
                    Ok(())
                }
            }
            Self::Barbell => {
                if !n.is_multiple_of(2) || n < 4 {
                    Err(spec_err(&format!(
                        "{context}: barbell needs an even n >= 4"
                    )))
                } else {
                    Ok(())
                }
            }
            Self::CorePeriphery { core } => {
                if *core < 2 || *core > n {
                    Err(spec_err(&format!(
                        "{context}: core-periphery needs 2 <= core <= n"
                    )))
                } else {
                    Ok(())
                }
            }
            Self::Star => {
                if n < 2 {
                    Err(spec_err(&format!("{context}: star needs n >= 2")))
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// How per-edge sampling weights are generated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WeightScheme {
    /// Every edge carries the same weight (`1` reproduces unweighted
    /// sampling bit-for-bit).
    Uniform {
        /// The constant per-edge weight (must be positive).
        value: u32,
    },
    /// Each undirected edge `{u, v}` carries an independent
    /// pseudo-random weight in `[min, max]`, a pure function of
    /// `(seed, u, v)` — symmetric and iteration-order-free by
    /// construction.
    Random {
        /// Smallest weight (inclusive); `0` permits unsampleable edges.
        min: u32,
        /// Largest weight (inclusive).
        max: u32,
    },
    /// Degree-correlated weights: edge `{u, v}` carries
    /// `deg(u) · deg(v)` (degrees in the graph the weights are applied
    /// to — for temporal schedules, each snapshot's own degrees).
    /// Products or row totals past `u32::MAX` are typed errors at graph
    /// build time.
    DegreeProduct,
    /// Explicit per-edge weights: listed undirected edges carry their
    /// listed weight, every other edge carries `default`. Listing an
    /// edge the generated graph does not contain is a typed error at
    /// graph build time (explicit lists are tied to one static edge
    /// set, so they cannot be combined with `temporal`).
    Explicit {
        /// `(u, v, weight)` entries, one per unordered pair.
        edges: Vec<(u64, u64, u32)>,
        /// Weight of every unlisted edge (`0` restricts sampling to the
        /// listed edges; vertices left without any positive-weight edge
        /// are typed errors at graph build time).
        default: u32,
    },
}

/// The retired `graph.weights.resolver` label. The weighted engine has
/// one point resolution (the three-tier hybrid over prefix-sum rows of
/// `od_graphs::WeightedCsrGraph`), so this value selects nothing: every
/// variant runs the same bytes. It is kept only because a spec that
/// names a non-default value hashes differently, and those hashes key
/// existing checkpoints and results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightResolver {
    /// `"alias"`, the default; never serialised.
    #[default]
    Alias,
    /// `"prefix"`.
    Prefix,
    /// `"prefix-u16"`.
    Prefix16,
}

/// The `weights` sub-block of a graph scenario: turns uniform neighbor
/// sampling into weight-proportional sampling via the weighted engine
/// (three-tier point resolution over prefix-sum rows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightsSpec {
    /// How edge weights are generated.
    pub scheme: WeightScheme,
    /// Seed of the weight generator (default: the job's `master_seed`).
    /// Weights are a pure function of `(seed, edge)`, independent of
    /// both graph-generation and trial randomness.
    pub seed: Option<u64>,
    /// The retired resolver label (`alias` | `prefix` | `prefix-u16`):
    /// parsed and serialised for hash stability, never read by the
    /// engine. It serialises only when non-default, so specs that never
    /// name it keep their content hashes.
    pub resolver: WeightResolver,
}

impl WeightsSpec {
    fn validate(&self, n: u64) -> Result<(), RuntimeError> {
        match &self.scheme {
            WeightScheme::Uniform { value } => {
                if *value == 0 {
                    Err(spec_err(
                        "graph.weights: uniform value 0 would leave every vertex with only \
                         zero-weight edges — use a positive value",
                    ))
                } else {
                    Ok(())
                }
            }
            WeightScheme::Random { min, max } => {
                if min > max {
                    Err(spec_err("graph.weights: min must not exceed max"))
                } else if *max == 0 {
                    Err(spec_err(
                        "graph.weights: max 0 would leave every vertex with only zero-weight \
                         edges — use a positive max",
                    ))
                } else {
                    Ok(())
                }
            }
            WeightScheme::DegreeProduct => Ok(()),
            WeightScheme::Explicit { edges, .. } => {
                if edges.is_empty() {
                    return Err(spec_err(
                        "graph.weights: an explicit scheme needs at least one edge entry \
                         (use the uniform scheme for a constant weight)",
                    ));
                }
                let mut seen = std::collections::HashSet::with_capacity(edges.len());
                for (i, &(u, v, _)) in edges.iter().enumerate() {
                    if u == v {
                        return Err(spec_err(&format!(
                            "graph.weights.edges[{i}]: self-pair ({u}, {u}) — entries must \
                             name two distinct vertices"
                        )));
                    }
                    if u >= n || v >= n {
                        return Err(spec_err(&format!(
                            "graph.weights.edges[{i}]: endpoint out of range for n = {n}"
                        )));
                    }
                    if !seen.insert((u.min(v), u.max(v))) {
                        return Err(spec_err(&format!(
                            "graph.weights.edges[{i}]: duplicate entry for the unordered \
                             pair ({}, {})",
                            u.min(v),
                            u.max(v)
                        )));
                    }
                }
                Ok(())
            }
        }
    }
}

/// The round-indexed schedule kind of a temporal scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum TemporalSchedule {
    /// Cycle through `[graph.family] ++ snapshots`, switching every
    /// `period` rounds; each snapshot is generated once at job start
    /// from its own derived seed.
    Snapshots(
        /// Additional snapshot families after the base family (at least
        /// one — an empty list is not a schedule).
        Vec<GraphFamily>,
    ),
    /// Regenerate `graph.family` every `period` rounds with an
    /// epoch-derived seed (seeded edge rewiring). Random families whose
    /// draws can isolate vertices (`erdos-renyi` without a backbone,
    /// `stochastic-block-model`) run behind a deterministic "repair
    /// isolated vertices" post-pass (ring edges added to degree-0
    /// vertices), so every epoch is sampleable. Deterministic families
    /// are rejected with a typed error: rewiring them would regenerate
    /// the identical graph each epoch.
    Rewire,
}

/// The `temporal` sub-block of a graph scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalSpec {
    /// Which schedule to run.
    pub schedule: TemporalSchedule,
    /// Rounds per epoch (snapshot switch / rewiring cadence); `>= 1`.
    pub period: u64,
}

impl TemporalSpec {
    fn validate(&self, n: u64, family: &GraphFamily) -> Result<(), RuntimeError> {
        if self.period == 0 {
            return Err(spec_err("graph.temporal.period must be at least 1"));
        }
        match &self.schedule {
            TemporalSchedule::Snapshots(snapshots) => {
                if snapshots.is_empty() {
                    return Err(spec_err(
                        "graph.temporal.snapshots must list at least one snapshot family \
                         (an empty temporal schedule has nothing to switch to)",
                    ));
                }
                for (i, snapshot) in snapshots.iter().enumerate() {
                    if matches!(snapshot, GraphFamily::Complete) {
                        return Err(spec_err(&format!(
                            "graph.temporal.snapshots[{i}]: the implicit complete graph \
                             cannot be a temporal snapshot — use an explicit family"
                        )));
                    }
                    snapshot.validate(n, &format!("graph.temporal.snapshots[{i}]"))?;
                }
                if matches!(family, GraphFamily::Complete) {
                    return Err(spec_err(
                        "graph.temporal: the implicit complete graph cannot anchor a \
                         snapshot schedule — use an explicit family",
                    ));
                }
                Ok(())
            }
            TemporalSchedule::Rewire => match family {
                // Random families only: ER and SBM epochs that isolate
                // vertices are repaired deterministically (ring edges on
                // degree-0 vertices), random-regular cannot isolate.
                GraphFamily::ErdosRenyi { .. }
                | GraphFamily::RandomRegular { .. }
                | GraphFamily::StochasticBlockModel { .. } => Ok(()),
                other => Err(spec_err(&format!(
                    "graph.temporal: rewiring family '{}' would regenerate the identical \
                     graph every epoch (supported random families: erdos-renyi, \
                     random-regular, stochastic-block-model; use snapshots otherwise)",
                    other.tag()
                ))),
            },
        }
    }
}

/// The graph scenario block of a job: runs the protocol agent-level on a
/// generated graph instead of population-level on the complete graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphSpec {
    /// Which graph to generate.
    pub family: GraphFamily,
    /// Seed of the graph generator (default: the job's `master_seed`).
    /// The generator draws from a reserved stream, so graph construction
    /// never interferes with trial randomness.
    pub seed: Option<u64>,
    /// Vertex layout of the initial configuration.
    pub assignment: OpinionAssignment,
    /// Optional per-edge sampling weights (weight-proportional neighbor
    /// sampling through the prefix-sum weighted engine).
    pub weights: Option<WeightsSpec>,
    /// Optional round-indexed edge schedule (periodic snapshot switching
    /// or seeded per-epoch rewiring).
    pub temporal: Option<TemporalSpec>,
}

impl GraphSpec {
    /// A spec for `family` with default seed, assignment, and neither
    /// weights nor a temporal schedule.
    #[must_use]
    pub fn new(family: GraphFamily) -> Self {
        Self {
            family,
            seed: None,
            assignment: OpinionAssignment::default(),
            weights: None,
            temporal: None,
        }
    }

    /// Validates the scenario against the population size `n` and the
    /// opinion-slot count `k`.
    ///
    /// # Errors
    ///
    /// Returns a typed spec error for infeasible `(family, n)`
    /// combinations, degenerate weights (a scheme that can only produce
    /// zero-weight rows), empty or unsupported temporal schedules, and
    /// assignment blocks that do not match the family's community
    /// structure.
    pub fn validate(&self, n: u64, k: usize) -> Result<(), RuntimeError> {
        if u32::try_from(n).is_err() {
            return Err(spec_err(&format!(
                "graph jobs require n <= u32::MAX, got {n}"
            )));
        }
        self.family.validate(n, "graph")?;
        if let Some(weights) = &self.weights {
            weights.validate(n)?;
            if matches!(self.family, GraphFamily::Complete) {
                return Err(spec_err(
                    "graph.weights: the implicit complete graph has no explicit edge list \
                     to weight — use an explicit family (e.g. erdos-renyi with p = 1)",
                ));
            }
            // Combined weighted × temporal: the schedule's snapshots each
            // carry their own weight rows. Two combinations stay typed
            // errors: explicit edge lists are tied to one static edge set,
            // and a rewiring epoch is generated mid-trial, past the point
            // where a zero-weight row could be a typed error, so the
            // scheme must guarantee positive weights statically.
            if let Some(temporal) = &self.temporal {
                if matches!(weights.scheme, WeightScheme::Explicit { .. }) {
                    return Err(spec_err(
                        "graph.weights: an explicit edge-weight list is tied to one static \
                         edge set and cannot be combined with graph.temporal — use the \
                         uniform, random, or degree-product scheme",
                    ));
                }
                if matches!(temporal.schedule, TemporalSchedule::Rewire) {
                    if matches!(weights.scheme, WeightScheme::Random { min: 0, .. }) {
                        return Err(spec_err(
                            "graph.weights: rewiring schedules need min >= 1 (a rewired \
                             epoch is generated mid-trial, where an all-zero weight row \
                             could no longer surface as a typed error)",
                        ));
                    }
                    // Row totals are bounded by max_weight · (n − 1) at any
                    // epoch, so this bound makes uniform/random rewiring
                    // overflow-free for every epoch, not just the probed
                    // one. degree-product has no useful static bound; its
                    // residual mid-trial failure mode is documented at the
                    // executor's rewire generator.
                    let max_weight = match weights.scheme {
                        WeightScheme::Uniform { value } => Some(value),
                        WeightScheme::Random { max, .. } => Some(max),
                        WeightScheme::DegreeProduct | WeightScheme::Explicit { .. } => None,
                    };
                    if let Some(max_weight) = max_weight {
                        if u64::from(max_weight) * n.saturating_sub(1) > u64::from(u32::MAX) {
                            return Err(spec_err(
                                "graph.weights: the maximal per-edge weight times n - 1 \
                                 exceeds u32::MAX, so a high-degree rewired epoch could \
                                 overflow a row total mid-trial — lower the weights",
                            ));
                        }
                    }
                }
            }
        }
        if let Some(temporal) = &self.temporal {
            temporal.validate(n, &self.family)?;
        }
        let blocks = self.family.community_blocks(n as usize);
        match &self.assignment {
            OpinionAssignment::Striped | OpinionAssignment::Blocks => {}
            OpinionAssignment::Proportions(mix) => {
                if mix.len() != blocks.len() {
                    return Err(spec_err(&format!(
                        "graph.block_mix has {} rows but family '{}' has {} communities",
                        mix.len(),
                        self.family.tag(),
                        blocks.len()
                    )));
                }
                for (b, row) in mix.iter().enumerate() {
                    if row.len() != k {
                        return Err(spec_err(&format!(
                            "graph.block_mix[{b}] has {} entries, expected k = {k}",
                            row.len()
                        )));
                    }
                    if row.iter().any(|&f| !(0.0..=1.0).contains(&f) || f.is_nan()) {
                        return Err(spec_err(&format!(
                            "graph.block_mix[{b}] entries must be fractions in [0, 1]"
                        )));
                    }
                    let sum: f64 = row.iter().sum();
                    if (sum - 1.0).abs() > 1e-6 {
                        return Err(spec_err(&format!(
                            "graph.block_mix[{b}] sums to {sum}, expected 1"
                        )));
                    }
                }
            }
            OpinionAssignment::PerBlock(opinions) => {
                if opinions.len() != blocks.len() {
                    return Err(spec_err(&format!(
                        "graph.block_opinions has {} entries but family '{}' has {} \
                         communities",
                        opinions.len(),
                        self.family.tag(),
                        blocks.len()
                    )));
                }
                if let Some(&bad) = opinions.iter().find(|&&o| o as usize >= k) {
                    return Err(spec_err(&format!(
                        "graph.block_opinions contains opinion {bad}, but k = {k}"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Default γ-trace point budget when a trace block does not set one.
pub const DEFAULT_TRACE_MAX_POINTS: u64 = 4096;

/// The `telemetry.trace` sub-block: record the per-round `γ_t`
/// trajectory of sampled trials as `trace` events. Sampling and the
/// point budget keep memory bounded on long jobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpec {
    /// Trace trials `0, sample_trials, 2·sample_trials, …` (global
    /// trial indices, so the sampled set is shard-invariant); `>= 1`.
    pub sample_trials: u64,
    /// Points kept per traced trial before truncation; `>= 1`.
    pub max_points: u64,
}

impl Default for TraceSpec {
    fn default() -> Self {
        Self {
            sample_trials: 1,
            max_points: DEFAULT_TRACE_MAX_POINTS,
        }
    }
}

impl TraceSpec {
    fn validate(&self) -> Result<(), RuntimeError> {
        if self.sample_trials == 0 {
            return Err(spec_err("telemetry.trace.sample_trials must be at least 1"));
        }
        if self.max_points == 0 {
            return Err(spec_err("telemetry.trace.max_points must be at least 1"));
        }
        Ok(())
    }
}

/// The `telemetry` block of a job: configures event emission for runs
/// of this spec. Telemetry is observation only — the block is excluded
/// from the spec's content hash, and a run with any sink produces
/// checkpoint and summary bytes identical to a [`NullSink`] run
/// (`od-telemetry`'s inertness contract, enforced by tests).
///
/// [`NullSink`]: od_telemetry::NullSink
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetrySpec {
    /// Per-shard progress cadence in trials (default: the executor
    /// derives one from the shard size); `>= 1`.
    pub progress_every: Option<u64>,
    /// Optional γ-trace sampling.
    pub trace: Option<TraceSpec>,
}

impl TelemetrySpec {
    fn validate(&self) -> Result<(), RuntimeError> {
        if self.progress_every == Some(0) {
            return Err(spec_err("telemetry.progress_every must be at least 1"));
        }
        if let Some(trace) = &self.trace {
            trace.validate()?;
        }
        Ok(())
    }
}

/// Default shard size when a spec does not set one.
pub const DEFAULT_SHARD_SIZE: u64 = 64;

/// A complete, serialisable description of a simulation job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Human-readable job name.
    pub name: String,
    /// Protocol registry name.
    pub protocol: String,
    /// Protocol parameters.
    pub params: ProtocolParams,
    /// Initial configuration.
    pub initial: InitialSpec,
    /// Number of independent trials.
    pub trials: u64,
    /// Master seed; trial `t` uses `rng_for(master_seed, t)`.
    pub master_seed: u64,
    /// Per-trial round cap.
    pub max_rounds: u64,
    /// Trials per shard (the checkpointing granularity).
    pub shard_size: u64,
    /// Engine selection.
    pub mode: ExecutionMode,
    /// Stopping rule.
    pub stop: StopRule,
    /// Optional adversary.
    pub adversary: Option<AdversarySpec>,
    /// Optional graph scenario: run agent-level on a generated graph.
    pub graph: Option<GraphSpec>,
    /// Optional telemetry configuration (excluded from the content
    /// hash: telemetry never changes what is simulated).
    pub telemetry: Option<TelemetrySpec>,
}

impl JobSpec {
    /// A minimal full-mode consensus job; customise via struct update.
    #[must_use]
    pub fn new(
        name: &str,
        protocol: &str,
        initial: InitialSpec,
        trials: u64,
        master_seed: u64,
    ) -> Self {
        Self {
            name: name.to_string(),
            protocol: protocol.to_string(),
            params: ProtocolParams::new(),
            initial,
            trials,
            master_seed,
            max_rounds: 1_000_000,
            shard_size: DEFAULT_SHARD_SIZE,
            mode: ExecutionMode::Full,
            stop: StopRule::Consensus,
            adversary: None,
            graph: None,
            telemetry: None,
        }
    }

    /// Validates the spec and constructs the protocol it names.
    ///
    /// # Errors
    ///
    /// Returns a typed error for invalid field combinations, unknown
    /// protocol names, or invalid parameters. Never panics on bad data.
    pub fn validate(&self) -> Result<DynProtocol, RuntimeError> {
        if self.trials == 0 {
            return Err(spec_err("trials must be at least 1"));
        }
        if self.max_rounds == 0 {
            return Err(spec_err("max_rounds must be at least 1"));
        }
        if self.shard_size == 0 {
            return Err(spec_err("shard_size must be at least 1"));
        }
        self.stop.validate()?;
        if let Some(telemetry) = &self.telemetry {
            telemetry.validate()?;
            // The adversary path runs through its own engine entry point
            // without a per-round observation hook; a silent no-trace run
            // would be worse than a typed error.
            if telemetry.trace.is_some() && self.adversary.is_some() {
                return Err(spec_err(
                    "telemetry.trace is not supported for adversary jobs — remove the \
                     trace block or the adversary",
                ));
            }
        }
        let initial = self.initial.build()?;
        if let Some(adv) = &self.adversary {
            if self.mode == ExecutionMode::Compacted {
                return Err(spec_err("adversary jobs require \"mode\": \"full\""));
            }
            if self.stop != StopRule::Consensus {
                return Err(spec_err(
                    "adversary jobs use the built-in near-consensus stop; remove the stop rule",
                ));
            }
            if adv.budget.checked_mul(2).is_none_or(|d| d >= initial.n()) {
                return Err(spec_err(&format!(
                    "adversary budget {} requires 2F < n = {}",
                    adv.budget,
                    initial.n()
                )));
            }
            adv.build()?;
        }
        if let Some(graph) = &self.graph {
            if self.adversary.is_some() {
                return Err(spec_err("graph jobs do not support an adversary"));
            }
            if self.mode == ExecutionMode::Compacted {
                return Err(spec_err("graph jobs require \"mode\": \"full\""));
            }
            graph.validate(initial.n(), initial.k())?;
        }
        let protocol = build_protocol(&self.protocol, &self.params).map_err(RuntimeError::Core)?;
        // Protocols with a fixed opinion space must agree with the
        // configuration's slot count up front: both engines would
        // otherwise only fail (or, worse, record out-of-range winners on
        // the graph path) deep inside a trial.
        if let Some(required) =
            od_core::registry::required_opinion_slots(&self.protocol, &self.params)
                .map_err(RuntimeError::Core)?
        {
            if required != initial.k() {
                return Err(spec_err(&format!(
                    "protocol '{}' needs an initial configuration with {required} opinion \
                     slots, got {}",
                    self.protocol,
                    initial.k()
                )));
            }
        }
        Ok(protocol)
    }

    /// Serialises to a JSON value.
    #[must_use]
    pub fn to_json(&self) -> Json {
        write_block(self)
    }

    /// The result-determining fields only — everything except the
    /// `telemetry` block. This is what [`Self::content_hash`] hashes, so
    /// turning telemetry on or off (or changing its cadence) never
    /// invalidates a checkpoint: both runs compute the same trials.
    fn hashed_json(&self) -> Json {
        let mut obj = self.to_json();
        if let Json::Obj(map) = &mut obj {
            map.remove("telemetry");
        }
        obj
    }

    /// Deserialises from a JSON value.
    ///
    /// # Errors
    ///
    /// Returns a typed error for missing, ill-typed or unknown fields.
    pub fn from_json(value: &Json) -> Result<Self, RuntimeError> {
        read_block(value, JOB)
    }

    /// Parses a spec from JSON text.
    ///
    /// # Errors
    ///
    /// Returns parse or spec errors.
    pub fn from_json_text(text: &str) -> Result<Self, RuntimeError> {
        let value = json::parse(text).map_err(|e| RuntimeError::Parse(e.to_string()))?;
        Self::from_json(&value)
    }

    /// Stable content hash of the spec (FNV-1a 64 over canonical JSON),
    /// as a fixed-width hex string. Keys checkpoint files: a checkpoint
    /// resumes only the exact spec that wrote it.
    #[must_use]
    pub fn content_hash(&self) -> String {
        let mut canonical = self.hashed_json().to_string_compact();
        if let Some(graph) = &self.graph {
            // Trial results are a function of (spec, engine): graph jobs
            // run the batched three-pass engine, whose sampling order
            // deliberately differs from the retired cell-seeded engine. The
            // engine tag keyed into the hash makes a checkpoint written
            // by one engine generation refuse to resume under another
            // (a typed `CheckpointMismatch`), instead of silently merging
            // shards computed from different sample paths. Bump the tags
            // whenever a change alters graph trial results: weighted jobs
            // depend additionally on the prefix-sum point resolution, and
            // temporal jobs on the epoch seed derivation.
            canonical.push_str("#graph-engine=batched-v1");
            // The weighted tag names the *normative point → index map*
            // (the prefix interval semantics), not the lookup strategy:
            // alias-table resolution is proptested bit-identical to the
            // prefix search, so introducing it did not bump the tag.
            match (graph.weights.is_some(), graph.temporal.is_some()) {
                (true, true) => canonical.push_str("+weighted-temporal-v1"),
                (true, false) => canonical.push_str("+weighted-prefix-v1"),
                (false, true) => canonical.push_str("+temporal-v1"),
                (false, false) => {}
            }
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in canonical.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        format!("{h:016x}")
    }

    /// Number of shards the job splits into.
    #[must_use]
    pub fn shard_count(&self) -> u64 {
        self.trials.div_ceil(self.shard_size)
    }

    /// The trial index range `[start, end)` of shard `shard_index`.
    #[must_use]
    pub fn shard_range(&self, shard_index: u64) -> (u64, u64) {
        let start = shard_index * self.shard_size;
        let end = start.saturating_add(self.shard_size).min(self.trials);
        (start, end)
    }
}

// The written form of every spec block, declared once: each key's name,
// type, default (a key without one is required) and whether the written
// form leaves it out at that default (`omit`). The writer (`to_json`),
// the reader (`from_json`), its unknown-key check and the hashed form
// all derive from this list (see `spec_keys`). The job writes every key
// but its absent optional blocks; the graph block and its sub-blocks
// leave their defaults out, so specs that never name a later key keep
// their content hashes. The rules that are not per-key are written by
// hand: `assignment_keys` below, the telemetry block left out of
// `hashed_json`, and the engine tags `content_hash` salts in.
spec_blocks! {
    record JobSpec {
        key name: String = "unnamed job".to_string(),
        key protocol + params: Protocol,
        key initial: InitialSpec,
        key trials: u64,
        key master_seed: u64,
        key max_rounds: u64 = 1_000_000,
        key shard_size: u64 = DEFAULT_SHARD_SIZE,
        flat mode: ExecutionMode,
        key stop: StopRule = StopRule::Consensus,
        omit adversary: Option<AdversarySpec> = None,
        omit graph: Option<GraphSpec> = None,
        omit telemetry: Option<TelemetrySpec> = None,
    }
    record Protocol {
        key name: String,
        key params: ProtocolParams = ProtocolParams::new(),
    }
    enum InitialSpec: key kind {
        Balanced = "balanced" { key n: u64, key k: usize },
        LeaderMargin = "leader-margin" { key n: u64, key k: usize, key margin: u64 },
        Counts = "counts" (key counts: Vec<u64>),
    }
    enum ExecutionMode: key mode = "full" {
        Full = "full" {},
        Compacted = "compacted" {},
    }
    enum StopRule: key kind {
        Consensus = "consensus" {},
        MaxFraction = "max-fraction" (key threshold: f64),
        Gamma = "gamma" (key threshold: f64),
    }
    record AdversarySpec {
        key kind: String,
        key budget: u64,
    }
    record GraphSpec check assignment_keys {
        flat family: GraphFamily,
        omit seed: Option<u64> = None,
        flat assignment: OpinionAssignment,
        omit weights: Option<WeightsSpec> = None,
        omit temporal: Option<TemporalSpec> = None,
    }
    enum GraphFamily: key family {
        Complete = "complete" {},
        ErdosRenyi = "erdos-renyi" { key p: f64, omit backbone: bool = false },
        RandomRegular = "random-regular" { key d: u64 },
        StochasticBlockModel = "stochastic-block-model" { key p_in: f64, key p_out: f64 },
        Cycle = "cycle" {},
        Torus2d = "torus" { key width: u64, key height: u64 },
        Barbell = "barbell" {},
        CorePeriphery = "core-periphery" { key core: u64 },
        Star = "star" {},
    }
    enum OpinionAssignment: omit assignment = "striped" {
        Striped = "striped" {},
        Blocks = "blocks" {},
        Proportions = "proportions" (key block_mix: Vec<Vec<f64>>),
        PerBlock = "per-block" (key block_opinions: Vec<u32>),
    }
    record WeightsSpec {
        flat scheme: WeightScheme,
        omit seed: Option<u64> = None,
        flat resolver: WeightResolver,
    }
    enum WeightScheme: key scheme {
        Uniform = "uniform" { key value: u32 },
        Random = "random" { key min: u32, key max: u32 },
        DegreeProduct = "degree-product" {},
        Explicit = "explicit" { key edges: Vec<(u64, u64, u32)>, key default: u32 = 1 },
    }
    enum WeightResolver: omit resolver = "alias" {
        Alias = "alias" {},
        Prefix = "prefix" {},
        Prefix16 = "prefix-u16" {},
    }
    record TemporalSpec {
        flat schedule: TemporalSchedule,
        key period: u64,
    }
    enum TemporalSchedule: key kind {
        Snapshots = "snapshots" (key snapshots: Vec<GraphFamily>),
        Rewire = "rewire" {},
    }
    record TelemetrySpec {
        omit progress_every: Option<u64> = None,
        omit trace: Option<TraceSpec> = None,
    }
    record TraceSpec {
        key sample_trials: u64 = 1,
        key max_points: u64 = DEFAULT_TRACE_MAX_POINTS,
    }
}

/// The `protocol` block. A [`JobSpec`] keeps its two keys as its
/// `protocol` and `params` fields.
#[derive(PartialEq)]
struct Protocol {
    name: String,
    params: ProtocolParams,
}

impl Protocol {
    fn from_parts((name, params): (String, ProtocolParams)) -> Self {
        Self { name, params }
    }

    fn into_parts(self) -> (String, ProtocolParams) {
        (self.name, self.params)
    }
}

/// `block_mix` belongs to the proportions assignment and
/// `block_opinions` to the per-block one; either key without its
/// assignment is an error of its own, not an unknown field.
fn assignment_keys(graph: &Json, ctx: &str) -> Result<(), RuntimeError> {
    for (key, assignment) in [
        ("block_mix", "proportions"),
        ("block_opinions", "per-block"),
    ] {
        if graph.get(key).is_some()
            && graph.get("assignment").and_then(Json::as_str) != Some(assignment)
        {
            return Err(spec_err(&format!(
                "{ctx}.{key} requires \"assignment\": \"{assignment}\""
            )));
        }
    }
    Ok(())
}

pub(crate) fn spec_err(message: &str) -> RuntimeError {
    RuntimeError::Spec(message.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> JobSpec {
        JobSpec {
            params: ProtocolParams::new().with_int("h", 5),
            protocol: "h-majority".to_string(),
            shard_size: 7,
            max_rounds: 50_000,
            ..JobSpec::new(
                "hmaj smoke",
                "h-majority",
                InitialSpec::Balanced { n: 1000, k: 8 },
                20,
                99,
            )
        }
    }

    #[test]
    fn json_roundtrip_preserves_spec() {
        let spec = sample_spec();
        let text = spec.to_json().to_string_pretty();
        let back = JobSpec::from_json_text(&text).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.content_hash(), spec.content_hash());
    }

    #[test]
    fn defaults_are_applied() {
        let text = r#"{
            "protocol": {"name": "three-majority"},
            "initial": {"kind": "balanced", "n": 100, "k": 4},
            "trials": 5,
            "master_seed": 1
        }"#;
        let spec = JobSpec::from_json_text(text).unwrap();
        assert_eq!(spec.name, "unnamed job");
        assert_eq!(spec.shard_size, DEFAULT_SHARD_SIZE);
        assert_eq!(spec.mode, ExecutionMode::Full);
        assert_eq!(spec.stop, StopRule::Consensus);
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn high_bit_u64_fields_roundtrip() {
        // Values above i64::MAX serialise as decimal strings and reparse.
        let spec = JobSpec {
            master_seed: u64::MAX - 1,
            trials: 3,
            ..sample_spec()
        };
        let text = spec.to_json().to_string_compact();
        let back = JobSpec::from_json_text(&text).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn oversized_adversary_budget_is_rejected_not_overflowed() {
        let mut spec = sample_spec();
        spec.adversary = Some(AdversarySpec {
            kind: "boost-runner-up".to_string(),
            budget: u64::MAX,
        });
        // checked_mul keeps this a typed error instead of a debug-build
        // multiply overflow.
        assert!(matches!(spec.validate(), Err(RuntimeError::Spec(_))));
    }

    #[test]
    fn content_hash_tracks_every_field() {
        let spec = sample_spec();
        let mut changed = spec.clone();
        changed.master_seed += 1;
        assert_ne!(spec.content_hash(), changed.content_hash());
        let mut changed = spec.clone();
        changed.shard_size = 8;
        assert_ne!(spec.content_hash(), changed.content_hash());
        let mut changed = spec.clone();
        changed.params = ProtocolParams::new().with_int("h", 7);
        assert_ne!(spec.content_hash(), changed.content_hash());
    }

    #[test]
    fn shard_planning_covers_all_trials() {
        let spec = sample_spec();
        assert_eq!(spec.shard_count(), 3);
        assert_eq!(spec.shard_range(0), (0, 7));
        assert_eq!(spec.shard_range(1), (7, 14));
        assert_eq!(spec.shard_range(2), (14, 20));
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut spec = sample_spec();
        spec.trials = 0;
        assert!(matches!(spec.validate(), Err(RuntimeError::Spec(_))));

        let mut spec = sample_spec();
        spec.protocol = "gossip".to_string();
        assert!(matches!(spec.validate(), Err(RuntimeError::Core(_))));

        let mut spec = sample_spec();
        spec.adversary = Some(AdversarySpec {
            kind: "boost-runner-up".to_string(),
            budget: 600,
        });
        // 2 * 600 >= n = 1000.
        assert!(matches!(spec.validate(), Err(RuntimeError::Spec(_))));

        let mut spec = sample_spec();
        spec.mode = ExecutionMode::Compacted;
        spec.adversary = Some(AdversarySpec {
            kind: "boost-runner-up".to_string(),
            budget: 3,
        });
        assert!(matches!(spec.validate(), Err(RuntimeError::Spec(_))));
    }

    #[test]
    fn misspelled_fields_are_rejected() {
        // A typo'd field must not silently change what is simulated.
        let text = r#"{
            "protocol": {"name": "three-majority"},
            "initial": {"kind": "balanced", "n": 100, "k": 4},
            "trials": 5,
            "master_seed": 1,
            "adverserys": {"kind": "boost-runner-up", "budget": 3}
        }"#;
        let err = match JobSpec::from_json_text(text) {
            Err(e) => e,
            Ok(_) => panic!("typo'd adversary key must fail"),
        };
        assert!(err.to_string().contains("adverserys"), "{err}");
        let text = r#"{
            "protocol": {"name": "three-majority"},
            "initial": {"kind": "balanced", "n": 100, "k": 4, "margin": 5},
            "trials": 5,
            "master_seed": 1
        }"#;
        assert!(matches!(
            JobSpec::from_json_text(text),
            Err(RuntimeError::Spec(_))
        ));
    }

    /// Every key the declaration accepts, in every block, is named in
    /// README.md: in the `od-run` quick start, the scenario reference or
    /// the observability section.
    #[test]
    fn readme_names_every_spec_key() {
        let readme =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
                .unwrap();
        let section = |heading: &str| {
            let start = readme
                .find(heading)
                .unwrap_or_else(|| panic!("no {heading}"));
            let body = &readme[start + heading.len()..];
            &body[..body.find("\n#").unwrap_or(body.len())]
        };
        let documented = [
            section("## Quick start: `od-run`"),
            section("### Scenario reference"),
            section("## Observability"),
        ]
        .concat();
        // The declaration's words: `record`/`enum` name a block, `key`
        // and `omit` a key of it (an enum's tag included).
        let source = include_str!("spec.rs");
        let start = source.find("spec_blocks! {").unwrap();
        let declaration = &source[start..start + source[start..].find("\n}\n").unwrap()];
        let mut words = declaration
            .split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .filter(|word| !word.is_empty());
        let (mut block, mut keys) = ("", Vec::new());
        while let Some(word) = words.next() {
            match word {
                "record" | "enum" => block = words.next().unwrap(),
                "key" | "omit" => keys.push((block, words.next().unwrap())),
                _ => {}
            }
        }
        keys.dedup();
        assert!(keys.len() > 40, "{keys:?}");
        let missing: Vec<String> = keys
            .iter()
            .filter(|(_, key)| {
                !documented.contains(&format!("`{key}`"))
                    && !documented.contains(&format!("\"{key}\""))
            })
            .map(|(block, key)| format!("{block}.{key}"))
            .collect();
        assert!(missing.is_empty(), "README.md names none of {missing:?}");
    }

    #[test]
    fn unknown_fields_error_cleanly() {
        assert!(matches!(
            JobSpec::from_json_text("{ nope }"),
            Err(RuntimeError::Parse(_))
        ));
        let text = r#"{
            "protocol": {"name": "three-majority"},
            "initial": {"kind": "mystery"},
            "trials": 5,
            "master_seed": 1
        }"#;
        assert!(matches!(
            JobSpec::from_json_text(text),
            Err(RuntimeError::Spec(_))
        ));
    }
}
