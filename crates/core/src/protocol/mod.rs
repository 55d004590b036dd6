//! Protocol definitions: the update rules of Definition 3.1 and their
//! relatives.
//!
//! Every rule is expressed twice:
//!
//! 1. **Per-vertex** — [`SyncProtocol::update_one`] is the literal protocol
//!    of Definition 3.1: given the updating vertex's own opinion and a
//!    source of uniformly-random vertices' opinions, produce the new
//!    opinion. This form drives the agent-level engine, the asynchronous
//!    scheduler, and arbitrary-graph dynamics.
//! 2. **Population-level** — [`SyncProtocol::step_population_into`]
//!    performs one exact synchronous round directly on the counts vector.
//!    The default implementation applies `update_one` to every vertex
//!    (`O(n)`); 3-Majority, 2-Choices, Voter and Undecided override it with
//!    `O(k)` closed-form samplers that draw from the *same* joint one-round
//!    distribution (cross-validated in tests).
//!    [`SyncProtocol::step_population`] is a provided wrapper around it that
//!    allocates the output; no protocol overrides it.

mod h_majority;
mod median;
mod noisy;
mod three_majority;
mod two_choices;
mod undecided;
mod voter;

pub use h_majority::HMajority;
pub use median::MedianRule;
pub use noisy::Noisy;
pub use three_majority::ThreeMajority;
pub use two_choices::TwoChoices;
pub use undecided::UndecidedDynamics;
pub use voter::Voter;

use crate::config::OpinionCounts;
use od_sampling::AliasTable;
use rand::{Rng, RngCore};

/// A source of opinions of uniformly-random vertices (with replacement) —
/// the "choose a random neighbor" primitive of the complete graph with
/// self-loops.
pub trait OpinionSource {
    /// Draws the opinion of one uniformly random vertex.
    fn draw(&self, rng: &mut dyn RngCore) -> u32;
}

/// [`OpinionSource`] over an explicit per-vertex opinion slice.
#[derive(Debug, Clone, Copy)]
pub struct SliceSource<'a> {
    opinions: &'a [u32],
}

impl<'a> SliceSource<'a> {
    /// Wraps a per-vertex opinion slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    #[must_use]
    pub fn new(opinions: &'a [u32]) -> Self {
        assert!(
            !opinions.is_empty(),
            "SliceSource: opinions must be non-empty"
        );
        Self { opinions }
    }
}

impl OpinionSource for SliceSource<'_> {
    fn draw(&self, rng: &mut dyn RngCore) -> u32 {
        self.opinions[rng.random_range(0..self.opinions.len())]
    }
}

/// [`OpinionSource`] drawing opinions proportionally to configuration
/// counts via a precomputed alias table (`O(k)` build, `O(1)` draw).
#[derive(Debug, Clone)]
pub struct CountsSource {
    table: AliasTable,
}

impl CountsSource {
    /// Builds the source for the given configuration.
    #[must_use]
    pub fn new(counts: &OpinionCounts) -> Self {
        let weights: Vec<f64> = counts.counts().iter().map(|&c| c as f64).collect();
        Self {
            table: AliasTable::new(&weights),
        }
    }
}

impl OpinionSource for CountsSource {
    fn draw(&self, rng: &mut dyn RngCore) -> u32 {
        self.table.sample(rng) as u32
    }
}

/// Reusable buffers for [`SyncProtocol::step_population_into`], so the
/// closed-form `O(k)` population steps run without per-round allocation.
#[derive(Debug, Clone, Default)]
pub struct StepScratch {
    /// Probability vector of the round's multinomial/binomial draws.
    pub(crate) probs: Vec<f64>,
    /// Integer staging buffer (e.g. adopters per destination).
    pub(crate) counts: Vec<u64>,
}

impl StepScratch {
    /// Creates empty scratch buffers (they grow to `k` on first use).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// A synchronous consensus protocol on the complete graph with self-loops.
///
/// Implementations must be *exchangeable*: the new opinion of a vertex may
/// depend only on its own current opinion and on opinions of uniformly
/// sampled vertices. All rules in the paper have this form.
///
/// An implementor writes [`SyncProtocol::name`] and
/// [`SyncProtocol::update_one`], and overrides
/// [`SyncProtocol::step_population_into`] when the rule has a closed-form
/// one-round law of the counts. [`SyncProtocol::step_population`] and
/// [`SyncProtocol::step_agents`] are provided on top of those.
pub trait SyncProtocol {
    /// Human-readable protocol name (for reports and benches).
    fn name(&self) -> &str;

    /// The per-vertex update rule (Definition 3.1): computes the next
    /// opinion of a vertex currently holding `own`, drawing random
    /// vertices' opinions from `source`.
    fn update_one(&self, own: u32, source: &dyn OpinionSource, rng: &mut dyn RngCore) -> u32;

    /// Performs one exact synchronous round at the population level and
    /// returns the new configuration.
    ///
    /// A provided wrapper that no protocol overrides: it allocates the
    /// output and a [`StepScratch`], then runs
    /// [`SyncProtocol::step_population_into`], so both forms draw the same
    /// round with the same RNG consumption.
    fn step_population(&self, counts: &OpinionCounts, rng: &mut dyn RngCore) -> OpinionCounts {
        let mut out = counts.clone();
        self.step_population_into(counts, rng, &mut StepScratch::new(), &mut out);
        out
    }

    /// Performs one exact synchronous round into `out`, reusing `scratch`
    /// and `out`'s existing allocation — the one population round a
    /// protocol implements.
    ///
    /// The default applies [`SyncProtocol::update_one`] to each of the `n`
    /// vertices against the round-`t−1` configuration (`O(n)`); protocols
    /// with closed-form one-round distributions override it with `O(k)`
    /// samplers in the [`od_sampling::sample_multinomial_into`] style, so
    /// the engines' steady-state rounds allocate nothing.
    fn step_population_into(
        &self,
        counts: &OpinionCounts,
        rng: &mut dyn RngCore,
        scratch: &mut StepScratch,
        out: &mut OpinionCounts,
    ) {
        let _ = scratch;
        step_per_vertex(self, counts, rng, out);
    }

    /// Whether empty opinion slots are inert: an empty slot stays empty,
    /// and a round on the configuration without its empty slots makes the
    /// same random draws (slot for slot on the live support).
    ///
    /// When it holds, [`crate::Simulation::run`] and
    /// [`crate::Simulation::run_until`] periodically drop empty slots, so
    /// a round costs `O(live support)` instead of `O(k)`, with the same
    /// sample path. The default is `false`: a protocol whose vanished
    /// opinions can return (a blank state, a noise channel) or whose
    /// round draws over all `k` slots must not be compacted.
    fn empty_slots_are_inert(&self) -> bool {
        false
    }

    /// Performs one synchronous round at the agent level on the complete
    /// graph with self-loops, updating `opinions` in place.
    ///
    /// # Panics
    ///
    /// Panics if `opinions` is empty or contains an opinion `>= k` for the
    /// protocol's configuration space (enforced by `update_one`
    /// implementations indexing out of range).
    fn step_agents(&self, opinions: &mut Vec<u32>, rng: &mut dyn RngCore) {
        assert!(
            !opinions.is_empty(),
            "step_agents: opinions must be non-empty"
        );
        let old = opinions.clone();
        let source = SliceSource::new(&old);
        for (v, slot) in opinions.iter_mut().enumerate() {
            *slot = self.update_one(old[v], &source, rng);
        }
    }
}

/// The generic population round: applies `protocol.update_one` to every
/// vertex, grouped by opinion in slot order, against the round-`t−1`
/// configuration, and writes the tally into `out` (`O(n)`).
fn step_per_vertex<P: SyncProtocol + ?Sized>(
    protocol: &P,
    counts: &OpinionCounts,
    rng: &mut dyn RngCore,
    out: &mut OpinionCounts,
) {
    let source = CountsSource::new(counts);
    out.with_counts_mut(|next| {
        next.clear();
        next.resize(counts.k(), 0);
        for (j, &c) in counts.counts().iter().enumerate() {
            for _ in 0..c {
                let new = protocol.update_one(j as u32, &source, rng);
                next[new as usize] += 1;
            }
        }
    });
}

// Delegating impls so protocols compose by reference and by box (e.g. the
// registry's `Box<dyn SyncProtocol + Send + Sync>` driving a `Simulation`).
// They forward exactly the methods some implementor overrides — `name`,
// `update_one`, `step_population_into` and `empty_slots_are_inert`:
// falling back to the default round would silently replace a protocol's
// O(k) closed-form sampler with the generic O(n) path, a different RNG
// consumption pattern, and falling back to the default `false` would
// silently run a registry-built protocol at O(k) per round where its
// concrete type runs at O(live support). The provided `step_population`
// and `step_agents` reach the inner protocol through those four.
impl<P: SyncProtocol + ?Sized> SyncProtocol for &P {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn update_one(&self, own: u32, source: &dyn OpinionSource, rng: &mut dyn RngCore) -> u32 {
        (**self).update_one(own, source, rng)
    }

    fn step_population_into(
        &self,
        counts: &OpinionCounts,
        rng: &mut dyn RngCore,
        scratch: &mut StepScratch,
        out: &mut OpinionCounts,
    ) {
        (**self).step_population_into(counts, rng, scratch, out);
    }

    fn empty_slots_are_inert(&self) -> bool {
        (**self).empty_slots_are_inert()
    }
}

impl<P: SyncProtocol + ?Sized> SyncProtocol for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn update_one(&self, own: u32, source: &dyn OpinionSource, rng: &mut dyn RngCore) -> u32 {
        (**self).update_one(own, source, rng)
    }

    fn step_population_into(
        &self,
        counts: &OpinionCounts,
        rng: &mut dyn RngCore,
        scratch: &mut StepScratch,
        out: &mut OpinionCounts,
    ) {
        (**self).step_population_into(counts, rng, scratch, out);
    }

    fn empty_slots_are_inert(&self) -> bool {
        (**self).empty_slots_are_inert()
    }
}

/// The monomorphic per-vertex combine kernel driving the batched
/// graph-dynamics round.
///
/// Where [`SyncProtocol::update_one`] goes through two virtual calls per
/// neighbor sample (`&dyn OpinionSource` and `&mut dyn RngCore`), the
/// batched round draws every sample up front and hands the gathered
/// opinions to this kernel, generic in the RNG, so the whole (protocol ×
/// graph) inner loop monomorphizes and inlines.
pub trait GraphProtocol: SyncProtocol {
    /// Number of neighbor opinions the batched three-pass pipeline must
    /// gather per vertex per round — a constant for every protocol (the
    /// pipeline sizes its scratch buffers with it). Always `>= 1`.
    fn samples_per_vertex(&self) -> usize;

    /// The batched combine kernel: computes the next opinion of a vertex
    /// holding `own` from its pre-gathered neighbor opinions.
    ///
    /// `gathered` holds exactly [`GraphProtocol::samples_per_vertex`]
    /// opinions in draw order; the callee may permute or overwrite the
    /// slice (it is scratch, never read again). `rng` is the cell's
    /// *combine-phase* stream (`od_sampling::seeds::combine_key`) — only
    /// protocols that need randomness beyond the samples themselves
    /// (h-Majority tie breaks, the noise channel) consume it.
    ///
    /// Must realise the same conditional one-round distribution as
    /// [`SyncProtocol::update_one`] given independent neighbor samples.
    fn combine_gathered<R>(&self, own: u32, gathered: &mut [u32], rng: &mut R) -> u32
    where
        R: Rng + ?Sized;

    /// A bound on every opinion a run can hold when no initial opinion
    /// exceeds `max_initial`: it is at least `max_initial`,
    /// [`GraphProtocol::combine_gathered`] never returns more than
    /// `max_symbol(m)` when its own and gathered opinions are at most
    /// `m`, and the bound is idempotent. The batched run loop stores
    /// opinions at the narrowest width that holds it, and panics on an
    /// opinion the bound understated.
    ///
    /// The default, the identity, fits every protocol that only adopts
    /// its own or a sampled opinion; protocols with extra symbols (a
    /// blank state, noise over `k` opinions) widen it.
    fn max_symbol(&self, max_initial: u32) -> u32 {
        max_initial
    }
}

impl<P: GraphProtocol> GraphProtocol for &P {
    #[inline(always)]
    fn samples_per_vertex(&self) -> usize {
        (**self).samples_per_vertex()
    }

    #[inline(always)]
    fn combine_gathered<R>(&self, own: u32, gathered: &mut [u32], rng: &mut R) -> u32
    where
        R: Rng + ?Sized,
    {
        (**self).combine_gathered(own, gathered, rng)
    }

    fn max_symbol(&self, max_initial: u32) -> u32 {
        (**self).max_symbol(max_initial)
    }
}

/// Tallies a per-vertex opinion slice into an [`OpinionCounts`] with `k`
/// opinion slots.
///
/// # Panics
///
/// Panics if `opinions` is empty or contains an index `>= k`.
#[must_use]
pub fn tally(opinions: &[u32], k: usize) -> OpinionCounts {
    let mut counts = vec![0u64; k];
    for &o in opinions {
        assert!(
            (o as usize) < k,
            "tally: opinion {o} out of range for k = {k}"
        );
        counts[o as usize] += 1;
    }
    OpinionCounts::from_counts(counts).expect("non-empty opinions tally to a valid configuration")
}

/// Expands an [`OpinionCounts`] into a per-vertex opinion vector (vertices
/// grouped by opinion; exchangeability makes the order irrelevant).
#[must_use]
pub fn expand(counts: &OpinionCounts) -> Vec<u32> {
    let mut opinions = Vec::with_capacity(counts.n() as usize);
    for (i, &c) in counts.counts().iter().enumerate() {
        for _ in 0..c {
            opinions.push(i as u32);
        }
    }
    opinions
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared statistical helpers for protocol tests.

    use super::*;
    use od_sampling::rng_for;

    /// Runs `trials` one-round population steps from `start` and returns the
    /// per-opinion mean fractions.
    pub fn mean_next_fractions<P: SyncProtocol>(
        protocol: &P,
        start: &OpinionCounts,
        trials: usize,
        seed: u64,
    ) -> Vec<f64> {
        let mut sums = vec![0.0f64; start.k()];
        let mut rng = rng_for(seed, 0);
        for _ in 0..trials {
            let next = protocol.step_population(start, &mut rng);
            for (s, &c) in sums.iter_mut().zip(next.counts().iter()) {
                *s += c as f64 / start.n() as f64;
            }
        }
        sums.iter_mut().for_each(|s| *s /= trials as f64);
        sums
    }

    /// Same as [`mean_next_fractions`] but via the agent-level engine.
    pub fn mean_next_fractions_agents<P: SyncProtocol>(
        protocol: &P,
        start: &OpinionCounts,
        trials: usize,
        seed: u64,
    ) -> Vec<f64> {
        let mut sums = vec![0.0f64; start.k()];
        let mut rng = rng_for(seed, 1);
        for _ in 0..trials {
            let mut opinions = expand(start);
            protocol.step_agents(&mut opinions, &mut rng);
            let next = tally(&opinions, start.k());
            for (s, &c) in sums.iter_mut().zip(next.counts().iter()) {
                *s += c as f64 / start.n() as f64;
            }
        }
        sums.iter_mut().for_each(|s| *s /= trials as f64);
        sums
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_sampling::rng_for;

    #[test]
    fn tally_and_expand_roundtrip() {
        let c = OpinionCounts::from_counts(vec![2, 0, 3]).unwrap();
        let opinions = expand(&c);
        assert_eq!(opinions, vec![0, 0, 2, 2, 2]);
        let back = tally(&opinions, 3);
        assert_eq!(back, c);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn tally_rejects_out_of_range() {
        let _ = tally(&[0, 5], 3);
    }

    #[test]
    fn slice_source_draws_uniformly() {
        let opinions = vec![0u32, 0, 1, 1];
        let src = SliceSource::new(&opinions);
        let mut rng = rng_for(80, 0);
        let mut ones = 0;
        let draws = 40_000;
        for _ in 0..draws {
            if src.draw(&mut rng) == 1 {
                ones += 1;
            }
        }
        let freq = ones as f64 / draws as f64;
        assert!((freq - 0.5).abs() < 0.02, "freq {freq}");
    }

    #[test]
    fn counts_source_matches_fractions() {
        let c = OpinionCounts::from_counts(vec![10, 30, 60]).unwrap();
        let src = CountsSource::new(&c);
        let mut rng = rng_for(81, 0);
        let draws = 60_000;
        let mut counts = [0u64; 3];
        for _ in 0..draws {
            counts[src.draw(&mut rng) as usize] += 1;
        }
        for (i, &cnt) in counts.iter().enumerate() {
            let freq = cnt as f64 / draws as f64;
            let p = c.fraction(i);
            assert!((freq - p).abs() < 0.02, "opinion {i}: {freq} vs {p}");
        }
    }
}
