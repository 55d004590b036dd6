//! Reproducible seed-stream derivation.
//!
//! Experiments fan out over thousands of Monte-Carlo trials, possibly across
//! threads. To keep results bit-reproducible regardless of thread schedule,
//! every trial derives its own RNG from `(master_seed, stream_id)` through a
//! SplitMix64 mix, rather than sharing one sequential RNG.
//!
//! For the graph-dynamics engine the derivation goes one level deeper: each
//! *(round, vertex)* cell of a trial gets its own counter-based generator
//! (`CellRng::for_cell(round_key(trial_seed, round), vertex)`, see
//! [`CellRng`]), so a synchronous round can be computed
//! in any vertex order — sequentially, sharded, or on rayon — with
//! bit-identical results.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// One step of the SplitMix64 output function.
#[must_use]
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent 64-bit seed for `stream_id` under `master`.
///
/// Distinct `(master, stream_id)` pairs produce (with overwhelming
/// probability) unrelated seeds; equal pairs always produce the same seed.
#[must_use]
#[inline]
pub fn derive_seed(master: u64, stream_id: u64) -> u64 {
    splitmix64(splitmix64(master) ^ splitmix64(stream_id.wrapping_mul(0xA076_1D64_78BD_642F)))
}

/// Constructs a [`StdRng`] for the given `(master, stream_id)` pair.
///
/// # Examples
///
/// ```
/// use od_sampling::seeds::rng_for;
/// use rand::Rng;
/// let mut a = rng_for(1, 0);
/// let mut b = rng_for(1, 0);
/// assert_eq!(a.random::<u64>(), b.random::<u64>());
/// ```
#[must_use]
pub fn rng_for(master: u64, stream_id: u64) -> StdRng {
    StdRng::seed_from_u64(derive_seed(master, stream_id))
}

/// Weyl-sequence increments decorrelating the `round` and `vertex`
/// coordinates of a cell before the final SplitMix64 mix.
const ROUND_SALT: u64 = 0xA076_1D64_78BD_642F;
const VERTEX_SALT: u64 = 0xE703_7ED1_A0B4_28DB;

/// Salt separating a cell's combine-phase stream from its index stream.
const COMBINE_SALT: u64 = 0x2545_F491_4F6C_DD1D;

/// Derives the combine-phase key of a round from its [`round_key`].
///
/// The batched graph pipeline draws a cell's *neighbor indices* from
/// `CellRng::for_cell(round_key, v)` and its *combine randomness* (tie
/// breaks, noise flips) from `CellRng::for_cell(combine_key(round_key), v)`.
/// Keeping the two streams independent means the index pass can consume a
/// data-dependent number of words (Lemire rejection) without the combine
/// pass needing to know where it stopped — each pass remains a pure
/// function of `(trial_seed, round, vertex)`.
#[must_use]
#[inline]
pub fn combine_key(round_key: u64) -> u64 {
    round_key ^ COMBINE_SALT
}

/// Derives the per-round key of a trial: the partial mix of
/// `(trial_seed, round)` that [`CellRng::for_cell`] completes per vertex.
///
/// Hot loops compute this once per round and then pay a single SplitMix64
/// step per vertex instead of three.
#[must_use]
#[inline]
pub fn round_key(trial_seed: u64, round: u64) -> u64 {
    splitmix64(trial_seed) ^ splitmix64(round.wrapping_mul(ROUND_SALT))
}

/// A tiny counter-based generator for one `(round, vertex)` cell.
///
/// This is SplitMix64 run as what it is — a counter mode generator: the
/// state advances by the Weyl constant and each output is the strong
/// 64-bit finaliser of the state. Construction costs one SplitMix64 step
/// (given a precomputed [`round_key`]) and each draw costs one more, an
/// order of magnitude cheaper than seeding a full `StdRng` per cell.
/// Cells only ever consume a handful of draws (protocols sample 1–h
/// neighbors), far below any quality horizon of SplitMix64.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellRng {
    state: u64,
}

impl CellRng {
    /// Completes a [`round_key`] into the generator of cell `vertex`.
    ///
    /// Deliberately mix-free: the state is a Weyl-style offset of the
    /// round key, and [`RngCore::next_u64`] applies the strong SplitMix64
    /// finaliser to every output — the textbook SplitMix64 construction,
    /// just with the counter laid out over `(round, vertex, draw)` instead
    /// of a single stream. This keeps per-vertex setup at one `xor` + one
    /// `mul` in the engine's hot loop.
    #[must_use]
    #[inline]
    pub fn for_cell(round_key: u64, vertex: u64) -> Self {
        Self {
            state: round_key ^ vertex.wrapping_mul(VERTEX_SALT),
        }
    }
}

impl RngCore for CellRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }

    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let x = self.next_u64();
            for (b, s) in chunk.iter_mut().zip(x.to_le_bytes()) {
                *b = s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn derivation_is_deterministic() {
        assert_eq!(derive_seed(1, 2), derive_seed(1, 2));
        assert_ne!(derive_seed(1, 2), derive_seed(1, 3));
        assert_ne!(derive_seed(1, 2), derive_seed(2, 2));
    }

    #[test]
    fn streams_are_uncorrelated_smoke() {
        // Adjacent stream ids must not produce identical outputs.
        let mut a = rng_for(7, 0);
        let mut b = rng_for(7, 1);
        let xs: Vec<u64> = (0..8).map(|_| a.random()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.random()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn cell_rng_is_a_pure_function_of_the_cell() {
        let draws = |t: u64, r: u64, v: u64| -> Vec<u64> {
            let mut rng = CellRng::for_cell(round_key(t, r), v);
            (0..4).map(|_| rng.next_u64()).collect()
        };
        let xs = draws(11, 5, 1000);
        assert_eq!(xs, draws(11, 5, 1000));
        for (t, r, v) in [(12, 5, 1000), (11, 6, 1000), (11, 5, 1001)] {
            assert_ne!(xs[0], draws(t, r, v)[0], "cell ({t},{r},{v}) collided");
        }
    }

    #[test]
    fn combine_key_is_distinct_and_deterministic() {
        let rk = round_key(11, 5);
        assert_eq!(combine_key(rk), combine_key(rk));
        assert_ne!(combine_key(rk), rk);
        // The combine stream of a cell must differ from its index stream.
        let mut index_stream = CellRng::for_cell(rk, 9);
        let mut combine_stream = CellRng::for_cell(combine_key(rk), 9);
        assert_ne!(index_stream.next_u64(), combine_stream.next_u64());
    }

    #[test]
    fn cell_rng_is_roughly_uniform() {
        // Pool the first draws of many cells: the across-cell stream must
        // behave uniformly (this is what the engine actually consumes).
        let mut counts = [0u64; 16];
        let rk = round_key(3, 9);
        let cells = 160_000u64;
        for v in 0..cells {
            let mut r = CellRng::for_cell(rk, v);
            counts[(r.next_u64() >> 60) as usize] += 1;
        }
        let expect = cells as f64 / 16.0;
        for (bucket, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect).abs() < 6.0 * expect.sqrt(),
                "bucket {bucket}: {c} vs {expect}"
            );
        }
    }
}
