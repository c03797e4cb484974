//! Integer-threshold Bernoulli coins and bit-sliced Bernoulli mask words.
//!
//! The bSOM's stochastic update rule damps every weight change with a coin
//! flip — in hardware one AND against an LFSR bit stream. The original
//! software port paid **one RNG advance plus an `f64` multiply/divide per
//! bit**; this module removes both costs:
//!
//! * [`CoinThreshold`] turns a probability into a precomputed 64-bit integer
//!   threshold once, so each remaining scalar coin is a single xorshift64*
//!   advance and an integer comparison — no floating point in the hot loop.
//! * [`MaskPlan`] generates *whole 64-bit Bernoulli mask words*: 64
//!   independent coin flips per draw sequence. For dyadic probabilities
//!   (1/2, 1/4, 3/4, …) one or two RNG draws yield all 64 flips; arbitrary
//!   probabilities use a **bit-slicing ladder** over the binary expansion of
//!   `p` (truncated at [`MASK_DEPTH`] digits), so the amortised cost is at
//!   most `MASK_DEPTH / 64` draws per flip instead of one draw per flip.
//!
//! ## The bit-slicing ladder
//!
//! Write `p = 0.b₁b₂…b_k` in binary. Using the Horner identity
//! `p = (b₁ + p′) / 2` with `p′ = 0.b₂b₃…`, a mask word `M` with
//! per-bit probability `p` is built from uniformly random words `R` by
//! folding the digits from least to most significant:
//!
//! ```text
//! M ← 0
//! for i = k down to 1:
//!     M ← R_i | M   if b_i = 1      (P[bit] becomes (1 + p_prev) / 2)
//!     M ← R_i & M   if b_i = 0      (P[bit] becomes      p_prev / 2)
//! ```
//!
//! Each lane of the word runs through an independent copy of the same
//! computation, so the 64 flips of one mask are mutually independent (to the
//! quality of the underlying generator). Trailing zero digits are trimmed —
//! they would AND against a probability-0 mask — so short expansions cost
//! few draws: `p = 0.5` costs exactly one.
//!
//! ## One stream, many neurons: the neighbourhood broadcast
//!
//! The paper's FPGA has a *single* update circuit; its Bernoulli bit stream
//! is broadcast to every neuron in the winner's neighbourhood address window
//! and each neuron merely gates the stream on or off. The software analogue
//! is [`draw_broadcast_masks`]: **one** ladder draw sequence per 64-bit word
//! index yields the relax/commit mask pair shared by the whole window, and
//! [`gate_word`] supplies the per-neuron enable line — an AND against the
//! all-ones or all-zero word, which is exactly the degenerate rung of the
//! bit-slicing ladder (scaling the per-bit probability by 1 or 0; ANDing a
//! fresh uniform word instead would halve it, the hook for fractional
//! per-neuron rates). The RNG cost of an update is therefore per *window*,
//! not per neuron — `bsom_som`'s plane-sliced neighbourhood update applies
//! the shared pair to a run of packed column words in one pass.
//!
//! All functions here advance an explicit `&mut u64` xorshift64* state (the
//! software analogue of the FPGA's LFSR) rather than owning the generator,
//! so callers like `bsom_som::BSom` can keep the state serialized alongside
//! the weights and stay deterministic per construction seed.
//!
//! ```rust
//! use bsom_signature::bernoulli::{draw_broadcast_masks, gate_word, MaskPlan};
//!
//! // The 0.3/0.3 paper default: relax and commit share one compiled plan,
//! // so the broadcast pair costs a single ladder sequence per word index —
//! // regardless of how many neurons sit in the neighbourhood window.
//! let plan = MaskPlan::from_probability(0.3);
//! let mut state = 0xB50A_u64;
//! let masks = draw_broadcast_masks(&plan, &plan, true, true, &mut state);
//! assert_eq!(masks.relax, masks.commit, "equal plans share one draw");
//!
//! // Per-neuron gating: an enabled neuron sees the stream, a disabled one
//! // sees probability zero.
//! assert_eq!(masks.commit & gate_word(true), masks.commit);
//! assert_eq!(masks.commit & gate_word(false), 0);
//! ```

/// Number of binary digits of `p` a [`MaskPlan`] keeps.
///
/// Probabilities are quantised to multiples of 2⁻¹⁶, an absolute bias below
/// `7.7e-6` — far under anything observable in a SOM training run (the
/// update probabilities damp convergence speed, they are not decision
/// boundaries) — while capping the ladder at 16 draws per 64 flips (0.25
/// draws per flip worst case, usually far fewer). The scalar
/// [`CoinThreshold`] path keeps full 64-bit resolution; only whole-word
/// masks are quantised.
pub const MASK_DEPTH: u32 = 16;

/// Advances an xorshift64* state and returns the next scrambled 64-bit word.
///
/// The state must be non-zero (xorshift has an all-zero fixed point);
/// callers seed it with `seed | 1` or similar. The multiplicative scrambler
/// is the standard xorshift64* constant.
#[inline]
pub fn next_word(state: &mut u64) -> u64 {
    debug_assert_ne!(*state, 0, "xorshift64* state must be non-zero");
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// A precomputed integer acceptance threshold for a Bernoulli(p) coin.
///
/// `Below(t)` accepts when the next RNG word is `< t`, i.e. with probability
/// `t / 2⁶⁴`. The degenerate probabilities 0 and 1 are their own variants
/// and — deliberately — **do not advance the RNG state**, matching the
/// behaviour of the whole-word [`MaskPlan`] path so the two stay
/// bit-identical for p ∈ {0, 1}.
///
/// # Examples
///
/// ```rust
/// use bsom_signature::bernoulli::CoinThreshold;
///
/// let mut state = 0x1234_5678_9ABC_DEF1_u64;
/// let coin = CoinThreshold::from_probability(0.3);
/// let mut heads = 0usize;
/// for _ in 0..10_000 {
///     if coin.flip(&mut state) {
///         heads += 1;
///     }
/// }
/// // Binomial(10_000, 0.3): far outside [2600, 3400] is astronomically unlikely.
/// assert!(heads > 2600 && heads < 3400);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoinThreshold {
    /// Probability 0: never accepts, never consumes randomness.
    Never,
    /// Probability 1: always accepts, never consumes randomness.
    Always,
    /// Accepts when the next RNG word compares below the threshold.
    Below(u64),
}

impl CoinThreshold {
    /// Builds the threshold for probability `p`, clamping to `[0, 1]`.
    ///
    /// Probabilities below 2⁻⁶⁴ collapse to [`CoinThreshold::Never`] — they
    /// are beneath the resolution of a 64-bit comparison anyway.
    pub fn from_probability(p: f64) -> Self {
        if p <= 0.0 {
            return CoinThreshold::Never;
        }
        if p >= 1.0 {
            return CoinThreshold::Always;
        }
        // 2^64 as f64; the cast saturates, and p < 1 keeps it below u64::MAX.
        let threshold = (p * 18_446_744_073_709_551_616.0) as u64;
        if threshold == 0 {
            CoinThreshold::Never
        } else {
            CoinThreshold::Below(threshold)
        }
    }

    /// Flips the coin, advancing `state` only for non-degenerate
    /// probabilities.
    #[inline]
    pub fn flip(self, state: &mut u64) -> bool {
        match self {
            CoinThreshold::Never => false,
            CoinThreshold::Always => true,
            CoinThreshold::Below(threshold) => next_word(state) < threshold,
        }
    }

    /// The exact probability the threshold encodes.
    pub fn probability(self) -> f64 {
        match self {
            CoinThreshold::Never => 0.0,
            CoinThreshold::Always => 1.0,
            CoinThreshold::Below(threshold) => threshold as f64 / 18_446_744_073_709_551_616.0,
        }
    }
}

/// How a [`MaskPlan`] produces its mask words.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PlanKind {
    /// Probability 0: the zero mask, no draws.
    Never,
    /// Probability 1: the all-ones mask, no draws.
    Always,
    /// The bit-slicing ladder over the binary digits of `p`
    /// (`digits[i]` is the 2^-(i+1) digit, trailing zeros trimmed).
    Ladder(Vec<bool>),
}

/// A precompiled plan for drawing 64-bit Bernoulli(p) mask words.
///
/// Compile once per probability (e.g. per training configuration), then call
/// [`draw`](MaskPlan::draw) once per 64-bit weight word — every set bit of
/// the result is an independent accepted coin.
///
/// # Examples
///
/// ```rust
/// use bsom_signature::bernoulli::MaskPlan;
///
/// // A dyadic probability compiles to a single-draw ladder.
/// let half = MaskPlan::from_probability(0.5);
/// assert_eq!(half.draws_per_word(), 1);
///
/// let mut state = 0x9E37_79B9_7F4A_7C15_u64;
/// let mut ones = 0u32;
/// for _ in 0..1_000 {
///     ones += half.draw(&mut state).count_ones();
/// }
/// // Binomial(64_000, 0.5): ±2_000 around the mean is an astronomically safe band.
/// assert!(ones > 30_000 && ones < 34_000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskPlan {
    kind: PlanKind,
    /// Numerator of the quantised probability over 2^MASK_DEPTH.
    numerator: u64,
}

impl MaskPlan {
    /// Compiles the ladder for probability `p`, clamping to `[0, 1]` and
    /// quantising to a multiple of 2^-[`MASK_DEPTH`].
    pub fn from_probability(p: f64) -> Self {
        let scale = (1u64 << MASK_DEPTH) as f64;
        let numerator = if p <= 0.0 {
            0
        } else if p >= 1.0 {
            1u64 << MASK_DEPTH
        } else {
            ((p * scale).round() as u64).min(1u64 << MASK_DEPTH)
        };
        let kind = if numerator == 0 {
            PlanKind::Never
        } else if numerator == 1u64 << MASK_DEPTH {
            PlanKind::Always
        } else {
            // digits[i] is the 2^-(i+1) digit of p; trim the trailing zeros
            // (they would AND against a probability-0 mask: a wasted draw).
            let mut digits: Vec<bool> = (0..MASK_DEPTH)
                .map(|i| (numerator >> (MASK_DEPTH - 1 - i)) & 1 == 1)
                .collect();
            while digits.last() == Some(&false) {
                digits.pop();
            }
            PlanKind::Ladder(digits)
        };
        MaskPlan { kind, numerator }
    }

    /// The quantised probability the plan actually realises.
    pub fn probability(&self) -> f64 {
        self.numerator as f64 / (1u64 << MASK_DEPTH) as f64
    }

    /// Number of RNG words one [`draw`](MaskPlan::draw) consumes.
    pub fn draws_per_word(&self) -> usize {
        match &self.kind {
            PlanKind::Never | PlanKind::Always => 0,
            PlanKind::Ladder(digits) => digits.len(),
        }
    }

    /// Draws one mask word: each of the 64 bits is independently set with
    /// the plan's probability. Degenerate plans return `0` / `!0` without
    /// advancing the state.
    #[inline]
    pub fn draw(&self, state: &mut u64) -> u64 {
        match &self.kind {
            PlanKind::Never => 0,
            PlanKind::Always => u64::MAX,
            PlanKind::Ladder(digits) => {
                let mut mask = 0u64;
                for &digit in digits.iter().rev() {
                    let random = next_word(state);
                    mask = if digit { random | mask } else { random & mask };
                }
                mask
            }
        }
    }
}

/// The shared Bernoulli mask pair for one 64-bit word index of a
/// neighbourhood-broadcast update: the same two words are applied to every
/// neuron in the address window (each neuron additionally ANDs its own
/// [`gate_word`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BroadcastMasks {
    /// Mask gating concrete-mismatch → `#` relaxations.
    pub relax: u64,
    /// Mask gating `#` → input commits. **Not** lane-masked: callers AND the
    /// valid-lane mask of the final partial word themselves.
    pub commit: u64,
}

/// Draws the broadcast (relax, commit) mask pair for one word index,
/// advancing `state` only for the draws that are actually needed.
///
/// This is the single-update-circuit discipline of the FPGA made explicit:
///
/// * `needs_relax` / `needs_commit` report whether *any* neuron in the
///   window has a concrete mismatch / an undecided `#` lane in this word;
///   a transition nobody can take skips its ladder draws entirely, so the
///   RNG consumption is data-dependent but deterministic per state.
/// * When both transitions are needed and the two plans realise the same
///   probability (the 0.3/0.3 paper default), **one** draw serves both:
///   relax only ever reads lanes where the care bit is set and commit only
///   lanes where it is clear, so the applied decisions come from disjoint —
///   hence still independent — bits of the shared word.
#[inline]
pub fn draw_broadcast_masks(
    relax: &MaskPlan,
    commit: &MaskPlan,
    needs_relax: bool,
    needs_commit: bool,
    state: &mut u64,
) -> BroadcastMasks {
    if relax == commit && needs_relax && needs_commit {
        let shared = relax.draw(state);
        return BroadcastMasks {
            relax: shared,
            commit: shared,
        };
    }
    BroadcastMasks {
        relax: if needs_relax { relax.draw(state) } else { 0 },
        commit: if needs_commit { commit.draw(state) } else { 0 },
    }
}

/// The per-neuron gate of the broadcast update: all-ones for a neuron that
/// takes the shared stream, all-zero for one that ignores it.
///
/// ANDing a mask with a gate is the degenerate rung of the bit-slicing
/// ladder — it scales the per-bit probability by exactly 1 or 0 (an AND
/// against a fresh *uniform* word would scale it by ½ instead, which is how
/// fractional per-neuron rates would fold into the same datapath).
#[inline]
pub fn gate_word(enabled: bool) -> u64 {
    if enabled {
        u64::MAX
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_word_advances_and_scrambles() {
        let mut state = 1u64;
        let a = next_word(&mut state);
        let b = next_word(&mut state);
        assert_ne!(a, b);
        assert_ne!(state, 1);
        // Deterministic for a fixed seed.
        let mut again = 1u64;
        assert_eq!(next_word(&mut again), a);
    }

    #[test]
    fn coin_threshold_degenerate_probabilities_do_not_touch_state() {
        let mut state = 42u64;
        assert!(!CoinThreshold::from_probability(0.0).flip(&mut state));
        assert!(CoinThreshold::from_probability(1.0).flip(&mut state));
        assert!(!CoinThreshold::from_probability(-3.0).flip(&mut state));
        assert!(CoinThreshold::from_probability(2.0).flip(&mut state));
        assert_eq!(state, 42, "p in {{0, 1}} must not consume randomness");
    }

    #[test]
    fn coin_threshold_probability_roundtrip() {
        assert_eq!(CoinThreshold::from_probability(0.0).probability(), 0.0);
        assert_eq!(CoinThreshold::from_probability(1.0).probability(), 1.0);
        let p = CoinThreshold::from_probability(0.3).probability();
        assert!((p - 0.3).abs() < 1e-12, "got {p}");
    }

    #[test]
    fn coin_threshold_statistics() {
        let mut state = 0xDEAD_BEEF_u64;
        for p in [0.1, 0.3, 0.5, 0.9] {
            let coin = CoinThreshold::from_probability(p);
            let heads = (0..20_000).filter(|_| coin.flip(&mut state)).count();
            let expected = 20_000.0 * p;
            // ±6 sigma on Binomial(20_000, p); sigma < 71 for every p here.
            assert!(
                (heads as f64 - expected).abs() < 6.0 * 71.0,
                "p = {p}: {heads} heads"
            );
        }
    }

    #[test]
    fn mask_plan_degenerate_probabilities_are_free() {
        let mut state = 7u64;
        let never = MaskPlan::from_probability(0.0);
        let always = MaskPlan::from_probability(1.0);
        assert_eq!(never.draw(&mut state), 0);
        assert_eq!(always.draw(&mut state), u64::MAX);
        assert_eq!(state, 7);
        assert_eq!(never.draws_per_word(), 0);
        assert_eq!(always.draws_per_word(), 0);
        assert_eq!(never.probability(), 0.0);
        assert_eq!(always.probability(), 1.0);
    }

    #[test]
    fn dyadic_probabilities_compile_to_short_ladders() {
        assert_eq!(MaskPlan::from_probability(0.5).draws_per_word(), 1);
        assert_eq!(MaskPlan::from_probability(0.25).draws_per_word(), 2);
        assert_eq!(MaskPlan::from_probability(0.75).draws_per_word(), 2);
        assert_eq!(MaskPlan::from_probability(0.375).draws_per_word(), 3);
        // Arbitrary probabilities cap at MASK_DEPTH draws per 64 flips.
        assert!(MaskPlan::from_probability(0.3).draws_per_word() <= MASK_DEPTH as usize);
    }

    #[test]
    fn mask_plan_quantisation_is_tight() {
        for p in [0.3, 0.1, 0.7, 0.9999, 1e-4] {
            let plan = MaskPlan::from_probability(p);
            assert!(
                (plan.probability() - p).abs() <= 1.0 / (1u64 << MASK_DEPTH) as f64,
                "p = {p} quantised to {}",
                plan.probability()
            );
        }
    }

    #[test]
    fn mask_statistics_match_the_probability() {
        for p in [0.25, 0.3, 0.5, 0.8] {
            let plan = MaskPlan::from_probability(p);
            let mut state = 0xB50A_0001_u64;
            let words = 2_000u64;
            let mut ones = 0u64;
            for _ in 0..words {
                ones += u64::from(plan.draw(&mut state).count_ones());
            }
            let n = (words * 64) as f64;
            let sigma = (n * p * (1.0 - p)).sqrt();
            assert!(
                (ones as f64 - n * p).abs() < 6.0 * sigma,
                "p = {p}: {ones} of {n} bits set"
            );
        }
    }

    #[test]
    fn mask_lanes_are_independent_enough_for_pairwise_counts() {
        // Adjacent-lane AND counts for p = 0.5 should track p² = 0.25; a
        // lane-correlated generator would blow well past the band.
        let plan = MaskPlan::from_probability(0.5);
        let mut state = 0x5EED_u64;
        let words = 4_000u64;
        let mut both = 0u64;
        for _ in 0..words {
            let m = plan.draw(&mut state);
            both += u64::from((m & (m >> 1) & 0x5555_5555_5555_5555).count_ones());
        }
        let n = (words * 32) as f64; // 32 disjoint adjacent pairs per word
        let sigma = (n * 0.25 * 0.75).sqrt();
        assert!(
            (both as f64 - n * 0.25).abs() < 6.0 * sigma,
            "{both} joint hits over {n} pairs"
        );
    }

    #[test]
    fn draw_is_deterministic_per_seed() {
        let plan = MaskPlan::from_probability(0.3);
        let mut a = 99u64;
        let mut b = 99u64;
        assert_eq!(plan.draw(&mut a), plan.draw(&mut b));
        assert_eq!(a, b);
    }

    #[test]
    fn broadcast_masks_share_one_draw_for_equal_plans() {
        let plan = MaskPlan::from_probability(0.3);
        let mut shared_state = 0xB50A_u64;
        let masks = draw_broadcast_masks(&plan, &plan, true, true, &mut shared_state);
        assert_eq!(masks.relax, masks.commit);
        // Exactly one ladder sequence was consumed: replaying a single draw
        // from the same seed lands on the same state.
        let mut replay = 0xB50A_u64;
        assert_eq!(plan.draw(&mut replay), masks.relax);
        assert_eq!(replay, shared_state);
    }

    #[test]
    fn broadcast_masks_draw_separately_for_distinct_plans() {
        let relax = MaskPlan::from_probability(0.3);
        let commit = MaskPlan::from_probability(0.7);
        let mut state = 0x5EED_u64;
        let masks = draw_broadcast_masks(&relax, &commit, true, true, &mut state);
        // Replaying the documented order (relax first, then commit) matches.
        let mut replay = 0x5EED_u64;
        assert_eq!(relax.draw(&mut replay), masks.relax);
        assert_eq!(commit.draw(&mut replay), masks.commit);
        assert_eq!(replay, state);
    }

    #[test]
    fn broadcast_masks_skip_unneeded_draws() {
        let plan = MaskPlan::from_probability(0.3);
        let mut state = 7u64;
        let masks = draw_broadcast_masks(&plan, &plan, false, false, &mut state);
        assert_eq!(masks.relax, 0);
        assert_eq!(masks.commit, 0);
        assert_eq!(state, 7, "nothing needed => nothing drawn");
        // One-sided need draws exactly one sequence.
        let masks = draw_broadcast_masks(&plan, &plan, true, false, &mut state);
        assert_eq!(masks.commit, 0);
        let mut replay = 7u64;
        assert_eq!(plan.draw(&mut replay), masks.relax);
        assert_eq!(replay, state);
    }

    #[test]
    fn broadcast_masks_degenerate_plans_never_touch_state() {
        let never = MaskPlan::from_probability(0.0);
        let always = MaskPlan::from_probability(1.0);
        let mut state = 42u64;
        let masks = draw_broadcast_masks(&always, &never, true, true, &mut state);
        assert_eq!(masks.relax, u64::MAX);
        assert_eq!(masks.commit, 0);
        assert_eq!(state, 42);
    }

    #[test]
    fn gate_word_is_the_degenerate_probability_scale() {
        assert_eq!(gate_word(true), u64::MAX);
        assert_eq!(gate_word(false), 0);
    }
}
