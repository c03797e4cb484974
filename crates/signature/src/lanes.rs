//! Wide-lane word kernels and runtime SIMD dispatch.
//!
//! The batched distance pass is an XNOR+popcount stream over packed `u64`
//! words — exactly the op mix the paper's FPGA packs into parallel hardware
//! lanes. This module widens the software walk the same way: the hot word
//! kernels ([`masked_hamming_words`](crate::masked_hamming_words),
//! [`accumulate_masked_hamming_row`](crate::accumulate_masked_hamming_row),
//! [`update_window_word`](crate::update_window_word)) are lowered over
//! [`Lanes<N>`] — a portable `[u64; N]` wide-lane type — plus hand-written
//! `std::arch` paths for AVX2, AVX-512 and NEON, selected at runtime behind
//! `is_x86_feature_detected!`-style gates.
//!
//! The same dispatch carries the vision front end's one per-pixel kernel,
//! [`segment_background`]: the background-differencing test and running
//! average over `f64` estimate planes, with an AVX-512 arm that takes eight
//! pixels per step (see its docs for the exactness argument).
//!
//! ## Lane layout and the tail rule
//!
//! Every lowering walks the neuron axis (row kernels) or the word axis
//! (whole-vector kernels) in chunks of its lane width `N`, loading `N`
//! consecutive `u64`s per plane into one wide register. Elements `0..len/N*N`
//! go through the wide loop; the remainder — at most `N − 1` elements — runs
//! through the **scalar reference kernel on the tail slice**. Because every
//! element is processed independently (the kernels are element-wise; the only
//! cross-element value is the `masked_hamming_words` sum, and integer
//! addition is associative), the split is bit-identical to the scalar walk
//! for every length, including 0, 1, `N − 1`, `N` and `N + 1` — the classic
//! SIMD off-by-one surface the `simd_equivalence` suite sweeps explicitly.
//!
//! ### Worked example
//!
//! An 11-word row under [`Dispatch::Lanes4`]: words `0..4` and `4..8` are two
//! wide iterations (`(value ^ input) & care` then a per-lane popcount, four
//! lanes at a time); words `8..11` fall to the scalar loop. The running
//! distances are the same `u32` additions in the same per-neuron order as the
//! scalar walk, so the result is equal *as bits*, not merely numerically.
//!
//! ## Dispatch
//!
//! [`Dispatch::detect`] picks the widest lowering the running machine
//! supports (AVX-512 with `vpopcntdq` → AVX2 → NEON → portable
//! [`Dispatch::Lanes8`]). The active path can be **forced** — for testing
//! every lowering on any machine, and for the CI matrix — two ways:
//!
//! * the `BSOM_DISPATCH` environment variable (read once per process):
//!   `scalar`, `lanes4`, `lanes8`, `avx2`, `avx512`, `neon`, or
//!   `widest`/`auto` for [`Dispatch::detect`]. An unknown name or a lowering
//!   the machine cannot run **panics** at first use — a mistyped CI matrix
//!   leg must fail loudly, not silently measure the wrong kernel;
//! * [`force_dispatch`], the programmatic override (it wins over the
//!   environment), which returns [`UnavailableDispatch`] instead of running
//!   an unsupported path.
//!
//! Forcing never changes results: every lowering is bit-identical to the
//! scalar reference (enforced by debug shadow-checks in the public kernels
//! and by the `simd_equivalence` differential suite), and no lowering ever
//! touches the RNG — mask drawing stays word-sequential by contract (see
//! [`MaskPlan::draw_lanes`](crate::bernoulli::MaskPlan::draw_lanes)), so the
//! xorshift64* stream is the same under every dispatch.
//!
//! ```rust
//! use bsom_signature::lanes::Dispatch;
//! use bsom_signature::masked_hamming_words_with;
//!
//! let value = [0b1010_u64; 5];
//! let care = [u64::MAX; 5];
//! let input = [0b0110_u64; 5];
//! let reference = masked_hamming_words_with(Dispatch::Scalar, &value, &care, &input);
//! for dispatch in Dispatch::available() {
//!     assert_eq!(
//!         masked_hamming_words_with(dispatch, &value, &care, &input),
//!         reference,
//!         "every available lowering is bit-identical to the scalar walk"
//!     );
//! }
//! ```
// The one crate module that needs `std::arch` intrinsics; the crate root
// denies unsafe_code everywhere else.
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::Rgb;

/// Environment variable forcing the kernel dispatch for the whole process:
/// a [`Dispatch`] name (`scalar`, `lanes4`, `lanes8`, `avx2`, `avx512`,
/// `neon`) or `widest`/`auto` for [`Dispatch::detect`]. Read once, at the
/// first kernel call; [`force_dispatch`] overrides it.
pub const DISPATCH_ENV: &str = "BSOM_DISPATCH";

/// A portable wide-lane bundle of `N` packed 64-bit words — the register
/// shape of the generic lowerings ([`Dispatch::Lanes4`] /
/// [`Dispatch::Lanes8`]), which the compiler is free to map onto whatever
/// vector unit the target has.
///
/// All operations are element-wise over the `N` lanes; none of them cross
/// lanes, which is what makes the wide kernels bit-identical to the scalar
/// walk under any chunking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lanes<const N: usize>(pub [u64; N]);

impl<const N: usize> Lanes<N> {
    /// Broadcasts one word into every lane.
    #[inline]
    pub fn splat(word: u64) -> Self {
        Lanes([word; N])
    }

    /// Loads the first `N` words of `words` into lanes.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() < N`.
    #[inline]
    pub fn load(words: &[u64]) -> Self {
        let mut lanes = [0u64; N];
        lanes.copy_from_slice(&words[..N]);
        Lanes(lanes)
    }

    /// Stores the lanes into the first `N` words of `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() < N`.
    #[inline]
    pub fn store(self, out: &mut [u64]) {
        out[..N].copy_from_slice(&self.0);
    }

    /// Lane-wise XOR.
    #[inline]
    pub fn xor(self, other: Self) -> Self {
        Lanes(std::array::from_fn(|k| self.0[k] ^ other.0[k]))
    }

    /// Lane-wise AND.
    #[inline]
    pub fn and(self, other: Self) -> Self {
        Lanes(std::array::from_fn(|k| self.0[k] & other.0[k]))
    }

    /// Lane-wise OR.
    #[inline]
    pub fn or(self, other: Self) -> Self {
        Lanes(std::array::from_fn(|k| self.0[k] | other.0[k]))
    }

    /// Lane-wise `self & !other` — the mask-clear op of the update kernel.
    #[inline]
    pub fn and_not(self, other: Self) -> Self {
        Lanes(std::array::from_fn(|k| self.0[k] & !other.0[k]))
    }

    /// Per-lane popcount.
    #[inline]
    pub fn popcounts(self) -> [u32; N] {
        std::array::from_fn(|k| self.0[k].count_ones())
    }
}

impl<const N: usize> std::ops::Not for Lanes<N> {
    type Output = Self;

    /// Lane-wise complement.
    #[inline]
    fn not(self) -> Self {
        Lanes(std::array::from_fn(|k| !self.0[k]))
    }
}

/// One selectable lowering of the word kernels. Every variant exists on
/// every architecture so names, parsing and test matrices stay portable;
/// [`is_available`](Dispatch::is_available) reports whether the *running*
/// machine can execute it, and the kernel entry points reject unavailable
/// paths before any `std::arch` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Dispatch {
    /// The per-`u64` reference walk every other path must match bit for bit.
    Scalar = 0,
    /// Portable [`Lanes<4>`] kernels (AVX2-shaped, any hardware).
    Lanes4 = 1,
    /// Portable [`Lanes<8>`] kernels (AVX-512-shaped, any hardware).
    Lanes8 = 2,
    /// Hand-written AVX2 lowering (x86-64, 4 × 64-bit lanes, nibble-LUT
    /// popcount via `vpshufb` + `vpsadbw`).
    Avx2 = 3,
    /// Hand-written AVX-512 lowering (x86-64, 8 × 64-bit lanes, requires
    /// `avx512f` + `avx512vpopcntdq` for the native `vpopcntq`).
    Avx512 = 4,
    /// Hand-written NEON lowering (aarch64, 2 × 64-bit lanes, `cnt` +
    /// pairwise-add popcount).
    Neon = 5,
}

/// The sentinel the forced-dispatch cell holds when no override is active
/// (deliberately not a valid [`Dispatch`] discriminant).
const FORCE_UNSET: u8 = u8::MAX;

/// Process-wide programmatic override ([`force_dispatch`]); wins over the
/// environment default when set.
static FORCED: AtomicU8 = AtomicU8::new(FORCE_UNSET);

/// The process default: `BSOM_DISPATCH` if set (panicking on nonsense),
/// otherwise [`Dispatch::detect`]. Resolved once.
static ENV_DEFAULT: OnceLock<Dispatch> = OnceLock::new();

impl Dispatch {
    /// Every dispatch variant, in widening order.
    pub const ALL: [Dispatch; 6] = [
        Dispatch::Scalar,
        Dispatch::Lanes4,
        Dispatch::Lanes8,
        Dispatch::Avx2,
        Dispatch::Avx512,
        Dispatch::Neon,
    ];

    /// The stable lower-case name (`scalar`, `lanes4`, `lanes8`, `avx2`,
    /// `avx512`, `neon`) used by `BSOM_DISPATCH`, the CI matrix and the
    /// bench reports.
    pub fn name(self) -> &'static str {
        match self {
            Dispatch::Scalar => "scalar",
            Dispatch::Lanes4 => "lanes4",
            Dispatch::Lanes8 => "lanes8",
            Dispatch::Avx2 => "avx2",
            Dispatch::Avx512 => "avx512",
            Dispatch::Neon => "neon",
        }
    }

    /// Parses a [`name`](Dispatch::name) (ASCII case-insensitive). Returns
    /// `None` for unknown names — including `widest`/`auto`, which are
    /// `BSOM_DISPATCH` conveniences for [`Dispatch::detect`], not variants.
    pub fn from_name(name: &str) -> Option<Dispatch> {
        Self::ALL
            .into_iter()
            .find(|d| d.name().eq_ignore_ascii_case(name.trim()))
    }

    /// `true` iff the running machine can execute this lowering. The
    /// portable paths are always available; `std::arch` paths need the right
    /// architecture *and* the runtime CPUID/auxval feature gate.
    pub fn is_available(self) -> bool {
        match self {
            Dispatch::Scalar | Dispatch::Lanes4 | Dispatch::Lanes8 => true,
            #[cfg(target_arch = "x86_64")]
            Dispatch::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Dispatch::Avx512 => {
                is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vpopcntdq")
            }
            #[cfg(target_arch = "aarch64")]
            Dispatch::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// Every lowering the running machine can execute, in widening order —
    /// the differential-test matrix of the `simd_equivalence` suite.
    pub fn available() -> Vec<Dispatch> {
        Self::ALL.into_iter().filter(|d| d.is_available()).collect()
    }

    /// The widest lowering available on the running machine: AVX-512 when
    /// the CPU has native 64-bit popcount, else AVX2, else NEON, else the
    /// portable [`Dispatch::Lanes8`] kernels.
    pub fn detect() -> Dispatch {
        for candidate in [Dispatch::Avx512, Dispatch::Avx2, Dispatch::Neon] {
            if candidate.is_available() {
                return candidate;
            }
        }
        Dispatch::Lanes8
    }

    /// Reverses `self as u8`, rejecting the [`FORCE_UNSET`] sentinel.
    fn from_code(code: u8) -> Option<Dispatch> {
        Self::ALL.into_iter().find(|d| *d as u8 == code)
    }
}

impl std::fmt::Display for Dispatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error of [`force_dispatch`]: the requested lowering cannot run on this
/// machine (wrong architecture or missing CPU feature).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnavailableDispatch {
    /// The lowering that was requested.
    pub requested: Dispatch,
}

impl std::fmt::Display for UnavailableDispatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dispatch `{}` is not available on this machine (available: {})",
            self.requested.name(),
            available_names()
        )
    }
}

impl std::error::Error for UnavailableDispatch {}

/// Error of [`validate_env_dispatch`]: the `BSOM_DISPATCH` environment
/// variable holds a value the process could not serve — either a name that
/// is no dispatch at all, or a lowering this machine cannot execute.
///
/// The [`Display`](std::fmt::Display) text is exactly the message the lazy
/// [`active_dispatch`] path would panic with at the first kernel call, so a
/// caller that validates eagerly (e.g. `SomService` construction) reports
/// the same diagnosis, just at startup and as a typed error.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DispatchEnvError {
    /// The value names no known lowering (and is not `widest`/`auto`).
    Unknown {
        /// The raw `BSOM_DISPATCH` value.
        value: String,
    },
    /// The value names a real lowering that this machine cannot execute
    /// (wrong architecture or missing CPU feature).
    Unavailable {
        /// The raw `BSOM_DISPATCH` value.
        value: String,
        /// The lowering it names.
        requested: Dispatch,
    },
}

impl std::fmt::Display for DispatchEnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DispatchEnvError::Unknown { value } => write!(
                f,
                "{DISPATCH_ENV}={value}: unknown dispatch \
                 (expected scalar, lanes4, lanes8, avx2, avx512, neon, widest or auto)"
            ),
            DispatchEnvError::Unavailable { value, requested } => write!(
                f,
                "{DISPATCH_ENV}={value}: {}",
                UnavailableDispatch {
                    requested: *requested
                }
            ),
        }
    }
}

impl std::error::Error for DispatchEnvError {}

/// Resolves what `BSOM_DISPATCH` asks for **without** panicking: the named
/// lowering if it exists and runs here, [`Dispatch::detect`] when the
/// variable is unset/empty/`widest`/`auto`, or a typed [`DispatchEnvError`].
///
/// This is the eager-validation entry point for long-lived services: call it
/// at construction so a mistyped value fails at startup with a clear error
/// instead of panicking on the first kernel call deep in a worker thread.
/// It does **not** consult (or set) the [`force_dispatch`] override or the
/// cached process default — it re-reads the environment on every call.
pub fn validate_env_dispatch() -> Result<Dispatch, DispatchEnvError> {
    match std::env::var(DISPATCH_ENV) {
        Err(_) => Ok(Dispatch::detect()),
        Ok(value) => {
            let trimmed = value.trim();
            if trimmed.is_empty()
                || trimmed.eq_ignore_ascii_case("widest")
                || trimmed.eq_ignore_ascii_case("auto")
            {
                return Ok(Dispatch::detect());
            }
            let dispatch =
                Dispatch::from_name(trimmed).ok_or_else(|| DispatchEnvError::Unknown {
                    value: value.clone(),
                })?;
            if !dispatch.is_available() {
                return Err(DispatchEnvError::Unavailable {
                    value,
                    requested: dispatch,
                });
            }
            Ok(dispatch)
        }
    }
}

/// Comma-separated [`Dispatch::available`] names, for error messages.
fn available_names() -> String {
    Dispatch::available()
        .iter()
        .map(|d| d.name())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Resolves the process default dispatch: `BSOM_DISPATCH` if set, else
/// [`Dispatch::detect`]. A nonsense value panics — a CI matrix leg that
/// silently fell back to auto-detection would measure and test the wrong
/// kernels.
fn env_default() -> Dispatch {
    *ENV_DEFAULT.get_or_init(|| validate_env_dispatch().unwrap_or_else(|error| panic!("{error}")))
}

/// The dispatch the default kernel entry points will use for this call:
/// the [`force_dispatch`] override if one is set, else the `BSOM_DISPATCH` /
/// [`Dispatch::detect`] process default.
#[inline]
pub fn active_dispatch() -> Dispatch {
    match Dispatch::from_code(FORCED.load(Ordering::Relaxed)) {
        Some(forced) => forced,
        None => env_default(),
    }
}

/// Forces every subsequent default kernel call in the process onto one
/// lowering (`Some`), or clears the override back to the environment/detect
/// default (`None`). The programmatic half of the `ForceDispatch` test hook;
/// the `BSOM_DISPATCH` environment variable is the other.
///
/// Safe to flip while other threads run kernels — every lowering is
/// bit-identical, so a racing thread merely takes one path or the other.
/// Tests that assert on [`active_dispatch`] itself serialize around it.
///
/// # Errors
///
/// Returns [`UnavailableDispatch`] (leaving the override unchanged) if the
/// machine cannot execute the requested lowering.
pub fn force_dispatch(dispatch: Option<Dispatch>) -> Result<(), UnavailableDispatch> {
    match dispatch {
        None => {
            FORCED.store(FORCE_UNSET, Ordering::Relaxed);
            Ok(())
        }
        Some(requested) => {
            if !requested.is_available() {
                return Err(UnavailableDispatch { requested });
            }
            FORCED.store(requested as u8, Ordering::Relaxed);
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------------
// Background segmentation: the per-pixel step of the vision front end.
// ---------------------------------------------------------------------------

/// One frame of running-average background differencing over per-channel
/// `f64` estimate planes (`planes` = red, green, blue; entry `i` of each is
/// pixel `i`'s estimate), written 64 pixels to a row-major mask word.
///
/// Pixel `i` is foreground when the squared RGB distance between
/// `pixels[i]` and its estimate truncated with `as u8` exceeds
/// `foreground_threshold`; its mask bit is bit `i % 64` of word `i / 64`,
/// and bits past the last pixel are zero. Every estimate then becomes
/// `(1 − α)·e + α·c` per channel (`α` = `learning_rate`), except that
/// foreground pixels keep theirs when `hold_foreground` is set.
///
/// Runs the [`active_dispatch`]; see [`segment_background_with`] for the
/// lowerings and why they agree bit for bit.
///
/// # Panics
///
/// Panics if a plane's length differs from `pixels.len()`.
pub fn segment_background(
    pixels: &[Rgb],
    planes: [&mut [f64]; 3],
    learning_rate: f64,
    foreground_threshold: u32,
    hold_foreground: bool,
) -> Vec<u64> {
    segment_background_with(
        active_dispatch(),
        pixels,
        planes,
        learning_rate,
        foreground_threshold,
        hold_foreground,
    )
}

/// [`segment_background`] through one **explicit** [`Dispatch`] lowering.
///
/// [`Dispatch::Avx512`] takes eight pixels per step; every other dispatch
/// runs the scalar reference walk. The AVX-512 arm equals the scalar walk
/// bit for bit, the mask words and every estimate's `to_bits()`:
///
/// * the truncated estimate is `max(e, 0)` (which yields 0 for NaN), then
///   `min(…, 255)`, then rounded toward zero — the saturating `as u8`;
/// * the squared distance and the `> threshold` test run in `f64`, where
///   they are exact: every value is an integer of at most 3·255²;
/// * the blend is `keep·e + α·c` as a separate multiply and add, the same
///   two roundings as the scalar walk (never a fused multiply-add);
/// * the 64-pixel words go through the wide arm and a tail of fewer than 64
///   pixels through the scalar walk.
///
/// In debug builds the AVX-512 arm is shadow-checked against the scalar
/// walk.
///
/// # Panics
///
/// Panics if a plane's length differs from `pixels.len()` or if `dispatch`
/// is not [available](Dispatch::is_available) on the running machine.
pub fn segment_background_with(
    dispatch: Dispatch,
    pixels: &[Rgb],
    planes: [&mut [f64]; 3],
    learning_rate: f64,
    foreground_threshold: u32,
    hold_foreground: bool,
) -> Vec<u64> {
    for plane in &planes {
        assert_eq!(
            plane.len(),
            pixels.len(),
            "one estimate per pixel in every plane"
        );
    }
    assert!(
        dispatch.is_available(),
        "{}",
        UnavailableDispatch {
            requested: dispatch
        }
    );
    let step = SegmentStep::new(learning_rate, foreground_threshold, hold_foreground);
    let [red, green, blue] = planes;
    #[cfg(debug_assertions)]
    let shadow = (dispatch == Dispatch::Avx512).then(|| {
        let mut copies = [red.to_vec(), green.to_vec(), blue.to_vec()];
        let [r, g, b] = &mut copies;
        let mut words = vec![0u64; pixels.len().div_ceil(64)];
        segment_background_scalar(pixels, [r, g, b], &step, &mut words);
        (words, copies)
    });
    let mut words = vec![0u64; pixels.len().div_ceil(64)];
    segment_background_dispatch(dispatch, pixels, [red, green, blue], &step, &mut words);
    #[cfg(debug_assertions)]
    if let Some((shadow_words, shadow_planes)) = shadow {
        let bits = |plane: &[f64]| plane.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        debug_assert!(
            words == shadow_words
                && [&*red, &*green, &*blue]
                    .iter()
                    .zip(&shadow_planes)
                    .all(|(plane, shadow)| bits(plane) == bits(shadow)),
            "{dispatch} background lowering diverged from the scalar walk"
        );
    }
    words
}

/// The per-frame constants of the background step: `1 − α` once, and the
/// 256 products `α·v` the scalar walk reads `α·c` from (the AVX-512 arm
/// multiplies `α·c` in registers — the same products).
struct SegmentStep {
    alpha: f64,
    keep: f64,
    gain: [f64; 256],
    threshold: u32,
    hold: bool,
}

impl SegmentStep {
    fn new(alpha: f64, threshold: u32, hold: bool) -> Self {
        SegmentStep {
            alpha,
            keep: 1.0 - alpha,
            gain: std::array::from_fn(|v| alpha * v as f64),
            threshold,
            hold,
        }
    }
}

/// Scalar background step: the reference walk every lowering must match.
/// `words` holds one word per 64 pixels.
fn segment_background_scalar(
    pixels: &[Rgb],
    [red, green, blue]: [&mut [f64]; 3],
    step: &SegmentStep,
    words: &mut [u64],
) {
    let chunks = pixels
        .chunks(64)
        .zip(red.chunks_mut(64))
        .zip(green.chunks_mut(64))
        .zip(blue.chunks_mut(64));
    for (word, (((pixels, red), green), blue)) in words.iter_mut().zip(chunks) {
        let mut bits = 0u64;
        for (i, &c) in pixels.iter().enumerate() {
            let e = [red[i], green[i], blue[i]];
            let bg = Rgb::new(e[0] as u8, e[1] as u8, e[2] as u8);
            let foreground = bg.distance_sq(c) > step.threshold;
            bits |= u64::from(foreground) << i;
            // Blend every pixel and select the result instead of branching
            // on the mask bit.
            let blended = [
                step.keep * e[0] + step.gain[usize::from(c.r)],
                step.keep * e[1] + step.gain[usize::from(c.g)],
                step.keep * e[2] + step.gain[usize::from(c.b)],
            ];
            [red[i], green[i], blue[i]] = if foreground && step.hold { e } else { blended };
        }
        *word = bits;
    }
}

// ---------------------------------------------------------------------------
// Scalar reference kernels: the walk every lowering must match bit for bit.
// ---------------------------------------------------------------------------

/// Scalar `masked_hamming_words`: the summed Eq. 3 popcount, word at a time.
pub(crate) fn masked_hamming_scalar(value: &[u64], care: &[u64], input: &[u64]) -> usize {
    value
        .iter()
        .zip(input)
        .zip(care)
        .map(|((w, x), c)| ((w ^ x) & c).count_ones() as usize)
        .sum()
}

/// Scalar `accumulate_masked_hamming_row`: one distance addition per neuron.
pub(crate) fn accumulate_row_scalar(
    values: &[u64],
    cares: &[u64],
    input: u64,
    distances: &mut [u32],
) {
    for i in 0..values.len() {
        distances[i] += ((values[i] ^ input) & cares[i]).count_ones();
    }
}

/// Scalar `update_window_word`: [`crate::update_word`] per neuron of the run.
#[allow(clippy::too_many_arguments)]
pub(crate) fn update_window_scalar(
    values: &mut [u64],
    cares: &mut [u64],
    input: u64,
    relax_mask: u64,
    commit_mask: u64,
    gates: &[u64],
    relaxed: &mut [u32],
    committed: &mut [u32],
) {
    for i in 0..values.len() {
        let updated = crate::update_word(
            values[i],
            cares[i],
            input,
            relax_mask,
            commit_mask & gates[i],
        );
        values[i] = updated.value;
        cares[i] = updated.care;
        relaxed[i] += updated.relaxed.count_ones();
        committed[i] += updated.committed.count_ones();
    }
}

// ---------------------------------------------------------------------------
// Portable Lanes<N> lowerings: wide chunks + the scalar kernel on the tail.
// ---------------------------------------------------------------------------

fn masked_hamming_lanes<const N: usize>(value: &[u64], care: &[u64], input: &[u64]) -> usize {
    let wide = value.len() - value.len() % N;
    let mut total = 0usize;
    let mut i = 0;
    while i < wide {
        let v = Lanes::<N>::load(&value[i..]);
        let c = Lanes::<N>::load(&care[i..]);
        let x = Lanes::<N>::load(&input[i..]);
        total += v
            .xor(x)
            .and(c)
            .popcounts()
            .iter()
            .map(|&p| p as usize)
            .sum::<usize>();
        i += N;
    }
    total + masked_hamming_scalar(&value[wide..], &care[wide..], &input[wide..])
}

fn accumulate_row_lanes<const N: usize>(
    values: &[u64],
    cares: &[u64],
    input: u64,
    distances: &mut [u32],
) {
    let wide = values.len() - values.len() % N;
    let x = Lanes::<N>::splat(input);
    let mut i = 0;
    while i < wide {
        let v = Lanes::<N>::load(&values[i..]);
        let c = Lanes::<N>::load(&cares[i..]);
        let counts = v.xor(x).and(c).popcounts();
        for (d, p) in distances[i..i + N].iter_mut().zip(counts) {
            *d += p;
        }
        i += N;
    }
    accumulate_row_scalar(
        &values[wide..],
        &cares[wide..],
        input,
        &mut distances[wide..],
    );
}

#[allow(clippy::too_many_arguments)]
fn update_window_lanes<const N: usize>(
    values: &mut [u64],
    cares: &mut [u64],
    input: u64,
    relax_mask: u64,
    commit_mask: u64,
    gates: &[u64],
    relaxed: &mut [u32],
    committed: &mut [u32],
) {
    let wide = values.len() - values.len() % N;
    let x = Lanes::<N>::splat(input);
    let rm = Lanes::<N>::splat(relax_mask);
    let cm = Lanes::<N>::splat(commit_mask);
    let mut i = 0;
    while i < wide {
        let v = Lanes::<N>::load(&values[i..]);
        let c = Lanes::<N>::load(&cares[i..]);
        let gated_commit = cm.and(Lanes::<N>::load(&gates[i..]));
        // The update_word dataflow, N neurons at a time (lane k is exactly
        // `update_word(values[i+k], cares[i+k], input, relax_mask,
        // commit_mask & gates[i+k])`).
        let mismatch = v.xor(x).and(c);
        let rel = mismatch.and(rm);
        let com = gated_commit.and_not(c);
        v.and_not(rel).or(x.and(com)).store(&mut values[i..]);
        c.and_not(rel).or(com).store(&mut cares[i..]);
        let rel_counts = rel.popcounts();
        let com_counts = com.popcounts();
        for k in 0..N {
            relaxed[i + k] += rel_counts[k];
            committed[i + k] += com_counts[k];
        }
        i += N;
    }
    update_window_scalar(
        &mut values[wide..],
        &mut cares[wide..],
        input,
        relax_mask,
        commit_mask,
        &gates[wide..],
        &mut relaxed[wide..],
        &mut committed[wide..],
    );
}

// ---------------------------------------------------------------------------
// x86-64 lowerings (AVX2 / AVX-512).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// Per-qword popcount without `vpopcntq`: nibble lookup (`vpshufb`
    /// against a 0..=4 table) then `vpsadbw` to sum the 8 byte counts of
    /// each qword — the classic Mula AVX2 popcount.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn popcount_epi64_avx2(v: __m256i) -> __m256i {
        #[rustfmt::skip]
        let table = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low_nibbles = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low_nibbles);
        let hi = _mm256_and_si256(_mm256_srli_epi64::<4>(v), low_nibbles);
        let byte_counts = _mm256_add_epi8(
            _mm256_shuffle_epi8(table, lo),
            _mm256_shuffle_epi8(table, hi),
        );
        _mm256_sad_epu8(byte_counts, _mm256_setzero_si256())
    }

    /// # Safety
    ///
    /// Requires AVX2 at runtime; the dispatcher checks availability first.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn masked_hamming_avx2(value: &[u64], care: &[u64], input: &[u64]) -> usize {
        let wide = value.len() - value.len() % 4;
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i < wide {
            let v = _mm256_loadu_si256(value.as_ptr().add(i).cast());
            let c = _mm256_loadu_si256(care.as_ptr().add(i).cast());
            let x = _mm256_loadu_si256(input.as_ptr().add(i).cast());
            let masked = _mm256_and_si256(_mm256_xor_si256(v, x), c);
            acc = _mm256_add_epi64(acc, popcount_epi64_avx2(masked));
            i += 4;
        }
        let mut qwords = [0u64; 4];
        _mm256_storeu_si256(qwords.as_mut_ptr().cast(), acc);
        qwords.iter().sum::<u64>() as usize
            + super::masked_hamming_scalar(&value[wide..], &care[wide..], &input[wide..])
    }

    /// # Safety
    ///
    /// Requires AVX2 at runtime; the dispatcher checks availability first.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn accumulate_row_avx2(
        values: &[u64],
        cares: &[u64],
        input: u64,
        distances: &mut [u32],
    ) {
        let wide = values.len() - values.len() % 4;
        let x = _mm256_set1_epi64x(input as i64);
        // The qword counts are ≤ 64, so each lives in the low 32 bits of its
        // qword; this permutation gathers those four dwords into the low
        // 128-bit half for one 4-wide u32 addition into the distances.
        let gather_low_dwords = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
        let mut i = 0;
        while i < wide {
            let v = _mm256_loadu_si256(values.as_ptr().add(i).cast());
            let c = _mm256_loadu_si256(cares.as_ptr().add(i).cast());
            let masked = _mm256_and_si256(_mm256_xor_si256(v, x), c);
            let counts = popcount_epi64_avx2(masked);
            let narrowed =
                _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(counts, gather_low_dwords));
            let d = _mm_loadu_si128(distances.as_ptr().add(i).cast());
            _mm_storeu_si128(
                distances.as_mut_ptr().add(i).cast(),
                _mm_add_epi32(d, narrowed),
            );
            i += 4;
        }
        super::accumulate_row_scalar(
            &values[wide..],
            &cares[wide..],
            input,
            &mut distances[wide..],
        );
    }

    /// # Safety
    ///
    /// Requires AVX2 at runtime; the dispatcher checks availability first.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn update_window_avx2(
        values: &mut [u64],
        cares: &mut [u64],
        input: u64,
        relax_mask: u64,
        commit_mask: u64,
        gates: &[u64],
        relaxed: &mut [u32],
        committed: &mut [u32],
    ) {
        let wide = values.len() - values.len() % 4;
        let x = _mm256_set1_epi64x(input as i64);
        let rm = _mm256_set1_epi64x(relax_mask as i64);
        let cm = _mm256_set1_epi64x(commit_mask as i64);
        let mut i = 0;
        while i < wide {
            let v = _mm256_loadu_si256(values.as_ptr().add(i).cast());
            let c = _mm256_loadu_si256(cares.as_ptr().add(i).cast());
            let g = _mm256_loadu_si256(gates.as_ptr().add(i).cast());
            let mismatch = _mm256_and_si256(_mm256_xor_si256(v, x), c);
            let rel = _mm256_and_si256(mismatch, rm);
            let com = _mm256_andnot_si256(c, _mm256_and_si256(cm, g));
            let new_v = _mm256_or_si256(_mm256_andnot_si256(rel, v), _mm256_and_si256(x, com));
            let new_c = _mm256_or_si256(_mm256_andnot_si256(rel, c), com);
            _mm256_storeu_si256(values.as_mut_ptr().add(i).cast(), new_v);
            _mm256_storeu_si256(cares.as_mut_ptr().add(i).cast(), new_c);
            let mut rel_qwords = [0u64; 4];
            let mut com_qwords = [0u64; 4];
            _mm256_storeu_si256(rel_qwords.as_mut_ptr().cast(), rel);
            _mm256_storeu_si256(com_qwords.as_mut_ptr().cast(), com);
            for k in 0..4 {
                relaxed[i + k] += rel_qwords[k].count_ones();
                committed[i + k] += com_qwords[k].count_ones();
            }
            i += 4;
        }
        super::update_window_scalar(
            &mut values[wide..],
            &mut cares[wide..],
            input,
            relax_mask,
            commit_mask,
            &gates[wide..],
            &mut relaxed[wide..],
            &mut committed[wide..],
        );
    }

    /// # Safety
    ///
    /// Requires AVX-512F + VPOPCNTDQ at runtime; the dispatcher checks
    /// availability first.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    pub(super) unsafe fn masked_hamming_avx512(
        value: &[u64],
        care: &[u64],
        input: &[u64],
    ) -> usize {
        let wide = value.len() - value.len() % 8;
        let mut acc = _mm512_setzero_si512();
        let mut i = 0;
        while i < wide {
            let v = _mm512_loadu_si512(value.as_ptr().add(i).cast());
            let c = _mm512_loadu_si512(care.as_ptr().add(i).cast());
            let x = _mm512_loadu_si512(input.as_ptr().add(i).cast());
            let masked = _mm512_and_si512(_mm512_xor_si512(v, x), c);
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(masked));
            i += 8;
        }
        let mut qwords = [0u64; 8];
        _mm512_storeu_si512(qwords.as_mut_ptr().cast(), acc);
        qwords.iter().sum::<u64>() as usize
            + super::masked_hamming_scalar(&value[wide..], &care[wide..], &input[wide..])
    }

    /// # Safety
    ///
    /// Requires AVX-512F + VPOPCNTDQ at runtime; the dispatcher checks
    /// availability first.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    pub(super) unsafe fn accumulate_row_avx512(
        values: &[u64],
        cares: &[u64],
        input: u64,
        distances: &mut [u32],
    ) {
        let wide = values.len() - values.len() % 8;
        let x = _mm512_set1_epi64(input as i64);
        let mut i = 0;
        while i < wide {
            let v = _mm512_loadu_si512(values.as_ptr().add(i).cast());
            let c = _mm512_loadu_si512(cares.as_ptr().add(i).cast());
            let masked = _mm512_and_si512(_mm512_xor_si512(v, x), c);
            // Native per-qword popcount, then narrow the eight ≤ 64 counts
            // to dwords for one 8-wide u32 addition into the distances.
            let narrowed = _mm512_cvtepi64_epi32(_mm512_popcnt_epi64(masked));
            let d = _mm256_loadu_si256(distances.as_ptr().add(i).cast());
            _mm256_storeu_si256(
                distances.as_mut_ptr().add(i).cast(),
                _mm256_add_epi32(d, narrowed),
            );
            i += 8;
        }
        super::accumulate_row_scalar(
            &values[wide..],
            &cares[wide..],
            input,
            &mut distances[wide..],
        );
    }

    /// # Safety
    ///
    /// Requires AVX-512F + VPOPCNTDQ at runtime; the dispatcher checks
    /// availability first.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    pub(super) unsafe fn update_window_avx512(
        values: &mut [u64],
        cares: &mut [u64],
        input: u64,
        relax_mask: u64,
        commit_mask: u64,
        gates: &[u64],
        relaxed: &mut [u32],
        committed: &mut [u32],
    ) {
        let wide = values.len() - values.len() % 8;
        let x = _mm512_set1_epi64(input as i64);
        let rm = _mm512_set1_epi64(relax_mask as i64);
        let cm = _mm512_set1_epi64(commit_mask as i64);
        let mut i = 0;
        while i < wide {
            let v = _mm512_loadu_si512(values.as_ptr().add(i).cast());
            let c = _mm512_loadu_si512(cares.as_ptr().add(i).cast());
            let g = _mm512_loadu_si512(gates.as_ptr().add(i).cast());
            let mismatch = _mm512_and_si512(_mm512_xor_si512(v, x), c);
            let rel = _mm512_and_si512(mismatch, rm);
            let com = _mm512_andnot_si512(c, _mm512_and_si512(cm, g));
            let new_v = _mm512_or_si512(_mm512_andnot_si512(rel, v), _mm512_and_si512(x, com));
            let new_c = _mm512_or_si512(_mm512_andnot_si512(rel, c), com);
            _mm512_storeu_si512(values.as_mut_ptr().add(i).cast(), new_v);
            _mm512_storeu_si512(cares.as_mut_ptr().add(i).cast(), new_c);
            let mut rel_counts = [0u64; 8];
            let mut com_counts = [0u64; 8];
            _mm512_storeu_si512(rel_counts.as_mut_ptr().cast(), _mm512_popcnt_epi64(rel));
            _mm512_storeu_si512(com_counts.as_mut_ptr().cast(), _mm512_popcnt_epi64(com));
            for k in 0..8 {
                relaxed[i + k] += rel_counts[k] as u32;
                committed[i + k] += com_counts[k] as u32;
            }
            i += 8;
        }
        super::update_window_scalar(
            &mut values[wide..],
            &mut cares[wide..],
            input,
            relax_mask,
            commit_mask,
            &gates[wide..],
            &mut relaxed[wide..],
            &mut committed[wide..],
        );
    }

    /// The background step eight pixels at a time: each 64-pixel word is
    /// eight groups of eight `f64` lanes per channel.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F at runtime; the dispatcher checks availability
    /// first. Every lane load and store goes through a checked slice, so a
    /// plane shorter than `pixels` panics instead of reading past its end
    /// (the public entry asserts the lengths before calling in).
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn segment_background_avx512(
        pixels: &[super::Rgb],
        mut planes: [&mut [f64]; 3],
        step: &super::SegmentStep,
        words: &mut [u64],
    ) {
        let whole = pixels.len() / 64;
        let keep = _mm512_set1_pd(step.keep);
        let alpha = _mm512_set1_pd(step.alpha);
        let threshold = _mm512_set1_pd(f64::from(step.threshold));
        let zero = _mm512_setzero_pd();
        let top = _mm512_set1_pd(255.0);
        for (w, word) in words[..whole].iter_mut().enumerate() {
            let mut channels = [[0u8; 64]; 3];
            for (i, c) in pixels[w * 64..w * 64 + 64].iter().enumerate() {
                channels[0][i] = c.r;
                channels[1][i] = c.g;
                channels[2][i] = c.b;
            }
            let mut bits = 0u64;
            for group in 0..8 {
                let at = w * 64 + group * 8;
                let mut distance = zero;
                let mut estimates = [zero; 3];
                let mut blended = [zero; 3];
                for (k, (plane, bytes)) in planes.iter().zip(&channels).enumerate() {
                    let c = _mm512_cvtepi32_pd(_mm256_cvtepu8_epi32(_mm_loadl_epi64(
                        bytes[group * 8..group * 8 + 8].as_ptr().cast(),
                    )));
                    let e = _mm512_loadu_pd(plane[at..at + 8].as_ptr());
                    // `as u8`: vmaxpd returns its second operand when either
                    // is NaN, so NaN and negatives become 0, then the clamp
                    // to 255 and the truncation toward zero.
                    let bg = _mm512_roundscale_pd::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(
                        _mm512_min_pd(_mm512_max_pd(e, zero), top),
                    );
                    let d = _mm512_sub_pd(bg, c);
                    distance = _mm512_add_pd(distance, _mm512_mul_pd(d, d));
                    blended[k] = _mm512_add_pd(_mm512_mul_pd(keep, e), _mm512_mul_pd(alpha, c));
                    estimates[k] = e;
                }
                let foreground = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(distance, threshold);
                let held = if step.hold { foreground } else { 0 };
                for (k, plane) in planes.iter_mut().enumerate() {
                    _mm512_storeu_pd(
                        plane[at..at + 8].as_mut_ptr(),
                        _mm512_mask_blend_pd(held, blended[k], estimates[k]),
                    );
                }
                bits |= u64::from(foreground) << (group * 8);
            }
            *word = bits;
        }
        let tail = whole * 64;
        let [red, green, blue] = planes;
        super::segment_background_scalar(
            &pixels[tail..],
            [&mut red[tail..], &mut green[tail..], &mut blue[tail..]],
            step,
            &mut words[whole..],
        );
    }
}

// ---------------------------------------------------------------------------
// aarch64 lowering (NEON).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::*;

    /// Per-qword popcount: byte-wise `cnt` then the pairwise-add widening
    /// chain up to one count per 64-bit lane.
    #[inline]
    #[target_feature(enable = "neon")]
    unsafe fn popcount_u64x2(v: uint64x2_t) -> uint64x2_t {
        vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(vcntq_u8(vreinterpretq_u8_u64(v)))))
    }

    /// # Safety
    ///
    /// Requires NEON at runtime; the dispatcher checks availability first.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn masked_hamming_neon(value: &[u64], care: &[u64], input: &[u64]) -> usize {
        let wide = value.len() - value.len() % 2;
        let mut acc = vdupq_n_u64(0);
        let mut i = 0;
        while i < wide {
            let v = vld1q_u64(value.as_ptr().add(i));
            let c = vld1q_u64(care.as_ptr().add(i));
            let x = vld1q_u64(input.as_ptr().add(i));
            acc = vaddq_u64(acc, popcount_u64x2(vandq_u64(veorq_u64(v, x), c)));
            i += 2;
        }
        vaddvq_u64(acc) as usize
            + super::masked_hamming_scalar(&value[wide..], &care[wide..], &input[wide..])
    }

    /// # Safety
    ///
    /// Requires NEON at runtime; the dispatcher checks availability first.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn accumulate_row_neon(
        values: &[u64],
        cares: &[u64],
        input: u64,
        distances: &mut [u32],
    ) {
        let wide = values.len() - values.len() % 2;
        let x = vdupq_n_u64(input);
        let mut i = 0;
        while i < wide {
            let v = vld1q_u64(values.as_ptr().add(i));
            let c = vld1q_u64(cares.as_ptr().add(i));
            let counts = popcount_u64x2(vandq_u64(veorq_u64(v, x), c));
            distances[i] += vgetq_lane_u64::<0>(counts) as u32;
            distances[i + 1] += vgetq_lane_u64::<1>(counts) as u32;
            i += 2;
        }
        super::accumulate_row_scalar(
            &values[wide..],
            &cares[wide..],
            input,
            &mut distances[wide..],
        );
    }
}

// ---------------------------------------------------------------------------
// The dispatchers: one match per kernel, hardware arms behind availability.
// ---------------------------------------------------------------------------
//
// SAFETY (every hardware arm): the hardware arms are reachable only through
// the public kernel entry points (in `batch`, and `segment_background_with`),
// which assert `dispatch.is_available()` before calling in — the runtime
// feature gate the `target_feature` contracts require. Variants foreign to
// the compiled architecture (e.g. `Neon` on x86-64) are never available, so
// the fallback arm is unreachable through the public API; it routes to the
// scalar reference to stay safe even if reached.

pub(crate) fn masked_hamming_words_dispatch(
    dispatch: Dispatch,
    value: &[u64],
    care: &[u64],
    input: &[u64],
) -> usize {
    match dispatch {
        Dispatch::Scalar => masked_hamming_scalar(value, care, input),
        Dispatch::Lanes4 => masked_hamming_lanes::<4>(value, care, input),
        Dispatch::Lanes8 => masked_hamming_lanes::<8>(value, care, input),
        // SAFETY: availability asserted by the public entry (note above).
        #[cfg(target_arch = "x86_64")]
        Dispatch::Avx2 => unsafe { x86::masked_hamming_avx2(value, care, input) },
        // SAFETY: availability asserted by the public entry (note above).
        #[cfg(target_arch = "x86_64")]
        Dispatch::Avx512 => unsafe { x86::masked_hamming_avx512(value, care, input) },
        // SAFETY: availability asserted by the public entry (note above).
        #[cfg(target_arch = "aarch64")]
        Dispatch::Neon => unsafe { neon::masked_hamming_neon(value, care, input) },
        #[allow(unreachable_patterns)]
        _ => masked_hamming_scalar(value, care, input),
    }
}

pub(crate) fn accumulate_row_dispatch(
    dispatch: Dispatch,
    values: &[u64],
    cares: &[u64],
    input: u64,
    distances: &mut [u32],
) {
    match dispatch {
        Dispatch::Scalar => accumulate_row_scalar(values, cares, input, distances),
        Dispatch::Lanes4 => accumulate_row_lanes::<4>(values, cares, input, distances),
        Dispatch::Lanes8 => accumulate_row_lanes::<8>(values, cares, input, distances),
        // SAFETY: availability asserted by the public entry (note above).
        #[cfg(target_arch = "x86_64")]
        Dispatch::Avx2 => unsafe { x86::accumulate_row_avx2(values, cares, input, distances) },
        // SAFETY: availability asserted by the public entry (note above).
        #[cfg(target_arch = "x86_64")]
        Dispatch::Avx512 => unsafe { x86::accumulate_row_avx512(values, cares, input, distances) },
        // SAFETY: availability asserted by the public entry (note above).
        #[cfg(target_arch = "aarch64")]
        Dispatch::Neon => unsafe { neon::accumulate_row_neon(values, cares, input, distances) },
        #[allow(unreachable_patterns)]
        _ => accumulate_row_scalar(values, cares, input, distances),
    }
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn update_window_word_dispatch(
    dispatch: Dispatch,
    values: &mut [u64],
    cares: &mut [u64],
    input: u64,
    relax_mask: u64,
    commit_mask: u64,
    gates: &[u64],
    relaxed: &mut [u32],
    committed: &mut [u32],
) {
    match dispatch {
        Dispatch::Scalar => update_window_scalar(
            values,
            cares,
            input,
            relax_mask,
            commit_mask,
            gates,
            relaxed,
            committed,
        ),
        Dispatch::Lanes4 => update_window_lanes::<4>(
            values,
            cares,
            input,
            relax_mask,
            commit_mask,
            gates,
            relaxed,
            committed,
        ),
        Dispatch::Lanes8 => update_window_lanes::<8>(
            values,
            cares,
            input,
            relax_mask,
            commit_mask,
            gates,
            relaxed,
            committed,
        ),
        // SAFETY: availability asserted by the public entry (note above).
        #[cfg(target_arch = "x86_64")]
        Dispatch::Avx2 => unsafe {
            x86::update_window_avx2(
                values,
                cares,
                input,
                relax_mask,
                commit_mask,
                gates,
                relaxed,
                committed,
            )
        },
        // SAFETY: availability asserted by the public entry (note above).
        #[cfg(target_arch = "x86_64")]
        Dispatch::Avx512 => unsafe {
            x86::update_window_avx512(
                values,
                cares,
                input,
                relax_mask,
                commit_mask,
                gates,
                relaxed,
                committed,
            )
        },
        // NEON gains little on the short window runs (the neighbourhood is a
        // handful of neurons); the 2-wide portable kernel is the aarch64
        // lowering of record here.
        #[cfg(target_arch = "aarch64")]
        Dispatch::Neon => update_window_lanes::<2>(
            values,
            cares,
            input,
            relax_mask,
            commit_mask,
            gates,
            relaxed,
            committed,
        ),
        #[allow(unreachable_patterns)]
        _ => update_window_scalar(
            values,
            cares,
            input,
            relax_mask,
            commit_mask,
            gates,
            relaxed,
            committed,
        ),
    }
}

/// The background step has one wide arm; every other dispatch runs the
/// scalar walk.
fn segment_background_dispatch(
    dispatch: Dispatch,
    pixels: &[Rgb],
    planes: [&mut [f64]; 3],
    step: &SegmentStep,
    words: &mut [u64],
) {
    match dispatch {
        // SAFETY: availability asserted by the public entry (note above),
        // which also asserts that every plane holds one estimate per pixel.
        #[cfg(target_arch = "x86_64")]
        Dispatch::Avx512 => unsafe { x86::segment_background_avx512(pixels, planes, step, words) },
        _ => segment_background_scalar(pixels, planes, step, words),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_ops_are_lane_wise() {
        let a = Lanes::<4>([0b1100, 0b1010, u64::MAX, 0]);
        let b = Lanes::<4>([0b1010, 0b1010, 0, u64::MAX]);
        assert_eq!(a.xor(b).0, [0b0110, 0, u64::MAX, u64::MAX]);
        assert_eq!(a.and(b).0, [0b1000, 0b1010, 0, 0]);
        assert_eq!(a.or(b).0, [0b1110, 0b1010, u64::MAX, u64::MAX]);
        assert_eq!(a.and_not(b).0, [0b0100, 0, u64::MAX, 0]);
        assert_eq!((!a).0[3], u64::MAX);
        assert_eq!(a.popcounts(), [2, 2, 64, 0]);
        assert_eq!(Lanes::<4>::splat(7).0, [7; 4]);
    }

    #[test]
    fn lanes_load_store_roundtrip() {
        let words = [1u64, 2, 3, 4, 5];
        let lanes = Lanes::<4>::load(&words);
        let mut out = [0u64; 5];
        lanes.store(&mut out);
        assert_eq!(out, [1, 2, 3, 4, 0]);
    }

    #[test]
    fn dispatch_names_roundtrip() {
        for dispatch in Dispatch::ALL {
            assert_eq!(Dispatch::from_name(dispatch.name()), Some(dispatch));
            assert_eq!(
                Dispatch::from_name(&dispatch.name().to_ascii_uppercase()),
                Some(dispatch)
            );
            assert_eq!(dispatch.to_string(), dispatch.name());
        }
        assert_eq!(Dispatch::from_name("widest"), None);
        assert_eq!(Dispatch::from_name("avx1024"), None);
    }

    #[test]
    fn portable_paths_are_always_available_and_detect_returns_available() {
        for dispatch in [Dispatch::Scalar, Dispatch::Lanes4, Dispatch::Lanes8] {
            assert!(dispatch.is_available());
        }
        let widest = Dispatch::detect();
        assert!(widest.is_available());
        assert!(Dispatch::available().contains(&widest));
        assert!(Dispatch::available().contains(&Dispatch::Scalar));
    }

    #[test]
    fn unavailable_dispatch_error_renders_the_alternatives() {
        // Some hardware path is always foreign to the compiled architecture.
        let foreign = if cfg!(target_arch = "aarch64") {
            Dispatch::Avx2
        } else {
            Dispatch::Neon
        };
        assert!(!foreign.is_available());
        let error = UnavailableDispatch { requested: foreign };
        let text = error.to_string();
        assert!(text.contains(foreign.name()));
        assert!(text.contains("scalar"));
    }
}
