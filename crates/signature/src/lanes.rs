//! Wide-lane word kernels and runtime SIMD dispatch.
//!
//! The batched distance pass is an XNOR+popcount stream over packed `u64`
//! words — exactly the op mix the paper's FPGA packs into parallel hardware
//! lanes. This module widens the software walk the same way: the hot word
//! kernels ([`accumulate_masked_hamming_row`](crate::accumulate_masked_hamming_row),
//! [`update_window_word`](crate::update_window_word)) each have a scalar
//! reference walk plus hand-written `std::arch` paths for AVX2, AVX-512 and
//! (for the row kernel) NEON, selected at runtime behind
//! `is_x86_feature_detected!`-style gates.
//!
//! The fused winner kernel ([`wta_winner`](crate::wta_winner)) has one
//! hand-written arm, AVX-512, which keeps each eight-neuron block's
//! distances and each lane's running minimum in registers. Every other
//! dispatch runs its own row lowering over a small neuron block and reduces
//! the block with the same packed key, so the arms agree bit for bit.
//!
//! The same dispatch carries the vision front end's one per-pixel kernel,
//! [`segment_background`]: the background-differencing test and running
//! average over `f64` estimate planes, with an AVX-512 arm that takes eight
//! pixels per step (see its docs for the exactness argument).
//!
//! A kernel without a hand-written arm for some dispatch runs the scalar
//! walk under it: the NEON window update and every non-AVX-512 background
//! step. The whole-vector distance
//! [`masked_hamming_words`](crate::masked_hamming_words) has no lowering at
//! all — no search path calls it, so it is the scalar walk alone.
//!
//! ## Lane layout and the tail rule
//!
//! Every lowering walks the neuron axis in chunks of its lane width `N`,
//! loading `N` consecutive `u64`s per plane into one wide register. Elements
//! `0..len/N*N` go through the wide loop; the remainder — at most `N − 1`
//! elements — runs through the **scalar reference kernel on the tail
//! slice**. Because every element is processed independently (the row and
//! update kernels are element-wise, and the winner kernel reduces its
//! per-neuron keys with a total order), the split is bit-identical to the
//! scalar walk for every length, including 0, 1, `N − 1`, `N` and `N + 1` —
//! the classic SIMD off-by-one surface the `simd_equivalence` suite sweeps
//! explicitly.
//!
//! ### Worked example
//!
//! An 11-neuron row under [`Dispatch::Avx512`]: neurons `0..8` are one wide
//! iteration (`(value ^ input) & care` then a per-lane popcount, eight lanes
//! at a time); neurons `8..11` fall to the scalar loop. The running
//! distances are the same `u32` additions in the same per-neuron order as the
//! scalar walk, so the result is equal *as bits*, not merely numerically.
//!
//! ## Dispatch
//!
//! [`Dispatch::detect`] picks the widest lowering the running machine
//! supports (AVX-512 with `vpopcntdq` → AVX2 → NEON → the scalar walk).
//! The active path can be **forced** — for testing every lowering on any
//! machine, and for the CI matrix — two ways:
//!
//! * the `BSOM_DISPATCH` environment variable (read once per process): the
//!   [`name`](Dispatch::name) of any entry of [`Dispatch::ALL`], or
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
//! touches the RNG — the window update's masks are drawn once per word index
//! by [`draw_broadcast_masks`](crate::bernoulli::draw_broadcast_masks),
//! outside every kernel, so the xorshift64* stream is the same under every
//! dispatch.
//!
//! ```rust
//! use bsom_signature::accumulate_masked_hamming_row_with;
//! use bsom_signature::lanes::Dispatch;
//!
//! let values = [0b1010_u64; 11];
//! let cares = [u64::MAX; 11];
//! let mut reference = [0u32; 11];
//! accumulate_masked_hamming_row_with(Dispatch::Scalar, &values, &cares, 0b0110, &mut reference);
//! for dispatch in Dispatch::available() {
//!     let mut distances = [0u32; 11];
//!     accumulate_masked_hamming_row_with(dispatch, &values, &cares, 0b0110, &mut distances);
//!     assert_eq!(
//!         distances, reference,
//!         "every available lowering is bit-identical to the scalar walk"
//!     );
//! }
//! ```
// The one crate module that needs `std::arch` intrinsics; the crate root
// denies unsafe_code everywhere else.
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::batch::{BatchWinner, WordRow};
use crate::Rgb;

/// Environment variable forcing the kernel dispatch for the whole process:
/// the [`name`](Dispatch::name) of any entry of [`Dispatch::ALL`], or
/// `widest`/`auto` for [`Dispatch::detect`]. Read once, at the first kernel
/// call; [`force_dispatch`] overrides it.
pub const DISPATCH_ENV: &str = "BSOM_DISPATCH";

/// One word row of a plane-sliced layer in a single allocation: the `w`-th
/// value word of every neuron, then the `w`-th care word of every neuron,
/// each plane starting a 64-byte cache line. The wide kernels load eight
/// words at a time, and an eight-word load from a row at the allocator's
/// 16-byte alignment straddles two cache lines: the winner kernel measured
/// ~1.6× slower on such rows. The buffer is an ordinary `Vec<u64>` with up
/// to seven words of slack ahead of the first line (an over-aligned
/// allocation per row raised the large_map workload's peak RSS by ~10%).
#[derive(Debug)]
pub struct LineAlignedRow {
    /// The value plane at `start`, the care plane one whole number of
    /// lines later; every other word stays zero.
    words: Vec<u64>,
    start: usize,
    neurons: usize,
}

impl LineAlignedRow {
    /// Copies one row's value and care words.
    ///
    /// # Panics
    ///
    /// Panics if the two planes differ in length.
    pub fn new(values: &[u64], cares: &[u64]) -> Self {
        assert_eq!(values.len(), cares.len(), "one care word per value word");
        let mut row = LineAlignedRow::zeroed(values.len());
        let (value_plane, care_plane) = row.planes_mut();
        value_plane.copy_from_slice(values);
        care_plane.copy_from_slice(cares);
        row
    }

    /// A row of `neurons` zero value and care words.
    pub fn zeroed(neurons: usize) -> Self {
        let words = vec![0u64; 2 * Self::stride(neurons) + 7];
        // Words from the buffer's start to the next 64-byte boundary.
        let start = (words.as_ptr() as usize).wrapping_neg() % 64 / 8;
        LineAlignedRow {
            words,
            start,
            neurons,
        }
    }

    /// Words from the start of one plane to the start of the next: the
    /// neuron count rounded up to whole lines.
    fn stride(neurons: usize) -> usize {
        neurons.div_ceil(8) * 8
    }

    /// Both planes at once, for an update that rewrites a run of each.
    pub fn planes_mut(&mut self) -> (&mut [u64], &mut [u64]) {
        let stride = Self::stride(self.neurons);
        let planes = &mut self.words[self.start..self.start + 2 * stride];
        let (values, cares) = planes.split_at_mut(stride);
        (&mut values[..self.neurons], &mut cares[..self.neurons])
    }
}

impl crate::batch::WordRow for LineAlignedRow {
    #[inline]
    fn values(&self) -> &[u64] {
        &self.words[self.start..][..self.neurons]
    }

    #[inline]
    fn cares(&self) -> &[u64] {
        &self.words[self.start + Self::stride(self.neurons)..][..self.neurons]
    }
}

/// A copy gets a buffer of its own, aligned afresh.
impl Clone for LineAlignedRow {
    fn clone(&self) -> Self {
        use crate::batch::WordRow;
        LineAlignedRow::new(self.values(), self.cares())
    }
}

impl PartialEq for LineAlignedRow {
    fn eq(&self, other: &Self) -> bool {
        use crate::batch::WordRow;
        self.values() == other.values() && self.cares() == other.cares()
    }
}

impl Eq for LineAlignedRow {}

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
    /// Hand-written AVX2 lowering (x86-64, 4 × 64-bit lanes, nibble-LUT
    /// popcount via `vpshufb` + `vpsadbw`).
    Avx2 = 1,
    /// Hand-written AVX-512 lowering (x86-64, 8 × 64-bit lanes, requires
    /// `avx512f` + `avx512vpopcntdq` for the native `vpopcntq`).
    Avx512 = 2,
    /// Hand-written NEON lowering (aarch64, 2 × 64-bit lanes, `cnt` +
    /// pairwise-add popcount).
    Neon = 3,
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
    pub const ALL: [Dispatch; 4] = [
        Dispatch::Scalar,
        Dispatch::Avx2,
        Dispatch::Avx512,
        Dispatch::Neon,
    ];

    /// The stable lower-case name (`scalar`, `avx2`, `avx512`, `neon`) used
    /// by `BSOM_DISPATCH`, the CI matrix and the bench reports.
    pub fn name(self) -> &'static str {
        match self {
            Dispatch::Scalar => "scalar",
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

    /// `true` iff the running machine can execute this lowering. The scalar
    /// walk is always available; `std::arch` paths need the right
    /// architecture *and* the runtime CPUID/auxval feature gate.
    pub fn is_available(self) -> bool {
        match self {
            Dispatch::Scalar => true,
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
    /// scalar walk.
    pub fn detect() -> Dispatch {
        for candidate in [Dispatch::Avx512, Dispatch::Avx2, Dispatch::Neon] {
            if candidate.is_available() {
                return candidate;
            }
        }
        Dispatch::Scalar
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
            names(Dispatch::available())
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
                "{DISPATCH_ENV}={value}: unknown dispatch (expected {}, widest or auto)",
                names(Dispatch::ALL)
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

/// Comma-separated names of `dispatches`, for error messages.
fn names(dispatches: impl IntoIterator<Item = Dispatch>) -> String {
    dispatches
        .into_iter()
        .map(Dispatch::name)
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

/// Scalar `accumulate_masked_hamming_row`: one distance addition per neuron.
pub(crate) fn accumulate_row_scalar(
    values: &[u64],
    cares: &[u64],
    input: u64,
    distances: &mut [u32],
) {
    for ((d, &v), &c) in distances.iter_mut().zip(values).zip(cares) {
        *d += ((v ^ input) & c).count_ones();
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
// The winner kernel: distances summed and reduced in one pass.
// ---------------------------------------------------------------------------

/// Most inputs one pass of the winner kernel serves. Eight keeps the AVX-512
/// arm's per-input distance, key and address registers within the 32 vector
/// registers.
pub(crate) const WTA_GROUP: usize = 8;

/// Neuron-axis block of the row-kernel arms of the winner kernel: the
/// block's distances (1 KiB) stay in L1 across every word row, and at the
/// paper's 768 bits its plane words (48 KiB) stay close for the next input
/// of the group.
const WTA_BLOCK_NEURONS: usize = 256;

/// Most word rows the AVX-512 arm of the winner kernel takes: 1,024-bit
/// vectors (the paper's 768 bits are 12 rows). It fetches every row's
/// planes once per call into a stack array this long, not once per
/// eight-neuron block; a layer with more rows runs the AVX-512 row lowering
/// over neuron blocks.
const WTA_FETCHED_ROWS: usize = 16;

/// One word row's value and care planes, fetched from its [`WordRow`].
type RowPlanes<'a> = (&'a [u64], &'a [u64]);

/// The comparator key `{distance, #-count}` packed into one word. Both
/// fields fit in 32 bits, so `wta_key(d, c) < wta_key(d', c')` exactly when
/// `(d, c) < (d', c')` lexicographically; the address is the tie-break
/// carried beside it.
#[inline]
pub(crate) fn wta_key(distance: u32, dont_care_count: u32) -> u64 {
    (u64::from(distance) << 32) | u64::from(dont_care_count)
}

/// The winner kernel's row-kernel arm over the neurons `neurons`: each
/// block's distances accumulate through `dispatch`'s row lowering, then the
/// block is reduced into each input's running minimum `(key, address)`. A
/// strict `<` over ascending addresses keeps the lowest address among equal
/// keys.
fn wta_rows<R: WordRow>(
    dispatch: Dispatch,
    rows: &[R],
    dont_care_counts: &[u32],
    inputs: &[&[u64]],
    best: &mut [(u64, usize)],
    neurons: std::ops::Range<usize>,
) {
    let mut distances = [0u32; WTA_BLOCK_NEURONS];
    let mut start = neurons.start;
    while start < neurons.end {
        let end = (start + WTA_BLOCK_NEURONS).min(neurons.end);
        let block = &mut distances[..end - start];
        for (input, best) in inputs.iter().zip(best.iter_mut()) {
            block.fill(0);
            for (row, &x) in rows.iter().zip(*input) {
                accumulate_row_dispatch(
                    dispatch,
                    &row.values()[start..end],
                    &row.cares()[start..end],
                    x,
                    block,
                );
            }
            for (address, (&d, &c)) in
                (start..).zip(block.iter().zip(&dont_care_counts[start..end]))
            {
                let key = wta_key(d, c);
                if key < best.0 {
                    *best = (key, address);
                }
            }
        }
        start = end;
    }
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

    /// The winner kernel for up to [`WTA_GROUP`](super::WTA_GROUP) inputs:
    /// one monomorphized pass per group size, walking `B` eight-neuron
    /// blocks per step so that every group keeps eight to sixteen distance
    /// registers busy per word row it loads.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F + VPOPCNTDQ at runtime; the public entries check
    /// it first. Every load reads through a bounds-checked slice, so a row
    /// shorter than the `#`-counts panics.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    pub(super) unsafe fn wta_group_avx512(
        rows: &[super::RowPlanes],
        dont_care_counts: &[u32],
        inputs: &[&[u64]],
        best: &mut [(u64, usize)],
    ) {
        match inputs.len() {
            1 => wta_avx512::<1, 8>(rows, dont_care_counts, inputs, best),
            2 => wta_avx512::<2, 4>(rows, dont_care_counts, inputs, best),
            3 => wta_avx512::<3, 2>(rows, dont_care_counts, inputs, best),
            4 => wta_avx512::<4, 2>(rows, dont_care_counts, inputs, best),
            5 => wta_avx512::<5, 2>(rows, dont_care_counts, inputs, best),
            6 => wta_avx512::<6, 2>(rows, dont_care_counts, inputs, best),
            7 => wta_avx512::<7, 2>(rows, dont_care_counts, inputs, best),
            _ => wta_avx512::<8, 2>(rows, dont_care_counts, inputs, best),
        }
    }

    /// Each lane keeps its running minimum of the packed key with a strict
    /// `<` over its ascending addresses (steps of `B` blocks, then single
    /// blocks), so among equal keys the lowest address of that lane
    /// survives. The lanes are then reduced on `(key, address)`, and the
    /// fewer than eight neurons past the last whole block go through the
    /// scalar arm, whose addresses are all higher.
    ///
    /// # Safety
    ///
    /// As [`wta_group_avx512`]; `inputs` holds exactly `G` inputs.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    unsafe fn wta_avx512<const G: usize, const B: usize>(
        rows: &[super::RowPlanes],
        dont_care_counts: &[u32],
        inputs: &[&[u64]],
        best: &mut [(u64, usize)],
    ) {
        let inputs: &[&[u64]; G] = inputs.try_into().expect("one pass per group size");
        let neurons = dont_care_counts.len();
        let wide = neurons - neurons % 8;
        let stepped = neurons - neurons % (8 * B);
        let mut minima = LaneMinima {
            keys: [_mm512_set1_epi64(-1); G],
            addresses: [_mm512_setzero_si512(); G],
        };
        wta_blocks::<G, B>(rows, dont_care_counts, inputs, &mut minima, 0..stepped);
        wta_blocks::<G, 1>(rows, dont_care_counts, inputs, &mut minima, stepped..wide);
        for (best, (&lane_keys, &lane_addresses)) in best
            .iter_mut()
            .zip(minima.keys.iter().zip(&minima.addresses))
        {
            let mut keys = [0u64; 8];
            let mut addresses = [0u64; 8];
            _mm512_storeu_si512(keys.as_mut_ptr().cast(), lane_keys);
            _mm512_storeu_si512(addresses.as_mut_ptr().cast(), lane_addresses);
            for (&key, &address) in keys.iter().zip(&addresses) {
                *best = (*best).min((key, address as usize));
            }
        }
        super::wta_rows(
            super::Dispatch::Scalar,
            rows,
            dont_care_counts,
            inputs,
            best,
            wide..neurons,
        );
    }

    /// Per input, each lane's smallest packed key so far and its address.
    struct LaneMinima<const G: usize> {
        keys: [__m512i; G],
        addresses: [__m512i; G],
    }

    /// The neurons `neurons` (a whole number of `B`-block steps) into the
    /// lane minima. Per step, every word row's value and care words are
    /// loaded once and compared against all `G` inputs, whose distances sum
    /// in registers.
    ///
    /// # Safety
    ///
    /// As [`wta_group_avx512`].
    // The register arrays are indexed by input and block together.
    #[allow(clippy::needless_range_loop)]
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    unsafe fn wta_blocks<const G: usize, const B: usize>(
        rows: &[super::RowPlanes],
        dont_care_counts: &[u32],
        inputs: &[&[u64]; G],
        minima: &mut LaneMinima<G>,
        neurons: std::ops::Range<usize>,
    ) {
        let lanes = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
        let mut i = neurons.start;
        while i < neurons.end {
            let step = i..i + 8 * B;
            let mut distances = [[_mm512_setzero_si512(); B]; G];
            for (w, &(values, cares)) in rows.iter().enumerate() {
                // Sliced on every step, so a plane shorter than the step
                // panics here.
                let values = &values[step.clone()];
                let cares = &cares[step.clone()];
                let mut x = [_mm512_setzero_si512(); G];
                for g in 0..G {
                    x[g] = _mm512_set1_epi64(inputs[g][w] as i64);
                }
                for b in 0..B {
                    // SAFETY: both slices hold the `8 * B` words of the
                    // step, and block `b < B` reads the eight at `8 * b`.
                    let v = _mm512_loadu_si512(values.as_ptr().add(8 * b).cast());
                    let c = _mm512_loadu_si512(cares.as_ptr().add(8 * b).cast());
                    for g in 0..G {
                        let masked = _mm512_and_si512(_mm512_xor_si512(v, x[g]), c);
                        distances[g][b] =
                            _mm512_add_epi64(distances[g][b], _mm512_popcnt_epi64(masked));
                    }
                }
            }
            for b in 0..B {
                let at = i + 8 * b;
                // The eight `#`-counts of the block: exactly 256 bits.
                let counts = _mm512_cvtepu32_epi64(_mm256_loadu_si256(
                    dont_care_counts[at..at + 8].as_ptr().cast(),
                ));
                let address = _mm512_add_epi64(_mm512_set1_epi64(at as i64), lanes);
                for g in 0..G {
                    let key = _mm512_or_si512(_mm512_slli_epi64::<32>(distances[g][b]), counts);
                    let better = _mm512_cmplt_epu64_mask(key, minima.keys[g]);
                    minima.keys[g] = _mm512_mask_mov_epi64(minima.keys[g], better, key);
                    minima.addresses[g] =
                        _mm512_mask_mov_epi64(minima.addresses[g], better, address);
                }
            }
            i += 8 * B;
        }
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
// feature gate the `target_feature` contracts require. Each match ends in the
// scalar walk, which serves `Scalar` itself, every dispatch a kernel has no
// arm for, and the variants foreign to the compiled architecture (e.g. `Neon`
// on x86-64), which are never available.

pub(crate) fn accumulate_row_dispatch(
    dispatch: Dispatch,
    values: &[u64],
    cares: &[u64],
    input: u64,
    distances: &mut [u32],
) {
    match dispatch {
        // SAFETY: availability asserted by the public entry (note above).
        #[cfg(target_arch = "x86_64")]
        Dispatch::Avx2 => unsafe { x86::accumulate_row_avx2(values, cares, input, distances) },
        // SAFETY: availability asserted by the public entry (note above).
        #[cfg(target_arch = "x86_64")]
        Dispatch::Avx512 => unsafe { x86::accumulate_row_avx512(values, cares, input, distances) },
        // SAFETY: availability asserted by the public entry (note above).
        #[cfg(target_arch = "aarch64")]
        Dispatch::Neon => unsafe { neon::accumulate_row_neon(values, cares, input, distances) },
        _ => accumulate_row_scalar(values, cares, input, distances),
    }
}

/// The window update has x86 arms; NEON runs the scalar walk, as a window
/// of at most nine neurons leaves a 2-wide arm little to save.
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

/// The winner kernel for up to [`WTA_GROUP`] inputs: the AVX-512 arm
/// walks eight-neuron blocks in registers (for up to [`WTA_FETCHED_ROWS`]
/// rows); every other dispatch runs its row lowering over
/// [`WTA_BLOCK_NEURONS`]-neuron blocks.
pub(crate) fn wta_group_dispatch<R: WordRow>(
    dispatch: Dispatch,
    rows: &[R],
    dont_care_counts: &[u32],
    inputs: &[&[u64]],
    winners: &mut [Option<BatchWinner>],
) {
    let mut best = [(u64::MAX, 0usize); WTA_GROUP];
    let best = &mut best[..inputs.len()];
    match dispatch {
        #[cfg(target_arch = "x86_64")]
        Dispatch::Avx512 if rows.len() <= WTA_FETCHED_ROWS => {
            let mut planes: [RowPlanes; WTA_FETCHED_ROWS] = [(&[], &[]); WTA_FETCHED_ROWS];
            for (slot, row) in planes.iter_mut().zip(rows) {
                *slot = (row.values(), row.cares());
            }
            let planes = &planes[..rows.len()];
            // SAFETY: availability asserted by the public entry (note above).
            unsafe { x86::wta_group_avx512(planes, dont_care_counts, inputs, best) }
        }
        _ => wta_rows(
            dispatch,
            rows,
            dont_care_counts,
            inputs,
            best,
            0..dont_care_counts.len(),
        ),
    }
    for (winner, &(key, index)) in winners.iter_mut().zip(best.iter()) {
        *winner = (!dont_care_counts.is_empty()).then_some(BatchWinner {
            index,
            distance: (key >> 32) as u32,
            dont_care_count: key as u32,
        });
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
    fn line_aligned_rows_start_each_plane_on_a_cache_line() {
        use crate::batch::WordRow;
        for neurons in [0usize, 1, 7, 8, 9, 40, 1025] {
            let values: Vec<u64> = (0..neurons as u64).map(|i| i * 0x9E37).collect();
            let cares: Vec<u64> = values.iter().map(|v| !v).collect();
            let mut row = LineAlignedRow::new(&values, &cares);
            assert_eq!((row.values(), row.cares()), (&values[..], &cares[..]));
            let copy = row.clone();
            assert_eq!(copy, row);
            for plane in [row.values(), row.cares(), copy.values(), copy.cares()] {
                assert_eq!(plane.as_ptr() as usize % 64, 0, "{neurons} neurons");
            }
            if neurons > 0 {
                let (values_mut, cares_mut) = row.planes_mut();
                values_mut[neurons - 1] = 1;
                cares_mut[0] = 2;
                assert_eq!((row.values()[neurons - 1], row.cares()[0]), (1, 2));
                assert_ne!(copy, row);
            }
        }
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
        assert_eq!(Dispatch::from_name("lanes4"), None);
        assert_eq!(Dispatch::from_name("lanes8"), None);
    }

    #[test]
    fn unknown_dispatch_error_lists_exactly_the_lowerings() {
        let error = DispatchEnvError::Unknown {
            value: "lanes8".to_string(),
        };
        assert_eq!(
            error.to_string(),
            "BSOM_DISPATCH=lanes8: unknown dispatch \
             (expected scalar, avx2, avx512, neon, widest or auto)"
        );
    }

    #[test]
    fn portable_paths_are_always_available_and_detect_returns_available() {
        assert!(Dispatch::Scalar.is_available());
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
