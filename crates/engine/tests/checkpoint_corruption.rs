//! Property suite: **corrupted checkpoints are rejected with a typed error,
//! never a panic and never a silently-wrong map.**
//!
//! A checkpoint frame is length-prefixed and FNV-1a-checksummed (DESIGN.md
//! §"Fault model and recovery"), so any single bit flip and any truncation
//! must surface as a [`CheckpointError`] from
//! [`SomService::resume_from_checkpoint`]. proptest treats a panic inside
//! the closure as a failure, so these properties also prove the decode path
//! is panic-free on adversarial input.
//!
//! The crafted-payload cases below go one step further: they re-frame a
//! tampered payload with a *correct* length and checksum, so only the
//! payload decoder stands between the bytes and a loaded map. Badly packed
//! planes and lying counts must come back as [`CheckpointError::Invalid`].

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use bsom_engine::checkpoint::{CHECKPOINT_CHECKSUM_LEN, CHECKPOINT_HEADER_LEN, CHECKPOINT_MAGIC};
use bsom_engine::frame::fnv1a64;
use bsom_engine::{CheckpointError, EngineConfig, SomService};
use bsom_signature::BinaryVector;
use bsom_som::{BSom, BSomConfig, ObjectLabel, TrainSchedule};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The checkpoint frame of a `neurons × vector_len` map trained for 30
/// labelled steps.
fn trained_frame(neurons: usize, vector_len: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let som = BSom::new(BSomConfig::new(neurons, vector_len), &mut rng);
    let (_service, mut trainer) = SomService::train_while_serve(
        som,
        TrainSchedule::new(4),
        &[],
        EngineConfig::with_workers(1),
    );
    for step in 0..30 {
        let signature = BinaryVector::random(vector_len, &mut rng);
        trainer
            .feed(&signature, ObjectLabel::new(step % 3))
            .unwrap();
    }
    trainer.publish();
    let path = scratch_path();
    trainer.write_checkpoint(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(
        bytes.len() > CHECKPOINT_HEADER_LEN + CHECKPOINT_CHECKSUM_LEN,
        "frame must be header + payload + checksum"
    );
    bytes
}

/// One pristine checkpoint frame, built once: spawning a service per proptest
/// case would fork worker threads hundreds of times for no extra coverage.
fn pristine_frame() -> &'static [u8] {
    static FRAME: OnceLock<Vec<u8>> = OnceLock::new();
    FRAME.get_or_init(|| trained_frame(6, 72))
}

/// A fresh scratch file per call, so parallel proptest cases never collide.
fn scratch_path() -> PathBuf {
    static SERIAL: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "bsom-checkpoint-corruption-{}-{}.ckpt",
        std::process::id(),
        SERIAL.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Writes `bytes` to a scratch file and attempts a resume; hands back the
/// result and cleans the file up. Panics inside `resume_from_checkpoint`
/// propagate and fail the proptest case — that is the point.
fn resume_bytes(bytes: &[u8]) -> Result<(), bsom_engine::CheckpointError> {
    let path = scratch_path();
    std::fs::write(&path, bytes).unwrap();
    let outcome = SomService::resume_from_checkpoint(&path).map(drop);
    std::fs::remove_file(&path).ok();
    outcome
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single bit flip anywhere in the frame — header, payload or
    /// checksum — is rejected with a typed error.
    #[test]
    fn a_single_bit_flip_anywhere_is_rejected(position in any::<usize>(), bit in 0u8..8) {
        let mut bytes = pristine_frame().to_vec();
        let offset = position % bytes.len();
        bytes[offset] ^= 1 << bit;
        let outcome = resume_bytes(&bytes);
        prop_assert!(
            outcome.is_err(),
            "flipping bit {bit} of byte {offset} must not load"
        );
    }

    /// Any truncation — from an empty file up to one byte short — is
    /// rejected with a typed error.
    #[test]
    fn any_truncation_is_rejected(position in any::<usize>()) {
        let frame = pristine_frame();
        let keep = position % frame.len(); // 0..len, never the full frame
        let outcome = resume_bytes(&frame[..keep]);
        prop_assert!(outcome.is_err(), "a frame cut to {keep} bytes must not load");
    }

    /// Appending garbage after a valid frame is rejected (`TrailingBytes`):
    /// a concatenated or doubly-written file never half-loads.
    #[test]
    fn trailing_garbage_is_rejected(extra in prop::collection::vec(any::<u8>(), 1..64)) {
        let mut bytes = pristine_frame().to_vec();
        bytes.extend_from_slice(&extra);
        let outcome = resume_bytes(&bytes);
        prop_assert!(outcome.is_err(), "trailing bytes must not load");
    }

    /// Arbitrary byte soup — no structure at all — is rejected without a
    /// panic.
    #[test]
    fn random_bytes_are_rejected(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let outcome = resume_bytes(&bytes);
        prop_assert!(outcome.is_err(), "random bytes must not load as a checkpoint");
    }
}

/// Sanity anchor for the properties above: the pristine frame itself *does*
/// load. (If this fails, the corruption properties would pass vacuously.)
#[test]
fn the_pristine_frame_loads() {
    resume_bytes(pristine_frame()).expect("the uncorrupted frame must load");
}

/// Frames `payload` as a format-`format` checkpoint with a correct length
/// prefix and checksum.
fn reframe(format: u32, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(payload.len() + 28);
    frame.extend_from_slice(&CHECKPOINT_MAGIC);
    frame.extend_from_slice(&format.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    frame.extend_from_slice(payload);
    let checksum = fnv1a64(&frame);
    frame.extend_from_slice(&checksum.to_le_bytes());
    frame
}

/// Payload offsets of a 4 × 100 map, from the layout table in DESIGN.md
/// §"Fault model and recovery": 33 bytes of map config, then per neuron two
/// 100-bit planes of two words each (value, then care).
mod layout_4x100 {
    pub const PLANES: usize = 33;
    pub const PLANE_BYTES: usize = 16;
    pub const NEURON_BYTES: usize = 2 * PLANE_BYTES;
    /// Value plane of neuron `n`.
    pub fn value(n: usize) -> usize {
        PLANES + n * NEURON_BYTES
    }
    /// Care plane of neuron `n`.
    pub fn care(n: usize) -> usize {
        value(n) + PLANE_BYTES
    }
    /// After the planes: rng state (8), schedule (33), clocks (32), workers
    /// (8) and four `None` option tags (4) — then neuron 0's stats open with
    /// its last step (8) and its win count (8).
    pub const WIN_COUNT_0: usize = PLANES + 4 * NEURON_BYTES + 8 + 33 + 32 + 8 + 4 + 8;
}

/// The payload of a valid checkpoint of a 4 × 100 map: 36 unused tail bits
/// in the second word of every plane.
fn payload_4x100() -> Vec<u8> {
    let frame = trained_frame(4, 100);
    frame[CHECKPOINT_HEADER_LEN..frame.len() - CHECKPOINT_CHECKSUM_LEN].to_vec()
}

fn assert_invalid(payload: &[u8], case: &str) {
    match resume_bytes(&reframe(2, payload)) {
        Err(CheckpointError::Invalid { .. }) => {}
        other => panic!("{case}: expected CheckpointError::Invalid, got {other:?}"),
    }
}

#[test]
fn the_pristine_4x100_payload_reframed_loads() {
    resume_bytes(&reframe(2, &payload_4x100())).expect("re-framing alone changes nothing");
}

#[test]
fn a_set_tail_bit_in_a_plane_is_invalid() {
    let mut payload = payload_4x100();
    // Bit 63 of neuron 0's second value word: 100 bits end at bit 35.
    payload[layout_4x100::value(0) + 15] |= 0x80;
    assert_invalid(&payload, "tail bit");
}

#[test]
fn a_plane_one_word_short_is_invalid() {
    let mut payload = payload_4x100();
    let word = layout_4x100::care(0) + 8;
    payload.drain(word..word + 8);
    assert_invalid(&payload, "short plane");
}

#[test]
fn a_value_bit_outside_the_care_plane_is_invalid() {
    let mut payload = payload_4x100();
    // Make bit 0 of neuron 1 a `#` on the care plane. With value 0 that is a
    // valid map; with value 1 it is not.
    payload[layout_4x100::care(1)] &= !1;
    payload[layout_4x100::value(1)] &= !1;
    resume_bytes(&reframe(2, &payload)).expect("a # with value 0 loads");
    payload[layout_4x100::value(1)] |= 1;
    assert_invalid(&payload, "value outside care");
}

#[test]
fn a_win_count_larger_than_the_payload_is_invalid() {
    let mut payload = payload_4x100();
    let at = layout_4x100::WIN_COUNT_0;
    let count = u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
    assert!(
        count <= 3,
        "fixture: neuron 0 holds at most 3 labels, read {count}"
    );
    for lie in [u64::MAX, 1 << 40, count + 64] {
        payload[at..at + 8].copy_from_slice(&lie.to_le_bytes());
        assert_invalid(&payload, "win count");
    }
}

/// A format-1 frame — the JSON checkpoint this build no longer reads — is
/// refused by its header, before any payload byte is looked at. The bytes
/// are the format-1 worked example: the payload `{}`, correctly framed.
#[test]
fn a_format_1_frame_is_unsupported() {
    let frame = reframe(1, b"{}");
    assert_eq!(fnv1a64(&frame[..frame.len() - 8]), 0xbb75_930a_7716_3da7);
    assert_eq!(
        resume_bytes(&frame),
        Err(CheckpointError::UnsupportedFormat { found: 1 })
    );
}
