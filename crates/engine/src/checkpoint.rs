//! Crash-safe checkpoints and process-lifetime spill frames: a
//! length-prefixed, checksummed frame around the published snapshot version
//! and the trainer's whole state (the crate's one `TrainerState`, which the
//! [`Trainer`](crate::Trainer) trains in place and the codec encodes and
//! decodes as it is), committed by temp-file + atomic rename.
//!
//! ## Frame format (DESIGN.md §"Fault model and recovery")
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"BSOMCKPT"
//! 8       4     format version, u32 little-endian (currently 2)
//! 12      8     payload length `L`, u64 little-endian
//! 20      L     payload: the training state, little-endian fields
//! 20+L    8     FNV-1a-64 checksum of bytes [0, 20+L), u64 little-endian
//! ```
//!
//! The payload stores the map the way the engine holds it: each neuron's
//! value-plane and care-plane words, verbatim (the paper keeps the weights
//! as bit planes in BlockRAM, §V-F). Around them sit the `BSomConfig`
//! fields, the xorshift64\* RNG state, the schedule, the step clocks, the
//! [`EngineConfig`] and the per-neuron decayed label statistics, whose
//! weights travel as raw `f64` bits so a resumed service publishes exactly
//! the labels the checkpointed one would have. DESIGN.md has the field
//! table and a worked example.
//!
//! The checksum covers the header too, so a torn prefix, a truncated tail
//! and a flipped bit anywhere in the file are all rejected with a typed
//! [`CheckpointError`] — never a panic, never a silently-wrong map. The
//! payload decoder reads through the bounded [`LeReader`]: every count
//! (neurons, plane words, wins per neuron) is checked against the bytes left
//! before anything is allocated for it. Plane words are adopted through
//! [`BinaryVector::from_words`] and [`TriStateVector::from_planes`] (no bit
//! beyond the vector length, no value bit outside the care plane), and the
//! map is rebuilt through [`BSom::from_state`], so `#`-counts are recomputed
//! and never read from the file. Anything that fails is
//! [`CheckpointError::Invalid`].
//!
//! Writes go to `<path>.tmp` in the same directory and are then renamed
//! over `path` — on every POSIX filesystem the rename is atomic, so `path`
//! always holds either the old complete frame or the new complete frame,
//! regardless of where a crash lands (the `checkpoint.write` failpoint sits
//! exactly between write and rename to prove it). A checkpoint
//! ([`Trainer::write_checkpoint`]) is also flushed with `sync_all` before
//! the rename, so its bytes are on disk before the rename exposes them. A
//! registry spill frame is not: only the registry that wrote it ever reads
//! it back, within the same process, so it needs the rename and the
//! checksum but not the disk flush (DESIGN.md §"Fault model and recovery").
//!
//! Checkpoints are restored by [`SomService::resume_from_checkpoint`];
//! `examples/crash_recovery.rs` walks the full train → checkpoint → crash →
//! resume loop.
//!
//! [`Trainer::write_checkpoint`]: crate::Trainer::write_checkpoint
//! [`SomService::resume_from_checkpoint`]: crate::SomService::resume_from_checkpoint

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::io::Write;
use std::path::Path;
use std::time::Duration;

use bsom_signature::{BinaryVector, TriStateVector};
use bsom_som::{
    BSom, BSomConfig, NeighbourRule, NeighbourhoodSchedule, ObjectLabel, SelfOrganizingMap,
    TrainSchedule,
};
use serde::{Deserialize, Serialize};

use crate::frame::{LeReader, LeWriter, ReadError};
use crate::service::{DecayedLabelStats, TrainerState};
use crate::throughput::{measure, MeasuredThroughput};
use crate::EngineConfig;

/// The frame's leading magic bytes.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"BSOMCKPT";
/// The frame format this build writes and the only one it accepts. Format 1
/// carried a JSON payload; format 2 carries the little-endian binary payload
/// described in the [module docs](self).
pub const CHECKPOINT_FORMAT: u32 = 2;
/// Bytes before the payload: magic (8) + format (4) + payload length (8).
pub const CHECKPOINT_HEADER_LEN: usize = 20;
/// Trailing checksum bytes.
pub const CHECKPOINT_CHECKSUM_LEN: usize = 8;

/// Errors loading or storing a checkpoint. Every way a file can be wrong —
/// torn, truncated, bit-flipped, or semantically invalid — maps to a typed
/// variant; loading never panics on bad bytes (the `checkpoint_corruption`
/// proptest suite flips and truncates at random offsets to prove it).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The file could not be read, written, synced, or renamed.
    Io {
        /// The failing operation's error, rendered.
        message: String,
    },
    /// Shorter than even an empty frame (header + checksum).
    TooShort {
        /// Actual file length in bytes.
        len: usize,
    },
    /// The first eight bytes are not [`CHECKPOINT_MAGIC`].
    BadMagic {
        /// The bytes found instead.
        found: [u8; 8],
    },
    /// The frame declares a format this build does not understand.
    UnsupportedFormat {
        /// The declared format version.
        found: u32,
    },
    /// The declared payload length runs past the end of the file — a torn
    /// (partially-written) frame.
    Truncated {
        /// Payload bytes the header declares.
        declared: u64,
        /// Payload bytes actually present.
        available: u64,
    },
    /// Extra bytes follow the checksum.
    TrailingBytes {
        /// How many.
        extra: u64,
    },
    /// The stored checksum does not match the frame's content — a flipped
    /// bit or an overwritten region.
    ChecksumMismatch {
        /// Checksum stored in the frame.
        stored: u64,
        /// Checksum computed over the frame's bytes.
        computed: u64,
    },
    /// The frame is intact but the payload is malformed or fails semantic
    /// validation: a field runs past the payload end, a tag is unknown, a
    /// plane is badly packed, or the state breaks an invariant of
    /// [`bsom_som::BSom`] or of the engine.
    Invalid {
        /// What failed.
        message: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { message } => write!(f, "checkpoint io error: {message}"),
            CheckpointError::TooShort { len } => write!(
                f,
                "checkpoint too short: {len} bytes < {} header + {} checksum",
                CHECKPOINT_HEADER_LEN, CHECKPOINT_CHECKSUM_LEN
            ),
            CheckpointError::BadMagic { found } => {
                write!(f, "checkpoint magic mismatch: found {found:02x?}")
            }
            CheckpointError::UnsupportedFormat { found } => write!(
                f,
                "checkpoint format {found} unsupported (this build reads {CHECKPOINT_FORMAT})"
            ),
            CheckpointError::Truncated {
                declared,
                available,
            } => write!(
                f,
                "checkpoint truncated: header declares {declared} payload bytes, {available} present"
            ),
            CheckpointError::TrailingBytes { extra } => {
                write!(f, "checkpoint has {extra} trailing bytes after the checksum")
            }
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            CheckpointError::Invalid { message } => {
                write!(f, "checkpoint payload invalid: {message}")
            }
        }
    }
}

impl Error for CheckpointError {}

impl CheckpointError {
    fn io(error: std::io::Error) -> Self {
        CheckpointError::Io {
            message: error.to_string(),
        }
    }
}

impl From<ReadError> for CheckpointError {
    fn from(error: ReadError) -> Self {
        invalid(error.to_string())
    }
}

fn invalid(message: impl Into<String>) -> CheckpointError {
    CheckpointError::Invalid {
        message: message.into(),
    }
}

/// What [`Trainer::write_checkpoint`] reports about a committed checkpoint.
///
/// [`Trainer::write_checkpoint`]: crate::Trainer::write_checkpoint
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointInfo {
    /// Total bytes of the framed checkpoint file.
    pub bytes: u64,
    /// The service snapshot version recorded in the checkpoint.
    pub version: u64,
}

/// Whether a frame write waits for the disk before its rename.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Durability {
    /// `sync_all` before the rename: the frame's bytes are on disk before
    /// the rename exposes them. Checkpoints.
    Synced,
    /// No `sync_all`: the frame is only read back by the process that wrote
    /// it. Registry spill frames.
    ProcessLifetime,
}

/// Opens a frame: the header, with a payload length that [`seal_frame`]
/// fills in.
fn frame_writer(payload_capacity: usize) -> LeWriter {
    let mut writer =
        LeWriter::with_capacity(CHECKPOINT_HEADER_LEN + payload_capacity + CHECKPOINT_CHECKSUM_LEN);
    writer.bytes(&CHECKPOINT_MAGIC);
    writer.u32(CHECKPOINT_FORMAT);
    writer.u64(0);
    writer
}

/// Closes a frame opened by [`frame_writer`]: patches the payload length
/// and appends the checksum.
fn seal_frame(mut writer: LeWriter) -> Vec<u8> {
    let payload_len = (writer.len() - CHECKPOINT_HEADER_LEN) as u64;
    writer.patch_u64(12, payload_len);
    writer.seal()
}

fn neighbour_rule_tag(rule: NeighbourRule) -> u8 {
    match rule {
        NeighbourRule::SameAsWinner => 0,
        NeighbourRule::RelaxOnly => 1,
        NeighbourRule::WinnerOnly => 2,
    }
}

fn write_option(writer: &mut LeWriter, value: Option<u64>) {
    match value {
        None => writer.u8(0),
        Some(value) => {
            writer.u8(1);
            writer.u64(value);
        }
    }
}

/// Encodes the published `version` and the trainer's `state` as one
/// complete format-2 frame.
pub(crate) fn encode_frame(version: u64, state: &TrainerState) -> Vec<u8> {
    let som = &state.som;
    let config = som.config();
    let plane_bytes = som.neuron_count() * config.vector_len.div_ceil(64) * 16;
    let mut writer = frame_writer(plane_bytes + 256 + state.stats.len() * 32);
    debug_assert_eq!(
        state.stats.len(),
        som.neuron_count(),
        "one stats entry per neuron"
    );

    writer.u64(config.neurons as u64);
    writer.u64(config.vector_len as u64);
    writer.u8(neighbour_rule_tag(config.neighbour_rule));
    writer.f64(config.relax_probability);
    writer.f64(config.commit_probability);
    // Each neuron's value words, then its care words, read straight out of
    // the word rows.
    let layer = som.packed_layer();
    let rows: Vec<(&[u64], &[u64])> = (0..layer.word_row_count())
        .map(|w| (layer.value_row(w), layer.care_row(w)))
        .collect();
    for i in 0..som.neuron_count() {
        for (values, _) in &rows {
            writer.u64(values[i]);
        }
        for (_, cares) in &rows {
            writer.u64(cares[i]);
        }
    }
    writer.u64(som.rng_state());

    let schedule = &state.schedule;
    writer.u64(schedule.iterations as u64);
    let (tag, radius) = match schedule.neighbourhood {
        NeighbourhoodSchedule::Quartered { max_radius } => (0, max_radius),
        NeighbourhoodSchedule::Linear { max_radius } => (1, max_radius),
        NeighbourhoodSchedule::Constant { radius } => (2, radius),
    };
    writer.u8(tag);
    writer.u64(radius as u64);
    writer.f64(schedule.initial_learning_rate);
    writer.f64(schedule.final_learning_rate);

    writer.u64(version);
    writer.u64(state.epochs_run as u64);
    writer.u64(state.steps_run);
    writer.u64(state.steps_since_publish);

    let engine = &state.config;
    writer.u64(engine.workers as u64);
    write_option(&mut writer, engine.unknown_threshold.map(f64::to_bits));
    write_option(&mut writer, engine.publish_every_steps);
    write_option(&mut writer, engine.label_decay.map(f64::to_bits));
    write_option(&mut writer, engine.queue_capacity.map(|c| c as u64));

    for stat in &state.stats {
        writer.u64(stat.last_step);
        writer.u64(stat.wins.len() as u64);
        for (label, weight) in &stat.wins {
            writer.u64(label.id() as u64);
            writer.f64(*weight);
        }
    }
    seal_frame(writer)
}

/// Validates the frame around `bytes` and returns the payload slice.
fn unframe(bytes: &[u8]) -> Result<&[u8], CheckpointError> {
    if bytes.len() < CHECKPOINT_HEADER_LEN + CHECKPOINT_CHECKSUM_LEN {
        return Err(CheckpointError::TooShort { len: bytes.len() });
    }
    let mut header = LeReader::new(&bytes[..CHECKPOINT_HEADER_LEN]);
    let magic = header.take(8)?;
    if magic != CHECKPOINT_MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(magic);
        return Err(CheckpointError::BadMagic { found });
    }
    let format = header.u32()?;
    if format != CHECKPOINT_FORMAT {
        return Err(CheckpointError::UnsupportedFormat { found: format });
    }
    let declared = header.u64()?;
    let after_header = (bytes.len() - CHECKPOINT_HEADER_LEN - CHECKPOINT_CHECKSUM_LEN) as u64;
    if declared > after_header {
        return Err(CheckpointError::Truncated {
            declared,
            available: after_header,
        });
    }
    if declared < after_header {
        return Err(CheckpointError::TrailingBytes {
            extra: after_header - declared,
        });
    }
    let checksum_at = bytes.len() - CHECKPOINT_CHECKSUM_LEN;
    let stored = LeReader::new(&bytes[checksum_at..]).u64()?;
    let computed = crate::frame::fnv1a64(&bytes[..checksum_at]);
    if stored != computed {
        return Err(CheckpointError::ChecksumMismatch { stored, computed });
    }
    Ok(&bytes[CHECKPOINT_HEADER_LEN..checksum_at])
}

fn usize_field(value: u64, what: &str) -> Result<usize, CheckpointError> {
    usize::try_from(value).map_err(|_| invalid(format!("{what} {value} does not fit in usize")))
}

fn read_option<T>(
    reader: &mut LeReader<'_>,
    what: &str,
    read: impl FnOnce(&mut LeReader<'_>) -> Result<T, CheckpointError>,
) -> Result<Option<T>, CheckpointError> {
    match reader.u8()? {
        0 => Ok(None),
        1 => read(reader).map(Some),
        tag => Err(invalid(format!("{what}: unknown option tag {tag}"))),
    }
}

/// Reads one `vector_len`-bit plane of `words` words, adopting them only if
/// they are packed correctly.
fn read_plane(
    reader: &mut LeReader<'_>,
    words: usize,
    vector_len: usize,
    neuron: usize,
    plane: &str,
) -> Result<BinaryVector, CheckpointError> {
    BinaryVector::from_words(reader.words(words)?, vector_len)
        .map_err(|error| invalid(format!("neuron {neuron} {plane} plane: {error}")))
}

/// Decodes and validates a format-2 payload into the published version and
/// the trainer's state.
fn decode_payload(payload: &[u8]) -> Result<(u64, TrainerState), CheckpointError> {
    let mut reader = LeReader::new(payload);

    let neurons = usize_field(reader.u64()?, "neuron count")?;
    let vector_len = usize_field(reader.u64()?, "vector length")?;
    // `BSom::from_state` rejects an empty map too, but only after the plane
    // loop; zero-word planes would make the neuron-count bound below vacuous.
    if neurons == 0 || vector_len == 0 {
        return Err(invalid(format!(
            "empty map (neurons = {neurons}, vector_len = {vector_len})"
        )));
    }
    let neighbour_rule = match reader.u8()? {
        0 => NeighbourRule::SameAsWinner,
        1 => NeighbourRule::RelaxOnly,
        2 => NeighbourRule::WinnerOnly,
        tag => return Err(invalid(format!("unknown neighbour rule {tag}"))),
    };
    let som_config = BSomConfig {
        neurons,
        vector_len,
        neighbour_rule,
        relax_probability: reader.f64()?,
        commit_probability: reader.f64()?,
    };
    let words = vector_len.div_ceil(64);
    reader.ensure_elements(neurons as u64, words.saturating_mul(16))?;
    let mut weights = Vec::with_capacity(neurons);
    for neuron in 0..neurons {
        let value = read_plane(&mut reader, words, vector_len, neuron, "value")?;
        let care = read_plane(&mut reader, words, vector_len, neuron, "care")?;
        let weight = TriStateVector::from_planes(value, care)
            .map_err(|error| invalid(format!("neuron {neuron}: {error}")))?;
        weights.push(weight);
    }
    let som = BSom::from_state(som_config, weights, reader.u64()?)
        .map_err(|error| invalid(error.to_string()))?;

    let iterations = usize_field(reader.u64()?, "schedule iterations")?;
    let tag = reader.u8()?;
    let radius = usize_field(reader.u64()?, "neighbourhood radius")?;
    let neighbourhood = match tag {
        0 => NeighbourhoodSchedule::Quartered { max_radius: radius },
        1 => NeighbourhoodSchedule::Linear { max_radius: radius },
        2 => NeighbourhoodSchedule::Constant { radius },
        tag => return Err(invalid(format!("unknown neighbourhood schedule {tag}"))),
    };
    let schedule = TrainSchedule {
        iterations,
        neighbourhood,
        initial_learning_rate: reader.f64()?,
        final_learning_rate: reader.f64()?,
    };

    let version = reader.u64()?;
    let epochs_run = usize_field(reader.u64()?, "epochs run")?;
    let steps_run = reader.u64()?;
    let steps_since_publish = reader.u64()?;

    let config = EngineConfig {
        workers: usize_field(reader.u64()?, "worker count")?,
        unknown_threshold: read_option(&mut reader, "unknown threshold", |r| Ok(r.f64()?))?,
        publish_every_steps: read_option(&mut reader, "publish cadence", |r| Ok(r.u64()?))?,
        label_decay: read_option(&mut reader, "label decay", |r| Ok(r.f64()?))?,
        queue_capacity: read_option(&mut reader, "queue capacity", |r| {
            usize_field(r.u64()?, "queue capacity")
        })?,
    };
    validate_config(&config)?;

    let mut stats = Vec::with_capacity(neurons);
    for neuron in 0..neurons {
        let last_step = reader.u64()?;
        let count = reader.u64()?;
        reader.ensure_elements(count, 16)?;
        let mut wins = BTreeMap::new();
        let mut previous: Option<u64> = None;
        for _ in 0..count {
            let label = reader.u64()?;
            let weight = reader.f64()?;
            if previous.is_some_and(|previous| label <= previous) {
                return Err(invalid(format!(
                    "neuron {neuron}: win labels not strictly ascending at label {label}"
                )));
            }
            previous = Some(label);
            if !weight.is_finite() || weight <= 0.0 {
                return Err(invalid(format!(
                    "neuron {neuron} label {label}: win weight {weight} must be finite and positive"
                )));
            }
            wins.insert(ObjectLabel::new(usize_field(label, "label")?), weight);
        }
        stats.push(DecayedLabelStats { wins, last_step });
    }
    reader.finish()?;

    let state = TrainerState {
        som,
        schedule,
        epochs_run,
        steps_run,
        steps_since_publish,
        config,
        stats,
    };
    Ok((version, state))
}

/// The invariants the [`EngineConfig`] builders assert, checked on a stored
/// config.
fn validate_config(config: &EngineConfig) -> Result<(), CheckpointError> {
    if let Some(decay) = config.label_decay {
        if !(decay > 0.0 && decay < 1.0) {
            return Err(invalid(format!("label decay {decay} outside (0, 1)")));
        }
    }
    if config.publish_every_steps == Some(0) {
        return Err(invalid("publish cadence of zero steps"));
    }
    if config.queue_capacity == Some(0) {
        return Err(invalid("queue capacity of zero"));
    }
    Ok(())
}

/// Validates a whole frame and decodes its payload.
pub(crate) fn decode_frame(bytes: &[u8]) -> Result<(u64, TrainerState), CheckpointError> {
    decode_payload(unframe(bytes)?)
}

/// Frames `version` and `state` and commits them to `path` atomically:
/// write `<path>.tmp` → `sync_all` (for [`Durability::Synced`] only) →
/// rename over `path`.
pub(crate) fn write(
    path: &Path,
    version: u64,
    state: &TrainerState,
    durability: Durability,
) -> Result<CheckpointInfo, CheckpointError> {
    let frame = encode_frame(version, state);
    let file_name = path
        .file_name()
        .ok_or_else(|| CheckpointError::Io {
            message: format!("checkpoint path {} has no file name", path.display()),
        })?
        .to_owned();
    let mut tmp_name = file_name;
    tmp_name.push(".tmp");
    let tmp_path = path.with_file_name(tmp_name);
    let mut file = std::fs::File::create(&tmp_path).map_err(CheckpointError::io)?;
    file.write_all(&frame).map_err(CheckpointError::io)?;
    if durability == Durability::Synced {
        file.sync_all().map_err(CheckpointError::io)?;
    }
    drop(file);
    // A crash here (the failpoint's spot) leaves a complete `.tmp` beside an
    // untouched `path`: the previous frame still loads.
    crate::faultpoint::hit("checkpoint.write");
    std::fs::rename(&tmp_path, path).map_err(CheckpointError::io)?;
    Ok(CheckpointInfo {
        bytes: frame.len() as u64,
        version,
    })
}

/// Reads, unframes, decodes and validates the frame at `path`: the
/// published version it records and the trainer's state.
pub(crate) fn read(path: &Path) -> Result<(u64, TrainerState), CheckpointError> {
    crate::faultpoint::hit("checkpoint.read");
    let bytes = std::fs::read(path).map_err(CheckpointError::io)?;
    decode_frame(&bytes)
}

/// Checkpoint write/restore latency at a given map shape — the durability
/// cost model `bench_report` tracks in `BENCH_large_map.json` next to the
/// publish and search figures.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CheckpointThroughputComparison {
    /// Neurons in the measured map.
    pub neurons: usize,
    /// Bits per weight vector.
    pub vector_len: usize,
    /// Size of one framed checkpoint of that map, in bytes.
    pub checkpoint_bytes: u64,
    /// Full checkpoint commits (serialise + frame + write + sync + rename)
    /// per second.
    pub write: MeasuredThroughput,
    /// Full restores ([`SomService::resume_from_checkpoint`], including
    /// service construction) per second.
    ///
    /// [`SomService::resume_from_checkpoint`]: crate::SomService::resume_from_checkpoint
    pub restore: MeasuredThroughput,
}

impl std::fmt::Display for CheckpointThroughputComparison {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "checkpoint costs ({} neurons x {} bits, {} KiB framed)",
            self.neurons,
            self.vector_len,
            self.checkpoint_bytes / 1024
        )?;
        writeln!(
            f,
            "  write (serialise+sync+rename)    {:>12.1} checkpoints/s",
            self.write.patterns_per_second
        )?;
        write!(
            f,
            "  restore (validate+rebuild)       {:>12.1} resumes/s",
            self.restore.patterns_per_second
        )
    }
}

/// Measures checkpoint write and restore latency on a freshly trained map of
/// the given shape. `train_steps` signatures are fed first so the
/// checkpoint carries realistic (non-empty) label statistics;
/// `min_duration` is spent on **each** of the two measurements. The
/// checkpoint file lives in the OS temp directory and is removed before
/// returning.
///
/// # Panics
///
/// Panics if the temp directory is not writable (benchmark infrastructure,
/// not a recoverable serving condition).
pub fn compare_checkpoint_throughput(
    config: BSomConfig,
    train_steps: usize,
    min_duration: Duration,
    seed: u64,
) -> CheckpointThroughputComparison {
    use bsom_signature::BinaryVector;
    use bsom_som::ObjectLabel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(seed);
    let neurons = config.neurons;
    let vector_len = config.vector_len;
    let som = BSom::new(config, &mut rng);
    let (_service, mut trainer) = crate::SomService::train_while_serve(
        som,
        TrainSchedule::new(train_steps.max(1)),
        &[],
        EngineConfig::with_workers(1),
    );
    for step in 0..train_steps {
        let signature = BinaryVector::random(vector_len, &mut rng);
        trainer
            .feed(&signature, ObjectLabel::new(step % 8))
            .expect("generated signatures match the map's vector length");
    }
    trainer.publish();

    let path = std::env::temp_dir().join(format!(
        "bsom-checkpoint-bench-{}-{seed:x}.ckpt",
        std::process::id()
    ));
    let info = trainer
        .write_checkpoint(&path)
        .expect("the OS temp directory is writable");
    let write = measure(1, min_duration, || {
        trainer
            .write_checkpoint(&path)
            .expect("the OS temp directory is writable");
    });
    let restore = measure(1, min_duration, || {
        let restored = crate::SomService::resume_from_checkpoint(&path)
            .expect("a just-written checkpoint restores");
        std::hint::black_box(&restored);
    });
    let _ = std::fs::remove_file(&path);

    CheckpointThroughputComparison {
        neurons,
        vector_len,
        checkpoint_bytes: info.bytes,
        write,
        restore,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A frame around arbitrary payload bytes, for the header checks.
    fn frame_around(payload: &[u8]) -> Vec<u8> {
        let mut writer = frame_writer(payload.len());
        writer.bytes(payload);
        seal_frame(writer)
    }

    #[test]
    fn frame_roundtrip_and_every_field_of_the_header_is_checked() {
        let payload = b"\x01\x02 a binary payload";
        let frame = frame_around(payload);
        assert_eq!(unframe(&frame).unwrap(), payload);

        // Too short.
        assert_eq!(
            unframe(&frame[..CHECKPOINT_HEADER_LEN]),
            Err(CheckpointError::TooShort {
                len: CHECKPOINT_HEADER_LEN
            })
        );
        // Bad magic.
        let mut bad = frame.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            unframe(&bad),
            Err(CheckpointError::BadMagic { .. })
        ));
        // Unsupported format.
        let mut bad = frame.clone();
        bad[8] = 0xEE;
        assert!(matches!(
            unframe(&bad),
            Err(CheckpointError::UnsupportedFormat { .. })
        ));
        // Truncated payload (frame cut inside the payload).
        assert!(matches!(
            unframe(&frame[..frame.len() - CHECKPOINT_CHECKSUM_LEN - 1]),
            Err(CheckpointError::Truncated { .. })
        ));
        // Trailing bytes.
        let mut long = frame.clone();
        long.push(0);
        assert!(matches!(
            unframe(&long),
            Err(CheckpointError::TrailingBytes { extra: 1 })
        ));
        // Flipped payload bit.
        let mut flipped = frame.clone();
        flipped[CHECKPOINT_HEADER_LEN + 2] ^= 0x10;
        assert!(matches!(
            unframe(&flipped),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
    }

    /// The worked example of DESIGN.md §"Fault model and recovery": a
    /// one-neuron, one-bit map whose only trit is `1`, one recorded win of
    /// label 3, default schedule and a one-worker config.
    fn worked_example() -> Vec<u8> {
        let som = BSom::from_state(
            BSomConfig::new(1, 1),
            vec![TriStateVector::from_str("1").unwrap()],
            0x9E37_79B9_7F4A_7C15,
        )
        .unwrap();
        let stats = vec![DecayedLabelStats {
            wins: BTreeMap::from([(ObjectLabel::new(3), 1.0)]),
            last_step: 0,
        }];
        let state = TrainerState {
            som,
            schedule: TrainSchedule::new(10),
            epochs_run: 0,
            steps_run: 1,
            steps_since_publish: 0,
            config: EngineConfig::with_workers(1),
            stats,
        };
        encode_frame(1, &state)
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|byte| format!("{byte:02x}")).collect()
    }

    #[test]
    fn the_worked_example_has_the_documented_bytes() {
        let frame = worked_example();
        let expected = [
            "42534f4d434b5054", // magic "BSOMCKPT"
            "02000000",         // format 2
            "a600000000000000", // payload length 166
            "0100000000000000", // neurons 1
            "0100000000000000", // vector_len 1
            "00",               // neighbour rule: same as winner
            "333333333333d33f", // relax probability 0.3
            "333333333333d33f", // commit probability 0.3
            "0100000000000000", // neuron 0 value plane: bit 0 set
            "0100000000000000", // neuron 0 care plane: bit 0 concrete
            "157c4a7fb979379e", // rng state 0x9e3779b97f4a7c15
            "0a00000000000000", // schedule iterations 10
            "00",               // neighbourhood: quartered
            "0400000000000000", // max radius 4
            "000000000000e03f", // initial learning rate 0.5
            "7b14ae47e17a843f", // final learning rate 0.01
            "0100000000000000", // service version 1
            "0000000000000000", // epochs run 0
            "0100000000000000", // steps run 1
            "0000000000000000", // steps since publish 0
            "0100000000000000", // workers 1
            "00000000",         // four `None` options
            "0000000000000000", // neuron 0 last win at step 0
            "0100000000000000", // one win
            "0300000000000000", // label 3
            "000000000000f03f", // weight 1.0
            "50047ecdd200b190", // FNV-1a-64 of the 186 bytes above
        ]
        .concat();
        assert_eq!(hex(&frame), expected);
        assert_eq!(
            crate::frame::fnv1a64(&frame[..frame.len() - CHECKPOINT_CHECKSUM_LEN]),
            0x90b1_00d2_cd7e_0450
        );
        let (version, state) = decode_frame(&frame).expect("the worked example decodes");
        assert_eq!(version, 1);
        assert_eq!(state.som.neurons()[0].to_trit_string(), "1");
        assert_eq!(state.stats[0].majority_label(), Some(ObjectLabel::new(3)));
    }

    fn arbitrary_state(
        seed: u64,
        neurons: usize,
        vector_len: usize,
        tags: (u8, u8, u8),
        empty_wins: bool,
    ) -> (BSom, TrainSchedule, EngineConfig, Vec<DecayedLabelStats>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (rule, neighbourhood, options) = tags;
        let rule = [
            NeighbourRule::SameAsWinner,
            NeighbourRule::RelaxOnly,
            NeighbourRule::WinnerOnly,
        ][rule as usize];
        let weights = (0..neurons)
            .map(|_| TriStateVector::random_with_dont_care(vector_len, 0.3, &mut rng))
            .collect();
        let config = BSomConfig::new(neurons, vector_len)
            .with_neighbour_rule(rule)
            .with_update_probabilities(rng.gen(), rng.gen());
        let som = BSom::from_state(config, weights, rng.gen::<u64>() | 1).unwrap();
        let radius = rng.gen_range(1..9);
        let neighbourhood = match neighbourhood {
            0 => NeighbourhoodSchedule::Quartered { max_radius: radius },
            1 => NeighbourhoodSchedule::Linear { max_radius: radius },
            _ => NeighbourhoodSchedule::Constant { radius },
        };
        let schedule = TrainSchedule::new(rng.gen_range(0..10_000))
            .with_neighbourhood(neighbourhood)
            .with_learning_rate(rng.gen(), rng.gen());
        let option = |bit: u8| options & (1 << bit) != 0;
        let engine = EngineConfig {
            workers: rng.gen_range(0..16),
            unknown_threshold: option(0).then(|| rng.gen::<f64>() * 768.0),
            publish_every_steps: option(1).then(|| rng.gen_range(1..1_000)),
            label_decay: option(2).then(|| 0.01 + 0.98 * rng.gen::<f64>()),
            queue_capacity: option(3).then(|| rng.gen_range(1..256)),
        };
        let stats = (0..neurons)
            .map(|_| DecayedLabelStats {
                wins: if empty_wins {
                    BTreeMap::new()
                } else {
                    (0..rng.gen_range(0..5))
                        .map(|_| {
                            (
                                ObjectLabel::new(rng.gen_range(0..1_000)),
                                rng.gen::<f64>() * 50.0 + 1e-6,
                            )
                        })
                        .collect()
                },
                last_step: rng.gen(),
            })
            .collect();
        (som, schedule, engine, stats)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Every state the trainer can hold survives encode → decode
        /// exactly — weights, recomputed `#`-counts, RNG position, schedule,
        /// clocks, config and raw-bit label weights — and re-encodes to the
        /// same bytes.
        #[test]
        fn every_training_state_round_trips_exactly(
            shape in (1usize..65, 1usize..301),
            tags in (0u8..3, 0u8..3, 0u8..16),
            seed in any::<u64>(),
            empty_wins in any::<bool>(),
        ) {
            let (neurons, vector_len) = shape;
            let (som, schedule, config, stats) =
                arbitrary_state(seed, neurons, vector_len, tags, empty_wins);
            let clocks: (u64, usize, u64, u64) = (seed >> 3, (seed % 977) as usize, seed >> 7, seed % 13);
            let state = TrainerState {
                som,
                schedule,
                epochs_run: clocks.1,
                steps_run: clocks.2,
                steps_since_publish: clocks.3,
                config,
                stats,
            };
            let frame = encode_frame(clocks.0, &state);
            let (version, doc) = decode_frame(&frame).map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(&doc.som, &state.som);
            prop_assert_eq!(doc.som.dont_care_counts(), state.som.dont_care_counts());
            prop_assert_eq!(doc.som.packed_layer(), state.som.packed_layer());
            prop_assert_eq!(doc.schedule, state.schedule);
            prop_assert_eq!(
                (version, doc.epochs_run, doc.steps_run, doc.steps_since_publish),
                clocks
            );
            prop_assert_eq!(doc.config, state.config);
            prop_assert_eq!(&doc.stats, &state.stats);
            let again = encode_frame(version, &doc);
            prop_assert!(again == frame, "re-encoding must reproduce the frame");
        }
    }

    #[test]
    fn error_display_is_nonempty() {
        let errors = [
            CheckpointError::Io {
                message: "x".into(),
            },
            CheckpointError::TooShort { len: 1 },
            CheckpointError::BadMagic { found: [0; 8] },
            CheckpointError::UnsupportedFormat { found: 9 },
            CheckpointError::Truncated {
                declared: 10,
                available: 2,
            },
            CheckpointError::TrailingBytes { extra: 3 },
            CheckpointError::ChecksumMismatch {
                stored: 1,
                computed: 2,
            },
            CheckpointError::Invalid {
                message: "y".into(),
            },
        ];
        for error in errors {
            assert!(!error.to_string().is_empty());
        }
    }
}
