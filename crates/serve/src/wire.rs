//! The length-prefixed wire format of the serving front-end.
//!
//! Every message on a `bsom-serve` connection is one *frame*, laid out like
//! the engine's checkpoint frames (`bsom_engine::checkpoint`) so the two
//! formats share a fault model — see DESIGN.md §"The serving front-end" for
//! the worked example:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"BSOMWIRE"
//! 8       4     format version, u32 LE (1 or 2)
//! 12      1     message kind (see below)
//! 13      8     payload length L, u64 LE
//! 21      L     payload (kind-specific, fixed-width LE fields)
//! 21+L    8     FNV-1a-64 checksum of bytes [0, 21+L), u64 LE
//! ```
//!
//! Decoding never trusts the length prefix before bounding it
//! ([`MAX_WIRE_PAYLOAD`]) and never panics on malformed input: every failure
//! is a typed [`WireError`]. Signature payloads carry the packed 64-bit
//! words of [`BinaryVector`] verbatim, so decoding adopts the words through
//! [`BinaryVector::from_words`] without per-bit repacking — the zero-copy
//! path into a `SignatureBatch` — and rejects any frame whose tail bits
//! violate the packing invariant.
//!
//! # Format 2: tenant addressing
//!
//! Format 2 frames front the multi-tenant
//! [`MapRegistry`](bsom_engine::registry::MapRegistry): every *request*
//! payload that routes to a tenant (classify, train, drain) opens with a
//! tenant-id prefix — a `u32` length followed by that many UTF-8 bytes
//! (≤ [`MAX_TENANT_ID_BYTES`]), where length 0 means the server's default
//! tenant. Response payloads are unchanged (the connection knows which
//! request a response answers). Format 2 also adds the train request /
//! response kinds, which do not exist in format 1.
//!
//! Compatibility is strictly one-way and proven by `tests/wire_corruption.rs`:
//!
//! * The encoder emits format 1 whenever the message is expressible in it
//!   (no tenant, no train kind), byte-identical to the format-1 encoder, so
//!   old servers keep working with new default-tenant clients.
//! * This decoder accepts both formats; a format-1 frame simply has no
//!   tenant field and routes to the default tenant.
//! * An old (format-1-only) decoder rejects every format-2 frame with a
//!   typed [`WireError::UnsupportedFormat`] before reading any payload —
//!   emulated by [`decode_message_with_max_format`].

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

use bsom_signature::BinaryVector;
use bsom_som::{ObjectLabel, Prediction};
use serde::{Deserialize, Serialize};

/// Magic bytes opening every frame.
pub const WIRE_MAGIC: [u8; 8] = *b"BSOMWIRE";

/// The baseline wire format version: no tenant addressing.
pub const WIRE_FORMAT: u32 = 1;

/// The tenant-addressed wire format version (see the [module docs](self)
/// §"Format 2"). The encoder uses it only for messages format 1 cannot
/// express; the decoder accepts both.
pub const WIRE_FORMAT_TENANT: u32 = 2;

/// Longest tenant id (in UTF-8 bytes) a format-2 frame may carry.
pub const MAX_TENANT_ID_BYTES: usize = 128;

/// Most labelled examples one train request may carry.
pub const MAX_TRAIN_EXAMPLES: u32 = 4096;

/// Fixed frame header length: magic (8) + format (4) + kind (1) + payload
/// length (8).
pub const WIRE_HEADER_LEN: usize = 21;

/// Trailing checksum length.
pub const WIRE_CHECKSUM_LEN: usize = 8;

/// Hard upper bound on a frame's declared payload length. A length prefix
/// above this is rejected *before* any allocation, so a corrupted or hostile
/// prefix cannot drive an out-of-memory.
pub const MAX_WIRE_PAYLOAD: u64 = 16 * 1024 * 1024;

/// Most signatures one classify request may carry.
pub const MAX_REQUEST_SIGNATURES: u32 = 4096;

/// Longest signature (in bits) a classify request may carry.
pub const MAX_VECTOR_BITS: u32 = 1 << 16;

/// FNV-1a-64 over `bytes` — the same checksum the checkpoint frames use
/// (offset basis `0xcbf2_9ce4_8422_2325`, prime `0x100_0000_01b3`), kept
/// `pub` so the worked example in DESIGN.md stays verifiable.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Message kinds (the `kind` header byte). Requests have the high bit
/// clear, responses have it set.
mod kind {
    pub const CLASSIFY_REQUEST: u8 = 0x01;
    pub const HEALTH_REQUEST: u8 = 0x02;
    pub const DRAIN_REQUEST: u8 = 0x03;
    /// Format 2 only: feed labelled examples to a tenant.
    pub const TRAIN_REQUEST: u8 = 0x04;
    pub const CLASSIFY_RESPONSE: u8 = 0x81;
    pub const HEALTH_RESPONSE: u8 = 0x82;
    pub const DRAIN_RESPONSE: u8 = 0x83;
    /// Format 2 only: acknowledgement of a train request.
    pub const TRAIN_RESPONSE: u8 = 0x84;
    pub const OVERLOADED_RESPONSE: u8 = 0x8E;
    pub const ERROR_RESPONSE: u8 = 0x8F;
}

/// Why a frame failed to decode. Every malformed input maps to exactly one
/// of these — the decoder never panics.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed.
    Io(io::Error),
    /// Fewer bytes than a frame header.
    TooShort {
        /// Bytes available.
        len: usize,
    },
    /// The first eight bytes are not [`WIRE_MAGIC`].
    BadMagic {
        /// The bytes found instead.
        found: [u8; 8],
    },
    /// The format version is outside the decoder's supported range
    /// ([`WIRE_FORMAT`]..=[`WIRE_FORMAT_TENANT`]).
    UnsupportedFormat {
        /// The version found.
        found: u32,
    },
    /// The kind byte names no known message.
    UnknownKind {
        /// The kind byte found.
        found: u8,
    },
    /// The length prefix exceeds [`MAX_WIRE_PAYLOAD`].
    Oversized {
        /// The declared payload length.
        declared: u64,
        /// The enforced maximum.
        max: u64,
    },
    /// The buffer ends before the declared payload + checksum.
    Truncated {
        /// Bytes the frame claims to need.
        declared: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// Bytes remain after a complete frame (exact-decode contexts only).
    TrailingBytes {
        /// Number of extra bytes.
        extra: usize,
    },
    /// The trailing checksum does not match the frame contents.
    ChecksumMismatch {
        /// Checksum stored in the frame.
        stored: u64,
        /// Checksum computed over the frame.
        computed: u64,
    },
    /// The payload is structurally invalid for its kind.
    Malformed {
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::TooShort { len } => {
                write!(
                    f,
                    "{len} bytes is shorter than a {WIRE_HEADER_LEN}-byte frame header"
                )
            }
            WireError::BadMagic { found } => write!(f, "bad frame magic {found:02x?}"),
            WireError::UnsupportedFormat { found } => {
                write!(
                    f,
                    "unsupported wire format {found} (expected {WIRE_FORMAT}..={WIRE_FORMAT_TENANT})"
                )
            }
            WireError::UnknownKind { found } => write!(f, "unknown message kind {found:#04x}"),
            WireError::Oversized { declared, max } => {
                write!(
                    f,
                    "declared payload of {declared} bytes exceeds the {max}-byte cap"
                )
            }
            WireError::Truncated {
                declared,
                available,
            } => write!(
                f,
                "frame needs {declared} bytes but only {available} are available"
            ),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} bytes of trailing garbage after the frame")
            }
            WireError::ChecksumMismatch { stored, computed } => write!(
                f,
                "frame checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            WireError::Malformed { detail } => write!(f, "malformed payload: {detail}"),
        }
    }
}

impl Error for WireError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Machine-readable code carried by an [`WireMessage::ErrorResponse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The request frame decoded but was semantically unusable.
    Malformed,
    /// The server is draining and no longer accepts classify requests.
    Draining,
    /// An internal failure (e.g. the worker pool shut down mid-request).
    Internal,
}

impl ErrorCode {
    fn to_byte(self) -> u8 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::Draining => 2,
            ErrorCode::Internal => 3,
        }
    }

    fn from_byte(byte: u8) -> Result<Self, WireError> {
        match byte {
            1 => Ok(ErrorCode::Malformed),
            2 => Ok(ErrorCode::Draining),
            3 => Ok(ErrorCode::Internal),
            other => Err(malformed(format!("unknown error code {other}"))),
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorCode::Malformed => write!(f, "malformed"),
            ErrorCode::Draining => write!(f, "draining"),
            ErrorCode::Internal => write!(f, "internal"),
        }
    }
}

/// The health report served over the wire: the engine's `ServiceHealth`
/// counters plus the scheduler's own gauges.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireHealth {
    /// Version of the snapshot currently served.
    pub snapshot_version: u64,
    /// Worker threads the engine was configured with.
    pub workers_configured: u64,
    /// Worker threads currently alive.
    pub workers_alive: u64,
    /// Engine job-queue depth at sampling time.
    pub engine_queue_depth: u64,
    /// Engine job-queue capacity.
    pub engine_queue_capacity: u64,
    /// Worker jobs that panicked since service construction.
    pub worker_panics: u64,
    /// Workers the supervisor respawned.
    pub worker_respawns: u64,
    /// Requests waiting in the scheduler's pending queue.
    pub scheduler_pending: u64,
    /// Capacity of the scheduler's pending queue.
    pub scheduler_capacity: u64,
    /// Coalesced batches dispatched so far.
    pub batches_dispatched: u64,
    /// Requests that rode in a batch with at least one other request.
    pub requests_coalesced: u64,
    /// Signatures dispatched through the scheduler.
    pub signatures_dispatched: u64,
    /// Requests shed with an `Overloaded` response.
    pub requests_shed: u64,
    /// The scheduler's current adaptive coalescing delay, in microseconds.
    pub coalesce_delay_micros: u64,
    /// Whether the server is draining.
    pub draining: bool,
    /// Message of the most recent worker panic, if any.
    pub last_panic: Option<String>,
}

/// What a graceful drain accomplished.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DrainSummary {
    /// Classify requests flushed out of the scheduler during the drain.
    pub requests_flushed: u64,
    /// Whether the drain hook wrote a checkpoint before exit.
    pub checkpoint_written: bool,
    /// The snapshot version at drain completion.
    pub final_version: u64,
}

/// One decoded wire message.
///
/// Tenant fields (`tenant: Option<String>`) address the multi-tenant
/// registry: `None` is the server's default tenant and encodes as a plain
/// format-1 frame; `Some(id)` requires a format-2 frame. A decoded format-1
/// frame always carries `tenant: None`.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMessage {
    /// Classify a batch of signatures.
    ClassifyRequest {
        /// The tenant to classify against (`None` = default tenant).
        tenant: Option<String>,
        /// The signatures to classify, in request order.
        signatures: Vec<BinaryVector>,
    },
    /// Ask for a [`WireHealth`] report.
    HealthRequest,
    /// Ask the server to drain gracefully — or, with a tenant on a registry
    /// server, flush just that tenant's queued training work.
    DrainRequest {
        /// The tenant to drain (`None` = the whole server).
        tenant: Option<String>,
    },
    /// Feed labelled training examples to a tenant (format 2 only).
    TrainRequest {
        /// The tenant to train (`None` = default tenant).
        tenant: Option<String>,
        /// `(signature, label id)` pairs, in feed order.
        examples: Vec<(BinaryVector, u64)>,
    },
    /// Per-signature verdicts, in request order.
    ClassifyResponse {
        /// One prediction per requested signature.
        predictions: Vec<Prediction>,
    },
    /// Acknowledgement of a [`TrainRequest`](WireMessage::TrainRequest):
    /// the examples are queued for the tenant's trainer (format 2 only).
    TrainResponse {
        /// Examples accepted into the tenant's pending queue.
        accepted: u64,
    },
    /// The health report.
    HealthResponse(Box<WireHealth>),
    /// The drain outcome.
    DrainResponse(DrainSummary),
    /// The request was shed by admission control; retry after backoff.
    OverloadedResponse {
        /// Queue depth observed when the request was shed.
        queue_depth: u64,
        /// Queue capacity of the stage that shed it.
        queue_capacity: u64,
    },
    /// The request failed; the connection may be closed by the server for
    /// [`ErrorCode::Malformed`].
    ErrorResponse {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

fn malformed(detail: impl Into<String>) -> WireError {
    WireError::Malformed {
        detail: detail.into(),
    }
}

/// A little-endian payload writer over a `Vec<u8>`.
struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
}

/// A bounds-checked little-endian payload reader.
struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| malformed("payload field runs past the payload end"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_le_bytes(raw))
    }

    fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| malformed("string field is not utf-8"))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(malformed(format!(
                "{} unread bytes at the payload end",
                self.bytes.len() - self.pos
            )))
        }
    }
}

/// Writes the format-2 tenant-id prefix: `u32` length, then the UTF-8
/// bytes. `None` — the default tenant — encodes as length 0.
///
/// # Panics
///
/// Panics if the id is empty (spell the default tenant as `None`) or longer
/// than [`MAX_TENANT_ID_BYTES`] — both are caller bugs, not wire conditions.
fn encode_tenant(enc: &mut Enc, tenant: &Option<String>) {
    match tenant {
        None => enc.u32(0),
        Some(id) => {
            assert!(
                !id.is_empty(),
                "empty tenant id: spell the default tenant as None"
            );
            assert!(
                id.len() <= MAX_TENANT_ID_BYTES,
                "tenant id of {} bytes exceeds the {MAX_TENANT_ID_BYTES}-byte cap",
                id.len()
            );
            enc.str(id);
        }
    }
}

/// Reads the format-2 tenant-id prefix; length 0 decodes as `None`.
fn decode_tenant(dec: &mut Dec<'_>) -> Result<Option<String>, WireError> {
    let len = dec.u32()? as usize;
    if len == 0 {
        return Ok(None);
    }
    if len > MAX_TENANT_ID_BYTES {
        return Err(malformed(format!(
            "tenant id of {len} bytes exceeds the {MAX_TENANT_ID_BYTES}-byte cap"
        )));
    }
    let bytes = dec.take(len)?;
    String::from_utf8(bytes.to_vec())
        .map(Some)
        .map_err(|_| malformed("tenant id is not utf-8"))
}

/// Encodes a message's payload, returning `(kind, payload, format)`. The
/// format is [`WIRE_FORMAT`] whenever the message is expressible in it —
/// byte-identical to the pre-tenant encoder — and [`WIRE_FORMAT_TENANT`]
/// only when a tenant id or a train kind forces it.
fn encode_payload(message: &WireMessage) -> (u8, Vec<u8>, u32) {
    let mut enc = Enc(Vec::new());
    let mut format = WIRE_FORMAT;
    let kind = match message {
        WireMessage::ClassifyRequest { tenant, signatures } => {
            if tenant.is_some() {
                format = WIRE_FORMAT_TENANT;
                encode_tenant(&mut enc, tenant);
            }
            enc.u32(signatures.len() as u32);
            let vector_len = signatures.first().map(|s| s.len()).unwrap_or(0);
            enc.u32(vector_len as u32);
            for signature in signatures {
                for &word in signature.as_words() {
                    enc.u64(word);
                }
            }
            kind::CLASSIFY_REQUEST
        }
        WireMessage::HealthRequest => kind::HEALTH_REQUEST,
        WireMessage::DrainRequest { tenant } => {
            if tenant.is_some() {
                format = WIRE_FORMAT_TENANT;
                encode_tenant(&mut enc, tenant);
            }
            kind::DRAIN_REQUEST
        }
        WireMessage::TrainRequest { tenant, examples } => {
            // Train kinds do not exist in format 1, so the prefix is always
            // present (length 0 for the default tenant).
            format = WIRE_FORMAT_TENANT;
            encode_tenant(&mut enc, tenant);
            enc.u32(examples.len() as u32);
            let vector_len = examples.first().map(|(s, _)| s.len()).unwrap_or(0);
            enc.u32(vector_len as u32);
            for (signature, label) in examples {
                enc.u64(*label);
                for &word in signature.as_words() {
                    enc.u64(word);
                }
            }
            kind::TRAIN_REQUEST
        }
        WireMessage::TrainResponse { accepted } => {
            format = WIRE_FORMAT_TENANT;
            enc.u64(*accepted);
            kind::TRAIN_RESPONSE
        }
        WireMessage::ClassifyResponse { predictions } => {
            enc.u32(predictions.len() as u32);
            for prediction in predictions {
                match prediction {
                    Prediction::Unknown => enc.u8(0),
                    Prediction::Known {
                        label,
                        neuron,
                        distance,
                    } => {
                        enc.u8(1);
                        enc.u64(label.id() as u64);
                        enc.u64(*neuron as u64);
                        // Bit-exact: the f64 travels as its raw bits, so a
                        // wire round-trip is bit-identical to the in-process
                        // prediction.
                        enc.u64(distance.to_bits());
                    }
                }
            }
            kind::CLASSIFY_RESPONSE
        }
        WireMessage::HealthResponse(health) => {
            enc.u64(health.snapshot_version);
            enc.u64(health.workers_configured);
            enc.u64(health.workers_alive);
            enc.u64(health.engine_queue_depth);
            enc.u64(health.engine_queue_capacity);
            enc.u64(health.worker_panics);
            enc.u64(health.worker_respawns);
            enc.u64(health.scheduler_pending);
            enc.u64(health.scheduler_capacity);
            enc.u64(health.batches_dispatched);
            enc.u64(health.requests_coalesced);
            enc.u64(health.signatures_dispatched);
            enc.u64(health.requests_shed);
            enc.u64(health.coalesce_delay_micros);
            enc.u8(u8::from(health.draining));
            match &health.last_panic {
                None => enc.u8(0),
                Some(message) => {
                    enc.u8(1);
                    enc.str(message);
                }
            }
            kind::HEALTH_RESPONSE
        }
        WireMessage::DrainResponse(summary) => {
            enc.u64(summary.requests_flushed);
            enc.u8(u8::from(summary.checkpoint_written));
            enc.u64(summary.final_version);
            kind::DRAIN_RESPONSE
        }
        WireMessage::OverloadedResponse {
            queue_depth,
            queue_capacity,
        } => {
            enc.u64(*queue_depth);
            enc.u64(*queue_capacity);
            kind::OVERLOADED_RESPONSE
        }
        WireMessage::ErrorResponse { code, message } => {
            enc.u8(code.to_byte());
            enc.str(message);
            kind::ERROR_RESPONSE
        }
    };
    (kind, enc.0, format)
}

fn decode_payload(format: u32, kind: u8, payload: &[u8]) -> Result<WireMessage, WireError> {
    let mut dec = Dec::new(payload);
    let message = match kind {
        kind::CLASSIFY_REQUEST => {
            let tenant = if format >= WIRE_FORMAT_TENANT {
                decode_tenant(&mut dec)?
            } else {
                None
            };
            let count = dec.u32()?;
            if count > MAX_REQUEST_SIGNATURES {
                return Err(malformed(format!(
                    "{count} signatures exceeds the per-request cap of {MAX_REQUEST_SIGNATURES}"
                )));
            }
            let vector_len = dec.u32()?;
            if vector_len > MAX_VECTOR_BITS {
                return Err(malformed(format!(
                    "{vector_len}-bit signatures exceed the {MAX_VECTOR_BITS}-bit cap"
                )));
            }
            let words_per = (vector_len as usize).div_ceil(64);
            let mut signatures = Vec::with_capacity(count as usize);
            for index in 0..count {
                let raw = dec.take(words_per * 8)?;
                let words: Vec<u64> = raw
                    .chunks_exact(8)
                    .map(|chunk| {
                        let mut bytes = [0u8; 8];
                        bytes.copy_from_slice(chunk);
                        u64::from_le_bytes(bytes)
                    })
                    .collect();
                let signature =
                    BinaryVector::from_words(words, vector_len as usize).map_err(|e| {
                        malformed(format!(
                            "signature {index} violates the packing invariant: {e}"
                        ))
                    })?;
                signatures.push(signature);
            }
            WireMessage::ClassifyRequest { tenant, signatures }
        }
        kind::HEALTH_REQUEST => WireMessage::HealthRequest,
        kind::DRAIN_REQUEST => {
            let tenant = if format >= WIRE_FORMAT_TENANT {
                decode_tenant(&mut dec)?
            } else {
                None
            };
            WireMessage::DrainRequest { tenant }
        }
        kind::TRAIN_REQUEST if format >= WIRE_FORMAT_TENANT => {
            let tenant = decode_tenant(&mut dec)?;
            let count = dec.u32()?;
            if count > MAX_TRAIN_EXAMPLES {
                return Err(malformed(format!(
                    "{count} examples exceeds the per-request cap of {MAX_TRAIN_EXAMPLES}"
                )));
            }
            let vector_len = dec.u32()?;
            if vector_len > MAX_VECTOR_BITS {
                return Err(malformed(format!(
                    "{vector_len}-bit signatures exceed the {MAX_VECTOR_BITS}-bit cap"
                )));
            }
            let words_per = (vector_len as usize).div_ceil(64);
            let mut examples = Vec::with_capacity(count as usize);
            for index in 0..count {
                let label = dec.u64()?;
                let raw = dec.take(words_per * 8)?;
                let words: Vec<u64> = raw
                    .chunks_exact(8)
                    .map(|chunk| {
                        let mut bytes = [0u8; 8];
                        bytes.copy_from_slice(chunk);
                        u64::from_le_bytes(bytes)
                    })
                    .collect();
                let signature =
                    BinaryVector::from_words(words, vector_len as usize).map_err(|e| {
                        malformed(format!(
                            "example {index} violates the packing invariant: {e}"
                        ))
                    })?;
                examples.push((signature, label));
            }
            WireMessage::TrainRequest { tenant, examples }
        }
        kind::TRAIN_RESPONSE if format >= WIRE_FORMAT_TENANT => WireMessage::TrainResponse {
            accepted: dec.u64()?,
        },
        kind::CLASSIFY_RESPONSE => {
            let count = dec.u32()?;
            if count > MAX_REQUEST_SIGNATURES {
                return Err(malformed(format!(
                    "{count} predictions exceeds the per-request cap of {MAX_REQUEST_SIGNATURES}"
                )));
            }
            let mut predictions = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let prediction = match dec.u8()? {
                    0 => Prediction::Unknown,
                    1 => Prediction::Known {
                        label: ObjectLabel::new(dec.u64()? as usize),
                        neuron: dec.u64()? as usize,
                        distance: f64::from_bits(dec.u64()?),
                    },
                    other => return Err(malformed(format!("unknown prediction tag {other}"))),
                };
                predictions.push(prediction);
            }
            WireMessage::ClassifyResponse { predictions }
        }
        kind::HEALTH_RESPONSE => {
            let mut health = WireHealth {
                snapshot_version: dec.u64()?,
                workers_configured: dec.u64()?,
                workers_alive: dec.u64()?,
                engine_queue_depth: dec.u64()?,
                engine_queue_capacity: dec.u64()?,
                worker_panics: dec.u64()?,
                worker_respawns: dec.u64()?,
                scheduler_pending: dec.u64()?,
                scheduler_capacity: dec.u64()?,
                batches_dispatched: dec.u64()?,
                requests_coalesced: dec.u64()?,
                signatures_dispatched: dec.u64()?,
                requests_shed: dec.u64()?,
                coalesce_delay_micros: dec.u64()?,
                draining: dec.u8()? != 0,
                last_panic: None,
            };
            health.last_panic = match dec.u8()? {
                0 => None,
                1 => Some(dec.str()?),
                other => return Err(malformed(format!("unknown last-panic tag {other}"))),
            };
            WireMessage::HealthResponse(Box::new(health))
        }
        kind::DRAIN_RESPONSE => WireMessage::DrainResponse(DrainSummary {
            requests_flushed: dec.u64()?,
            checkpoint_written: dec.u8()? != 0,
            final_version: dec.u64()?,
        }),
        kind::OVERLOADED_RESPONSE => WireMessage::OverloadedResponse {
            queue_depth: dec.u64()?,
            queue_capacity: dec.u64()?,
        },
        kind::ERROR_RESPONSE => WireMessage::ErrorResponse {
            code: ErrorCode::from_byte(dec.u8()?)?,
            message: dec.str()?,
        },
        other => return Err(WireError::UnknownKind { found: other }),
    };
    dec.finish()?;
    Ok(message)
}

/// Seals `payload` into a complete frame: header (stamped with `format`),
/// payload, checksum.
fn seal_frame(format: u32, kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(WIRE_HEADER_LEN + payload.len() + WIRE_CHECKSUM_LEN);
    frame.extend_from_slice(&WIRE_MAGIC);
    frame.extend_from_slice(&format.to_le_bytes());
    frame.push(kind);
    frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    frame.extend_from_slice(payload);
    let sum = checksum(&frame);
    frame.extend_from_slice(&sum.to_le_bytes());
    frame
}

/// Encodes `message` into one complete frame (header + payload + checksum).
/// The frame is stamped [`WIRE_FORMAT`] unless a tenant id or a train kind
/// needs [`WIRE_FORMAT_TENANT`].
pub fn encode_message(message: &WireMessage) -> Vec<u8> {
    let (kind, payload, format) = encode_payload(message);
    seal_frame(format, kind, &payload)
}

/// Encodes a default-tenant classify request straight from a signature
/// slice — no intermediate [`WireMessage`], so load generators can
/// pre-encode frames once and replay them.
pub fn encode_classify_request(signatures: &[BinaryVector]) -> Vec<u8> {
    encode_classify_request_for(None, signatures)
}

/// Encodes a classify request for `tenant` straight from a signature slice.
/// `None` — the default tenant — produces a format-1 frame byte-identical
/// to [`encode_classify_request`].
///
/// # Panics
///
/// Panics if `tenant` is `Some` of an empty or over-long
/// (> [`MAX_TENANT_ID_BYTES`]) id — caller bugs, not wire conditions.
pub fn encode_classify_request_for(tenant: Option<&str>, signatures: &[BinaryVector]) -> Vec<u8> {
    let mut enc = Enc(Vec::new());
    let format = match tenant {
        None => WIRE_FORMAT,
        Some(id) => {
            encode_tenant(&mut enc, &Some(id.to_string()));
            WIRE_FORMAT_TENANT
        }
    };
    enc.u32(signatures.len() as u32);
    let vector_len = signatures.first().map(|s| s.len()).unwrap_or(0);
    enc.u32(vector_len as u32);
    for signature in signatures {
        for &word in signature.as_words() {
            enc.u64(word);
        }
    }
    seal_frame(format, kind::CLASSIFY_REQUEST, &enc.0)
}

/// Validates a frame header, returning `(format, kind, payload_len)`.
/// `max_format` bounds the accepted format range — [`WIRE_FORMAT_TENANT`]
/// for this decoder, [`WIRE_FORMAT`] to emulate a pre-tenant peer.
fn decode_header(
    header: &[u8; WIRE_HEADER_LEN],
    max_format: u32,
) -> Result<(u32, u8, usize), WireError> {
    if header[..8] != WIRE_MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(&header[..8]);
        return Err(WireError::BadMagic { found });
    }
    let format = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    if format < WIRE_FORMAT || format > max_format {
        return Err(WireError::UnsupportedFormat { found: format });
    }
    let kind = header[12];
    let mut len_bytes = [0u8; 8];
    len_bytes.copy_from_slice(&header[13..21]);
    let declared = u64::from_le_bytes(len_bytes);
    if declared > MAX_WIRE_PAYLOAD {
        return Err(WireError::Oversized {
            declared,
            max: MAX_WIRE_PAYLOAD,
        });
    }
    Ok((format, kind, declared as usize))
}

/// Decodes one frame from the front of `bytes`, returning the message and
/// the number of bytes consumed (for buffers that may hold further frames).
pub fn decode_message(bytes: &[u8]) -> Result<(WireMessage, usize), WireError> {
    decode_message_with_max_format(bytes, WIRE_FORMAT_TENANT)
}

/// [`decode_message`] with an explicit format ceiling: passing
/// [`WIRE_FORMAT`] emulates a pre-tenant decoder, which must reject every
/// format-2 frame with a typed [`WireError::UnsupportedFormat`] *before*
/// touching the payload — the backward-compatibility contract the
/// cross-decode matrix in `tests/wire_corruption.rs` pins down.
pub fn decode_message_with_max_format(
    bytes: &[u8],
    max_format: u32,
) -> Result<(WireMessage, usize), WireError> {
    if bytes.len() < WIRE_HEADER_LEN {
        return Err(WireError::TooShort { len: bytes.len() });
    }
    let mut header = [0u8; WIRE_HEADER_LEN];
    header.copy_from_slice(&bytes[..WIRE_HEADER_LEN]);
    let (format, kind, payload_len) = decode_header(&header, max_format)?;
    let total = WIRE_HEADER_LEN + payload_len + WIRE_CHECKSUM_LEN;
    if bytes.len() < total {
        return Err(WireError::Truncated {
            declared: total,
            available: bytes.len(),
        });
    }
    let body = &bytes[..WIRE_HEADER_LEN + payload_len];
    let mut stored_bytes = [0u8; 8];
    stored_bytes.copy_from_slice(&bytes[WIRE_HEADER_LEN + payload_len..total]);
    let stored = u64::from_le_bytes(stored_bytes);
    let computed = checksum(body);
    if stored != computed {
        return Err(WireError::ChecksumMismatch { stored, computed });
    }
    let message = decode_payload(format, kind, &body[WIRE_HEADER_LEN..])?;
    Ok((message, total))
}

/// Decodes a buffer that must hold exactly one frame; trailing bytes are
/// rejected ([`WireError::TrailingBytes`]).
pub fn decode_message_exact(bytes: &[u8]) -> Result<WireMessage, WireError> {
    let (message, consumed) = decode_message(bytes)?;
    if consumed != bytes.len() {
        return Err(WireError::TrailingBytes {
            extra: bytes.len() - consumed,
        });
    }
    Ok(message)
}

/// Reads one frame from a stream. Returns `Ok(None)` on a clean EOF at a
/// frame boundary (the peer closed between messages); an EOF anywhere inside
/// a frame is [`WireError::Truncated`].
pub fn read_message<R: Read>(reader: &mut R) -> Result<Option<WireMessage>, WireError> {
    let mut header = [0u8; WIRE_HEADER_LEN];
    let mut filled = 0;
    while filled < WIRE_HEADER_LEN {
        match reader.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(WireError::Truncated {
                    declared: WIRE_HEADER_LEN,
                    available: filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let (format, kind, payload_len) = decode_header(&header, WIRE_FORMAT_TENANT)?;
    let mut rest = vec![0u8; payload_len + WIRE_CHECKSUM_LEN];
    reader.read_exact(&mut rest).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::Truncated {
                declared: WIRE_HEADER_LEN + payload_len + WIRE_CHECKSUM_LEN,
                available: WIRE_HEADER_LEN,
            }
        } else {
            WireError::Io(e)
        }
    })?;
    let stored = {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&rest[payload_len..]);
        u64::from_le_bytes(bytes)
    };
    let mut body = Vec::with_capacity(WIRE_HEADER_LEN + payload_len);
    body.extend_from_slice(&header);
    body.extend_from_slice(&rest[..payload_len]);
    let computed = checksum(&body);
    if stored != computed {
        return Err(WireError::ChecksumMismatch { stored, computed });
    }
    decode_payload(format, kind, &body[WIRE_HEADER_LEN..]).map(Some)
}

/// Writes one frame to a stream.
pub fn write_message<W: Write>(writer: &mut W, message: &WireMessage) -> Result<(), WireError> {
    let frame = encode_message(message);
    writer.write_all(&frame)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_messages() -> Vec<WireMessage> {
        let mut rng = StdRng::seed_from_u64(11);
        vec![
            WireMessage::ClassifyRequest {
                tenant: None,
                signatures: (0..3)
                    .map(|_| BinaryVector::random(768, &mut rng))
                    .collect(),
            },
            WireMessage::ClassifyRequest {
                tenant: Some("tenant-a".to_string()),
                signatures: (0..2)
                    .map(|_| BinaryVector::random(768, &mut rng))
                    .collect(),
            },
            WireMessage::ClassifyRequest {
                tenant: None,
                signatures: vec![],
            },
            WireMessage::HealthRequest,
            WireMessage::DrainRequest { tenant: None },
            WireMessage::DrainRequest {
                tenant: Some("tenant-b".to_string()),
            },
            WireMessage::TrainRequest {
                tenant: None,
                examples: vec![(BinaryVector::random(80, &mut rng), 2)],
            },
            WireMessage::TrainRequest {
                tenant: Some("tenant-c".to_string()),
                examples: (0..3)
                    .map(|i| (BinaryVector::random(80, &mut rng), i % 2))
                    .collect(),
            },
            WireMessage::TrainResponse { accepted: 3 },
            WireMessage::ClassifyResponse {
                predictions: vec![
                    Prediction::Unknown,
                    Prediction::Known {
                        label: ObjectLabel::new(7),
                        neuron: 12,
                        distance: 34.0,
                    },
                ],
            },
            WireMessage::HealthResponse(Box::new(WireHealth {
                snapshot_version: 3,
                workers_configured: 4,
                workers_alive: 4,
                engine_queue_depth: 1,
                engine_queue_capacity: 16,
                worker_panics: 0,
                worker_respawns: 0,
                scheduler_pending: 2,
                scheduler_capacity: 1024,
                batches_dispatched: 9,
                requests_coalesced: 5,
                signatures_dispatched: 400,
                requests_shed: 1,
                coalesce_delay_micros: 250,
                draining: false,
                last_panic: Some("worker 2 fell over".to_string()),
            })),
            WireMessage::DrainResponse(DrainSummary {
                requests_flushed: 17,
                checkpoint_written: true,
                final_version: 5,
            }),
            WireMessage::OverloadedResponse {
                queue_depth: 16,
                queue_capacity: 16,
            },
            WireMessage::ErrorResponse {
                code: ErrorCode::Draining,
                message: "drain in progress".to_string(),
            },
        ]
    }

    #[test]
    fn every_message_round_trips_exactly() {
        for message in sample_messages() {
            let frame = encode_message(&message);
            let decoded = decode_message_exact(&frame).expect("pristine frame must decode");
            assert_eq!(decoded, message);
            // And through the stream reader.
            let mut cursor = std::io::Cursor::new(frame);
            let streamed = read_message(&mut cursor)
                .expect("stream decode")
                .expect("not eof");
            assert_eq!(streamed, message);
        }
    }

    #[test]
    fn preencoded_classify_frames_match_encode_message() {
        let mut rng = StdRng::seed_from_u64(3);
        let signatures: Vec<BinaryVector> = (0..4)
            .map(|_| BinaryVector::random(100, &mut rng))
            .collect();
        assert_eq!(
            encode_classify_request(&signatures),
            encode_message(&WireMessage::ClassifyRequest {
                tenant: None,
                signatures: signatures.clone(),
            })
        );
        assert_eq!(
            encode_classify_request_for(Some("t9"), &signatures),
            encode_message(&WireMessage::ClassifyRequest {
                tenant: Some("t9".to_string()),
                signatures,
            })
        );
    }

    #[test]
    fn default_tenant_messages_encode_as_format_1_byte_identically() {
        // The compatibility contract: a new client talking to the default
        // tenant emits the exact bytes a pre-tenant client would.
        let mut rng = StdRng::seed_from_u64(29);
        let signatures: Vec<BinaryVector> =
            (0..2).map(|_| BinaryVector::random(96, &mut rng)).collect();
        for message in [
            WireMessage::ClassifyRequest {
                tenant: None,
                signatures,
            },
            WireMessage::DrainRequest { tenant: None },
        ] {
            let frame = encode_message(&message);
            let format = u32::from_le_bytes([frame[8], frame[9], frame[10], frame[11]]);
            assert_eq!(format, WIRE_FORMAT, "default tenant must stay format 1");
        }
        // And tenant-addressed (or train) messages are stamped format 2.
        for message in [
            WireMessage::ClassifyRequest {
                tenant: Some("t".to_string()),
                signatures: vec![],
            },
            WireMessage::DrainRequest {
                tenant: Some("t".to_string()),
            },
            WireMessage::TrainRequest {
                tenant: None,
                examples: vec![],
            },
            WireMessage::TrainResponse { accepted: 0 },
        ] {
            let frame = encode_message(&message);
            let format = u32::from_le_bytes([frame[8], frame[9], frame[10], frame[11]]);
            assert_eq!(format, WIRE_FORMAT_TENANT);
        }
    }

    #[test]
    fn pre_tenant_decoder_rejects_format_2_with_a_typed_error() {
        let frame = encode_message(&WireMessage::ClassifyRequest {
            tenant: Some("tenant-x".to_string()),
            signatures: vec![],
        });
        assert!(matches!(
            decode_message_with_max_format(&frame, WIRE_FORMAT),
            Err(WireError::UnsupportedFormat { found: 2 })
        ));
    }

    #[test]
    fn oversized_tenant_ids_are_rejected_typed() {
        // Build a format-2 classify frame whose tenant length claims more
        // bytes than the cap; the decoder must object before reading them.
        let mut enc = Enc(Vec::new());
        enc.u32((MAX_TENANT_ID_BYTES + 1) as u32);
        enc.0
            .extend(std::iter::repeat_n(b'a', MAX_TENANT_ID_BYTES + 1));
        enc.u32(0); // count
        enc.u32(0); // vector_len
        let frame = seal_frame(WIRE_FORMAT_TENANT, 0x01, &enc.0);
        assert!(matches!(
            decode_message_exact(&frame),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn train_kinds_are_unknown_in_format_1_frames() {
        // A format-1 frame carrying a train kind is a protocol violation:
        // the kind does not exist below format 2.
        let frame = seal_frame(WIRE_FORMAT, 0x04, &[]);
        assert!(matches!(
            decode_message_exact(&frame),
            Err(WireError::UnknownKind { found: 0x04 })
        ));
        let frame = seal_frame(WIRE_FORMAT, 0x84, &[]);
        assert!(matches!(
            decode_message_exact(&frame),
            Err(WireError::UnknownKind { found: 0x84 })
        ));
    }

    #[test]
    fn clean_eof_is_none_and_concatenated_frames_both_decode() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&encode_message(&WireMessage::HealthRequest));
        bytes.extend_from_slice(&encode_message(&WireMessage::DrainRequest { tenant: None }));
        let mut cursor = std::io::Cursor::new(bytes);
        assert_eq!(
            read_message(&mut cursor).unwrap(),
            Some(WireMessage::HealthRequest)
        );
        assert_eq!(
            read_message(&mut cursor).unwrap(),
            Some(WireMessage::DrainRequest { tenant: None })
        );
        assert_eq!(read_message(&mut cursor).unwrap(), None);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut frame = encode_message(&WireMessage::HealthRequest);
        frame[13..21].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decode_message(&frame),
            Err(WireError::Oversized { .. })
        ));
        let mut cursor = std::io::Cursor::new(frame);
        assert!(matches!(
            read_message(&mut cursor),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn set_tail_bits_are_rejected_not_masked() {
        // A 100-bit signature occupies two words; bit 100 of the payload is
        // beyond `len` and must be rejected by the packing validation.
        let signature = BinaryVector::zeros(100);
        let frame = encode_message(&WireMessage::ClassifyRequest {
            tenant: None,
            signatures: vec![signature],
        });
        // Payload layout: count u32 | vector_len u32 | word0 | word1.
        // Set the top bit of word1 (frame offset: header 21 + 8 + 8 + 7).
        let mut corrupt = frame.clone();
        let byte = WIRE_HEADER_LEN + 4 + 4 + 15;
        corrupt[byte] |= 0x80;
        // Re-seal the checksum so only the packing check can object.
        let body_len = corrupt.len() - WIRE_CHECKSUM_LEN;
        let sum = checksum(&corrupt[..body_len]);
        corrupt[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            decode_message_exact(&corrupt),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn checksum_matches_the_documented_fnv_vectors() {
        // Standard FNV-1a-64 test vectors.
        assert_eq!(checksum(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(checksum(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(checksum(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
