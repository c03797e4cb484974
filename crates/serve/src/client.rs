//! A blocking client for the `bsom-serve` wire protocol.
//!
//! [`ServeClient`] is the simple request/response handle; splitting it with
//! [`ServeClient::split`] gives independently owned send/receive halves so a
//! load generator can pipeline — many requests in flight on one connection,
//! answered in order. The server reads a connection's next request only
//! after answering the last, so a deep pipeline reads on one half while it
//! writes on the other.

use std::error::Error;
use std::fmt;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

use bsom_signature::BinaryVector;
use bsom_som::Prediction;

use crate::wire::{self, DrainSummary, ErrorCode, WireError, WireHealth, WireMessage};

/// What a request against a serve endpoint can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// The wire layer failed (I/O or framing).
    Wire(WireError),
    /// The server shed the request under load — retry after backoff.
    Overloaded {
        /// Queue depth the server reported.
        queue_depth: u64,
        /// Capacity of the queue that shed the request.
        queue_capacity: u64,
    },
    /// The server rejected the request with a typed error response.
    Rejected {
        /// The machine-readable code.
        code: ErrorCode,
        /// The server's detail message.
        message: String,
    },
    /// The server answered with a message kind that does not match the
    /// request.
    UnexpectedResponse {
        /// A description of what arrived.
        what: String,
    },
    /// The server closed the connection before answering.
    Disconnected,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "wire failure: {e}"),
            ClientError::Overloaded {
                queue_depth,
                queue_capacity,
            } => write!(f, "request shed: queue at {queue_depth}/{queue_capacity}"),
            ClientError::Rejected { code, message } => {
                write!(f, "request rejected ({code}): {message}")
            }
            ClientError::UnexpectedResponse { what } => {
                write!(f, "unexpected response: {what}")
            }
            ClientError::Disconnected => write!(f, "server closed the connection"),
        }
    }
}

impl Error for ClientError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ClientError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

fn unexpected(message: WireMessage) -> ClientError {
    ClientError::UnexpectedResponse {
        what: format!("{message:?}"),
    }
}

/// The sending half of a split connection.
#[derive(Debug)]
pub struct SendHalf {
    writer: BufWriter<TcpStream>,
}

impl SendHalf {
    /// Sends one classify request against the default tenant.
    pub fn send_classify(&mut self, signatures: &[BinaryVector]) -> Result<(), WireError> {
        self.send_frame(&wire::encode_classify_request(signatures))
    }

    /// Sends one classify request against `tenant` (`None` = default
    /// tenant, byte-identical to [`send_classify`](Self::send_classify)).
    pub fn send_classify_tenant(
        &mut self,
        tenant: Option<&str>,
        signatures: &[BinaryVector],
    ) -> Result<(), WireError> {
        self.send_frame(&wire::encode_classify_request_for(tenant, signatures))
    }

    /// Sends one pre-encoded frame — load generators encode once and replay.
    pub fn send_frame(&mut self, frame: &[u8]) -> Result<(), WireError> {
        self.writer.write_all(frame)?;
        self.writer.flush()?;
        Ok(())
    }

    /// Sends an arbitrary message.
    pub fn send(&mut self, message: &WireMessage) -> Result<(), WireError> {
        wire::write_message(&mut self.writer, message)?;
        self.writer.flush()?;
        Ok(())
    }
}

/// The receiving half of a split connection.
#[derive(Debug)]
pub struct RecvHalf {
    reader: BufReader<TcpStream>,
}

impl RecvHalf {
    /// Reads the next response; `Ok(None)` means the server closed cleanly.
    pub fn recv(&mut self) -> Result<Option<WireMessage>, WireError> {
        wire::read_message(&mut self.reader)
    }
}

/// A blocking connection to a `bsom-serve` endpoint.
#[derive(Debug)]
pub struct ServeClient {
    send: SendHalf,
    recv: RecvHalf,
}

impl ServeClient {
    /// Connects to `addr` with `TCP_NODELAY` set.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr).map_err(WireError::Io)?;
        stream.set_nodelay(true).map_err(WireError::Io)?;
        let read = stream.try_clone().map_err(WireError::Io)?;
        Ok(ServeClient {
            send: SendHalf {
                writer: BufWriter::new(stream),
            },
            recv: RecvHalf {
                reader: BufReader::new(read),
            },
        })
    }

    /// Splits into independently owned halves for pipelining.
    pub fn split(self) -> (SendHalf, RecvHalf) {
        (self.send, self.recv)
    }

    fn request(&mut self, message: &WireMessage) -> Result<WireMessage, ClientError> {
        self.send.send(message)?;
        self.recv.recv()?.ok_or(ClientError::Disconnected)
    }

    /// Classifies `signatures` over the wire; predictions come back in
    /// request order, bit-identical to an in-process
    /// `Recognizer::classify_batch` against the same snapshot.
    pub fn classify(
        &mut self,
        signatures: &[BinaryVector],
    ) -> Result<Vec<Prediction>, ClientError> {
        self.classify_tenant(None, signatures)
    }

    /// [`classify`](Self::classify) against a named tenant of a registry
    /// server. `None` is the default tenant and emits a format-1 frame, so
    /// this method also works against pre-tenant servers.
    pub fn classify_tenant(
        &mut self,
        tenant: Option<&str>,
        signatures: &[BinaryVector],
    ) -> Result<Vec<Prediction>, ClientError> {
        self.send.send_classify_tenant(tenant, signatures)?;
        match self.recv.recv()?.ok_or(ClientError::Disconnected)? {
            WireMessage::ClassifyResponse { predictions } => Ok(predictions),
            WireMessage::OverloadedResponse {
                queue_depth,
                queue_capacity,
            } => Err(ClientError::Overloaded {
                queue_depth,
                queue_capacity,
            }),
            WireMessage::ErrorResponse { code, message } => {
                Err(ClientError::Rejected { code, message })
            }
            other => Err(unexpected(other)),
        }
    }

    /// Feeds labelled training examples to a tenant of a registry server
    /// (`None` = default tenant); returns how many the server queued.
    pub fn train(
        &mut self,
        tenant: Option<&str>,
        examples: &[(BinaryVector, u64)],
    ) -> Result<u64, ClientError> {
        let message = WireMessage::TrainRequest {
            tenant: tenant.map(str::to_string),
            examples: examples.to_vec(),
        };
        match self.request(&message)? {
            WireMessage::TrainResponse { accepted } => Ok(accepted),
            WireMessage::OverloadedResponse {
                queue_depth,
                queue_capacity,
            } => Err(ClientError::Overloaded {
                queue_depth,
                queue_capacity,
            }),
            WireMessage::ErrorResponse { code, message } => {
                Err(ClientError::Rejected { code, message })
            }
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the server's health report.
    pub fn health(&mut self) -> Result<WireHealth, ClientError> {
        match self.request(&WireMessage::HealthRequest)? {
            WireMessage::HealthResponse(health) => Ok(*health),
            WireMessage::ErrorResponse { code, message } => {
                Err(ClientError::Rejected { code, message })
            }
            other => Err(unexpected(other)),
        }
    }

    /// Asks the server to drain gracefully; returns what the drain did.
    pub fn drain(&mut self) -> Result<DrainSummary, ClientError> {
        self.drain_request(None)
    }

    /// Asks a registry server to flush one tenant's queued training work;
    /// the server keeps running. [`DrainSummary::requests_flushed`] counts
    /// the training steps flushed.
    pub fn drain_tenant(&mut self, tenant: &str) -> Result<DrainSummary, ClientError> {
        self.drain_request(Some(tenant.to_string()))
    }

    fn drain_request(&mut self, tenant: Option<String>) -> Result<DrainSummary, ClientError> {
        match self.request(&WireMessage::DrainRequest { tenant })? {
            WireMessage::DrainResponse(summary) => Ok(summary),
            WireMessage::ErrorResponse { code, message } => {
                Err(ClientError::Rejected { code, message })
            }
            other => Err(unexpected(other)),
        }
    }
}
