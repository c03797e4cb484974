//! The TCP front-end: listener, one thread per connection, and graceful
//! drain.
//!
//! Thread topology (all plain `std::net` + `std::thread`, no async runtime):
//!
//! * one **accept** thread polls a non-blocking listener so it can also
//!   observe the draining flag;
//! * each connection gets **one thread** that reads a frame, answers it and
//!   writes the response before it reads the next, so responses leave in
//!   request order and clients may pipeline. A classify runs on that thread,
//!   through the connection's own [`Recognizer`] or through
//!   [`MapRegistry::classify`], inside `catch_unwind`. The thread flushes
//!   its writer only when its reader holds no further whole request, so the
//!   responses to a pipelined burst leave in few syscalls.
//!
//! A graceful drain — triggered over the wire by
//! [`WireMessage::DrainRequest`] or locally by [`Server::drain`] — stops
//! accepting connections, rejects new classify and train requests with a
//! typed [`ErrorCode::Draining`] response, waits until every classify
//! already running on another connection has been answered (passing the
//! `service.drain` failpoint first, so the fault suite can panic a worker
//! mid-flush), runs the optional drain hook (the `bsom-serve` binary uses
//! it to [`write_checkpoint`]) and only then reports a [`DrainSummary`].
//!
//! [`write_checkpoint`]: bsom_engine::Trainer::write_checkpoint

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{Builder, JoinHandle};
use std::time::Duration;
use std::{fmt, io};

use bsom_engine::{faultpoint, EngineError, MapRegistry, Recognizer, SomService, TenantId};
use bsom_signature::BinaryVector;
use bsom_som::ObjectLabel;

use crate::wire::{
    self, DrainSummary, ErrorCode, WireHealth, WireMessage, WIRE_CHECKSUM_LEN, WIRE_HEADER_LEN,
};

/// Runs after the in-flight flush of a graceful drain; returns whether it
/// wrote a checkpoint ([`DrainSummary::checkpoint_written`]).
pub type DrainHook = Box<dyn FnOnce() -> bool + Send>;

/// Server settings. There are none: every accepted connection gets
/// `TCP_NODELAY` and one thread. [`Server::bind`] keeps the parameter so a
/// setting can return without breaking callers.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct ServeConfig {}

/// A point-in-time copy of the server's classify counters, summed over
/// every connection. (The name is older than the connection loop; the
/// benchmark's serve workload reads it.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerSnapshot {
    /// Classify requests sent to the engine, one engine batch each.
    pub batches_dispatched: u64,
    /// Signatures of the classifies that returned predictions.
    pub signatures_dispatched: u64,
    /// Classify requests answered with a typed `Overloaded` response.
    pub requests_shed: u64,
    /// Always 0: nothing waits on a clock.
    pub delay_micros: u64,
}

/// How often the accept loop re-checks the draining flag.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

fn lock_recovering<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What the front-end serves: one map, or many behind a registry.
enum Backend {
    /// The classic single-map path: each connection classifies through its
    /// own [`Recognizer`]; tenant-addressed and train frames are rejected
    /// typed.
    Single(Arc<SomService>),
    /// The multi-tenant path: classify requests route to
    /// [`MapRegistry::classify`] per tenant (a frame without a tenant id
    /// goes to `default_tenant`), train frames feed the tenant's pending
    /// queue, and a tenant-addressed drain flushes just that tenant.
    Registry {
        registry: Arc<MapRegistry>,
        default_tenant: TenantId,
    },
}

/// The live connections, keyed by id. Each entry is a handle on the socket
/// (so [`Server::join`] can half-close it) and the connection's thread; the
/// thread removes its own entry when it exits.
#[derive(Default)]
struct Connections {
    next_id: u64,
    live: HashMap<u64, (TcpStream, JoinHandle<()>)>,
}

/// Monotonic classify counters, updated by every connection thread.
#[derive(Default)]
struct Counters {
    batches: AtomicU64,
    signatures: AtomicU64,
    shed: AtomicU64,
}

struct ServerShared {
    backend: Backend,
    draining: AtomicBool,
    /// Classifies admitted and not yet answered. Admission checks
    /// `draining` under this lock, so once a drain has flipped the flag no
    /// classify starts and the count only falls.
    running: Mutex<u64>,
    /// Signalled when `running` reaches 0.
    idle: Condvar,
    counters: Counters,
    drain_done: Mutex<Option<DrainSummary>>,
    drain_cv: Condvar,
    drain_hook: Mutex<Option<DrainHook>>,
    conns: Mutex<Connections>,
}

impl fmt::Debug for ServerShared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServerShared")
            .field("draining", &self.draining.load(Ordering::SeqCst))
            .finish_non_exhaustive()
    }
}

impl ServerShared {
    /// Admits one classify unless the server is draining.
    fn admit(&self) -> bool {
        let mut running = lock_recovering(&self.running);
        if self.draining.load(Ordering::SeqCst) {
            return false;
        }
        *running += 1;
        true
    }

    /// Marks an admitted classify as answered.
    fn finish(&self) {
        let mut running = lock_recovering(&self.running);
        *running -= 1;
        if *running == 0 {
            self.idle.notify_all();
        }
    }

    fn snapshot(&self) -> SchedulerSnapshot {
        SchedulerSnapshot {
            batches_dispatched: self.counters.batches.load(Ordering::Relaxed),
            signatures_dispatched: self.counters.signatures.load(Ordering::Relaxed),
            requests_shed: self.counters.shed.load(Ordering::Relaxed),
            delay_micros: 0,
        }
    }

    /// Blocks until a drain has completed and returns its summary.
    fn wait_for_summary(&self) -> DrainSummary {
        let mut done = lock_recovering(&self.drain_done);
        loop {
            if let Some(summary) = done.as_ref() {
                return summary.clone();
            }
            done = self
                .drain_cv
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A running serving front-end. Dropping the handle closes the listener and
/// every connection (after the requests each has already read are
/// answered); use [`drain`](Self::drain) + [`join`](Self::join) for the
/// graceful path.
#[derive(Debug)]
pub struct Server {
    shared: Arc<ServerShared>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    closed: bool,
}

impl Server {
    /// Binds `addr` (port 0 picks a free port — see
    /// [`local_addr`](Self::local_addr)) and starts serving `service`.
    ///
    /// `drain_hook`, if given, runs during the graceful drain after the
    /// in-flight flush; the `bsom-serve` binary passes a closure that stops
    /// its training loop and writes a checkpoint.
    pub fn bind(
        service: Arc<SomService>,
        addr: impl ToSocketAddrs,
        _config: ServeConfig,
        drain_hook: Option<DrainHook>,
    ) -> io::Result<Server> {
        Self::bind_backend(Backend::Single(service), addr, drain_hook)
    }

    /// Binds `addr` and serves every tenant of `registry`. Frames without a
    /// tenant id (including every format-1 frame from a pre-tenant client)
    /// route to `default_tenant`, which must already exist in the registry.
    ///
    /// The server only *routes*: it feeds train requests into tenants'
    /// pending queues and answers classifies from published snapshots.
    /// Driving [`MapRegistry::train_tick`] is the embedder's job (the
    /// `bsom-serve` binary runs a training pump thread), except that a
    /// tenant-addressed drain flushes that tenant synchronously.
    pub fn bind_registry(
        registry: Arc<MapRegistry>,
        default_tenant: impl Into<TenantId>,
        addr: impl ToSocketAddrs,
        _config: ServeConfig,
        drain_hook: Option<DrainHook>,
    ) -> io::Result<Server> {
        let backend = Backend::Registry {
            registry,
            default_tenant: default_tenant.into(),
        };
        Self::bind_backend(backend, addr, drain_hook)
    }

    fn bind_backend(
        backend: Backend,
        addr: impl ToSocketAddrs,
        drain_hook: Option<DrainHook>,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            backend,
            draining: AtomicBool::new(false),
            running: Mutex::new(0),
            idle: Condvar::new(),
            counters: Counters::default(),
            drain_done: Mutex::new(None),
            drain_cv: Condvar::new(),
            drain_hook: Mutex::new(drain_hook),
            conns: Mutex::new(Connections::default()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = Builder::new()
            .name("bsom-serve-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(Server {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
            closed: false,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The health report, as served by the wire endpoint.
    pub fn health(&self) -> WireHealth {
        build_health(&self.shared)
    }

    /// The classify counters of every connection, for either backend.
    pub fn scheduler_snapshot(&self) -> SchedulerSnapshot {
        self.shared.snapshot()
    }

    /// Drains gracefully: stop accepting, wait for running classifies, run
    /// the drain hook. Idempotent — concurrent callers all get the one
    /// summary.
    pub fn drain(&self) -> DrainSummary {
        begin_drain(&self.shared)
    }

    /// Blocks until a drain (wire- or locally-triggered) has completed.
    pub fn wait_until_drained(&self) -> DrainSummary {
        self.shared.wait_for_summary()
    }

    /// Closes the server: joins the accept loop, lets every connection
    /// answer what it has already read, then joins the connection threads.
    /// Call after [`drain`](Self::drain) for a graceful exit.
    pub fn join(mut self) {
        self.close();
    }

    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        // Stop the accept loop (it polls the flag).
        self.shared.draining.store(true, Ordering::SeqCst);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
        // Half-close every live connection: its thread answers what it has
        // already read, sees EOF, flushes and exits.
        let live: Vec<(TcpStream, JoinHandle<()>)> = lock_recovering(&self.shared.conns)
            .live
            .drain()
            .map(|(_, conn)| conn)
            .collect();
        for (stream, _) in &live {
            let _ = stream.shutdown(Shutdown::Read);
        }
        for (_, thread) in live {
            let _ = thread.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.close();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<ServerShared>) {
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                if let Err(error) = spawn_connection(&shared, stream) {
                    // Out of descriptors or threads: drop the connection,
                    // keep serving the ones we have.
                    let _ = error;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                // Listener failure: stop accepting; existing connections
                // keep draining through their own threads.
                return;
            }
        }
    }
}

fn spawn_connection(shared: &Arc<ServerShared>, stream: TcpStream) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    let handle = stream.try_clone()?;
    // Held across the spawn, so the thread's own removal at exit always
    // finds the entry inserted below.
    let mut conns = lock_recovering(&shared.conns);
    let id = conns.next_id;
    conns.next_id += 1;
    let thread_shared = Arc::clone(shared);
    let thread = Builder::new()
        .name("bsom-serve-conn".to_string())
        .spawn(move || {
            Connection::new(&thread_shared).serve(&stream);
            // Release this connection's descriptor and thread handle now,
            // not when the server closes.
            lock_recovering(&thread_shared.conns).live.remove(&id);
        })?;
    conns.live.insert(id, (handle, thread));
    Ok(())
}

fn build_health(shared: &ServerShared) -> WireHealth {
    let (service, snapshot_version) = match &shared.backend {
        Backend::Single(service) => (service.health(), service.version()),
        Backend::Registry {
            registry,
            default_tenant,
        } => (
            registry.health(),
            registry.version(default_tenant.clone()).unwrap_or(0),
        ),
    };
    let counters = shared.snapshot();
    WireHealth {
        snapshot_version,
        workers_configured: service.workers_configured as u64,
        workers_alive: service.workers_alive as u64,
        engine_queue_depth: service.queue_depth as u64,
        engine_queue_capacity: service.queue_capacity as u64,
        worker_panics: service.worker_panics,
        worker_respawns: service.worker_respawns,
        scheduler_pending: 0,
        scheduler_capacity: 0,
        batches_dispatched: counters.batches_dispatched,
        requests_coalesced: 0,
        signatures_dispatched: counters.signatures_dispatched,
        requests_shed: counters.requests_shed,
        coalesce_delay_micros: 0,
        draining: shared.draining.load(Ordering::SeqCst),
        last_panic: service.last_panic,
    }
}

/// The one drain path. First caller executes it; everyone else blocks until
/// the summary exists.
fn begin_drain(shared: &ServerShared) -> DrainSummary {
    let waited_for = {
        let running = lock_recovering(&shared.running);
        if shared.draining.swap(true, Ordering::SeqCst) {
            // Someone else is draining (or already drained).
            drop(running);
            return shared.wait_for_summary();
        }
        *running
    };
    // New classify and train requests are now rejected and the accept loop
    // is on its way out; the classifies already running finish below.
    faultpoint::hit("service.drain");
    let mut running = lock_recovering(&shared.running);
    while *running > 0 {
        running = shared
            .idle
            .wait(running)
            .unwrap_or_else(PoisonError::into_inner);
    }
    drop(running);
    let (requests_flushed, final_version) = match &shared.backend {
        Backend::Single(service) => (waited_for, service.version()),
        Backend::Registry {
            registry,
            default_tenant,
        } => {
            // Flush every tenant's pending training work; a tenant whose
            // flush fails (torn spill file, poisoned trainer) keeps its
            // queue — the drain is best-effort per tenant, never partial
            // within one.
            let mut flushed = 0;
            for id in registry.tenant_ids() {
                if let Ok((steps, _version)) = registry.drain_tenant(id) {
                    flushed += steps;
                }
            }
            (
                flushed,
                registry.version(default_tenant.clone()).unwrap_or(0),
            )
        }
    };
    let hook = lock_recovering(&shared.drain_hook).take();
    let checkpoint_written = hook.map(|hook| hook()).unwrap_or(false);
    let summary = DrainSummary {
        requests_flushed,
        checkpoint_written,
        final_version,
    };
    *lock_recovering(&shared.drain_done) = Some(summary.clone());
    shared.drain_cv.notify_all();
    summary
}

/// Maps an engine failure to its wire response: tenant addressing mistakes
/// are the client's fault ([`ErrorCode::Malformed`]), an over-full engine
/// queue is an overload shed, everything else is internal.
fn engine_error_response(error: EngineError) -> WireMessage {
    match error {
        EngineError::Overloaded {
            queue_depth,
            queue_capacity,
        } => WireMessage::OverloadedResponse {
            queue_depth: queue_depth as u64,
            queue_capacity: queue_capacity as u64,
        },
        EngineError::UnknownTenant { .. } | EngineError::DuplicateTenant { .. } => {
            error_response(ErrorCode::Malformed, error.to_string())
        }
        other => error_response(ErrorCode::Internal, other.to_string()),
    }
}

fn error_response(code: ErrorCode, message: impl Into<String>) -> WireMessage {
    WireMessage::ErrorResponse {
        code,
        message: message.into(),
    }
}

/// Resolves a frame's optional tenant id against the registry's default.
fn resolve_tenant(tenant: Option<String>, default_tenant: &TenantId) -> TenantId {
    tenant
        .map(TenantId::from)
        .unwrap_or_else(|| default_tenant.clone())
}

/// Whether `buffered` starts with a whole frame, so reading it will not
/// block. The header ends with the payload length, a `u64` LE.
fn holds_frame(buffered: &[u8]) -> bool {
    let Some(length) = buffered.get(WIRE_HEADER_LEN - 8..WIRE_HEADER_LEN) else {
        return false;
    };
    let mut declared = [0u8; 8];
    declared.copy_from_slice(length);
    let available = (buffered.len() - WIRE_HEADER_LEN) as u64;
    available >= u64::from_le_bytes(declared).saturating_add(WIRE_CHECKSUM_LEN as u64)
}

/// What one connection classifies through.
enum Classifier<'a> {
    /// The connection's own handle on the single map.
    Single(Recognizer),
    /// The shared registry.
    Registry {
        registry: &'a MapRegistry,
        default_tenant: &'a TenantId,
    },
}

/// One connection's request loop.
struct Connection<'a> {
    shared: &'a ServerShared,
    classifier: Classifier<'a>,
}

impl<'a> Connection<'a> {
    fn new(shared: &'a ServerShared) -> Self {
        let classifier = match &shared.backend {
            Backend::Single(service) => Classifier::Single(service.recognizer()),
            Backend::Registry {
                registry,
                default_tenant,
            } => Classifier::Registry {
                registry,
                default_tenant,
            },
        };
        Connection { shared, classifier }
    }

    /// Reads a frame, answers it, writes the response; repeats until EOF, a
    /// write failure or a request that ends the connection.
    fn serve(&mut self, stream: &TcpStream) {
        let mut reader = BufReader::new(stream);
        let mut writer = BufWriter::new(stream);
        loop {
            // About to block on the socket: get every answer so far out.
            if !holds_frame(reader.buffer()) && writer.flush().is_err() {
                return;
            }
            let (response, hang_up) = match wire::read_message(&mut reader) {
                Ok(None) => break, // clean EOF
                Ok(Some(request)) => self.respond(request),
                // After a framing error the stream position is unreliable:
                // typed rejection, then hang up.
                Err(error) => (
                    error_response(ErrorCode::Malformed, error.to_string()),
                    true,
                ),
            };
            if wire::write_message(&mut writer, &response).is_err() {
                return;
            }
            if hang_up {
                break;
            }
        }
        let _ = writer.flush();
        let _ = stream.shutdown(Shutdown::Write);
    }

    /// The response to one request, and whether to hang up after it.
    fn respond(&mut self, request: WireMessage) -> (WireMessage, bool) {
        let response = match request {
            WireMessage::ClassifyRequest { tenant, signatures } => {
                if self.shared.admit() {
                    let response = self.classify(tenant, signatures);
                    self.shared.finish();
                    response
                } else {
                    error_response(
                        ErrorCode::Draining,
                        "server is draining; no new classify requests",
                    )
                }
            }
            WireMessage::TrainRequest { tenant, examples } => self.train(tenant, &examples),
            WireMessage::HealthRequest => {
                WireMessage::HealthResponse(Box::new(build_health(self.shared)))
            }
            WireMessage::DrainRequest { tenant } => self.drain(tenant),
            // A response kind from a client is a protocol violation.
            _ => {
                return (
                    error_response(ErrorCode::Malformed, "clients must send request frames"),
                    true,
                )
            }
        };
        (response, false)
    }

    /// Classifies one admitted request as one engine batch.
    fn classify(&mut self, tenant: Option<String>, signatures: Vec<BinaryVector>) -> WireMessage {
        if tenant.is_some() && matches!(self.classifier, Classifier::Single(_)) {
            return error_response(
                ErrorCode::Malformed,
                "this server fronts a single map; tenant addressing needs a registry server",
            );
        }
        let count = signatures.len() as u64;
        // A batch within the engine's inline limit runs on this thread:
        // contain a panic here, or one bad request would take the
        // connection down.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            faultpoint::hit("server.classify");
            match &mut self.classifier {
                Classifier::Single(recognizer) => recognizer.try_classify_batch(signatures),
                Classifier::Registry {
                    registry,
                    default_tenant,
                } => registry.classify(resolve_tenant(tenant, default_tenant), signatures),
            }
        }));
        // Count before answering, so a client holding its answer sees it
        // counted.
        let counters = &self.shared.counters;
        counters.batches.fetch_add(1, Ordering::Relaxed);
        match outcome {
            Ok(Ok(predictions)) => {
                counters.signatures.fetch_add(count, Ordering::Relaxed);
                WireMessage::ClassifyResponse { predictions }
            }
            Ok(Err(error)) => {
                if matches!(error, EngineError::Overloaded { .. }) {
                    counters.shed.fetch_add(1, Ordering::Relaxed);
                }
                engine_error_response(error)
            }
            // The panic hook has already reported the payload.
            Err(_) => error_response(ErrorCode::Internal, "the classify call panicked"),
        }
    }

    fn train(&self, tenant: Option<String>, examples: &[(BinaryVector, u64)]) -> WireMessage {
        if self.shared.draining.load(Ordering::SeqCst) {
            return error_response(
                ErrorCode::Draining,
                "server is draining; no new train requests",
            );
        }
        let Backend::Registry {
            registry,
            default_tenant,
        } = &self.shared.backend
        else {
            return error_response(
                ErrorCode::Malformed,
                "this server fronts a single map; training over the wire needs a registry \
                 server",
            );
        };
        let id = resolve_tenant(tenant, default_tenant);
        let mut accepted = 0u64;
        for (signature, label) in examples {
            let label = ObjectLabel::new(*label as usize);
            if let Err(error) = registry.feed(id.clone(), signature, label) {
                return engine_error_response(error);
            }
            accepted += 1;
        }
        WireMessage::TrainResponse { accepted }
    }

    fn drain(&self, tenant: Option<String>) -> WireMessage {
        match (&self.shared.backend, tenant) {
            (Backend::Single(_), Some(_)) => error_response(
                ErrorCode::Malformed,
                "this server fronts a single map; tenant drains need a registry server",
            ),
            // A tenant drain flushes just that tenant's pending queue — the
            // server keeps running.
            (Backend::Registry { registry, .. }, Some(tenant)) => {
                match registry.drain_tenant(tenant) {
                    Ok((steps_flushed, final_version)) => {
                        WireMessage::DrainResponse(DrainSummary {
                            requests_flushed: steps_flushed,
                            checkpoint_written: false,
                            final_version,
                        })
                    }
                    Err(error) => engine_error_response(error),
                }
            }
            // Blocks until the running classifies and the hook finish; this
            // connection's earlier answers precede the summary on the wire.
            (_, None) => WireMessage::DrainResponse(begin_drain(self.shared)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holds_frame_needs_the_whole_declared_frame() {
        let frame = wire::encode_message(&WireMessage::HealthRequest);
        assert!(holds_frame(&frame));
        for cut in 0..frame.len() {
            assert!(!holds_frame(&frame[..cut]), "a {cut}-byte prefix");
        }
        let mut two = frame.clone();
        two.extend_from_slice(&frame[..5]);
        assert!(holds_frame(&two), "a whole frame followed by a partial one");
    }
}
