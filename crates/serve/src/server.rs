//! The TCP front-end: listener, per-connection reader/writer threads, and
//! graceful drain.
//!
//! Thread topology (all plain `std::net` + `std::thread`, no async runtime):
//!
//! * one **accept** thread polls a non-blocking listener so it can also
//!   observe the draining flag;
//! * each connection gets a **reader** thread (decodes frames, submits
//!   classify jobs to the shared [`MicroBatcher`]) and a **writer** thread
//!   (serializes responses strictly in request order — what makes client
//!   pipelining safe, and pipelining is what gives the scheduler something
//!   to coalesce);
//! * the scheduler thread itself, owned by [`MicroBatcher`].
//!
//! A graceful drain — triggered over the wire by
//! [`WireMessage::DrainRequest`] or locally by [`Server::drain`] — stops
//! accepting connections, rejects new classify requests with a typed
//! [`ErrorCode::Draining`] response, flushes every request already admitted
//! (passing the `service.drain` failpoint first, so the fault suite can
//! panic a worker mid-flush), runs the optional drain hook (the `bsom-serve`
//! binary uses it to [`write_checkpoint`]) and only then reports a
//! [`DrainSummary`].
//!
//! [`write_checkpoint`]: bsom_engine::Trainer::write_checkpoint

use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{Builder, JoinHandle};
use std::time::Duration;
use std::{fmt, io};

use bsom_engine::{faultpoint, EngineError, MapRegistry, SomService, TenantId};
use bsom_som::ObjectLabel;

use crate::scheduler::{BatchReply, ClassifyJob, MicroBatcher, SchedulerConfig, SchedulerSnapshot};
use crate::wire::{self, DrainSummary, ErrorCode, WireHealth, WireMessage};

/// Runs after the in-flight flush of a graceful drain; returns whether it
/// wrote a checkpoint ([`DrainSummary::checkpoint_written`]).
pub type DrainHook = Box<dyn FnOnce() -> bool + Send>;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The micro-batching scheduler's configuration.
    pub scheduler: SchedulerConfig,
    /// `TCP_NODELAY` on accepted connections. Defaults to `true`: the
    /// scheduler does its own batching, Nagle would only stack delays.
    pub nodelay: bool,
    /// Most responses a connection may have queued or in flight; a client
    /// pipelining past this is backpressured at the socket.
    pub max_pipelined: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            scheduler: SchedulerConfig::default(),
            nodelay: true,
            max_pipelined: 1024,
        }
    }
}

/// How often the accept loop re-checks the draining flag.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

fn lock_recovering<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A response slot in a connection's ordered writer queue.
enum Pending {
    /// Already resolved (health, drain, errors, admission sheds).
    Ready(WireMessage),
    /// A classify job still in the scheduler; the writer blocks here, which
    /// is exactly what keeps responses in request order.
    Wait(Receiver<BatchReply>),
}

/// What the front-end serves: one map, or many behind a registry.
enum Backend {
    /// The classic single-map path: classify requests flow through the
    /// micro-batching scheduler; tenant-addressed and train frames are
    /// rejected typed.
    Single {
        service: Arc<SomService>,
        batcher: MicroBatcher,
    },
    /// The multi-tenant path: classify requests route to
    /// [`MapRegistry::classify`] per tenant (a frame without a tenant id
    /// goes to `default_tenant`), train frames feed the tenant's pending
    /// queue, and a tenant-addressed drain flushes just that tenant.
    /// Classification runs inline on the connection's reader thread —
    /// cross-tenant batches cannot coalesce, so there is no scheduler.
    Registry {
        registry: Arc<MapRegistry>,
        default_tenant: TenantId,
    },
}

struct ServerShared {
    backend: Backend,
    config: ServeConfig,
    draining: AtomicBool,
    drain_done: Mutex<Option<DrainSummary>>,
    drain_cv: Condvar,
    drain_hook: Mutex<Option<DrainHook>>,
    conns: Mutex<Vec<TcpStream>>,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl fmt::Debug for ServerShared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServerShared")
            .field("draining", &self.draining.load(Ordering::SeqCst))
            .finish_non_exhaustive()
    }
}

/// A running serving front-end. Dropping the handle closes the listener and
/// every connection (after in-flight batches resolve); use
/// [`drain`](Self::drain) + [`join`](Self::join) for the graceful path.
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
        config: ServeConfig,
        drain_hook: Option<DrainHook>,
    ) -> io::Result<Server> {
        let batcher = MicroBatcher::new(service.recognizer(), config.scheduler.clone())?;
        Self::bind_backend(
            Backend::Single { service, batcher },
            addr,
            config,
            drain_hook,
        )
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
        config: ServeConfig,
        drain_hook: Option<DrainHook>,
    ) -> io::Result<Server> {
        let backend = Backend::Registry {
            registry,
            default_tenant: default_tenant.into(),
        };
        Self::bind_backend(backend, addr, config, drain_hook)
    }

    fn bind_backend(
        backend: Backend,
        addr: impl ToSocketAddrs,
        config: ServeConfig,
        drain_hook: Option<DrainHook>,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            backend,
            config,
            draining: AtomicBool::new(false),
            drain_done: Mutex::new(None),
            drain_cv: Condvar::new(),
            drain_hook: Mutex::new(drain_hook),
            conns: Mutex::new(Vec::new()),
            conn_threads: Mutex::new(Vec::new()),
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

    /// The scheduler's counters. A registry-backed server has no scheduler
    /// (cross-tenant batches cannot coalesce) and reports all zeros.
    pub fn scheduler_snapshot(&self) -> SchedulerSnapshot {
        match &self.shared.backend {
            Backend::Single { batcher, .. } => batcher.snapshot(),
            Backend::Registry { .. } => SchedulerSnapshot::default(),
        }
    }

    /// Drains gracefully: stop accepting, flush admitted requests, run the
    /// drain hook. Idempotent — concurrent callers all get the one summary.
    pub fn drain(&self) -> DrainSummary {
        begin_drain(&self.shared)
    }

    /// Blocks until a drain (wire- or locally-triggered) has completed.
    pub fn wait_until_drained(&self) -> DrainSummary {
        let mut done = lock_recovering(&self.shared.drain_done);
        loop {
            if let Some(summary) = done.as_ref() {
                return summary.clone();
            }
            done = self
                .shared
                .drain_cv
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the server: joins the accept loop, lets every connection
    /// writer finish its queued responses, then joins the connection
    /// threads. Call after [`drain`](Self::drain) for a graceful exit.
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
        // Half-close every connection: readers see EOF and exit, writers
        // first flush whatever responses are still queued, then exit.
        for conn in lock_recovering(&self.shared.conns).drain(..) {
            let _ = conn.shutdown(Shutdown::Read);
        }
        let threads: Vec<JoinHandle<()>> =
            std::mem::take(&mut *lock_recovering(&self.shared.conn_threads));
        for thread in threads {
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
    if shared.config.nodelay {
        stream.set_nodelay(true)?;
    }
    let read_half = stream.try_clone()?;
    let write_half = stream.try_clone()?;
    lock_recovering(&shared.conns).push(stream);
    let (out_tx, out_rx) = mpsc::sync_channel::<Pending>(shared.config.max_pipelined.max(1));
    let reader_shared = Arc::clone(shared);
    let reader = Builder::new()
        .name("bsom-serve-conn-reader".to_string())
        .spawn(move || read_loop(read_half, reader_shared, out_tx))?;
    let writer = Builder::new()
        .name("bsom-serve-conn-writer".to_string())
        .spawn(move || write_loop(write_half, out_rx))?;
    let mut threads = lock_recovering(&shared.conn_threads);
    threads.push(reader);
    threads.push(writer);
    Ok(())
}

fn build_health(shared: &ServerShared) -> WireHealth {
    let (service, scheduler, snapshot_version) = match &shared.backend {
        Backend::Single { service, batcher } => {
            (service.health(), batcher.snapshot(), service.version())
        }
        Backend::Registry {
            registry,
            default_tenant,
        } => (
            registry.health(),
            SchedulerSnapshot::default(),
            registry.version(default_tenant.clone()).unwrap_or(0),
        ),
    };
    WireHealth {
        snapshot_version,
        workers_configured: service.workers_configured as u64,
        workers_alive: service.workers_alive as u64,
        engine_queue_depth: service.queue_depth as u64,
        engine_queue_capacity: service.queue_capacity as u64,
        worker_panics: service.worker_panics,
        worker_respawns: service.worker_respawns,
        scheduler_pending: scheduler.pending as u64,
        scheduler_capacity: scheduler.queue_capacity as u64,
        batches_dispatched: scheduler.batches_dispatched,
        requests_coalesced: scheduler.requests_coalesced,
        signatures_dispatched: scheduler.signatures_dispatched,
        requests_shed: scheduler.requests_shed,
        coalesce_delay_micros: 0,
        draining: shared.draining.load(Ordering::SeqCst),
        last_panic: service.last_panic,
    }
}

/// The one drain path. First caller executes it; everyone else blocks until
/// the summary exists.
fn begin_drain(shared: &ServerShared) -> DrainSummary {
    if shared.draining.swap(true, Ordering::SeqCst) {
        // Someone else is draining (or already drained): wait for the
        // summary.
        let mut done = lock_recovering(&shared.drain_done);
        loop {
            if let Some(summary) = done.as_ref() {
                return summary.clone();
            }
            done = shared
                .drain_cv
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
    // New classify requests are now rejected and the accept loop is on its
    // way out; everything already admitted flushes below.
    faultpoint::hit("service.drain");
    let (requests_flushed, final_version) = match &shared.backend {
        Backend::Single { service, batcher } => (batcher.drain(), service.version()),
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
            WireMessage::ErrorResponse {
                code: ErrorCode::Malformed,
                message: error.to_string(),
            }
        }
        other => WireMessage::ErrorResponse {
            code: ErrorCode::Internal,
            message: other.to_string(),
        },
    }
}

/// Resolves a frame's optional tenant id against the registry's default.
fn resolve_tenant(tenant: Option<String>, default_tenant: &TenantId) -> TenantId {
    tenant
        .map(TenantId::from)
        .unwrap_or_else(|| default_tenant.clone())
}

fn read_loop(stream: TcpStream, shared: Arc<ServerShared>, out: SyncSender<Pending>) {
    let mut reader = BufReader::new(stream);
    loop {
        match wire::read_message(&mut reader) {
            Ok(None) => return, // clean EOF
            Ok(Some(WireMessage::ClassifyRequest { tenant, signatures })) => {
                if shared.draining.load(Ordering::SeqCst) {
                    let rejected = Pending::Ready(WireMessage::ErrorResponse {
                        code: ErrorCode::Draining,
                        message: "server is draining; no new classify requests".to_string(),
                    });
                    if out.send(rejected).is_err() {
                        return;
                    }
                    continue;
                }
                let pending = match &shared.backend {
                    Backend::Single { batcher, .. } => {
                        if tenant.is_some() {
                            Pending::Ready(WireMessage::ErrorResponse {
                                code: ErrorCode::Malformed,
                                message: "this server fronts a single map; tenant \
                                          addressing needs a registry server"
                                    .to_string(),
                            })
                        } else {
                            let (reply_tx, reply_rx) = mpsc::channel();
                            let job = ClassifyJob {
                                signatures,
                                reply: reply_tx,
                            };
                            match batcher.submit(job) {
                                Ok(()) => Pending::Wait(reply_rx),
                                Err(_job) => {
                                    // Admission control: the scheduler's
                                    // bounded queue is full. Same typed
                                    // response the engine queue produces.
                                    let scheduler = batcher.snapshot();
                                    Pending::Ready(WireMessage::OverloadedResponse {
                                        queue_depth: scheduler.pending as u64,
                                        queue_capacity: scheduler.queue_capacity as u64,
                                    })
                                }
                            }
                        }
                    }
                    Backend::Registry {
                        registry,
                        default_tenant,
                    } => {
                        let id = resolve_tenant(tenant, default_tenant);
                        Pending::Ready(match registry.classify(id, signatures) {
                            Ok(predictions) => WireMessage::ClassifyResponse { predictions },
                            Err(error) => engine_error_response(error),
                        })
                    }
                };
                if out.send(pending).is_err() {
                    return;
                }
            }
            Ok(Some(WireMessage::TrainRequest { tenant, examples })) => {
                if shared.draining.load(Ordering::SeqCst) {
                    let rejected = Pending::Ready(WireMessage::ErrorResponse {
                        code: ErrorCode::Draining,
                        message: "server is draining; no new train requests".to_string(),
                    });
                    if out.send(rejected).is_err() {
                        return;
                    }
                    continue;
                }
                let response = match &shared.backend {
                    Backend::Single { .. } => WireMessage::ErrorResponse {
                        code: ErrorCode::Malformed,
                        message: "this server fronts a single map; training over the \
                                  wire needs a registry server"
                            .to_string(),
                    },
                    Backend::Registry {
                        registry,
                        default_tenant,
                    } => {
                        let id = resolve_tenant(tenant, default_tenant);
                        let mut accepted = 0u64;
                        let mut failure = None;
                        for (signature, label) in &examples {
                            let label = ObjectLabel::new(*label as usize);
                            match registry.feed(id.clone(), signature, label) {
                                Ok(()) => accepted += 1,
                                Err(error) => {
                                    failure = Some(error);
                                    break;
                                }
                            }
                        }
                        match failure {
                            None => WireMessage::TrainResponse { accepted },
                            Some(error) => engine_error_response(error),
                        }
                    }
                };
                if out.send(Pending::Ready(response)).is_err() {
                    return;
                }
            }
            Ok(Some(WireMessage::HealthRequest)) => {
                let health =
                    Pending::Ready(WireMessage::HealthResponse(Box::new(build_health(&shared))));
                if out.send(health).is_err() {
                    return;
                }
            }
            Ok(Some(WireMessage::DrainRequest { tenant })) => {
                let response = match (&shared.backend, tenant) {
                    (Backend::Single { .. }, Some(_)) => WireMessage::ErrorResponse {
                        code: ErrorCode::Malformed,
                        message: "this server fronts a single map; tenant drains need \
                                  a registry server"
                            .to_string(),
                    },
                    (
                        Backend::Registry {
                            registry,
                            default_tenant: _,
                        },
                        Some(tenant),
                    ) => {
                        // A tenant drain flushes just that tenant's pending
                        // queue — the server keeps running.
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
                    // Blocks until the flush + hook finish; the response is
                    // queued *behind* this connection's earlier classify
                    // responses, so the requester sees its own verdicts
                    // first.
                    (_, None) => WireMessage::DrainResponse(begin_drain(&shared)),
                };
                if out.send(Pending::Ready(response)).is_err() {
                    return;
                }
            }
            Ok(Some(_)) => {
                // A response kind from a client is a protocol violation.
                let _ = out.send(Pending::Ready(WireMessage::ErrorResponse {
                    code: ErrorCode::Malformed,
                    message: "clients must send request frames".to_string(),
                }));
                return;
            }
            Err(error) => {
                // Typed rejection, then hang up: after a framing error the
                // stream position is unreliable.
                let _ = out.send(Pending::Ready(WireMessage::ErrorResponse {
                    code: ErrorCode::Malformed,
                    message: error.to_string(),
                }));
                return;
            }
        }
    }
}

fn reply_to_message(reply: Result<BatchReply, mpsc::RecvError>) -> WireMessage {
    match reply {
        Ok(BatchReply::Predictions(predictions)) => WireMessage::ClassifyResponse { predictions },
        Ok(BatchReply::Overloaded {
            queue_depth,
            queue_capacity,
        }) => WireMessage::OverloadedResponse {
            queue_depth,
            queue_capacity,
        },
        Ok(BatchReply::Failed(message)) => WireMessage::ErrorResponse {
            code: ErrorCode::Internal,
            message,
        },
        Err(_) => WireMessage::ErrorResponse {
            code: ErrorCode::Internal,
            message: "the scheduler dropped the reply".to_string(),
        },
    }
}

/// Flushes are coalesced: the writer only flushes when it is about to
/// block (on the pending queue or on an unresolved batch reply), so the
/// responses of one coalesced batch — which all resolve at the same
/// instant — go out in a single syscall instead of one per response.
fn write_loop(stream: TcpStream, queue: Receiver<Pending>) {
    let mut writer = BufWriter::new(stream);
    let mut carried: Option<Pending> = None;
    loop {
        let pending = match carried.take() {
            Some(pending) => pending,
            None => {
                if writer.flush().is_err() {
                    return;
                }
                match queue.recv() {
                    Ok(pending) => pending,
                    Err(_) => break,
                }
            }
        };
        let message = match pending {
            Pending::Ready(message) => message,
            Pending::Wait(reply) => match reply.try_recv() {
                Ok(resolved) => reply_to_message(Ok(resolved)),
                Err(mpsc::TryRecvError::Empty) => {
                    // The batch is still collecting: get everything written
                    // so far onto the wire before waiting on it.
                    if writer.flush().is_err() {
                        return;
                    }
                    reply_to_message(reply.recv())
                }
                Err(mpsc::TryRecvError::Disconnected) => reply_to_message(Err(mpsc::RecvError)),
            },
        };
        if wire::write_message(&mut writer, &message).is_err() {
            return;
        }
        match queue.try_recv() {
            Ok(pending) => carried = Some(pending),
            Err(mpsc::TryRecvError::Empty) => {}
            Err(mpsc::TryRecvError::Disconnected) => break,
        }
    }
    // Queue closed: the reader is done and everything queued was written.
    let _ = writer.flush();
    if let Ok(stream) = writer.into_inner() {
        let _ = stream.shutdown(Shutdown::Write);
    }
}
