//! `serve`: an open loop of single-signature classify requests over one
//! loopback connection to an in-process [`Server`].
//!
//! Arrivals follow a seeded Poisson schedule at a fixed rate well below
//! saturation; each request is timed from when it was due, so a stall
//! charges every request queued behind it. Every response is compared with
//! the in-process `LabelledSom::classify` oracle. The traced run times the
//! wire codec around each request, reads the scheduler's counters, and
//! offers one light and one heavy rate besides the workload's own.

use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use bsom_dataset::LabelledSignature;
use bsom_engine::{EngineConfig, SomService};
use bsom_serve::wire::{self, MAX_WIRE_PAYLOAD, WIRE_CHECKSUM_LEN, WIRE_HEADER_LEN};
use bsom_serve::{SchedulerSnapshot, ServeConfig, Server, WireMessage};
use bsom_som::{BSom, BSomConfig, LabelledSom, Prediction, SelfOrganizingMap, TrainSchedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{self, Accuracy, RunArgs, WORKERS};
use crate::measure::{poisson_schedule, timed, Chunks, Spans};
use crate::report::{Counts, Outcome};

/// The workload's offered rate, requests per second.
const RATE: f64 = 8000.0;
/// The traced run's light and heavy rates.
const LIGHT_RATE: f64 = 1000.0;
const HEAVY_RATE: f64 = 32000.0;
/// Length of the traced run's light and heavy phases.
const SIDE_PHASE: Duration = Duration::from_secs(2);
/// Requests due before this offset only warm the path up.
const WARMUP: Duration = Duration::from_millis(500);
/// Training epochs of the served map.
const TRAIN_EPOCHS: usize = 10;
/// Measured requests per chunk of the chunked figures.
const CHUNK_REQUESTS: usize = 40;
/// Longest wait for one response before the run is declared failed.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

struct Served {
    test: Vec<LabelledSignature>,
    expected: Vec<Prediction>,
    service: Arc<SomService>,
    server: Server,
}

fn build(seed: u64) -> Served {
    let mut rng = StdRng::seed_from_u64(seed);
    let dataset = common::dataset(&mut rng);
    let mut som = BSom::new(BSomConfig::paper_default(), &mut rng);
    som.train_labelled_data(&dataset.train, TrainSchedule::new(TRAIN_EPOCHS), &mut rng)
        .expect("the training split is non-empty");
    let classifier = LabelledSom::label(som, &dataset.train);
    let expected = dataset
        .test
        .iter()
        .map(|(signature, _)| classifier.classify(signature))
        .collect();
    let service = Arc::new(SomService::serve(
        &classifier,
        EngineConfig::with_workers(WORKERS),
    ));
    let server = Server::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServeConfig::default(),
        None,
    )
    .expect("binding a loopback port");
    Served {
        test: dataset.test,
        expected,
        service,
        server,
    }
}

/// What one open-loop phase observed.
struct Phase {
    chunks: Chunks,
    counts: Counts,
    accuracy: Accuracy,
    /// Responses to requests due after the warm-up.
    measured_ok: u64,
    /// Summed lateness of every send against its due time.
    late_s: f64,
    scheduled: u64,
    /// Length of the measured window.
    window_s: f64,
    delay_us: Vec<f64>,
}

impl Phase {
    fn achieved_ratio(&self, rate: f64) -> f64 {
        self.measured_ok as f64 / (rate * self.window_s)
    }
}

/// Reads one response frame and decodes it, timing the decode.
fn read_response(
    reader: &mut impl Read,
    spans: &mut Option<&mut Spans>,
) -> Result<WireMessage, String> {
    let mut frame = vec![0u8; WIRE_HEADER_LEN];
    reader
        .read_exact(&mut frame)
        .map_err(|e| format!("reading a response header: {e}"))?;
    let mut length = [0u8; 8];
    length.copy_from_slice(&frame[WIRE_HEADER_LEN - 8..]);
    let payload = u64::from_le_bytes(length);
    if payload > MAX_WIRE_PAYLOAD {
        return Err(format!("response declares a {payload}-byte payload"));
    }
    frame.resize(WIRE_HEADER_LEN + payload as usize + WIRE_CHECKSUM_LEN, 0);
    reader
        .read_exact(&mut frame[WIRE_HEADER_LEN..])
        .map_err(|e| format!("reading a response body: {e}"))?;
    let (message, _) = timed(spans.as_deref_mut(), "wire.decode", || {
        wire::decode_message_exact(&frame)
    });
    message.map_err(|e| format!("decoding a response: {e}"))
}

/// Runs one open-loop phase at `rate` for `WARMUP + duration`: one
/// connection, a sender thread that keeps the seeded schedule, and this
/// thread receiving and checking responses in order.
fn open_loop(
    served: &Served,
    rate: f64,
    duration: Duration,
    seed: u64,
    mut spans: Option<&mut Spans>,
) -> Phase {
    let mut rng = StdRng::seed_from_u64(seed);
    let schedule = poisson_schedule(rate, WARMUP + duration, &mut rng);
    let order: Vec<usize> = schedule
        .iter()
        .map(|_| rng.gen_range(0..served.test.len()))
        .collect();
    let addr: SocketAddr = served.server.local_addr();
    let stream = TcpStream::connect(addr).expect("connecting over loopback");
    stream.set_nodelay(true).expect("setting TCP_NODELAY");
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .expect("setting a read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("cloning the socket"));
    let mut writer = stream;
    let traced = spans.is_some();
    let mut phase = Phase {
        chunks: Chunks::new(CHUNK_REQUESTS),
        counts: Counts::default(),
        accuracy: Accuracy::default(),
        measured_ok: 0,
        late_s: 0.0,
        scheduled: schedule.len() as u64,
        window_s: duration.as_secs_f64(),
        delay_us: Vec::new(),
    };
    let (due_tx, due_rx) = mpsc::channel::<(Instant, usize)>();

    // The schedule starts just after the sender thread is up.
    let start = Instant::now() + Duration::from_millis(5);
    let warmup_end = start + WARMUP;
    let (late_s, encode) = thread::scope(|scope| {
        let test = &served.test;
        let sender = scope.spawn(move || {
            let mut encode = Spans::default();
            let mut late_s = 0.0;
            for (offset, &index) in schedule.iter().zip(&order) {
                let due = start + *offset;
                let now = Instant::now();
                if due > now {
                    thread::sleep(due - now);
                }
                late_s += Instant::now().saturating_duration_since(due).as_secs_f64();
                let signature = std::slice::from_ref(&test[index].0);
                let (frame, _) = timed(traced.then_some(&mut encode), "wire.encode", || {
                    wire::encode_classify_request(signature)
                });
                if writer.write_all(&frame).is_err() || due_tx.send((due, index)).is_err() {
                    break;
                }
            }
            (late_s, encode)
        });

        while let Ok((due, index)) = due_rx.recv() {
            phase.counts.attempted += 1;
            let response = read_response(&mut reader, &mut spans);
            let done = Instant::now();
            match response {
                Ok(WireMessage::ClassifyResponse { predictions }) => {
                    common::check_predictions(
                        &mut phase.counts,
                        &predictions,
                        std::slice::from_ref(&served.expected[index]),
                    );
                    if let Some(prediction) = predictions.first() {
                        phase.accuracy.score(prediction, served.test[index].1);
                    }
                    if due >= warmup_end {
                        phase.measured_ok += 1;
                        let latency = done.saturating_duration_since(due);
                        phase.chunks.latency(latency);
                        phase.chunks.end_op();
                        if traced && phase.measured_ok.is_multiple_of(64) {
                            let snapshot = served.server.scheduler_snapshot();
                            phase.delay_us.push(snapshot.delay_micros as f64);
                        }
                    }
                }
                Ok(_) => phase.counts.fail(),
                Err(error) => {
                    eprintln!("serve: {error}");
                    phase.counts.fail();
                    break;
                }
            }
        }
        // Ends the connection; also unblocks a sender still writing if the
        // receiver gave up early.
        let _ = reader.get_ref().shutdown(Shutdown::Both);
        sender.join().expect("the sender thread does not panic")
    });
    // Requests sent but never answered.
    for _ in due_rx.try_iter() {
        phase.counts.attempted += 1;
        phase.counts.fail();
    }
    phase.late_s = late_s;
    if let Some(spans) = spans {
        spans.merge(&encode);
    }
    phase
}

/// Notes one phase's figures and returns its `p50_ms`.
fn summarize(outcome: &mut Outcome, label: &str, rate: f64, phase: &Phase) -> f64 {
    outcome.counts.merge(phase.counts);
    outcome.note(format!(
        "{label} phase: {rate} rps offered over 1 connection, {} sent, {} measured, \
         achieved {:.4}, late {:.4} ms, {}",
        phase.scheduled,
        phase.measured_ok,
        phase.achieved_ratio(rate),
        phase.late_s * 1e3 / phase.scheduled.max(1) as f64,
        common::describe_latency(&phase.chunks)
    ));
    phase.chunks.summary().p50_ms
}

/// Drains the server and records its workers' health.
fn shut_down(outcome: &mut Outcome, served: Served) {
    let summary = served.server.drain();
    outcome.note(format!(
        "drained: {} requests flushed, final version {}",
        summary.requests_flushed, summary.final_version
    ));
    common::record_health(outcome, &[served.service.health()]);
    served.server.join();
}

/// The untraced run: end-to-end metrics.
pub fn run(args: RunArgs) -> Outcome {
    let mut outcome = Outcome::default();
    let served = common::timed_setup(&mut outcome, common::QUICK_SETUP_REPEATS, |_| {
        build(args.seed)
    });
    outcome.note(format!(
        "{WORKERS} workers, rate {RATE} rps, 1 connection, 2 load threads"
    ));
    let phase = common::guarded(&mut outcome, || {
        open_loop(&served, RATE, args.duration(), args.seed, None)
    });
    let p50 = summarize(&mut outcome, "main", RATE, &phase);
    outcome.set("p50_ms", p50);
    outcome.set(
        "throughput_per_s",
        phase.measured_ok as f64 / phase.window_s,
    );
    outcome.set("accuracy", phase.accuracy.value());
    shut_down(&mut outcome, served);
    common::record_peak_rss(&mut outcome);
    outcome
}

/// The traced run: wire and scheduler figures at the workload's rate, the
/// light and heavy rates, and the tracing overhead.
pub fn run_traced(args: RunArgs) -> Outcome {
    let mut outcome = Outcome::default();
    let served = build(args.seed);
    let untraced = open_loop(&served, RATE, args.duration(), args.seed, None);
    let untraced_p50 = summarize(&mut outcome, "untraced", RATE, &untraced);

    let mut spans = Spans::default();
    let before = served.server.scheduler_snapshot();
    let traced = open_loop(&served, RATE, args.duration(), args.seed, Some(&mut spans));
    let after = served.server.scheduler_snapshot();
    let traced_p50 = summarize(&mut outcome, "traced", RATE, &traced);
    common::record_overhead(&mut outcome, untraced_p50, traced_p50);
    record_scheduler(&mut outcome, &before, &after, &traced);
    outcome.set("wire.encode_us", spans.mean_us("wire.encode"));
    outcome.set("wire.decode_us", spans.mean_us("wire.decode"));
    outcome.set(
        "loadgen.late_ms",
        traced.late_s * 1e3 / traced.scheduled.max(1) as f64,
    );
    outcome.set("loadgen.achieved_ratio", traced.achieved_ratio(RATE));

    for (metric, label, rate, salt) in [
        ("scheduler.p50_light_ms", "light", LIGHT_RATE, 1),
        ("scheduler.p50_heavy_ms", "heavy", HEAVY_RATE, 2),
    ] {
        let phase = open_loop(&served, rate, SIDE_PHASE, args.seed ^ salt, None);
        let p50 = summarize(&mut outcome, label, rate, &phase);
        outcome.set(metric, p50);
    }
    shut_down(&mut outcome, served);
    outcome
}

fn record_scheduler(
    outcome: &mut Outcome,
    before: &SchedulerSnapshot,
    after: &SchedulerSnapshot,
    phase: &Phase,
) {
    let batches = after.batches_dispatched - before.batches_dispatched;
    let signatures = after.signatures_dispatched - before.signatures_dispatched;
    outcome.set(
        "scheduler.batch_mean",
        signatures as f64 / batches.max(1) as f64,
    );
    outcome.set(
        "scheduler.shed",
        (after.requests_shed - before.requests_shed) as f64,
    );
    outcome.set(
        "scheduler.delay_us",
        crate::measure::median(&phase.delay_us),
    );
}
