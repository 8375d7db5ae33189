//! The serving workload: a closed loop of clients, one tenant each,
//! sending seeded programs to an in-process `bsml-serve` server and
//! waiting for each reply before sending the next.

use std::time::{Duration, Instant};

use bsml_bsp::BspParams;
use bsml_obs::Telemetry;
use bsml_serve::{Outcome, Server, ServerConfig};

use crate::program::{self, Program, Rng};
use crate::{timed_setup, Tally};

/// Concurrent clients (and tenants): twice the server's default worker
/// count, so requests queue and the scheduler has a choice to make.
const CLIENTS: usize = 8;

/// Width of every tenant's machine.
const WIDTH: usize = 4;

/// Distinct programs the clients draw from.
const POOL: usize = 32;

/// Local list length of the served programs.
const LIST_LEN: usize = 32;

/// Requests per client between server restarts in a traced run. The
/// telemetry sink keeps every span it is given, so a traced run starts
/// a fresh server (and sink) every epoch to keep its memory bounded.
const TRACE_EPOCH: usize = 64;

/// A server that is shut down (every worker and host thread joined)
/// when dropped.
struct Running(Option<Server>);

impl Running {
    fn start(telemetry: Telemetry, warm: &Program) -> Running {
        // No deadline: a slow machine must not turn into failed requests.
        let config = ServerConfig::new(BspParams::new(WIDTH, 1, 1)).with_deadline(None);
        let server = Server::start(config, telemetry);
        // A tenant's first request spawns its session host; do that
        // before timing anything.
        for c in 0..CLIENTS {
            let reply = server
                .submit(&tenant(c), &warm.source)
                .expect("an idle server admits a warm-up request")
                .wait();
            assert!(
                reply.outcome.is_success(),
                "warm-up request failed: {:?}",
                reply.outcome
            );
        }
        Running(Some(server))
    }

    fn server(&self) -> &Server {
        self.0.as_ref().expect("server is running until dropped")
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(server) = self.0.take() {
            let _ = server.shutdown();
        }
    }
}

fn tenant(client: usize) -> String {
    format!("client{client}")
}

/// One client's closed loop: its share of the pool, in order, until the
/// deadline or (in a traced epoch) `quota` requests.
fn client(
    server: &Server,
    c: usize,
    pool: &[Program],
    (start, deadline): (Instant, Instant),
    quota: usize,
) -> Tally {
    let mut tally = Tally::default();
    let name = tenant(c);
    for prog in pool.iter().cycle().skip(c).step_by(CLIENTS).take(quota) {
        if Instant::now() >= deadline {
            break;
        }
        tally.attempted += 1;
        let t0 = Instant::now();
        let reply = match server.submit(&name, &prog.source) {
            Ok(ticket) => ticket.wait(),
            Err(rejected) => {
                tally.failed += 1;
                eprintln!("perfbench: request rejected: {rejected}");
                continue;
            }
        };
        let latency = t0.elapsed();
        match &reply.outcome {
            Outcome::Done { rendered } => {
                let want = format!("- : int par = {}", prog.expected);
                if rendered.len() != 1 || rendered[0] != want {
                    tally.wrong += 1;
                    eprintln!("perfbench: wrong reply {rendered:?}, expected {want:?}");
                }
            }
            other => {
                tally.failed += 1;
                eprintln!("perfbench: request failed: {other:?}");
                continue;
            }
        }
        tally.record(start, latency);
        tally.layers.supersteps += prog.supersteps;
        tally.layers.words += prog.words;
    }
    tally
}

/// Runs every client against `server` until the deadline or quota.
fn epoch(server: &Server, pool: &[Program], window: (Instant, Instant), quota: usize) -> Tally {
    let mut total = Tally::default();
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| s.spawn(move || client(server, c, pool, window, quota)))
            .collect();
        for handle in clients {
            total.merge(handle.join().expect("client thread panicked"));
        }
    });
    total
}

/// Adds the session-layer spans recorded since `since` (the sink's
/// clock, read after warm-up) to an epoch's tally: parse, infer and
/// evaluation as the server's sessions record them; whatever a request
/// spent outside its session's `load` is queue wait.
fn attribute_spans(tally: &mut Tally, telemetry: &Telemetry, since: u64) {
    let (mut load, l) = (0.0, &mut tally.layers);
    for span in telemetry.spans().iter().filter(|s| s.start_us >= since) {
        let us = (span.end_us - span.start_us) as f64;
        match span.name {
            "parse" => l.parse_us += us,
            "infer" => l.infer_us += us,
            "bsp.run" => l.exec_us += us,
            "load" => load += us,
            _ => {}
        }
    }
    l.queue_wait_us = tally.samples.iter().map(|s| s.latency_us).sum::<f64>() - load;
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> (Tally, f64, Duration) {
    let mut rng = Rng::new(seed);
    let pool: Vec<Program> = (0..POOL)
        .map(|_| program::generate(&mut rng, WIDTH, LIST_LEN))
        .collect();
    let (running, setup_s) = timed_setup(|| Running::start(Telemetry::disabled(), &pool[0]));
    let start = Instant::now();
    let deadline = start + budget;
    let tally = if trace {
        drop(running);
        let mut tally = Tally::default();
        while Instant::now() < deadline {
            let telemetry = Telemetry::enabled();
            let running = Running::start(telemetry.clone(), &pool[0]);
            let since = telemetry.now_us();
            let mut part = epoch(running.server(), &pool, (start, deadline), TRACE_EPOCH);
            drop(running);
            attribute_spans(&mut part, &telemetry, since);
            tally.merge(part);
        }
        tally
    } else {
        epoch(running.server(), &pool, (start, deadline), usize::MAX)
    };
    (tally, setup_s, start.elapsed())
}
