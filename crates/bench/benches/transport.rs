//! Transport benchmarks (DESIGN.md §10): the per-rank-mailbox
//! substrate of the exchange against the single global mailbox it
//! replaced, and the end-to-end distributed machine on all-to-all
//! `put`s. Results are recorded in EXPERIMENTS.md.

use std::hint::black_box;
use std::sync::{Barrier, Mutex};

use bsml_bsp::distributed::DistMachine;
use bsml_bsp::transport::{SharedMem, Transport};
use bsml_std::workloads;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

const ROUNDS: usize = 16;
const PAYLOAD: usize = 64;

/// One thread per rank, `ROUNDS` all-to-all rounds over the *old*
/// design: every rank writes its whole row under ONE global lock,
/// synchronizes, then reads its column under the same lock — the
/// `Mutex<Vec<Vec<_>>>` the distributed backend used before the wire
/// transport. Every rank serializes on every other rank's traffic.
fn global_mailbox_all_to_all(p: usize) {
    let mailbox: Mutex<Vec<Vec<Vec<u8>>>> = Mutex::new(vec![vec![Vec::new(); p]; p]);
    let barrier = Barrier::new(p);
    std::thread::scope(|scope| {
        for rank in 0..p {
            let mailbox = &mailbox;
            let barrier = &barrier;
            scope.spawn(move || {
                let frame = vec![rank as u8; PAYLOAD];
                for _ in 0..ROUNDS {
                    {
                        let mut m = mailbox.lock().unwrap();
                        for dst in 0..p {
                            m[rank][dst] = frame.clone();
                        }
                    }
                    barrier.wait();
                    let mut bytes = 0usize;
                    {
                        let m = mailbox.lock().unwrap();
                        for src in 0..p {
                            bytes += m[src][rank].len();
                        }
                    }
                    assert_eq!(bytes, p * PAYLOAD);
                    barrier.wait();
                }
            });
        }
    });
}

/// The same traffic over the new substrate: one bounded FIFO per
/// receiving rank, one lock per mailbox — senders to different ranks
/// never contend.
fn per_rank_mailbox_all_to_all(p: usize) {
    let transport = SharedMem::new(p);
    let barrier = Barrier::new(p);
    std::thread::scope(|scope| {
        for rank in 0..p {
            let transport = &transport;
            let barrier = &barrier;
            scope.spawn(move || {
                let frame = vec![rank as u8; PAYLOAD];
                for _ in 0..ROUNDS {
                    for dst in 0..p {
                        if dst != rank {
                            assert!(transport.try_send(dst, &frame));
                        }
                    }
                    let mut got = 0usize;
                    while got < p - 1 {
                        if transport.recv(rank).is_some() {
                            got += 1;
                        } else {
                            // More ranks than cores is the common
                            // case: hand the slice to a sender instead
                            // of starving it with a spin.
                            std::thread::yield_now();
                        }
                    }
                    barrier.wait();
                }
            });
        }
    });
}

fn bench_mailbox_substrates(c: &mut Criterion) {
    let mut group = c.benchmark_group("net/mailbox-substrate");
    group.sample_size(10);
    for p in [4usize, 8, 16] {
        group.bench_with_input(BenchmarkId::new("global-mutex", p), &p, |b, &p| {
            b.iter(|| global_mailbox_all_to_all(black_box(p)));
        });
        group.bench_with_input(BenchmarkId::new("per-rank", p), &p, |b, &p| {
            b.iter(|| per_rank_mailbox_all_to_all(black_box(p)));
        });
    }
    group.finish();
}

fn bench_distributed_all_to_all(c: &mut Criterion) {
    // End-to-end: the full distributed machine (threads, evaluator,
    // exchange) on an all-to-all put.
    let ast = workloads::total_exchange().ast();
    let mut group = c.benchmark_group("net/all-to-all-put");
    group.sample_size(10);
    for p in [4usize, 8, 16] {
        let shared = DistMachine::new(p);
        group.bench_with_input(BenchmarkId::new("shared-mem", p), &ast, |b, ast| {
            b.iter(|| shared.run(black_box(ast)).expect("runs"));
        });
    }
    group.finish();
}

fn short() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_millis(1200))
        .sample_size(20)
        .configure_from_args()
}

criterion_group! {
    name = benches;
    config = short();
    targets = bench_mailbox_substrates, bench_distributed_all_to_all
}
criterion_main!(benches);
