//! Benchmarks targeting the zero-allocation hot path specifically:
//! event-queue cancel traffic, pooled vs. fresh segment encoding, the
//! borrowing decoder, and a small end-to-end flow-transfer step loop.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use mpwifi_sim::apps::run_tcp_download;
use mpwifi_sim::{LinkSpec, WIFI_ADDR};
use mpwifi_simcore::{Dur, EventQueue, Time};
use mpwifi_tcp::conn::TcpConfig;
use mpwifi_tcp::segment::{Flags, Segment, TcpOption};
use mpwifi_tcp::SegmentBufPool;

/// A data segment shaped like the simulator's steady-state traffic.
fn data_segment() -> Segment {
    Segment {
        options: vec![TcpOption::Timestamp { val: 1, ecr: 2 }],
        payload: Bytes::from(vec![0xA5u8; 1400]),
        ..Segment::control(443, 50000, 12345, 67890, Flags::ACK)
    }
}

fn bench_event_queue_cancel(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.throughput(Throughput::Elements(1000));
    // Retransmission-timer traffic: push, cancel half (ack arrived),
    // pop the rest. Exercises the liveness window rather than the pure
    // push/pop path that `simulator.rs` already covers.
    g.bench_function("push_cancel_pop_1k", |b| {
        b.iter_batched(
            EventQueue::<u64>::new,
            |mut q| {
                let mut ids = Vec::with_capacity(1000);
                for i in 0..1000u64 {
                    ids.push(q.push(Time::from_nanos((i * 7919) % 100_000), i));
                }
                for id in ids.iter().step_by(2) {
                    q.cancel(*id);
                }
                while q.pop().is_some() {}
                q
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_segment_encode(c: &mut Criterion) {
    let seg = data_segment();
    let wire = seg.encode();
    let mut g = c.benchmark_group("segment");
    g.throughput(Throughput::Bytes(wire.len() as u64));
    // Fresh allocation per encode (the pre-pool baseline path).
    g.bench_function("encode_fresh_1400B", |b| b.iter(|| seg.encode()));
    // Pooled encode: steady state reuses one slot because the returned
    // view is dropped before the next iteration.
    g.bench_function("encode_pooled_1400B", |b| {
        let mut pool = SegmentBufPool::new();
        b.iter(|| pool.encode(&seg))
    });
    // Borrowing decode of a full-MTU data segment.
    g.bench_function("decode_borrowed_1400B", |b| {
        b.iter(|| Segment::decode(&wire).unwrap())
    });
    g.finish();
}

fn bench_step_loop(c: &mut Criterion) {
    let wifi = LinkSpec::symmetric(20_000_000, Dur::from_millis(20));
    let lte = LinkSpec::symmetric(8_000_000, Dur::from_millis(50));
    let mut g = c.benchmark_group("step_loop");
    g.sample_size(20);
    g.throughput(Throughput::Bytes(256 * 1024));
    // The whole hot path end to end: event queue, pooled encode,
    // scratch-buffer polling, borrowing decode, delivery.
    g.bench_function("step_loop_tcp_256k", |b| {
        b.iter(|| {
            run_tcp_download(
                &wifi,
                &lte,
                WIFI_ADDR,
                256 * 1024,
                TcpConfig::default(),
                Dur::from_secs(60),
                7,
            )
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_event_queue_cancel,
    bench_segment_encode,
    bench_step_loop
);
criterion_main!(benches);
