//! Criterion bench for experiment F2: the pairing process itself.
//!
//! Every row runs `pair_ants_into` into buffers reused across
//! iterations, as the executor does each round.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hh_model::recruitment::{pair_ants_into, Pairing, RecruitCall};
use hh_model::{AntId, NestId};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;

fn bench_pairing(c: &mut Criterion) {
    let mut group = c.benchmark_group("recruitment/pair_ants");
    let alternating = |m: usize| -> Vec<RecruitCall> {
        (0..m)
            .map(|i| RecruitCall::new(AntId::new(i), i % 2 == 0, NestId::candidate(1 + i % 4)))
            .collect()
    };
    // The `optimal-4096` round shape: ~3 400 calls, 92% of them active,
    // in a seeded random mask. The alternating mask above is perfectly
    // predictable; this one is not.
    let mut mask = SmallRng::seed_from_u64(92);
    let optimal_shape: Vec<RecruitCall> = (0..3_400)
        .map(|i| {
            let active = mask.random_bool(0.92);
            RecruitCall::new(AntId::new(i), active, NestId::candidate(1 + i % 4))
        })
        .collect();
    let rows = [
        (BenchmarkId::from_parameter(64), alternating(64)),
        (BenchmarkId::from_parameter(1024), alternating(1024)),
        (BenchmarkId::from_parameter(16_384), alternating(16_384)),
        (BenchmarkId::new("random-mask-92", 3_400), optimal_shape),
    ];
    for (id, calls) in rows {
        group.throughput(Throughput::Elements(calls.len() as u64));
        group.bench_with_input(id, &calls, |b, calls| {
            let mut rng = SmallRng::seed_from_u64(7);
            let mut pairing = Pairing::default();
            let mut perm = Vec::new();
            b.iter(|| {
                pair_ants_into(calls, &mut rng, &mut pairing, &mut perm);
                black_box(pairing.matched_count())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pairing);
criterion_main!(benches);
