//! End-to-end search cost: Elivagar versus QuantumNAS on a small task
//! (the wall-clock side of Table 4, in miniature).

use criterion::{criterion_group, criterion_main, Criterion};
use elivagar::{search, SearchConfig};
use elivagar_baselines::{quantum_nas_search, QuantumNasConfig, SuperTrainConfig};
use elivagar_datasets::moons;
use elivagar_device::devices::ibm_lagos;
use std::hint::black_box;

fn bench_elivagar_search(c: &mut Criterion) {
    let device = ibm_lagos();
    let data = moons(64, 16, 1).normalized(std::f64::consts::PI);
    let mut config = SearchConfig::for_task(4, 16, 2, 2).fast();
    config.num_candidates = 8;
    c.bench_function("elivagar_search_8_candidates", |b| {
        b.iter(|| black_box(search(&device, &data, &config)));
    });
}

fn bench_quantumnas_search(c: &mut Criterion) {
    let device = ibm_lagos();
    let data = moons(64, 16, 1).normalized(std::f64::consts::PI);
    let config = QuantumNasConfig {
        num_blocks: 4,
        population: 8,
        generations: 4,
        valid_samples: 16,
        train: SuperTrainConfig { epochs: 3, batch_size: 32, ..Default::default() },
        ..Default::default()
    };
    c.bench_function("quantumnas_search_small", |b| {
        b.iter(|| black_box(quantum_nas_search(&device, &data, 4, &config, None)));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_elivagar_search, bench_quantumnas_search
}
criterion_main!(benches);
