//! Criterion bench for Ablation A of the `ablation` bin: cost of V-Star learning
//! as a function of the simulated-equivalence test-string budget.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use vstar::equivalence::TestPoolConfig;
use vstar::{Mat, VStar, VStarConfig};
use vstar_oracles::{Language, Lisp};

fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_teststrings");
    group.sample_size(10);
    let lang = Lisp::new();
    let oracle = |s: &str| lang.accepts(s);
    for budget in [100usize, 1000, 6000] {
        group.bench_with_input(BenchmarkId::from_parameter(budget), &budget, |b, &budget| {
            b.iter(|| {
                let mat = Mat::new(&oracle);
                let config = VStarConfig {
                    test_pool: TestPoolConfig {
                        max_test_strings: budget,
                        ..TestPoolConfig::default()
                    },
                    ..VStarConfig::default()
                };
                let result = VStar::new(config)
                    .learn(&mat, &lang.alphabet(), &lang.seeds())
                    .expect("learning succeeds");
                black_box(result.stats.test_strings)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
