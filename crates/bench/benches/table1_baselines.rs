//! Criterion bench: the GLADE and ARVADA blocks of Table 1 (learning cost of the
//! two baselines on Table-1 grammars).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use vstar_baselines::{Arvada, Glade, LearnedGrammar};
use vstar_oracles::{Json, Language, Lisp};

fn bench_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_baselines");
    group.sample_size(10);
    for (name, lang) in
        [("json", Box::new(Json::new()) as Box<dyn Language>), ("lisp", Box::new(Lisp::new()))]
    {
        let seeds = lang.seeds();
        let oracle = |s: &str| lang.accepts(s);
        group.bench_function(format!("glade_{name}"), |b| {
            b.iter(|| {
                let g = Glade::learn(&oracle, &seeds);
                black_box(g.queries_used())
            });
        });
        group.bench_function(format!("arvada_{name}"), |b| {
            b.iter(|| {
                let a = Arvada::learn(&oracle, &seeds);
                black_box(a.queries_used())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_baselines);
criterion_main!(benches);
