//! Throughput of the derivative-based VPG recognizer/parser (`vstar_parser`)
//! on progressively longer inputs, plus the grammar sampler. The recognizer is
//! the hot path of precision evaluation and of every future fuzzing/serving
//! workload, so its per-character cost is tracked here; comparing the
//! `recognize` series across input sizes also sanity-checks the linear-time
//! claim (time should scale with length, not blow up). The
//! `recognize_raw_short` series times the raw token scan on short inputs of
//! the five plain Table-1 grammars, and `recognize_raw_forking` the inputs
//! among them whose scan forks.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use vstar_bench::{learn_plain, raw_corpus};
use vstar_oracles::table1_languages;
use vstar_parser::{CompileLearned, CompiledGrammar, GrammarSampler, VpgParser};
use vstar_vpl::grammar::figure1_grammar;
use vstar_vpl::{vpa_to_vpg, Tagging, VpaBuilder, Vpg};

/// The Dyck VPG (via the VPA → VPG conversion, like learned grammars).
fn dyck_vpg() -> Vpg {
    let tagging = Tagging::from_pairs([('(', ')')]).unwrap();
    let mut b = VpaBuilder::new(tagging);
    let q0 = b.add_state();
    let g = b.add_stack_symbol();
    b.set_initial(q0);
    b.add_accepting(q0);
    b.call(q0, '(', q0, g).unwrap();
    b.ret(q0, ')', g, q0).unwrap();
    b.plain(q0, 'x', q0).unwrap();
    vpa_to_vpg(&b.build().unwrap())
}

/// A pumped member of the Figure-1 language with roughly `target` characters.
fn pumped_fig1(target: usize) -> String {
    let k = (target / 4).max(1);
    format!("{}cdcd{}cd", "ag".repeat(k), "hb".repeat(k))
}

fn bench_parser_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("parser_throughput");

    let fig1 = figure1_grammar();
    let fig1_parser = VpgParser::new(&fig1);
    let fig1_compiled = CompiledGrammar::from_vpg(&fig1).expect("figure 1 compiles");
    for size in [64usize, 1024, 16 * 1024] {
        let input = pumped_fig1(size);
        group.bench_with_input(
            BenchmarkId::new("recognize_fig1_chars", input.len()),
            &input,
            |b, input| b.iter(|| black_box(fig1_parser.recognize(input))),
        );
        // The compiled serving artifact on the same input: per-position item
        // sets become table lookups (tracked at scale by BENCH_serve.json).
        group.bench_with_input(
            BenchmarkId::new("recognize_fig1_compiled_chars", input.len()),
            &input,
            |b, input| b.iter(|| black_box(fig1_compiled.recognize_word(input))),
        );
        group.bench_with_input(
            BenchmarkId::new("parse_fig1_chars", input.len()),
            &input,
            |b, input| b.iter(|| black_box(fig1_parser.parse(input).unwrap().len())),
        );
    }

    // A conversion-produced grammar (the shape learned grammars have).
    let dyck = dyck_vpg();
    let dyck_parser = VpgParser::new(&dyck);
    let dyck_compiled = CompiledGrammar::from_vpg(&dyck).expect("dyck compiles");
    let dyck_input = "((x)(x(x)))x".repeat(512);
    group.bench_with_input(
        BenchmarkId::new("recognize_dyck_converted_chars", dyck_input.len()),
        &dyck_input,
        |b, input| b.iter(|| black_box(dyck_parser.recognize(input))),
    );
    group.bench_with_input(
        BenchmarkId::new("recognize_dyck_compiled_chars", dyck_input.len()),
        &dyck_input,
        |b, input| b.iter(|| black_box(dyck_compiled.recognize_word(input))),
    );

    // Raw token-mode recognition of short inputs, the serving path of
    // `recognize`: generated members of each plain Table-1 grammar and a
    // one-character mutant of each (the parameter names the grammar and the
    // corpus's bytes). The `recognize_raw_forking` series runs the inputs of
    // the same corpus whose scan forks (two tokenization readings survive,
    // counted by `serve.scan_handoffs`), the lock-step set's layer; a
    // grammar without such inputs gets no row.
    for lang in table1_languages() {
        let compiled = learn_plain(lang.as_ref()).compile().expect("the bundled grammars compile");
        let inputs = raw_corpus(lang.as_ref(), 1, 40, 200);
        let forking: Vec<String> = inputs
            .iter()
            .filter(|s| {
                let guard = vstar_telemetry::install();
                let _ = compiled.recognize(s);
                guard.finish().facts.counter("serve.scan_handoffs") > 0
            })
            .cloned()
            .collect();
        for (series, inputs) in
            [("recognize_raw_short", inputs), ("recognize_raw_forking", forking)]
        {
            if inputs.is_empty() {
                continue;
            }
            let bytes: usize = inputs.iter().map(String::len).sum();
            group.bench_with_input(
                BenchmarkId::new(series, format!("{}_{bytes}B", lang.name())),
                &inputs,
                |b, inputs| b.iter(|| inputs.iter().filter(|s| compiled.recognize(s)).count()),
            );
        }
    }

    let sampler = GrammarSampler::new(&fig1);
    group.bench_function("sample_fig1_budget64", |b| {
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        b.iter(|| black_box(sampler.sample(&mut rng, 64)))
    });
    group.bench_function("sample_tree_fig1_budget64", |b| {
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        b.iter(|| black_box(sampler.sample_tree(&mut rng, 64).map(|t| t.len())))
    });

    group.finish();
}

criterion_group!(benches, bench_parser_throughput);
criterion_main!(benches);
