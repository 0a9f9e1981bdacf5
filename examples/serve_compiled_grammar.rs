//! Learn once, serve forever: compile a learned grammar into an owned,
//! oracle-free artifact, persist it, reload it and serve traffic.
//!
//! The learning stack (oracle, Mat, learner state) is dropped before any
//! serving happens — everything after the `drop` line runs on the compiled
//! artifact alone: single calls, a saved/loaded copy, a batch and a streaming
//! session.
//!
//! Run with: `cargo run --example serve_compiled_grammar --release`

use vstar::{Mat, VStar, VStarConfig};
use vstar_oracles::{Json, Language};
use vstar_parser::{CompileLearned, CompiledGrammar};

fn main() {
    // Learning time: the black-box oracle answers membership queries.
    let lang = Json::new();
    let oracle = |s: &str| lang.accepts(s);
    let mat = Mat::new(&oracle);
    let result = VStar::new(VStarConfig::default())
        .learn(&mat, &lang.alphabet(), &lang.seeds())
        .expect("json learning succeeds");
    let compiled = result.compile().expect("learned grammar compiles");
    println!(
        "compiled json: {} item-set states, {} stack symbols, {} rules",
        compiled.table_view().state_count(),
        compiled.table_view().stack_symbol_count(),
        compiled.vpg().rule_count(),
    );
    drop((mat, result)); // serving needs no oracle and no learner state

    // Ship the artifact: save, load, keep serving with the reloaded copy.
    let path = std::env::temp_dir().join("vstar_served_json.grammar.json");
    compiled.save(&path).expect("artifact saves");
    let served = CompiledGrammar::load(&path).expect("artifact loads");
    std::fs::remove_file(&path).ok();
    println!("artifact round-tripped through {} bytes of JSON", compiled.to_json().len());

    // Single calls: recognition, parse trees and raw-span errors.
    let doc = "{\"a\":[1,{\"b\":true}]}";
    let tree = served.parse(doc).expect("member parses");
    println!("parsed {doc:?}: {} terminals, nesting depth {}", tree.len(), tree.depth());
    // The paper's §5.1 shape: a `{` inside a string is plain text, resolved
    // here without a single membership query.
    println!("brace-in-string member accepted: {}", served.recognize("{\"{\":0}"));
    for bad in ["{\"a\":1", "[1,2,,3]"] {
        let err = served.parse(bad).expect_err("non-member rejected");
        println!("rejected {bad:?}: {err}");
    }

    // Batch serving: one artifact, many documents, verdicts in input order.
    let docs: Vec<String> = (0..2000)
        .map(|k| match k % 4 {
            0 => format!("{{\"k{k}\":{k}}}"),
            1 => format!("[{k},true,null]"),
            2 => format!("{{\"a\":{{\"b\":[{k}]}}}}"),
            _ => format!("[{k},"), // malformed
        })
        .collect();
    let refs: Vec<&str> = docs.iter().map(String::as_str).collect();
    let verdicts = served.recognize_batch(&refs);
    let accepted = verdicts.iter().filter(|&&v| v).count();
    println!("batch: {accepted}/{} documents accepted", refs.len());

    // Streaming: feed the raw document chunk by chunk; the verdict is the
    // one `recognize` gives the whole string.
    let mut session = served.session();
    for chunk in "{\"stream\":[1,2,3]}".as_bytes().chunks(3) {
        session.push_bytes(chunk);
    }
    println!("streamed verdict: {}", session.finish());
}
