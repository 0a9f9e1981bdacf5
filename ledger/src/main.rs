//! End-to-end and per-layer benchmark of the V-Star workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path ledger/Cargo.toml -- \
//!     --workload <learn|serve|daemon> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run measures its workload and prints the end-to-end
//! metrics; with `--trace 1` it prints the per-layer ledger instead. The last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; a readable report goes to standard
//! error. See `ledger/README.md` for the workloads, the metrics and the
//! layer map.

mod daemon;
mod inputs;
mod layers;
mod learn;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::time::Instant;

use vstar_oracles::{table1_languages, Language};

use crate::daemon::Mix;
use crate::inputs::Inputs;
use crate::learn::{Learned, Mode, Served};
use crate::serve::ServeRun;
use crate::stats::{fnv, median, FNV_OFFSET};

const USAGE: &str = "usage: vstar-ledger --workload <learn|serve|daemon> --seed <n> \
                     --seconds <s> --trace <0|1>";

/// Set-up passes whose median is `setup_s`, half of them before and half
/// after the measured phase. Serving set-up learns all five languages, so it
/// runs fewer passes than the learn workload's, which also runs one after
/// every refined learn.
const LEARN_SETUPS: usize = 10;
const SERVING_SETUPS: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Learn,
    Serve,
    Daemon,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "learn" => Workload::Learn,
                    "serve" => Workload::Serve,
                    "daemon" => Workload::Daemon,
                    _ => return Err(bad("expected learn, serve or daemon")),
                });
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Everything a run reports: metrics in output order, the exact counts the
/// determinism guard compares, the operation tallies, and any failed check.
#[derive(Default)]
pub struct Ledger {
    metrics: Vec<(String, f64, String)>,
    counts: BTreeMap<String, u64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Ledger {
    pub fn metric(&mut self, name: &str, unit: &str, value: f64) {
        self.metrics.push((name.to_string(), value, unit.to_string()));
    }

    /// An exact count: reported as a metric and guarded for determinism.
    pub fn count(&mut self, name: &str, unit: &str, value: u64) {
        self.metric(name, unit, value as f64);
        self.fact(name, value);
    }

    /// An exact count guarded for determinism but not reported as a metric.
    pub fn fact(&mut self, name: &str, value: u64) {
        self.counts.insert(name.to_string(), value);
    }

    pub fn attempt(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn expect_true(&mut self, what: &str, ok: bool) {
        if !ok {
            self.problems.push(format!("check failed: {what}"));
        }
    }

    pub fn expect_equal(&mut self, what: &str, got: u64, want: u64) {
        if got != want {
            self.problems.push(format!("{what}: {got} != {want}"));
        }
    }

    /// The result line: one JSON object.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // Non-finite values cannot be written as JSON numbers; they
                // make the run incorrect instead (see `finish`).
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn finish(&mut self) {
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(name, _, _)| format!("metric {name} is not a finite number"))
            .collect();
        self.problems.extend(bad);
        if self.attempted == 0 {
            self.problems.push("no operation was attempted".to_string());
        }
    }
}

/// The five languages and their labelled inputs.
fn languages_and_inputs(seed: u64) -> (Vec<Box<dyn Language>>, Inputs) {
    let langs = table1_languages();
    let inputs = Inputs::generate(seed, &langs);
    (langs, inputs)
}

/// Adds the learn-layer counts every workload guards.
fn learn_facts(ledger: &mut Ledger, learned: &[Learned], served: &[Served]) {
    let sum = |f: fn(&Learned) -> u64| learned.iter().map(f).sum::<u64>();
    ledger.fact("learn_queries", sum(|l| l.queries));
    ledger.fact("mat.lookups", sum(|l| l.mat_lookups));
    ledger.fact("mat.hits", sum(|l| l.mat_hits));
    ledger.fact("learn.states", sum(|l| l.states));
    ledger.fact("artifact.bytes", served.iter().map(|s| s.artifact.len() as u64).sum());
    for l in learned {
        ledger.fact(&format!("learn_queries.{}", l.name), l.queries);
    }
}

/// The serving set-up, as a serving process runs it: learn every language,
/// compile it, and load it back from its artifact document.
fn serving_setup(langs: &[Box<dyn Language>]) -> (Vec<Learned>, Vec<Served>) {
    let learned: Vec<Learned> =
        langs.iter().map(|l| learn::learn(l.as_ref(), Mode::Plain)).collect();
    let served = learned.iter().map(learn::serve).collect();
    (learned, served)
}

/// One timed set-up pass and its results.
struct Setup {
    secs: f64,
    langs: Vec<Box<dyn Language>>,
    inputs: Inputs,
    learned: Vec<Learned>,
    served: Vec<Served>,
}

impl Setup {
    /// Builds the oracles and the seeded inputs, and in the serving
    /// workloads runs the serving set-up.
    fn run(workload: Workload, seed: u64) -> Setup {
        let started = Instant::now();
        let (langs, inputs) = languages_and_inputs(seed);
        let (learned, served) = match workload {
            Workload::Learn => (Vec::new(), Vec::new()),
            Workload::Serve | Workload::Daemon => serving_setup(&langs),
        };
        Setup { secs: started.elapsed().as_secs_f64(), langs, inputs, learned, served }
    }
}

/// What the set-up passes of a run did.
#[derive(Default)]
struct SetupLog {
    secs: Vec<f64>,
    /// The first pass's counts, which every pass must repeat.
    counts: Option<BTreeMap<String, u64>>,
    same_work: bool,
}

impl SetupLog {
    fn add(&mut self, setup: &Setup) {
        let mut facts = Ledger::default();
        learn_facts(&mut facts, &setup.learned, &setup.served);
        facts.fact("inputs.fingerprint", setup.inputs.fingerprint());
        match &self.counts {
            None => {
                self.counts = Some(facts.counts);
                self.same_work = true;
            }
            Some(first) => self.same_work &= *first == facts.counts,
        }
        self.secs.push(setup.secs);
    }
}

/// Shares of `--seconds` given to the layers a workload is not about. Every
/// run prints every end-to-end metric, so each workload also measures the
/// other layers' figures, in their reduced form: short-input `recognize`
/// passes for the serving metrics, a `Q`-only daemon load for the daemon
/// metrics. The serving figures are each input's fastest repetition and need
/// many passes to find it; the daemon figures are round trips of tens of
/// milliseconds today and steady from a few dozen of them. The workload's
/// own layer gets the rest of the window; the `learn` workload's refined
/// learns run outside it.
const SERVING_COMPANION: f64 = 0.5;
const DAEMON_COMPANION: f64 = 0.1;

/// Rounds the measured window is cut into. Each round runs serving passes,
/// then a daemon load segment, so both sample the whole window: the host's
/// speed changes over seconds, and the fastest repetitions of an input are
/// more likely found when they are spread out.
const ROUNDS: usize = 10;

/// The measured window of `seconds`: serving passes and daemon load in
/// [`ROUNDS`] rounds, in the shares the workload gives them. `reference`
/// holds the in-process verdict of each short input.
fn measure_window(
    workload: Workload,
    served: &[Served],
    inputs: &Inputs,
    reference: &[bool],
    seed: u64,
    seconds: f64,
) -> (ServeRun, daemon::DaemonRun) {
    let (serving, daemon) = (seconds * SERVING_COMPANION, seconds * DAEMON_COMPANION);
    // Serving seconds, daemon seconds, whether documents are served, mix.
    let (serve_secs, daemon_secs, docs, mix) = match workload {
        Workload::Learn => (serving, daemon, false, Mix::Query),
        Workload::Serve => (seconds - daemon, daemon, true, Mix::Query),
        Workload::Daemon => (serving, seconds - serving, false, Mix::Full),
    };
    let mut serve = ServeRun::new(inputs);
    let mut load = daemon::Load::start(served, inputs, reference, seed, mix);
    for round in 1..=ROUNDS {
        serve.run_until(served, inputs, serve_secs * round as f64 / ROUNDS as f64, docs);
        load.run_for(daemon_secs / ROUNDS as f64);
    }
    (serve, load.finish())
}

fn end_to_end(ledger: &mut Ledger, args: &Args) {
    // Set-up passes, half before and half after the measured phase: the
    // host's speed changes over tens of seconds, so passes at both ends of
    // the run sample it more widely. The first pass's results are measured.
    let passes = if args.workload == Workload::Learn { LEARN_SETUPS } else { SERVING_SETUPS };
    let mut log = SetupLog::default();
    let first = Setup::run(args.workload, args.seed);
    log.add(&first);
    for _ in 1..passes / 2 {
        log.add(&Setup::run(args.workload, args.seed));
    }
    let Setup { langs, mut inputs, mut learned, mut served, .. } = first;
    inputs.label(&langs);

    // The measured phase whose peak memory is reported: the refined learns in
    // the learn workload, the measured window in the others.
    stats::reset_peak_rss();
    let mut peak_mb = 0.0;
    if args.workload == Workload::Learn {
        // A set-up pass follows every learn, so the passes sample the host
        // over the whole phase.
        learned = langs
            .iter()
            .map(|lang| {
                let learned = learn::learn(lang.as_ref(), Mode::Refined);
                log.add(&Setup::run(args.workload, args.seed));
                learned
            })
            .collect();
        peak_mb = stats::status_kib("VmHWM") as f64 / 1024.0;
        let times: Vec<String> =
            learned.iter().map(|l| format!("{} {:.3}s", l.name, l.secs)).collect();
        eprintln!("refined learns: {}", times.join(", "));
        served = learned.iter().map(learn::serve).collect();
    }
    let reference = serve::verdicts(&served, &inputs.short);
    let (serve, load) =
        measure_window(args.workload, &served, &inputs, &reference, args.seed, args.seconds);
    if args.workload != Workload::Learn {
        peak_mb = stats::status_kib("VmHWM") as f64 / 1024.0;
    }
    for _ in passes / 2..passes {
        log.add(&Setup::run(args.workload, args.seed));
    }
    ledger.expect_true("set-up passes did the same work", log.same_work);

    learn_facts(ledger, &learned, &served);
    ledger.fact("inputs.fingerprint", inputs.fingerprint());
    let (short, docs) = (serve.short.tally(&inputs.short), serve.docs.tally(&inputs.docs));
    ledger.fact("verdict.false_reject.short", short.false_reject);
    ledger.fact("verdict.false_accept.short", short.false_accept);
    if serve.docs.passes > 0 {
        ledger.fact("verdict.false_reject.long", docs.false_reject);
        ledger.fact("verdict.false_accept.long", docs.false_accept);
    }
    ledger.fact("daemon.prefix_query_wrong", load.prefix_query_wrong);
    ledger.fact("daemon.prefix_stream_wrong", load.prefix_stream_wrong);
    ledger.expect_true("stable serving verdicts", serve.stable());
    ledger.expect_true("daemon /metrics totals equal the client counts", load.metrics_match);
    ledger.expect_true("no daemon request failed", load.errors == 0);
    ledger.expect_true("daemon Q verdicts equal in-process verdicts", load.query_mismatch == 0);
    // Operations are counted so that the same seed gives the same counts:
    // each language's learn, every distinct serving input (their repetitions
    // must repeat their first outcome, as checked above), and the daemon
    // clients' fixed first operations.
    ledger.attempt(learned.len() as u64, 0);
    ledger.attempt(serve.checked(), serve.wrong(&inputs));
    ledger.attempt(load.attempted(), load.failed());

    ledger.metric("setup_s", "s", median(&log.secs));
    ledger.metric("peak_rss_mb", "MB", peak_mb);
    ledger.metric("learn_queries", "count", learned.iter().map(|l| l.queries).sum::<u64>() as f64);
    ledger.metric("recognize_goodput_mbps", "MB/s", serve.short.goodput_mbps(&inputs.short, None));
    ledger.metric("recognize_p50_us", "us", serve.short.latency(0.5) * 1e6);
    ledger.metric("recognize_p99_us", "us", serve.short.latency(0.99) * 1e6);
    ledger.metric("daemon_rps", "1/s", load.completed() as f64 / load.secs);
    ledger.metric("daemon_p50_ms", "ms", stats::quantile(&load.query, 0.5) * 1e3);
    ledger.metric("daemon_p95_ms", "ms", stats::quantile(&load.query, 0.95) * 1e3);

    eprintln!(
        "serving: {} short passes, {} document passes, {:.2}s; short tally {short:?}, \
         document tally {docs:?}",
        serve.short.passes,
        serve.docs.passes,
        serve.short.secs + serve.docs.secs,
    );
    eprintln!(
        "daemon load: {} queries, {} streams, {} admin, {} publish in {:.2}s; wrong: {} \
         queries, {} streams; {} errors; RSS +{} KiB",
        load.query.len(),
        load.stream.len(),
        load.admin.len(),
        load.publish.len(),
        load.secs,
        load.query_wrong,
        load.stream_wrong,
        load.errors,
        load.rss_growth_kib,
    );
}

fn traced(ledger: &mut Ledger, args: &Args) {
    let (langs, mut inputs) = languages_and_inputs(args.seed);
    inputs.label(&langs);
    ledger.fact("inputs.fingerprint", inputs.fingerprint());
    layers::run(ledger, &langs, &inputs, args.seed);
}

/// Same seed, same counts: compares this run's counts with those of an
/// earlier run of the same executable, workload, seed and mode, kept beside
/// the executable, and records them when there is none.
fn determinism_guard(ledger: &mut Ledger, args: &Args) {
    let Ok(exe) = std::env::current_exe() else { return };
    let Ok(bytes) = std::fs::read(&exe) else { return };
    let dir = exe.with_file_name("ledger-counts");
    let file = dir.join(format!(
        "{}-seed{}-trace{}-{:016x}.txt",
        workload_name(args.workload),
        args.seed,
        u8::from(args.trace),
        fnv(FNV_OFFSET, &bytes)
    ));
    let text: String = ledger.counts.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    match std::fs::read_to_string(&file) {
        Ok(earlier) if earlier != text => {
            for (now, before) in text.lines().zip(earlier.lines()).filter(|(a, b)| a != b) {
                eprintln!("determinism: now {now:?}, earlier run {before:?}");
            }
            ledger.problems.push(format!("counts differ from the same-seed run in {file:?}"));
        }
        Ok(_) => {}
        Err(_) => {
            let _ = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, &text));
        }
    }
}

fn workload_name(w: Workload) -> &'static str {
    match w {
        Workload::Learn => "learn",
        Workload::Serve => "serve",
        Workload::Daemon => "daemon",
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    eprintln!(
        "workload {} seed {} seconds {} trace {} on {cores} cores",
        workload_name(args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let host_before = stats::host_probe();

    let mut ledger = Ledger::default();
    if args.trace {
        traced(&mut ledger, &args);
    } else {
        end_to_end(&mut ledger, &args);
    }

    // A different seed must give different inputs.
    let other = Inputs::generate(args.seed ^ 1, &table1_languages()).fingerprint();
    ledger.expect_true(
        "another seed changes the inputs",
        Some(&other) != ledger.counts.get("inputs.fingerprint"),
    );
    determinism_guard(&mut ledger, &args);

    let host_after = stats::host_probe();
    eprintln!("host.ref_s before {host_before:.4} after {host_after:.4}");
    if args.trace {
        ledger.metric("host.ref_s", "s", median(&[host_before, host_after]));
        ledger.metric("host.cores", "count", cores as f64);
    }
    ledger.finish();
    for problem in &ledger.problems {
        eprintln!("INCORRECT: {problem}");
    }
    for (name, value, unit) in &ledger.metrics {
        eprintln!("  {name:<36} {value:>16.6} {unit}");
    }
    println!("{}", ledger.json());
}
