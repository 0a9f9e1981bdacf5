//! In-process serving: `CompiledGrammar::recognize` on raw short inputs and
//! long documents, every verdict checked against the oracle's.
//!
//! Inputs are recognized in whole passes, again and again across the run, and
//! each input's time is the fastest of its repetitions. On a host that shares
//! its cache with other tenants, the speed of cache-heavy code swings by a
//! third within seconds; the fastest repetition is what the code costs when
//! the host lets it run, so it moves with the code and not with the
//! neighbours.

use std::hint::black_box;
use std::time::Instant;

use crate::inputs::{Case, Inputs};
use crate::learn::Served;
use crate::stats::quantile;

/// Verdicts that differ from the oracle's, by direction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub false_reject: u64,
    pub false_accept: u64,
}

impl Tally {
    pub fn wrong(&self) -> u64 {
        self.false_reject + self.false_accept
    }
}

/// Repeated passes over one fixed set of cases.
pub struct Series {
    /// Fastest time of each case, in seconds.
    best: Vec<f64>,
    /// Each case's verdict in the first pass. Every later pass must repeat it
    /// (`stable`).
    verdicts: Vec<bool>,
    pub passes: u64,
    pub stable: bool,
    /// Seconds spent in passes, all repetitions included.
    pub secs: f64,
}

impl Series {
    fn new(len: usize) -> Series {
        Series {
            best: vec![f64::INFINITY; len],
            verdicts: Vec::with_capacity(len),
            passes: 0,
            stable: true,
            secs: 0.0,
        }
    }

    fn pass(&mut self, grammars: &[Served], cases: &[Case]) {
        let first = self.passes == 0;
        for (i, case) in cases.iter().enumerate() {
            let grammar = &grammars[case.lang].grammar;
            let started = Instant::now();
            let verdict = grammar.recognize(black_box(&case.text));
            let secs = started.elapsed().as_secs_f64();
            self.secs += secs;
            self.best[i] = self.best[i].min(secs);
            if first {
                self.verdicts.push(verdict);
            } else if self.verdicts[i] != verdict {
                self.stable = false;
            }
        }
        self.passes += 1;
    }

    /// Bytes of the cases (of language `lang`, or all) whose verdict equals
    /// the oracle's, over the cases' summed fastest times, in MB/s.
    pub fn goodput_mbps(&self, cases: &[Case], lang: Option<usize>) -> f64 {
        let (mut good, mut secs) = (0u64, 0.0);
        for ((case, &best), &verdict) in cases.iter().zip(&self.best).zip(&self.verdicts) {
            if lang.is_none_or(|l| l == case.lang) {
                secs += best;
                if verdict == case.expect {
                    good += case.text.len() as u64;
                }
            }
        }
        good as f64 / secs / 1e6
    }

    /// The `q`-quantile of the cases' fastest times, in seconds.
    pub fn latency(&self, q: f64) -> f64 {
        quantile(&self.best, q)
    }

    pub fn tally(&self, cases: &[Case]) -> Tally {
        let mut tally = Tally::default();
        for (case, &verdict) in cases.iter().zip(&self.verdicts) {
            match (verdict, case.expect) {
                (false, true) => tally.false_reject += 1,
                (true, false) => tally.false_accept += 1,
                _ => {}
            }
        }
        tally
    }

    /// Distinct cases whose verdict was checked: every case once, if any
    /// pass ran. Repetitions are not counted again; `stable` holds them to
    /// the first pass's verdicts.
    pub fn checked(&self) -> u64 {
        self.verdicts.len() as u64
    }
}

/// Each case's verdict from `grammars`, for checking other paths against.
pub fn verdicts(grammars: &[Served], cases: &[Case]) -> Vec<bool> {
    cases.iter().map(|case| grammars[case.lang].grammar.recognize(&case.text)).collect()
}

/// Share of serving time given to long documents when they are served. Their
/// figures are per-layer ones; the end-to-end figures are the short inputs',
/// which get the rest, so that each short input is timed often enough for its
/// fastest repetition to be found.
const DOC_SHARE: f64 = 0.25;

/// Short inputs and long documents, measured side by side.
pub struct ServeRun {
    pub short: Series,
    pub docs: Series,
}

impl ServeRun {
    pub fn new(inputs: &Inputs) -> ServeRun {
        ServeRun { short: Series::new(inputs.short.len()), docs: Series::new(inputs.docs.len()) }
    }

    /// Runs whole passes until the serving time spent so far reaches
    /// `until` seconds. With `docs`, documents get about [`DOC_SHARE`] of the
    /// time; without, only short inputs are recognized. Runs at least one
    /// pass of each class it serves.
    pub fn run_until(&mut self, grammars: &[Served], inputs: &Inputs, until: f64, docs: bool) {
        while self.short.passes == 0
            || (docs && self.docs.passes == 0)
            || self.short.secs + self.docs.secs < until
        {
            let docs_due = self.docs.secs < DOC_SHARE * (self.short.secs + self.docs.secs);
            if !docs || !docs_due {
                self.short.pass(grammars, &inputs.short);
            } else {
                self.docs.pass(grammars, &inputs.docs);
            }
        }
    }

    /// Distinct cases checked; a function of the inputs, not of the time.
    pub fn checked(&self) -> u64 {
        self.short.checked() + self.docs.checked()
    }

    /// Checked cases whose verdict differs from the oracle's.
    pub fn wrong(&self, inputs: &Inputs) -> u64 {
        self.short.tally(&inputs.short).wrong() + self.docs.tally(&inputs.docs).wrong()
    }

    pub fn stable(&self) -> bool {
        self.short.stable && self.docs.stable
    }
}
