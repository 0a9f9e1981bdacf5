//! The differential fuzzing campaign driver.
//!
//! A campaign turns a learned language into its own adversary: inputs are
//! grown from the learned grammar (sampled derivations, tree-level mutations,
//! deliberate character-level corruption), every input is judged by *both* the
//! learned artifact and the ground-truth black-box oracle, and each case lands
//! in one of four classes — agree-accept, agree-reject, false positive
//! (precision gap of the learned grammar) or false negative (recall gap).
//! Divergences are minimized and reported; a rule-coverage-keyed corpus of
//! derivations feeds the mutation loop, AFL-style.
//!
//! Everything is driven by one seeded RNG, so a campaign is a pure function of
//! `(learned language, oracle, config)` — two runs produce identical reports.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use vstar::refine::Evidence;
use vstar::{LearnedLanguage, TokenDiscovery};
use vstar_eval::DifferentialCounts;
use vstar_oracles::Language;
use vstar_parser::{CompileLearned, CompiledGrammar, ParseTree};

use crate::coverage::RuleCoverage;
use crate::minimize::{minimize_string, TreeMinimizer};
use crate::mutate::{MutationKind, Mutator};

/// The four outcomes of one differential case.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CaseClass {
    /// Learned artifact and oracle both accept.
    AgreeAccept,
    /// Both reject.
    AgreeReject,
    /// Learned accepts, oracle rejects: the learned grammar over-approximates.
    FalsePositive,
    /// Oracle accepts, learned rejects: the learned grammar under-approximates.
    FalseNegative,
}

impl CaseClass {
    /// Classifies from the two verdicts.
    #[must_use]
    pub fn from_flags(learned_accepts: bool, oracle_accepts: bool) -> Self {
        match (learned_accepts, oracle_accepts) {
            (true, true) => CaseClass::AgreeAccept,
            (false, false) => CaseClass::AgreeReject,
            (true, false) => CaseClass::FalsePositive,
            (false, true) => CaseClass::FalseNegative,
        }
    }

    /// `true` for the two disagreement classes.
    #[must_use]
    pub fn is_divergence(self) -> bool {
        matches!(self, CaseClass::FalsePositive | CaseClass::FalseNegative)
    }

    /// Stable label used in reports and corpus files.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CaseClass::AgreeAccept => "agree-accept",
            CaseClass::AgreeReject => "agree-reject",
            CaseClass::FalsePositive => "false-positive",
            CaseClass::FalseNegative => "false-negative",
        }
    }

    /// Telemetry counter name for this class (`fuzz.<class>` with underscores).
    #[must_use]
    pub fn counter(self) -> &'static str {
        match self {
            CaseClass::AgreeAccept => "fuzz.agree_accept",
            CaseClass::AgreeReject => "fuzz.agree_reject",
            CaseClass::FalsePositive => "fuzz.false_positive",
            CaseClass::FalseNegative => "fuzz.false_negative",
        }
    }
}

/// Knobs of a [`FuzzCampaign`]. All percentages are in `0..=100` and drive one
/// shared seeded RNG, so any fixed configuration is fully deterministic.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// RNG seed; the campaign is a pure function of it (and the artifacts).
    pub seed: u64,
    /// Number of fuzzing iterations (the oracle's seed strings are classified
    /// up front and do not count against this budget).
    pub iterations: usize,
    /// Size budget for fresh top-level samples.
    pub sample_budget: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig { seed: 42, iterations: 500, sample_budget: 24 }
    }
}

/// Size budget for regrown/spliced fragments.
const MUTATION_BUDGET: usize = 16;

/// Percentage of iterations that draw a fresh sample instead of mutating.
const FRESH_PERCENT: u32 = 20;

/// Percentage of iterations that character-perturb a corpus yield (stepping
/// outside the grammar) instead of tree-mutating inside it.
const PERTURB_PERCENT: u32 = 25;

/// Cap on *distinct minimized* divergences kept (further divergent cases are
/// still classified and counted, but not minimized; see
/// [`CampaignReport::divergences_beyond_cap`]).
const MAX_DIVERGENCES: usize = 32;

/// Cap on corpus derivations retained for mutation.
const MAX_CORPUS_TREES: usize = 256;

/// Cap on `keep`-predicate evaluations per tree minimization.
const MINIMIZER_CHECKS: usize = 400;

/// In token mode, number of draws spent per iteration looking for a generated
/// derivation worth classifying: one whose raw yield the compiled artifact
/// re-accepts (the `conv ∘ strip` fixed points and their servable closure) or
/// the oracle accepts (a false negative). Draws rejected by both sides are
/// guaranteed agree-rejects — grammar words that correspond to no servable
/// input — and classifying them wastes the iteration.
const FIXED_POINT_ATTEMPTS: usize = 8;

/// One distinct (post-minimization) divergence found by a campaign.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct DivergenceCase {
    /// Divergence class label ([`CaseClass::label`]).
    pub class: String,
    /// Label of the generation step that produced the first witness.
    pub mutation: String,
    /// Iteration of the first witness (`0` and up; seed-phase cases use the
    /// iteration value `0` too and are distinguished by `mutation == "seed"`).
    pub iteration: usize,
    /// The first raw witness input, exactly as handed to the oracle.
    pub raw: String,
    /// The minimized witness (still classifies identically).
    pub minimized: String,
    /// How many evaluated cases minimized to this same witness.
    pub occurrences: usize,
}

impl DivergenceCase {
    /// Exports the minimized witness as refinement evidence
    /// ([`vstar::refine::Evidence`]): the raw string, the direction of the
    /// disagreement, and a `fuzz:<mutation>` provenance tag — ready to replay
    /// into the learner as a counterexample.
    #[must_use]
    pub fn as_evidence(&self) -> Evidence {
        let false_positive = self.class == CaseClass::FalsePositive.label();
        Evidence {
            raw: self.minimized.clone(),
            learned_accepts: false_positive,
            oracle_accepts: !false_positive,
            source: format!("fuzz:{}", self.mutation),
        }
    }
}

/// The machine-readable outcome of one campaign.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct CampaignReport {
    /// Oracle language name.
    pub language: String,
    /// RNG seed the campaign ran with.
    pub seed: u64,
    /// Fuzzing iterations executed.
    pub iterations: usize,
    /// Per-class case tallies.
    pub counts: DifferentialCounts,
    /// Empirical precision over the campaign distribution
    /// ([`DifferentialCounts::precision_estimate`]).
    pub precision_estimate: f64,
    /// Empirical recall over the campaign distribution
    /// ([`DifferentialCounts::recall_estimate`]).
    pub recall_estimate: f64,
    /// Grammar rules exercised by at least one corpus derivation.
    pub rules_covered: usize,
    /// Total grammar rules (bitmap width).
    pub rules_total: usize,
    /// Derivations retained in the mutation corpus.
    pub corpus_trees: usize,
    /// Distinct minimized divergences, in discovery order.
    pub divergences: Vec<DivergenceCase>,
    /// Divergent cases evaluated after the campaign's cap on distinct
    /// divergences was reached (counted in `counts`, not minimized).
    pub divergences_beyond_cap: usize,
}

impl CampaignReport {
    /// Number of distinct minimized divergences.
    #[must_use]
    pub fn distinct_divergences(&self) -> usize {
        self.divergences.len()
    }

    /// `true` if any case (minimized or beyond the cap) diverged.
    #[must_use]
    pub fn found_divergence(&self) -> bool {
        self.counts.divergences() > 0
    }

    /// Distinct minimized divergences of one class.
    #[must_use]
    pub fn divergences_of(&self, class: CaseClass) -> usize {
        self.divergences.iter().filter(|d| d.class == class.label()).count()
    }

    /// Exports every distinct minimized divergence as refinement evidence,
    /// in discovery order ([`DivergenceCase::as_evidence`]).
    #[must_use]
    pub fn evidence(&self) -> Vec<Evidence> {
        self.divergences.iter().map(DivergenceCase::as_evidence).collect()
    }
}

/// A grammar-directed differential fuzzing campaign over one learned language
/// and its ground-truth oracle.
pub struct FuzzCampaign<'a> {
    learned: &'a LearnedLanguage,
    oracle: &'a dyn Language,
    config: FuzzConfig,
}

/// Mutable campaign accumulators, bundled so the per-case path is one call.
struct State<'g> {
    coverage: RuleCoverage<'g>,
    corpus: Vec<ParseTree>,
    footprints: BTreeSet<Vec<usize>>,
    counts: DifferentialCounts,
    divergences: Vec<DivergenceCase>,
    beyond_cap: usize,
}

impl<'a> FuzzCampaign<'a> {
    /// Prepares a campaign; nothing runs until [`FuzzCampaign::run`].
    #[must_use]
    pub fn new(learned: &'a LearnedLanguage, oracle: &'a dyn Language, config: FuzzConfig) -> Self {
        FuzzCampaign { learned, oracle, config }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &FuzzConfig {
        &self.config
    }

    /// Runs the campaign to completion and reports.
    ///
    /// The learned side is served by the compiled artifact
    /// ([`CompiledGrammar`]): membership and parsing of every fuzz case run
    /// oracle-free, exactly as a production serving path would, while the
    /// black-box [`Language`] oracle judges the other side of the diff.
    ///
    /// # Panics
    ///
    /// Panics when the learned grammar exceeds the compilation state budget —
    /// campaigns fuzz grammars the serving path could actually ship.
    #[must_use]
    pub fn run(&self) -> CampaignReport {
        let _campaign_span = vstar_telemetry::span("fuzz-campaign");
        let vpg = self.learned.vpg();
        let compiled = self.learned.compile().expect("learned grammar compiles for serving");
        let mutator = Mutator::new(vpg);
        let minimizer = TreeMinimizer::new(vpg);
        let alphabet = self.oracle.alphabet();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut st = State {
            coverage: RuleCoverage::new(vpg),
            corpus: Vec::new(),
            footprints: BTreeSet::new(),
            counts: DifferentialCounts::default(),
            divergences: Vec::new(),
            beyond_cap: 0,
        };

        // Seed phase: the oracle's own seed strings anchor the corpus and give
        // an immediate recall check (a sound learner accepts all of them).
        for seed in self.oracle.seeds() {
            self.process(&mut st, &compiled, &minimizer, "seed", 0, None, seed);
        }

        // In token mode a derivation of the converted grammar corresponds to
        // a real serving-path input only when its *raw* yield is re-accepted
        // by the compiled artifact (the `conv ∘ strip` fixed points, plus
        // the words whose raw form converts to a different but still
        // accepted word — exactly where tokenizer-boundary false positives
        // live). A derivation outside that set is only worth classifying
        // when the *oracle* accepts its raw yield — then it is a false
        // negative, not noise. Draws rejected by both sides are guaranteed
        // agree-rejects and are skipped instead of burning the iteration;
        // the two membership checks are deterministic, so determinism of the
        // campaign is untouched.
        let filter_fixed_points = self.learned.mode() == TokenDiscovery::Tokens;
        let is_fixed_point = |t: &ParseTree| -> bool {
            let raw = self.learned.strip(&t.yielded());
            compiled.recognize(&raw) || self.oracle.accepts(&raw)
        };

        let mut iterations_run = 0usize;
        for iteration in 0..self.config.iterations {
            // Every iteration consumes budget, classified or skipped — the
            // report's `iterations` must be the denominator a starvation
            // check can trust, so a tail of filtered-out draws still counts.
            iterations_run = iteration + 1;
            let draw = rng.gen_range(0..100u32);
            let (label, tree, raw) = if st.corpus.is_empty() || draw < FRESH_PERCENT {
                let sampled = if filter_fixed_points {
                    mutator.sampler().sample_tree_where(
                        &mut rng,
                        self.config.sample_budget,
                        FIXED_POINT_ATTEMPTS,
                        is_fixed_point,
                    )
                } else {
                    mutator.sampler().sample_tree(&mut rng, self.config.sample_budget)
                };
                let Some(t) = sampled else {
                    if !mutator.sampler().is_productive() {
                        break; // unproductive grammar: nothing to generate, ever
                    }
                    vstar_telemetry::counter("fuzz.skipped", 1);
                    continue; // no fixed-point derivation found this round
                };
                let raw = self.learned.strip(&t.yielded());
                (MutationKind::FreshSample.label(), Some(t), raw)
            } else if draw < FRESH_PERCENT + PERTURB_PERCENT {
                let t = st.corpus.choose(&mut rng).expect("corpus checked nonempty");
                let member = self.learned.strip(&t.yielded());
                let raw = mutator.perturb_chars(&member, &alphabet, &mut rng);
                (MutationKind::PerturbChars.label(), None, raw)
            } else {
                let t = st.corpus.choose(&mut rng).expect("corpus checked nonempty");
                let attempts = if filter_fixed_points { FIXED_POINT_ATTEMPTS } else { 1 };
                let mut found = None;
                for _ in 0..attempts {
                    if let Some((kind, t2)) = mutator.mutate(t, &mut rng, MUTATION_BUDGET) {
                        if !filter_fixed_points || is_fixed_point(&t2) {
                            found = Some((kind, t2));
                            break;
                        }
                    }
                }
                let Some((kind, t2)) = found else {
                    vstar_telemetry::counter("fuzz.skipped", 1);
                    continue;
                };
                let raw = self.learned.strip(&t2.yielded());
                (kind.label(), Some(t2), raw)
            };
            self.process(&mut st, &compiled, &minimizer, label, iteration, tree, raw);
        }

        CampaignReport {
            language: self.oracle.name().to_string(),
            seed: self.config.seed,
            iterations: iterations_run,
            precision_estimate: st.counts.precision_estimate(),
            recall_estimate: st.counts.recall_estimate(),
            counts: st.counts,
            rules_covered: st.coverage.covered(),
            rules_total: st.coverage.total(),
            corpus_trees: st.corpus.len(),
            divergences: st.divergences,
            divergences_beyond_cap: st.beyond_cap,
        }
    }

    /// Classifies one raw input, updates coverage/corpus, and minimizes
    /// divergences. `tree` is the derivation that produced the input, when the
    /// generator had one.
    #[allow(clippy::too_many_arguments)]
    fn process(
        &self,
        st: &mut State<'_>,
        compiled: &CompiledGrammar,
        minimizer: &TreeMinimizer<'_>,
        label: &str,
        iteration: usize,
        tree: Option<ParseTree>,
        raw: String,
    ) {
        let learned_ok = compiled.recognize(&raw);
        let oracle_ok = self.oracle.accepts(&raw);
        st.counts.record(learned_ok, oracle_ok);
        let class = CaseClass::from_flags(learned_ok, oracle_ok);
        vstar_telemetry::counter(class.counter(), 1);

        // Coverage feedback: the generating derivation if there was one,
        // otherwise (for accepted perturbations) the parse of the raw input.
        let tree = tree.or_else(|| {
            (class == CaseClass::AgreeAccept).then(|| compiled.parse(&raw).ok()).flatten()
        });
        if let Some(t) = tree {
            let fp = st.coverage.footprint(&t);
            let new_bits = st.coverage.merge(&fp);
            if new_bits > 0 {
                // One journal point per step of the coverage growth curve.
                vstar_telemetry::event(
                    "fuzz.coverage",
                    &[
                        ("iteration", iteration as u64),
                        ("covered", st.coverage.covered() as u64),
                        ("total", st.coverage.total() as u64),
                    ],
                );
            }
            let novel_shape = st.footprints.insert(fp);
            if (new_bits > 0 || novel_shape) && st.corpus.len() < MAX_CORPUS_TREES {
                st.corpus.push(t);
            }
        }

        if !class.is_divergence() {
            return;
        }
        // Cheap dedup against known witnesses before paying for minimization.
        if let Some(existing) = st
            .divergences
            .iter_mut()
            .find(|d| d.class == class.label() && (d.minimized == raw || d.raw == raw))
        {
            existing.occurrences += 1;
            return;
        }
        if st.divergences.len() >= MAX_DIVERGENCES {
            st.beyond_cap += 1;
            return;
        }
        let minimized = self.minimize(compiled, minimizer, class, &raw);
        if let Some(existing) =
            st.divergences.iter_mut().find(|d| d.class == class.label() && d.minimized == minimized)
        {
            existing.occurrences += 1;
            return;
        }
        st.divergences.push(DivergenceCase {
            class: class.label().to_string(),
            mutation: label.to_string(),
            iteration,
            raw,
            minimized,
            occurrences: 1,
        });
    }

    /// Minimizes a divergent input, preserving its class: greedy subtree
    /// deletion when the learned side has a derivation (false positives),
    /// then/or greedy string deletion.
    fn minimize(
        &self,
        compiled: &CompiledGrammar,
        minimizer: &TreeMinimizer<'_>,
        class: CaseClass,
        raw: &str,
    ) -> String {
        let keep_str =
            |s: &str| CaseClass::from_flags(compiled.recognize(s), self.oracle.accepts(s)) == class;
        let tree_minimized = if class == CaseClass::FalsePositive {
            compiled.parse(raw).ok().map(|t| {
                let small = minimizer.minimize_tree(&t, MINIMIZER_CHECKS, |cand| {
                    keep_str(&self.learned.strip(&cand.yielded()))
                });
                self.learned.strip(&small.yielded())
            })
        } else {
            None
        };
        let start = tree_minimized.as_deref().unwrap_or(raw);
        minimize_string(start, keep_str)
    }
}
