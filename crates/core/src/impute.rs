//! Multipoint Imputation (§6): filling a gap with a token sequence.
//!
//! Implements the paper's two strategies plus the single-call ablation:
//!
//! * [`MultipointStrategy::Iterative`] — Algorithm 1: greedily insert the
//!   top valid candidate at the first remaining gap until every adjacent
//!   pair is within `max_gap`.
//! * [`MultipointStrategy::Beam`] — Algorithm 2: bidirectional beam search
//!   over partial segments with length-normalized probabilities
//!   (`P × |imputed|^α`, §6.2) and a completed-answer pruning bound.
//! * [`MultipointStrategy::Single`] — the §8.7 "No Multi." variant: one
//!   model call per gap.
//!
//! Every strategy respects the hard model-call budget; on exhaustion the
//! segment is declared failed and the caller falls back to a straight line,
//! exactly as §6 prescribes.

use crate::config::{KamelConfig, MultipointStrategy};
use crate::constraints::{GapContext, SpatialConstraints};
use crate::tokenize::Tokenizer;
use kamel_hexgrid::CellId;
use kamel_lm::{Candidate, MaskedTokenModel};

/// Why a gap could not be imputed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureReason {
    /// The hard model-call budget ran out (§6).
    BudgetExhausted,
    /// A model call returned no candidate that passed the spatial
    /// constraints and cycle check.
    NoValidCandidates,
    /// No pyramid model covered the gap (§4.1 fallback).
    NoModel,
}

/// The result of imputing one trajectory segment (gap).
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentOutcome {
    /// The full token sequence from S to D inclusive. On failure this is
    /// just `[S, D]`.
    pub tokens: Vec<CellId>,
    /// True when the gap had to be imputed by a straight line (the paper's
    /// failure-rate numerator).
    pub failed: bool,
    /// Number of model ("BERT") calls spent.
    pub model_calls: usize,
    /// Populated when `failed` is true.
    pub failure_reason: Option<FailureReason>,
    /// Model confidence in the imputation: the geometric mean of the
    /// chosen candidates' probabilities, in `(0, 1]`. A gap that needed no
    /// imputation reports `1.0`; a failed gap reports `0.0`. The continual
    /// learner uses this to rank cells for retraining (low-confidence
    /// answers mean the cell's model is weak there).
    pub confidence: f64,
}

/// One gap-filling engine bound to a model, constraints, tokenizer, and
/// config.
pub struct GapFiller<'a> {
    /// The selected pyramid model.
    pub model: &'a dyn MaskedTokenModel,
    /// The Spatial Constraints module.
    pub constraints: &'a SpatialConstraints,
    /// The Tokenization module (for centroids/distances).
    pub tokenizer: &'a Tokenizer,
    /// System configuration.
    pub config: &'a KamelConfig,
    /// Observed speed of the trajectory segment preceding this gap, for the
    /// adaptive speed policy (§5.1). `None` when unknown.
    pub preceding_speed_mps: Option<f64>,
}

/// A partial segment during beam search.
#[derive(Debug, Clone)]
struct BeamSeg {
    tokens: Vec<CellId>,
    /// Product of candidate probabilities of all imputed tokens.
    prob: f64,
    imputed: usize,
}

impl BeamSeg {
    fn normalized(&self, alpha: f64) -> f64 {
        self.prob * (self.imputed.max(1) as f64).powf(alpha)
    }
}

impl<'a> GapFiller<'a> {
    /// Fills the gap between tokens `s` (at time `t_s`) and `d` (at `t_d`).
    /// `prev`/`next` are the trajectory tokens around the gap (t₁/t₂ in
    /// Figure 5), used by the direction constraints.
    pub fn fill(
        &self,
        s: CellId,
        d: CellId,
        t_s: f64,
        t_d: f64,
        prev: Option<CellId>,
        next: Option<CellId>,
    ) -> SegmentOutcome {
        if s == d
            || self.tokenizer.centroid_distance_m(s, d)
                <= self.tokenizer.effective_max_gap_m(self.config.max_gap_m)
        {
            // Nothing to impute.
            return SegmentOutcome {
                tokens: vec![s, d],
                failed: false,
                model_calls: 0,
                failure_reason: None,
                confidence: 1.0,
            };
        }
        match self.config.multipoint {
            MultipointStrategy::Iterative => self.iterative(s, d, t_s, t_d, prev, next),
            MultipointStrategy::Beam => self.beam(s, d, t_s, t_d, prev, next),
            MultipointStrategy::Single => self.single(s, d, t_s, t_d, prev, next),
        }
    }

    /// The FindFirstGap/FindGaps threshold (see
    /// [`Tokenizer::effective_max_gap_m`]).
    fn gap_threshold(&self) -> f64 {
        self.tokenizer.effective_max_gap_m(self.config.max_gap_m)
    }

    /// First adjacent pair with centroid distance above the gap threshold.
    fn first_gap(&self, tokens: &[CellId]) -> Option<usize> {
        let limit = self.gap_threshold();
        tokens
            .windows(2)
            .position(|w| self.tokenizer.centroid_distance_m(w[0], w[1]) > limit)
    }

    /// All gap indices in a segment.
    fn all_gaps(&self, tokens: &[CellId]) -> Vec<usize> {
        let limit = self.gap_threshold();
        tokens
            .windows(2)
            .enumerate()
            .filter(|(_, w)| self.tokenizer.centroid_distance_m(w[0], w[1]) > limit)
            .map(|(i, _)| i)
            .collect()
    }

    /// Interpolated timestamps of `tokens[idx]` and `tokens[idx + 1]`, linear
    /// in cumulative centroid distance between the segment's real endpoints.
    fn gap_times(&self, tokens: &[CellId], idx: usize, t_s: f64, t_d: f64) -> (f64, f64) {
        let (mut cum, mut before, mut after) = (0.0f64, 0.0, 0.0);
        for (i, w) in tokens.windows(2).enumerate() {
            if i == idx {
                before = cum;
            }
            cum += self.tokenizer.centroid_distance_m(w[0], w[1]);
            if i == idx {
                after = cum;
            }
        }
        if cum <= 0.0 {
            return (t_s, t_s);
        }
        (
            t_s + (t_d - t_s) * before / cum,
            t_s + (t_d - t_s) * after / cum,
        )
    }

    /// Builds the masked model input for the gap at `gap_idx`:
    /// `[prev?] tokens[..=gap_idx] [MASK] tokens[gap_idx+1..] [next?]`.
    /// Returns the sequence and the mask position within it.
    fn build_model_input(
        &self,
        tokens: &[CellId],
        gap_idx: usize,
        prev: Option<CellId>,
        next: Option<CellId>,
    ) -> (Vec<u64>, usize) {
        let mut seq: Vec<u64> = Vec::with_capacity(tokens.len() + 3);
        if let Some(p) = prev {
            seq.push(p.0);
        }
        seq.extend(tokens[..=gap_idx].iter().map(|c| c.0));
        let mask_pos = seq.len();
        seq.push(0); // masked slot placeholder
        seq.extend(tokens[gap_idx + 1..].iter().map(|c| c.0));
        if let Some(nx) = next {
            seq.push(nx.0);
        }
        (seq, mask_pos)
    }

    /// Builds the model input around the current segment, queries it at the
    /// masked slot for the gap at `gap_idx`, and applies the spatial
    /// constraints.
    fn call_model(
        &self,
        tokens: &[CellId],
        gap_idx: usize,
        t_s: f64,
        t_d: f64,
        prev: Option<CellId>,
        next: Option<CellId>,
    ) -> Vec<Candidate> {
        let (seq, mask_pos) = self.build_model_input(tokens, gap_idx, prev, next);
        let raw = self.model.predict_masked(&seq, mask_pos, self.config.top_k);
        self.postprocess_candidates(raw, tokens, gap_idx, (t_s, t_d), prev, next)
    }

    /// The non-model half of a "call BERT" step: micro-gap bridging and the
    /// spatial-constraints filter over the raw candidate list. `span` is
    /// the segment's `(t_s, t_d)` endpoint times.
    fn postprocess_candidates(
        &self,
        mut raw: Vec<Candidate>,
        tokens: &[CellId],
        gap_idx: usize,
        span: (f64, f64),
        prev: Option<CellId>,
        next: Option<CellId>,
    ) -> Vec<Candidate> {
        let (t_s, t_d) = span;
        let gap_s = tokens[gap_idx];
        let gap_d = tokens[gap_idx + 1];
        // Micro-gap bridging. A count-based MLM can only propose tokens it
        // has seen in this exact context, while the paper's BERT softmax
        // covers the whole vocabulary — its top-k routinely includes the
        // geometric in-between cell for a short hop. Emulate that tail for
        // grid-close endpoints only (≤ 3 steps): offer the interior cells
        // of the grid line between them at a low floor probability. They
        // still pass through the spatial constraints below.
        let grid_dist = self.tokenizer.grid().grid_distance(gap_s, gap_d);
        if (2..=3).contains(&grid_dist) {
            let line = self.tokenizer.grid().line(gap_s, gap_d);
            for cell in &line[1..line.len().saturating_sub(1)] {
                if !raw.iter().any(|c| c.key == cell.0) {
                    raw.push(Candidate {
                        key: cell.0,
                        prob: 1e-3,
                    });
                }
            }
        }
        let (gap_t_s, gap_t_d) = self.gap_times(tokens, gap_idx, t_s, t_d);
        let ctx = GapContext {
            s: gap_s,
            d: gap_d,
            s_xy: self.tokenizer.centroid(gap_s),
            d_xy: self.tokenizer.centroid(gap_d),
            t_s: gap_t_s,
            t_d: gap_t_d,
            prev_xy: if gap_idx > 0 {
                Some(self.tokenizer.centroid(tokens[gap_idx - 1]))
            } else {
                prev.map(|p| self.tokenizer.centroid(p))
            },
            next_xy: if gap_idx + 2 < tokens.len() {
                Some(self.tokenizer.centroid(tokens[gap_idx + 2]))
            } else {
                next.map(|p| self.tokenizer.centroid(p))
            },
            preceding_speed_mps: self.preceding_speed_mps,
        };
        self.constraints.filter(raw, &ctx, self.tokenizer)
    }

    /// Algorithm 1: Iterative BERT Calling.
    fn iterative(
        &self,
        s: CellId,
        d: CellId,
        t_s: f64,
        t_d: f64,
        prev: Option<CellId>,
        next: Option<CellId>,
    ) -> SegmentOutcome {
        let mut tokens = vec![s, d];
        let mut calls = 0usize;
        let mut prob_product = 1.0f64;
        let mut inserted_total = 0usize;
        while let Some(gap_idx) = self.first_gap(&tokens) {
            if calls >= self.config.max_model_calls {
                return Self::failure(s, d, calls, FailureReason::BudgetExhausted);
            }
            let candidates = self.call_model(&tokens, gap_idx, t_s, t_d, prev, next);
            calls += 1;
            // Top candidate that does not create a cycle.
            let mut inserted = false;
            for c in candidates {
                let mut attempt = tokens.clone();
                attempt.insert(gap_idx + 1, CellId(c.key));
                if !self.constraints.creates_cycle(&attempt, gap_idx + 1) {
                    tokens = attempt;
                    prob_product *= c.prob;
                    inserted_total += 1;
                    inserted = true;
                    break;
                }
            }
            if !inserted {
                return Self::failure(s, d, calls, FailureReason::NoValidCandidates);
            }
        }
        SegmentOutcome {
            tokens,
            failed: false,
            model_calls: calls,
            failure_reason: None,
            confidence: Self::geometric_mean(prob_product, inserted_total),
        }
    }

    /// The §8.7 "No Multi." ablation: a single model call, keeping at most
    /// one imputed token per gap. Per the paper's failure definition, a gap
    /// that still exceeds `max_gap` after the one insertion counts as a
    /// failure (the system resorts to a linear line for it), which is why
    /// "No Multi." has the highest failure rate in Figure 12-VI.
    fn single(
        &self,
        s: CellId,
        d: CellId,
        t_s: f64,
        t_d: f64,
        prev: Option<CellId>,
        next: Option<CellId>,
    ) -> SegmentOutcome {
        let tokens = vec![s, d];
        let candidates = self.call_model(&tokens, 0, t_s, t_d, prev, next);
        match candidates.first() {
            Some(c) => {
                let tokens = vec![s, CellId(c.key), d];
                let unfilled = self.first_gap(&tokens).is_some();
                SegmentOutcome {
                    tokens,
                    failed: unfilled,
                    model_calls: 1,
                    failure_reason: unfilled.then_some(FailureReason::NoValidCandidates),
                    confidence: if unfilled { 0.0 } else { c.prob.clamp(0.0, 1.0) },
                }
            }
            None => Self::failure(s, d, 1, FailureReason::NoValidCandidates),
        }
    }

    /// Algorithm 2: Bidirectional Beam Search.
    fn beam(
        &self,
        s: CellId,
        d: CellId,
        t_s: f64,
        t_d: f64,
        prev: Option<CellId>,
        next: Option<CellId>,
    ) -> SegmentOutcome {
        let alpha = self.config.length_norm_alpha;
        let b = self.config.beam_size;
        let init = BeamSeg {
            tokens: vec![s, d],
            prob: 1.0,
            imputed: 0,
        };
        // The partial segments of this round, and the (frontier index, gap
        // index) pairs awaiting expansion — the paper's AllGaps list.
        let mut frontier: Vec<BeamSeg> = vec![init];
        let mut all_gaps: Vec<(usize, usize)> = vec![(0, 0)];
        let mut answers: Vec<BeamSeg> = Vec::new();
        // Completed-answer bound (the Figure 7 "lower bound"): partial
        // segments whose normalized score falls below the best complete
        // answer are dropped.
        let mut prob_limit = f64::NEG_INFINITY;
        let mut calls = 0usize;
        let mut budget_exhausted = false;
        while !all_gaps.is_empty() {
            let mut new_segments: Vec<BeamSeg> = Vec::new();
            // The whole round goes through the model as ONE batched call:
            // every frontier gap that fits the remaining call budget. Each
            // request still counts as one "BERT call" against the budget,
            // and the per-request results are identical to serial calls
            // (the batched API guarantees it), so semantics are unchanged —
            // only the kernels get the fused batch.
            let take = all_gaps
                .len()
                .min(self.config.max_model_calls.saturating_sub(calls));
            let budget_hit = take < all_gaps.len();
            if budget_hit {
                budget_exhausted = true;
            }
            let reqs: Vec<(Vec<u64>, usize)> = all_gaps[..take]
                .iter()
                .map(|&(seg, gap_idx)| {
                    self.build_model_input(&frontier[seg].tokens, gap_idx, prev, next)
                })
                .collect();
            let batched = self.model.predict_masked_batch(&reqs, self.config.top_k);
            calls += take;
            for (&(seg, gap_idx), raw) in all_gaps[..take].iter().zip(batched) {
                let seg = &frontier[seg];
                let candidates =
                    self.postprocess_candidates(raw, &seg.tokens, gap_idx, (t_s, t_d), prev, next);
                for c in candidates.into_iter().take(b) {
                    let mut tokens = seg.tokens.clone();
                    tokens.insert(gap_idx + 1, CellId(c.key));
                    if self.constraints.creates_cycle(&tokens, gap_idx + 1) {
                        continue;
                    }
                    new_segments.push(BeamSeg {
                        tokens,
                        prob: seg.prob * c.prob,
                        imputed: seg.imputed + 1,
                    });
                }
            }
            // TopB(NewSegments, B, ProbLimit): rank by probability, prune by
            // the completed-answer bound.
            new_segments.sort_by(|a, b2| {
                b2.prob
                    .partial_cmp(&a.prob)
                    .expect("finite probabilities")
            });
            new_segments.dedup_by(|a, b2| a.tokens == b2.tokens);
            new_segments.truncate(b);
            new_segments.retain(|seg2| seg2.normalized(alpha) >= prob_limit || answers.is_empty());

            all_gaps.clear();
            frontier.clear();
            for seg in new_segments {
                let gaps = self.all_gaps(&seg.tokens);
                if gaps.is_empty() {
                    let score = seg.normalized(alpha);
                    prob_limit = prob_limit.max(score);
                    answers.push(seg);
                } else {
                    all_gaps.extend(gaps.into_iter().map(|g| (frontier.len(), g)));
                    frontier.push(seg);
                }
            }
            if budget_hit {
                break;
            }
        }
        match answers
            .into_iter()
            .max_by(|a, b2| {
                a.normalized(alpha)
                    .partial_cmp(&b2.normalized(alpha))
                    .expect("finite scores")
            }) {
            Some(best) => SegmentOutcome {
                confidence: Self::geometric_mean(best.prob, best.imputed),
                tokens: best.tokens,
                failed: false,
                model_calls: calls,
                failure_reason: None,
            },
            None => Self::failure(
                s,
                d,
                calls,
                if budget_exhausted {
                    FailureReason::BudgetExhausted
                } else {
                    FailureReason::NoValidCandidates
                },
            ),
        }
    }

    fn failure(s: CellId, d: CellId, calls: usize, reason: FailureReason) -> SegmentOutcome {
        SegmentOutcome {
            tokens: vec![s, d],
            failed: true,
            model_calls: calls,
            failure_reason: Some(reason),
            confidence: 0.0,
        }
    }

    /// Geometric mean of `count` candidate probabilities whose product is
    /// `product`, clamped into `[0, 1]`. Zero insertions means the segment
    /// was already complete → full confidence.
    fn geometric_mean(product: f64, count: usize) -> f64 {
        if count == 0 {
            1.0
        } else {
            product.max(0.0).powf(1.0 / count as f64).clamp(0.0, 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KamelConfig;
    use kamel_geo::LatLng;
    use kamel_lm::EngineConfig;

    /// Builds a tokenizer + straight-street corpus and returns the cells of
    /// the street, spaced under 100 m so a trained model knows the chain.
    fn street() -> (Tokenizer, Vec<CellId>, kamel_lm::TrainedModel) {
        let cfg = KamelConfig::default();
        let tok = Tokenizer::new(LatLng::new(41.15, -8.61), &cfg);
        // A straight east-west street sampled every ~120 m (neighbor hexes).
        let cells: Vec<CellId> = (0..25)
            .map(|i| tok.cell_of_xy(kamel_geo::Xy::new(i as f64 * 120.0, 0.0)))
            .collect();
        let mut dedup = cells.clone();
        dedup.dedup();
        let corpus: Vec<Vec<u64>> = (0..30)
            .map(|_| dedup.iter().map(|c| c.0).collect())
            .collect();
        let model = EngineConfig::default().train(&corpus);
        (tok, dedup, model)
    }

    fn filler<'a>(
        tok: &'a Tokenizer,
        model: &'a kamel_lm::TrainedModel,
        cons: &'a SpatialConstraints,
        cfg: &'a KamelConfig,
    ) -> GapFiller<'a> {
        GapFiller {
            model,
            constraints: cons,
            tokenizer: tok,
            config: cfg,
            preceding_speed_mps: None,
        }
    }

    #[test]
    fn no_gap_means_no_calls() {
        let (tok, cells, model) = street();
        let cfg = KamelConfig::default();
        let cons = SpatialConstraints::new(20.0, &cfg);
        let f = filler(&tok, &model, &cons, &cfg);
        // Adjacent cells are ~130 m apart > 100 m max gap, so pick the same
        // cell twice for the trivial case.
        let out = f.fill(cells[0], cells[0], 0.0, 10.0, None, None);
        assert!(!out.failed);
        assert_eq!(out.model_calls, 0);
        assert_eq!(out.tokens, vec![cells[0], cells[0]]);
    }

    #[test]
    fn iterative_fills_a_street_gap() {
        let (tok, cells, model) = street();
        let cfg = KamelConfig::builder()
            .multipoint(MultipointStrategy::Iterative)
            .build();
        let cons = SpatialConstraints::new(20.0, &cfg);
        let f = filler(&tok, &model, &cons, &cfg);
        // Gap spanning 8 street cells (~1 km), generous time budget.
        let (s, d) = (cells[2], cells[10]);
        let out = f.fill(s, d, 0.0, 200.0, Some(cells[1]), Some(cells[11]));
        assert!(!out.failed, "iterative failed: {out:?}");
        assert!(out.tokens.len() > 2, "no tokens imputed");
        // Every adjacent pair within max_gap.
        for w in out.tokens.windows(2) {
            assert!(
                tok.centroid_distance_m(w[0], w[1])
                    <= tok.effective_max_gap_m(cfg.max_gap_m) + 1e-9
            );
        }
        // Endpoints preserved.
        assert_eq!(out.tokens[0], s);
        assert_eq!(*out.tokens.last().unwrap(), d);
        // The imputed tokens are the street cells in between.
        assert_eq!(out.tokens, cells[2..=10].to_vec());
    }

    #[test]
    fn beam_fills_the_same_gap() {
        let (tok, cells, model) = street();
        let cfg = KamelConfig::builder()
            .multipoint(MultipointStrategy::Beam)
            .beam_size(5)
            .build();
        let cons = SpatialConstraints::new(20.0, &cfg);
        let f = filler(&tok, &model, &cons, &cfg);
        let (s, d) = (cells[2], cells[10]);
        let out = f.fill(s, d, 0.0, 200.0, Some(cells[1]), Some(cells[11]));
        assert!(!out.failed, "beam failed: {out:?}");
        assert_eq!(out.tokens, cells[2..=10].to_vec());
    }

    #[test]
    fn single_strategy_inserts_exactly_one_token() {
        let (tok, cells, model) = street();
        let cfg = KamelConfig::builder()
            .multipoint(MultipointStrategy::Single)
            .build();
        let cons = SpatialConstraints::new(20.0, &cfg);
        let f = filler(&tok, &model, &cons, &cfg);
        // A 2-cell hop completes with one insertion.
        let out = f.fill(cells[2], cells[4], 0.0, 60.0, None, None);
        assert!(!out.failed, "{out:?}");
        assert_eq!(out.tokens.len(), 3);
        assert_eq!(out.model_calls, 1);
        // A long gap keeps its one inserted token but is reported failed
        // (the paper's "No Multi." failure accounting, §8.7).
        let long = f.fill(cells[2], cells[10], 0.0, 200.0, None, None);
        assert_eq!(long.model_calls, 1);
        assert!(long.failed);
    }

    #[test]
    fn budget_exhaustion_fails_cleanly() {
        let (tok, cells, model) = street();
        let cfg = KamelConfig::builder()
            .multipoint(MultipointStrategy::Iterative)
            .max_model_calls(2)
            .build();
        let cons = SpatialConstraints::new(20.0, &cfg);
        let f = filler(&tok, &model, &cons, &cfg);
        // 15-cell gap cannot be filled in 2 calls.
        let out = f.fill(cells[2], cells[17], 0.0, 400.0, None, None);
        assert!(out.failed);
        assert_eq!(out.tokens, vec![cells[2], cells[17]]);
        assert!(out.model_calls <= 2);
    }

    #[test]
    fn impossible_time_budget_fails_via_constraints() {
        let (tok, cells, model) = street();
        let cfg = KamelConfig::builder()
            .multipoint(MultipointStrategy::Iterative)
            .build();
        let cons = SpatialConstraints::new(5.0, &cfg); // 5 m/s cap
        let f = filler(&tok, &model, &cons, &cfg);
        // 1 km gap in 10 s at 5 m/s: ellipse is a degenerate line; street
        // cell centroids off the exact line get rejected, so the gap cannot
        // be bridged by any candidate except those exactly on the chord.
        let out = f.fill(cells[2], cells[10], 0.0, 10.0, None, None);
        // Either fails outright or (if centroids happen to lie on the
        // chord) fills; with jittered hexes failure is expected.
        if !out.failed {
            for w in out.tokens.windows(2) {
                assert!(
                    tok.centroid_distance_m(w[0], w[1])
                        <= tok.effective_max_gap_m(cfg.max_gap_m) + 1e-9
                );
            }
        }
    }

    #[test]
    fn beam_score_normalization_favors_longer_probable_paths() {
        let seg_short = BeamSeg {
            tokens: vec![],
            prob: 0.06,
            imputed: 2,
        };
        let seg_long = BeamSeg {
            tokens: vec![],
            prob: 0.09,
            imputed: 4,
        };
        // With α=1: 0.06×2=0.12 < 0.09×4=0.36 (the Figure 7 example).
        assert!(seg_long.normalized(1.0) > seg_short.normalized(1.0));
        // With α=0 normalization is off.
        assert!(seg_long.normalized(0.0) > seg_short.normalized(0.0));
        assert_eq!(seg_short.normalized(0.0), 0.06);
    }

    /// A scriptable model: answers per (left, right) mask context.
    struct MockModel {
        by_context: std::collections::HashMap<(u64, u64), Vec<Candidate>>,
    }

    impl kamel_lm::MaskedTokenModel for MockModel {
        fn predict_masked(&self, seq: &[u64], pos: usize, _top_k: usize) -> Vec<Candidate> {
            let left = seq[pos - 1];
            let right = seq[pos + 1];
            self.by_context
                .get(&(left, right))
                .cloned()
                .unwrap_or_default()
        }

        fn vocab_len(&self) -> usize {
            self.by_context.len()
        }

        fn trained_tokens(&self) -> u64 {
            0
        }
    }

    /// The §6.2 / Figure 7 claim, reproduced exactly: greedy iterative
    /// calling follows the locally-best first token into a low-probability
    /// route, while bidirectional beam search returns the route whose
    /// normalized probability is highest.
    #[test]
    fn beam_escapes_the_greedy_trap_of_figure_7() {
        use kamel_hexgrid::CellId;
        let tok = Tokenizer::hex(LatLng::new(41.15, -8.61), 75.0);
        // Axial cells: the direct row c0..c3 and a detour row below it.
        let c = |q: i32, r: i32| CellId::from_coords(q, r);
        let (c0, c1, c2, c3) = (c(0, 0), c(1, 0), c(2, 0), c(3, 0));
        let (d1, dm, d2) = (c(1, -1), c(2, -1), c(3, -1));
        let cand = |cell: CellId, prob: f64| Candidate { key: cell.0, prob };
        let mut by_context = std::collections::HashMap::new();
        // First call: the detour's first step looks best (0.5 > 0.4)...
        by_context.insert((c0.0, c3.0), vec![cand(d1, 0.5), cand(c1, 0.4)]);
        // ...but the detour needs three weak steps (0.5×0.2×0.2 = 0.02,
        // normalized 0.06)...
        by_context.insert((d1.0, c3.0), vec![cand(dm, 0.2)]);
        by_context.insert((dm.0, c3.0), vec![cand(d2, 0.2)]);
        // ...while the direct route completes strongly
        // (0.4×0.8 = 0.32, normalized 0.64).
        by_context.insert((c1.0, c3.0), vec![cand(c2, 0.8)]);
        let model = MockModel { by_context };
        let cons = SpatialConstraints::new(30.0, &KamelConfig::default());
        let fill = |strategy: MultipointStrategy| {
            let cfg = KamelConfig::builder().multipoint(strategy).beam_size(3).build();
            let filler = GapFiller {
                model: &model,
                constraints: &cons,
                tokenizer: &tok,
                config: &cfg,
                preceding_speed_mps: None,
            };
            filler.fill(c0, c3, 0.0, 60.0, None, None)
        };
        let greedy = fill(MultipointStrategy::Iterative);
        assert!(!greedy.failed, "{greedy:?}");
        assert_eq!(
            greedy.tokens,
            vec![c0, d1, dm, d2, c3],
            "greedy must fall into the detour"
        );
        let beam = fill(MultipointStrategy::Beam);
        assert!(!beam.failed, "{beam:?}");
        assert_eq!(
            beam.tokens,
            vec![c0, c1, c2, c3],
            "beam must return the higher-normalized-probability route"
        );
    }

    /// Forwards single predictions but hides any engine batch override, so
    /// the trait's default serial-loop batch implementation is used.
    struct SerialOnly<'a>(&'a dyn kamel_lm::MaskedTokenModel);

    impl kamel_lm::MaskedTokenModel for SerialOnly<'_> {
        fn predict_masked(&self, seq: &[u64], pos: usize, top_k: usize) -> Vec<Candidate> {
            self.0.predict_masked(seq, pos, top_k)
        }

        fn vocab_len(&self) -> usize {
            self.0.vocab_len()
        }

        fn trained_tokens(&self) -> u64 {
            self.0.trained_tokens()
        }
    }

    /// The beam's round-batched model calls must produce exactly the fill
    /// the serial per-gap calls produce — with the BERT engine, whose fused
    /// batch path is the one under test.
    #[test]
    fn batched_beam_rounds_match_serial_model_calls() {
        let cfg = KamelConfig::builder()
            .multipoint(MultipointStrategy::Beam)
            .beam_size(4)
            .build();
        let tok = Tokenizer::new(LatLng::new(41.15, -8.61), &cfg);
        let cells: Vec<CellId> = (0..25)
            .map(|i| tok.cell_of_xy(kamel_geo::Xy::new(i as f64 * 120.0, 0.0)))
            .collect();
        let mut dedup = cells;
        dedup.dedup();
        let corpus: Vec<Vec<u64>> = (0..30)
            .map(|_| dedup.iter().map(|c| c.0).collect())
            .collect();
        let model = EngineConfig::Bert(kamel_lm::BertEngineConfig::for_tests()).train(&corpus);
        let cons = SpatialConstraints::new(20.0, &cfg);
        let serial = SerialOnly(&model);
        let run = |m: &dyn kamel_lm::MaskedTokenModel| {
            let f = GapFiller {
                model: m,
                constraints: &cons,
                tokenizer: &tok,
                config: &cfg,
                preceding_speed_mps: None,
            };
            f.fill(dedup[2], dedup[10], 0.0, 200.0, Some(dedup[1]), Some(dedup[11]))
        };
        let batched = run(&model);
        let serial_out = run(&serial);
        assert_eq!(batched, serial_out);
        assert!(!batched.failed, "{batched:?}");
    }

    #[test]
    fn confidence_reflects_candidate_probabilities() {
        let (tok, cells, model) = street();
        // Trivial no-gap fill is fully confident.
        let cfg = KamelConfig::default();
        let cons = SpatialConstraints::new(20.0, &cfg);
        let f = filler(&tok, &model, &cons, &cfg);
        let trivial = f.fill(cells[0], cells[0], 0.0, 10.0, None, None);
        assert_eq!(trivial.confidence, 1.0);
        // A real fill reports the geometric mean of the chosen candidates'
        // probabilities: strictly inside (0, 1].
        for strategy in [MultipointStrategy::Iterative, MultipointStrategy::Beam] {
            let cfg = KamelConfig::builder().multipoint(strategy).build();
            let cons = SpatialConstraints::new(20.0, &cfg);
            let f = filler(&tok, &model, &cons, &cfg);
            let out = f.fill(cells[2], cells[10], 0.0, 200.0, Some(cells[1]), Some(cells[11]));
            assert!(!out.failed, "{out:?}");
            assert!(
                out.confidence > 0.0 && out.confidence <= 1.0,
                "confidence out of range: {}",
                out.confidence
            );
        }
        // Failures carry zero confidence.
        let cfg = KamelConfig::builder()
            .multipoint(MultipointStrategy::Iterative)
            .max_model_calls(2)
            .build();
        let cons = SpatialConstraints::new(20.0, &cfg);
        let f = filler(&tok, &model, &cons, &cfg);
        let failed = f.fill(cells[2], cells[17], 0.0, 400.0, None, None);
        assert!(failed.failed);
        assert_eq!(failed.confidence, 0.0);
    }

    #[test]
    fn untrained_model_fails_gracefully() {
        let cfg = KamelConfig::default();
        let tok = Tokenizer::new(LatLng::new(41.15, -8.61), &cfg);
        let model = EngineConfig::default().train(&[]);
        let cons = SpatialConstraints::new(20.0, &cfg);
        let f = filler(&tok, &model, &cons, &cfg);
        let s = tok.cell_of_xy(kamel_geo::Xy::new(0.0, 0.0));
        let d = tok.cell_of_xy(kamel_geo::Xy::new(1000.0, 0.0));
        let out = f.fill(s, d, 0.0, 100.0, None, None);
        assert!(out.failed);
    }
}
