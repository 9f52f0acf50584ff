//! The Cache Validator — Algorithm 2 (CON), its retrospective variant
//! (CON-R), and the EVI purge.
//!
//! On each query arrival the Dataset Manager checks whether the dataset
//! changed since the cache last synchronized. If so:
//!
//! * **EVI** clears cache and window indiscriminately — trivially safe,
//!   but it discards every still-valid result (§5.1);
//! * **CON** runs Algorithm 1 (log → per-graph counters, in `gc-dataset`)
//!   and then Algorithm 2 per cached entry: extend `CGvalid` with `false`
//!   for newly assigned ids, then for each touched graph `i` keep the bit
//!   only in the two provably-safe cases;
//! * **CON-R** (the paper's §8 future-work item) does the same with the
//!   per-graph *net* edge delta instead of the counters, so changes that
//!   cancel out keep every bit.
//!
//! CON and CON-R differ only in the keep decision, so both are a
//! [`KeepRule`] fed to one maintenance loop. A bit the rule cannot keep
//! is *resolved* in one of two ways: [`refresh_all`] clears it (the
//! paper's invalidation), [`refresh_all_repair`] splices it back to ground
//! truth in place where that is cheap (delta repair).
//!
//! ### Polarity and the supergraph dual
//!
//! For a **subgraph-query** entry (`Answer = {G : q ⊆ G}`), Algorithm 2's
//! safe cases are:
//!
//! * all ops on `Gi` were **UA** and the cached bit is a *positive* answer
//!   (`q ⊆ Gi` is preserved by adding edges to `Gi`);
//! * all ops on `Gi` were **UR** and the cached bit is a *negative* answer
//!   (`q ⊄ Gi` is preserved by removing edges from `Gi`).
//!
//! For a **supergraph-query** entry (`Answer = {G : G ⊆ q}`) the
//! monotonicity flips (removing edges from `Gi` preserves `Gi ⊆ q`;
//! adding edges preserves `Gi ⊄ q`), so UA/UR swap roles. The paper omits
//! this dual "for space reason"; it is required for correctness as soon as
//! supergraph queries are cached, and tests exercise it.

use gc_dataset::{GraphId, GraphStore, NetEffect, NetEffects, OpCounters};
use gc_subiso::filter::signature_may_contain;
use gc_subiso::{Algorithm, QueryKind};

use crate::entry::CachedQuery;

/// Tally of one delta-repair maintenance pass — the per-refresh record
/// threaded into `QueryMetrics`, `AggregateMetrics` and `RuntimeHealth`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceOutcome {
    /// Answer bits spliced back to ground truth in place (their stored
    /// value actually changed).
    pub repairs_applied: u64,
    /// Validity bits preserved that invalidate-mode maintenance would have
    /// cleared — each one is a recomputation the next query avoids.
    pub invalidations_avoided: u64,
    /// Affected bits invalidated after all because the per-pass repair
    /// test budget was exhausted.
    pub repair_fallbacks: u64,
    /// Bounded single-bit SI tests the repair path executed.
    pub repair_tests: u64,
}

impl MaintenanceOutcome {
    /// Field-wise sum.
    pub fn merge(&mut self, other: &MaintenanceOutcome) {
        self.repairs_applied += other.repairs_applied;
        self.invalidations_avoided += other.invalidations_avoided;
        self.repair_fallbacks += other.repair_fallbacks;
        self.repair_tests += other.repair_tests;
    }
}

/// A consistency model's keep decision for one batch of changes.
pub trait KeepRule {
    /// Graphs touched by at least one change, in any order.
    fn touched_ids(&self) -> Vec<GraphId>;

    /// `true` iff a cached bit about touched graph `id` — the answer bit
    /// `answered` of an entry of `kind` — provably survived the batch.
    fn keep(&self, kind: QueryKind, answered: bool, id: GraphId) -> bool;
}

/// `true` iff the answer bit survives edges being *added* to its graph:
/// `q ⊆ G` stays true as `G` grows, and so does `G ⊄ q`. Removing edges
/// preserves exactly the other bits.
fn survives_growth(kind: QueryKind, answered: bool) -> bool {
    answered == (kind == QueryKind::Subgraph)
}

/// Algorithm 2: keep a bit when every op on the graph was UA (lines
/// 11–12) or every op was UR (lines 13–14) and the bit's polarity
/// survives that direction.
impl KeepRule for OpCounters {
    fn touched_ids(&self) -> Vec<GraphId> {
        self.touched().collect()
    }

    fn keep(&self, kind: QueryKind, answered: bool, id: GraphId) -> bool {
        if survives_growth(kind, answered) {
            self.ua_exclusive(id)
        } else {
            self.ur_exclusive(id)
        }
    }
}

/// CON-R: the per-graph net edge delta decides. Changes that cancelled out
/// keep every bit; residual additions/removals behave like UA/UR-exclusive;
/// everything else invalidates. At least as much validity survives as
/// under Algorithm 2 — property-tested in `tests/retro.rs`.
impl KeepRule for NetEffects {
    fn touched_ids(&self) -> Vec<GraphId> {
        self.touched().collect()
    }

    fn keep(&self, kind: QueryKind, answered: bool, id: GraphId) -> bool {
        match self.get(id) {
            Some(NetEffect::Neutral) => true,
            Some(NetEffect::AddOnly) => survives_growth(kind, answered),
            Some(NetEffect::RemoveOnly) => !survives_growth(kind, answered),
            Some(NetEffect::Invalidating) | None => false,
        }
    }
}

/// What repair mode needs to splice a bit back to ground truth.
struct Repair<'a> {
    store: &'a GraphStore,
    matcher: Algorithm,
    budget: &'a mut u64,
}

impl Repair<'_> {
    /// Resolves one bit the keep rule could not vouch for:
    ///
    /// * the graph is dead — its id can never re-enter a candidate set, so
    ///   clearing the bit is free and final;
    /// * a signature disproof settles the bit as `false` for free;
    /// * otherwise one bounded SI test recomputes it while the per-pass
    ///   budget lasts, and the bit is cleared once it has run dry
    ///   (`repair_fallbacks`).
    ///
    /// A repaired bit keeps its validity and now equals ground truth.
    fn resolve(&mut self, entry: &mut CachedQuery, i: GraphId, outcome: &mut MaintenanceOutcome) {
        let Some(graph) = self.store.get(i) else {
            entry.cg_valid.set(i, false);
            return;
        };
        let (pattern, target) = match entry.kind {
            QueryKind::Subgraph => (&entry.graph, graph),
            QueryKind::Supergraph => (graph, &entry.graph),
        };
        let truth = if !signature_may_contain(pattern.signature(), target.signature()) {
            false
        } else if *self.budget > 0 {
            *self.budget -= 1;
            outcome.repair_tests += 1;
            self.matcher.matcher().contains(pattern, target)
        } else {
            entry.cg_valid.set(i, false);
            outcome.repair_fallbacks += 1;
            return;
        };
        if entry.answer.get(i) != truth {
            entry.answer.set(i, truth);
            outcome.repairs_applied += 1;
        }
        outcome.invalidations_avoided += 1;
    }
}

/// The one maintenance loop. `id_span` is the dataset's current
/// `max_id + 1` (`m + 1` in the paper's pseudocode). Touched ids are
/// visited in ascending order, so a repair budget that runs dry always
/// spends its tests on the same bits.
fn refresh<'a, I, R>(
    entries: I,
    rule: &R,
    id_span: usize,
    mut repair: Option<Repair<'_>>,
) -> MaintenanceOutcome
where
    I: IntoIterator<Item = &'a mut CachedQuery>,
    R: KeepRule,
{
    let mut touched = rule.touched_ids();
    touched.sort_unstable();
    let mut outcome = MaintenanceOutcome::default();
    for entry in entries {
        // Lines 4–6: extend CGvalid with false bits for newly added graphs.
        entry.cg_valid.extend_to(id_span);
        // Lines 7–19: a bit already invalid has nothing to preserve; a
        // kept bit is left strictly untouched (even a corrupted one, so
        // the two resolutions stay comparable).
        for &i in &touched {
            if !entry.cg_valid.get(i) || rule.keep(entry.kind, entry.answer.get(i), i) {
                continue;
            }
            match repair.as_mut() {
                Some(r) => r.resolve(entry, i, &mut outcome),
                None => entry.cg_valid.set(i, false),
            }
        }
    }
    outcome
}

/// Refreshes every entry (cache and window both hold "cached graphs" in
/// the paper's terminology), clearing each validity bit `rule` cannot
/// keep — the paper's invalidate-only maintenance.
pub fn refresh_all<'a, I, R>(entries: I, rule: &R, id_span: usize)
where
    I: IntoIterator<Item = &'a mut CachedQuery>,
    R: KeepRule,
{
    refresh(entries, rule, id_span, None);
}

/// Delta-repair refresh: the same keep decision, but each bit `rule`
/// cannot keep is spliced back to ground truth in place where possible,
/// spending at most `budget` SI tests. Every surviving answer bit with a
/// set validity bit equals ground truth, so query answers are
/// bit-identical to [`refresh_all`] (gated by `experiments chaos
/// --repair-diff`).
pub fn refresh_all_repair<'a, I, R>(
    entries: I,
    rule: &R,
    store: &GraphStore,
    matcher: Algorithm,
    budget: &mut u64,
) -> MaintenanceOutcome
where
    I: IntoIterator<Item = &'a mut CachedQuery>,
    R: KeepRule,
{
    let repair = Repair {
        store,
        matcher,
        budget,
    };
    refresh(entries, rule, store.id_span(), Some(repair))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_dataset::{ChangeRecord, LogAnalyzer, OpType, RetroAnalyzer};
    use gc_graph::{BitSet, LabeledGraph};

    fn rec(graph_id: usize, op: OpType) -> ChangeRecord {
        ChangeRecord {
            graph_id,
            op,
            edge: None,
        }
    }

    fn entry(kind: QueryKind, answer: &[usize], span: usize) -> CachedQuery {
        CachedQuery::new(
            LabeledGraph::from_parts(vec![0, 0], &[(0, 1)]).unwrap(),
            kind,
            BitSet::from_indices(answer.iter().copied()),
            span,
            0,
        )
    }

    #[test]
    fn ua_exclusive_preserves_positive_subgraph_answers() {
        // paper example: answer on G2 survives UA, non-answer on G2 dies
        let mut pos = entry(QueryKind::Subgraph, &[2], 4);
        let mut neg = entry(QueryKind::Subgraph, &[], 4);
        let c = LogAnalyzer::analyze(&[rec(2, OpType::Ua), rec(2, OpType::Ua)]);
        refresh_all([&mut pos, &mut neg], &c, 4);
        assert!(pos.cg_valid.get(2), "q ⊆ G2 unaffected by adding edges");
        assert!(!neg.cg_valid.get(2), "q ⊄ G2 may flip when edges appear");
        // untouched graphs keep validity
        assert!(pos.cg_valid.get(0) && pos.cg_valid.get(1) && pos.cg_valid.get(3));
    }

    #[test]
    fn ur_exclusive_preserves_negative_subgraph_answers() {
        let mut pos = entry(QueryKind::Subgraph, &[1], 3);
        let mut neg = entry(QueryKind::Subgraph, &[], 3);
        let c = LogAnalyzer::analyze(&[rec(1, OpType::Ur)]);
        refresh_all([&mut pos, &mut neg], &c, 3);
        assert!(!pos.cg_valid.get(1), "q ⊆ G1 may break when edges vanish");
        assert!(neg.cg_valid.get(1), "q ⊄ G1 unaffected by removing edges");
    }

    #[test]
    fn mixed_ops_invalidate_both_polarities() {
        let mut pos = entry(QueryKind::Subgraph, &[0], 1);
        let mut neg = entry(QueryKind::Subgraph, &[], 1);
        let c = LogAnalyzer::analyze(&[rec(0, OpType::Ua), rec(0, OpType::Ur)]);
        refresh_all([&mut pos, &mut neg], &c, 1);
        assert!(!pos.cg_valid.get(0));
        assert!(!neg.cg_valid.get(0));
    }

    #[test]
    fn del_invalidates_and_add_extends_with_false() {
        // timeline mirrors Figure 2: DEL G0, ADD G4 (fresh id 4)
        let mut e = entry(QueryKind::Subgraph, &[0, 2], 4);
        let c = LogAnalyzer::analyze(&[rec(0, OpType::Del), rec(4, OpType::Add)]);
        refresh_all([&mut e], &c, 5);
        assert!(!e.cg_valid.get(0), "deleted graph knowledge dies");
        assert!(!e.cg_valid.get(4), "new graph unknown to old query");
        assert!(e.cg_valid.get(1) && e.cg_valid.get(2) && e.cg_valid.get(3));
    }

    #[test]
    fn supergraph_duality() {
        // supergraph entry: answer bit = G ⊆ q
        let mut pos_ur = entry(QueryKind::Supergraph, &[1], 3);
        let mut neg_ur = entry(QueryKind::Supergraph, &[], 3);
        let c_ur = LogAnalyzer::analyze(&[rec(1, OpType::Ur)]);
        refresh_all([&mut pos_ur, &mut neg_ur], &c_ur, 3);
        assert!(pos_ur.cg_valid.get(1), "G ⊆ q survives G shrinking");
        assert!(!neg_ur.cg_valid.get(1), "G ⊄ q may flip when G shrinks");

        let mut pos_ua = entry(QueryKind::Supergraph, &[1], 3);
        let mut neg_ua = entry(QueryKind::Supergraph, &[], 3);
        let c_ua = LogAnalyzer::analyze(&[rec(1, OpType::Ua)]);
        refresh_all([&mut pos_ua, &mut neg_ua], &c_ua, 3);
        assert!(!pos_ua.cg_valid.get(1), "G ⊆ q may break when G grows");
        assert!(neg_ua.cg_valid.get(1), "G ⊄ q survives G growing");
    }

    #[test]
    fn already_invalid_bits_stay_invalid() {
        let mut e = entry(QueryKind::Subgraph, &[0], 2);
        e.cg_valid.set(0, false);
        // UA-exclusive + positive answer would keep it — but it's already
        // invalid (CGvalid.get(i) is part of Algorithm 2's keep condition)
        let c = LogAnalyzer::analyze(&[rec(0, OpType::Ua)]);
        refresh_all([&mut e], &c, 2);
        assert!(!e.cg_valid.get(0));
        assert!(e.cg_valid.get(1));
    }

    #[test]
    fn figure2_full_timeline() {
        // Reproduces the running example of Figure 2 for g′:
        // dataset {G0..G3}; g′ answers {2,3}; batch 1: ADD G4 + UR G3;
        // batch 2: DEL G0 + UA G1.
        let mut g_prime = entry(QueryKind::Subgraph, &[2, 3], 4);

        let batch1 = LogAnalyzer::analyze(&[rec(4, OpType::Add), rec(3, OpType::Ur)]);
        refresh_all([&mut g_prime], &batch1, 5);
        // paper state at T2: CGvalid = {0,1,2} (G3 lost: positive answer + UR;
        // G4 unknown)
        assert_eq!(
            g_prime.cg_valid.iter_ones().collect::<Vec<_>>(),
            vec![0, 1, 2]
        );

        let batch2 = LogAnalyzer::analyze(&[rec(0, OpType::Del), rec(1, OpType::Ua)]);
        refresh_all([&mut g_prime], &batch2, 5);
        // paper state at T4 (row for g′): valid only on G2
        // (G0 deleted; G1 was a negative answer hit by UA)
        assert_eq!(g_prime.cg_valid.iter_ones().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn retro_neutral_preserves_everything() {
        // UA then UR of the same edge: Algorithm 2 invalidates, CON-R keeps
        let mut plain = entry(QueryKind::Subgraph, &[0], 2);
        let mut retro = entry(QueryKind::Subgraph, &[0], 2);
        let records = [
            ChangeRecord::edge(0, OpType::Ua, 1, 2),
            ChangeRecord::edge(0, OpType::Ur, 1, 2),
        ];
        refresh_all([&mut plain], &LogAnalyzer::analyze(&records), 2);
        refresh_all([&mut retro], &RetroAnalyzer::analyze(&records), 2);
        assert!(!plain.cg_valid.get(0), "CON loses the oscillated graph");
        assert!(retro.cg_valid.get(0), "CON-R keeps it");
    }

    #[test]
    fn retro_residuals_match_polarity_rules() {
        // net add: positive subgraph answers survive, negatives don't
        let records = [
            ChangeRecord::edge(1, OpType::Ua, 0, 1),
            ChangeRecord::edge(1, OpType::Ua, 2, 3),
            ChangeRecord::edge(1, OpType::Ur, 2, 3),
        ];
        let eff = RetroAnalyzer::analyze(&records);
        let mut pos = entry(QueryKind::Subgraph, &[1], 2);
        let mut neg = entry(QueryKind::Subgraph, &[], 2);
        refresh_all([&mut pos, &mut neg], &eff, 2);
        assert!(pos.cg_valid.get(1));
        assert!(!neg.cg_valid.get(1));
        // supergraph dual flips
        let mut sup_pos = entry(QueryKind::Supergraph, &[1], 2);
        let mut sup_neg = entry(QueryKind::Supergraph, &[], 2);
        refresh_all([&mut sup_pos, &mut sup_neg], &eff, 2);
        assert!(!sup_pos.cg_valid.get(1));
        assert!(sup_neg.cg_valid.get(1));
    }

    #[test]
    fn retro_structural_still_invalidates() {
        let mut e = entry(QueryKind::Subgraph, &[0], 2);
        let eff = RetroAnalyzer::analyze(&[ChangeRecord::structural(0, OpType::Del)]);
        refresh_all([&mut e], &eff, 2);
        assert!(!e.cg_valid.get(0));
        assert!(e.cg_valid.get(1));
    }

    fn store_with(graphs: Vec<LabeledGraph>) -> GraphStore {
        GraphStore::from_graphs(graphs)
    }

    fn path(n: usize) -> LabeledGraph {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        LabeledGraph::from_parts(vec![0; n], &edges).unwrap()
    }

    /// Repair-mode refresh of one entry with a test budget.
    fn repair<R: KeepRule>(
        e: &mut CachedQuery,
        rule: &R,
        store: &GraphStore,
        budget: &mut u64,
    ) -> MaintenanceOutcome {
        refresh_all_repair([e], rule, store, Algorithm::Vf2Plus, budget)
    }

    #[test]
    fn repair_keeps_unaffected_bits_untouched() {
        // UA-exclusive + positive answer: Algorithm 2 keeps — repair mode
        // must leave the bit byte-identical even if it is (corruptly) wrong
        let store = store_with(vec![path(2), path(3)]);
        let mut e = entry(QueryKind::Subgraph, &[0, 1], 2);
        let c = LogAnalyzer::analyze(&[rec(1, OpType::Ua)]);
        let mut budget = 100;
        let out = repair(&mut e, &c, &store, &mut budget);
        assert!(e.cg_valid.get(1) && e.answer.get(1));
        assert_eq!(out, MaintenanceOutcome::default(), "kept bits cost nothing");
        assert_eq!(budget, 100);
    }

    #[test]
    fn repair_recomputes_would_be_invalidated_bits() {
        // entry: q = 2-path over store {G0: 2-path, G1: 3-path}; answer all.
        // UR on G0 + positive answer → Algorithm 2 invalidates; repair mode
        // recomputes the single bit (still true: q ⊆ G0) and keeps validity.
        let store = store_with(vec![path(2), path(3)]);
        let mut e = entry(QueryKind::Subgraph, &[0, 1], 2);
        let c = LogAnalyzer::analyze(&[rec(0, OpType::Ur)]);
        let mut invalidated = e.clone();
        refresh_all([&mut invalidated], &c, 2);
        assert!(!invalidated.cg_valid.get(0), "invalidate mode clears");
        let mut budget = 100;
        let out = repair(&mut e, &c, &store, &mut budget);
        assert!(e.cg_valid.get(0), "repair mode keeps validity");
        assert!(e.answer.get(0), "q ⊆ G0 still holds");
        assert_eq!(out.invalidations_avoided, 1);
        assert_eq!(out.repairs_applied, 0, "bit already matched ground truth");
        assert_eq!(out.repair_tests, 1);
        assert_eq!(budget, 99);
    }

    #[test]
    fn repair_splices_a_stale_bit_to_ground_truth() {
        // q = 3-path cached as answering G0 (a 2-path — actually false).
        // Mixed ops on G0 invalidate under Algorithm 2; repair recomputes
        // the bit to its true value and counts the splice.
        let store = store_with(vec![path(2)]);
        let mut e = entry(QueryKind::Subgraph, &[0], 1);
        e.graph = path(3);
        let c = LogAnalyzer::analyze(&[rec(0, OpType::Ua), rec(0, OpType::Ur)]);
        let mut budget = 100;
        let out = repair(&mut e, &c, &store, &mut budget);
        assert!(e.cg_valid.get(0));
        assert!(!e.answer.get(0), "3-path ⊄ 2-path");
        assert_eq!(out.repairs_applied, 1);
        assert_eq!(out.invalidations_avoided, 1);
    }

    #[test]
    fn repair_signature_disproof_skips_the_si_test() {
        // query bigger than the dataset graph: the signature filter proves
        // q ⊄ G without running the matcher
        let store = store_with(vec![path(2)]);
        let mut e = entry(QueryKind::Subgraph, &[0], 1);
        e.graph = path(5);
        let c = LogAnalyzer::analyze(&[rec(0, OpType::Ua), rec(0, OpType::Ur)]);
        let mut budget = 100;
        let out = repair(&mut e, &c, &store, &mut budget);
        assert!(e.cg_valid.get(0));
        assert!(!e.answer.get(0));
        assert_eq!(out.repair_tests, 0, "disproof is free");
        assert_eq!(out.repairs_applied, 1);
        assert_eq!(budget, 100);
    }

    #[test]
    fn repair_budget_exhaustion_falls_back_to_invalidation() {
        let store = store_with(vec![path(3), path(3)]);
        let mut e = entry(QueryKind::Subgraph, &[], 2);
        let c = LogAnalyzer::analyze(&[
            rec(0, OpType::Ua),
            rec(0, OpType::Ur),
            rec(1, OpType::Ua),
            rec(1, OpType::Ur),
        ]);
        let mut budget = 1;
        let out = repair(&mut e, &c, &store, &mut budget);
        assert_eq!(budget, 0);
        assert_eq!(out.repair_fallbacks, 1, "one bit hit the dry budget");
        assert_eq!(out.invalidations_avoided, 1, "the other was repaired");
        assert_eq!(e.cg_valid.count_ones(), 1, "exactly one validity bit fell");
    }

    #[test]
    fn dry_budget_spends_its_test_on_the_lowest_touched_id() {
        // every graph saw mixed ops, so every bit needs a repair test; with
        // one test to spend, counters built independently (each with its
        // own hash order) must pick the same bit: the lowest id
        const GRAPHS: usize = 24;
        let store = store_with(vec![path(3); GRAPHS]);
        let records: Vec<ChangeRecord> = (0..GRAPHS)
            .flat_map(|i| [rec(i, OpType::Ua), rec(i, OpType::Ur)])
            .collect();
        let survivors: Vec<Vec<usize>> = (0..2)
            .map(|_| {
                let c = LogAnalyzer::analyze(&records);
                let mut e = entry(QueryKind::Subgraph, &[], GRAPHS);
                let mut budget = 1;
                let out = repair(&mut e, &c, &store, &mut budget);
                assert_eq!(out.repair_tests, 1);
                assert_eq!(out.repair_fallbacks, GRAPHS as u64 - 1);
                e.cg_valid.iter_ones().collect()
            })
            .collect();
        assert_eq!(survivors[0], vec![0]);
        assert_eq!(survivors[1], vec![0]);
    }

    #[test]
    fn repair_clears_deleted_graphs_like_invalidate() {
        let store = {
            let mut s = store_with(vec![path(2), path(3)]);
            s.delete(0).unwrap();
            s
        };
        let mut e = entry(QueryKind::Subgraph, &[0, 1], 2);
        let c = LogAnalyzer::analyze(&[rec(0, OpType::Del)]);
        let mut budget = 100;
        let out = repair(&mut e, &c, &store, &mut budget);
        assert!(
            !e.cg_valid.get(0),
            "dead graph knowledge dies in both modes"
        );
        assert_eq!(out, MaintenanceOutcome::default());
    }

    #[test]
    fn repair_supergraph_polarity() {
        // supergraph entry q = 3-path; G0 = 2-path ⊆ q (true bit), but the
        // cached answer says false; mixed ops force the repair path
        let store = store_with(vec![path(2)]);
        let mut e = entry(QueryKind::Supergraph, &[], 1);
        e.graph = path(3);
        let c = LogAnalyzer::analyze(&[rec(0, OpType::Ua), rec(0, OpType::Ur)]);
        let mut budget = 100;
        let out = repair(&mut e, &c, &store, &mut budget);
        assert!(e.answer.get(0), "2-path ⊆ 3-path spliced in");
        assert!(e.cg_valid.get(0));
        assert_eq!(out.repairs_applied, 1);
    }

    #[test]
    fn repair_retro_neutral_stays_free() {
        let store = store_with(vec![path(3)]);
        let mut e = entry(QueryKind::Subgraph, &[0], 1);
        let records = [
            ChangeRecord::edge(0, OpType::Ua, 1, 2),
            ChangeRecord::edge(0, OpType::Ur, 1, 2),
        ];
        let eff = RetroAnalyzer::analyze(&records);
        let mut budget = 100;
        let out = repair(&mut e, &eff, &store, &mut budget);
        assert!(e.cg_valid.get(0), "CON-R keeps the oscillated graph");
        assert_eq!(out, MaintenanceOutcome::default(), "no repair work needed");
    }

    #[test]
    fn outcome_merges_fieldwise() {
        let mut a = MaintenanceOutcome {
            repairs_applied: 1,
            invalidations_avoided: 2,
            repair_fallbacks: 3,
            repair_tests: 4,
        };
        a.merge(&MaintenanceOutcome {
            repairs_applied: 10,
            invalidations_avoided: 20,
            repair_fallbacks: 30,
            repair_tests: 40,
        });
        assert_eq!(a.repairs_applied, 11);
        assert_eq!(a.invalidations_avoided, 22);
        assert_eq!(a.repair_fallbacks, 33);
        assert_eq!(a.repair_tests, 44);
    }

    #[test]
    fn refresh_all_covers_every_entry() {
        let mut entries = [
            entry(QueryKind::Subgraph, &[0], 2),
            entry(QueryKind::Subgraph, &[], 2),
        ];
        let c = LogAnalyzer::analyze(&[rec(0, OpType::Del)]);
        refresh_all(entries.iter_mut(), &c, 2);
        assert!(!entries[0].cg_valid.get(0));
        assert!(!entries[1].cg_valid.get(0));
        assert!(entries[0].cg_valid.get(1));
    }
}
