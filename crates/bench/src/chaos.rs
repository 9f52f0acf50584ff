//! The differential harness — fault tolerance and pipeline equivalence,
//! empirically enforced.
//!
//! [`differential`] replays one paper workload and its change plan on two
//! [`GraphCachePlus`] instances side by side and compares them query by
//! query. Each planned change is materialized once, against side A's
//! store, by `gc_dataset::materialize` with a salted RNG, and the same
//! concrete operation is applied to both sides. A *faulted* side fires the
//! [`FaultPlan`] (update/query panics, delays, silent answer-set
//! corruption) through the panic boundaries and is audited after every
//! update burst and once more at the end. Every replay checks:
//!
//! 1. **no silent divergence** — the two answers are equal, or a side is
//!    explicitly degraded and its answer is a sound subset of the other
//!    side's (checked in both directions);
//! 2. **identical audits** — when both sides are audited, their verdicts
//!    agree pass by pass;
//! 3. **quarantine drains** — after the final audit no entry is left
//!    quarantined on either side.
//!
//! A [`Mode`] picks the two sides and plugs in its own checks:
//!
//! * [`Mode::Chaos`] — the default pipeline under the fault plan and a
//!   wall-clock deadline against a fault-free, unlimited oracle; no query
//!   may overrun its deadline by more than 2× (one retry after a contained
//!   panic is the worst legitimate case);
//! * [`Mode::IndexDiff`] — postings-index vs full-scan candidate source,
//!   both faulted: the index may never grow CS_M, both sides must contain
//!   the same panics, and the index must absorb every change by log replay;
//! * [`Mode::RepairDiff`] — delta-repair vs invalidate-only maintenance,
//!   both faulted: both sides must contain the same panics, and the
//!   invalidate side must show no repair activity.
//!
//! The driver is fully seeded: the same scale + fault plan replays the
//! same faults at the same points in the same streams. The `experiments
//! chaos` CLI command wraps this module and writes `CHAOS_report.json`,
//! `CHAOS_indexdiff.json` or `CHAOS_repairdiff.json`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gc_core::{
    AuditReport, CandidateSource, FaultInjector, FaultPlan, GcConfig, GraphCachePlus,
    HealthSnapshot, MaintenanceMode, QueryBudget, QueryOutcome,
};
use gc_dataset::{materialize, ChangePlan};
use gc_graph::LabeledGraph;
use gc_subiso::quiet_injected_panics;
use gc_telemetry::{Histogram, HistogramSnapshot, Stage, StageSpans};
use gc_workload::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{build_dataset, build_plan, build_type_a_workloads, build_type_b_workloads, Scale};

/// Knobs of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Dataset/workload scale (chaos runs default to [`Scale::small`]).
    pub scale: Scale,
    /// The faults to inject into every workload replay.
    pub fault_plan: FaultPlan,
    /// Per-query wall-clock deadline on the faulted instance.
    pub deadline: Duration,
    /// Auditor sampling rate after each update burst (quarantined entries
    /// are always audited regardless).
    pub audit_rate: f64,
}

impl ChaosConfig {
    /// Default chaos setup for a scale: the built-in fault plan, a 250 ms
    /// deadline and full-rate audits.
    pub fn new(scale: Scale) -> ChaosConfig {
        ChaosConfig {
            scale,
            fault_plan: default_fault_plan(),
            deadline: Duration::from_millis(250),
            audit_rate: 1.0,
        }
    }
}

/// The built-in fault plan: one update panic, two query panics, one
/// injected delay and two silent corruptions — every fault category,
/// early enough to fire at any scale.
pub fn default_fault_plan() -> FaultPlan {
    "panic-update@2;corrupt@4:0;panic-query@5;delay-query@9:40;panic-query@23;corrupt@11:3"
        .parse()
        .expect("built-in fault plan parses")
}

/// Which two pipelines a differential replay pits against each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The faulted default pipeline vs a fault-free oracle.
    Chaos,
    /// Postings-index ([`CandidateSource::LabelIndex`]) vs full-scan
    /// candidate source, both faulted.
    IndexDiff,
    /// Delta-repair ([`MaintenanceMode::Repair`]) vs invalidate-only
    /// maintenance, both faulted.
    RepairDiff,
}

impl Mode {
    /// Salt of the change-materialization RNG (XORed into the scale seed),
    /// kept apart from the fault plan so both sides see the same ops.
    fn salt(self) -> u64 {
        match self {
            Mode::Chaos => 0xC4A0_5CA0,
            Mode::IndexDiff => 0x1DD1_F0AD,
            Mode::RepairDiff => 0x6E9A_1D1F,
        }
    }

    /// The two sides this mode replays `workload` on.
    fn sides(self, cfg: &ChaosConfig, workload: &Workload) -> [Side; 2] {
        let budget = QueryBudget {
            deadline: Some(cfg.deadline),
            max_tests: None,
        };
        if self == Mode::Chaos {
            // A small cache keeps full-rate audits affordable; chaos runs
            // pay for full telemetry: stage spans feed the report.
            let config = GcConfig {
                cache_capacity: 48,
                window_capacity: 8,
                budget,
                trace: true,
                ..GcConfig::default()
            };
            let oracle = GcConfig {
                budget: QueryBudget::UNLIMITED,
                ..config
            };
            return [
                Side {
                    config,
                    faulted: true,
                },
                Side {
                    config: oracle,
                    faulted: false,
                },
            ];
        }
        // Sized so nothing is ever evicted: replacement ranks entries by
        // benefit (tests alleviated — and even LRU recency is refreshed by
        // benefit attribution), a quantity the candidate source and the
        // maintenance mode legitimately change, so under eviction pressure
        // the two caches would diverge in *composition* (never in answers)
        // and void the audit-verdict comparison. Eviction-free, composition
        // is a function of the shared query/answer stream alone and audit
        // equality is a real invariant.
        let base = GcConfig {
            cache_capacity: workload.len() + 16,
            window_capacity: 8,
            budget,
            // the repair diff reports the repair stage span as the
            // maintenance-time cost of delta repair
            trace: self == Mode::RepairDiff,
            ..GcConfig::default()
        };
        let (a, b) = if self == Mode::IndexDiff {
            let source = |candidate_source| GcConfig {
                candidate_source,
                ..base
            };
            (
                source(CandidateSource::LabelIndex),
                source(CandidateSource::LiveScan),
            )
        } else {
            let mode = |maintenance| GcConfig {
                maintenance,
                ..base
            };
            (
                mode(MaintenanceMode::Repair),
                mode(MaintenanceMode::Invalidate),
            )
        };
        [a, b].map(|config| Side {
            config,
            faulted: true,
        })
    }

    /// The mode's own checks, on top of the ones every replay makes.
    fn checks(self) -> fn(&DiffCell) -> bool {
        match self {
            Mode::Chaos => |c| c.max_overrun <= 2.0,
            Mode::IndexDiff => |c| {
                c.health[0].panics_recovered == c.health[1].panics_recovered
                    && c.candidate_violations == 0
                    && c.index_replay_ok
            },
            Mode::RepairDiff => |c| {
                let oracle = &c.health[1];
                c.health[0].panics_recovered == oracle.panics_recovered
                    && oracle.repairs_applied
                        + oracle.invalidations_avoided
                        + oracle.repair_fallbacks
                        == 0
            },
        }
    }
}

/// One side of a differential replay.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    /// The side's configuration.
    pub config: GcConfig,
    /// Fires the fault plan and is audited after every update burst and
    /// at the end; a fault-free reference side does neither.
    pub faulted: bool,
}

impl Side {
    fn build(self, dataset: &[LabeledGraph], plan: &FaultPlan) -> GraphCachePlus {
        let mut gc = GraphCachePlus::new(self.config, dataset.to_vec());
        if self.faulted {
            gc.set_fault_injector(Arc::new(FaultInjector::new(plan.clone())));
        }
        gc
    }
}

/// Per-workload verdict of one differential replay. Index 0 of each pair
/// is side A (faulted default / index-backed / repair mode), index 1 side
/// B (oracle / scan-backed / invalidate mode).
#[derive(Debug, Clone, Default)]
pub struct DiffCell {
    /// Workload name (ZZ / ZU / UU / 0% / 20% / 50%).
    pub workload: String,
    /// Queries replayed through both sides.
    pub queries: usize,
    /// Dataset updates applied to both sides.
    pub updates: usize,
    /// Queries where both sides returned the identical undegraded answer.
    pub exact: usize,
    /// Queries where a side returned an explicitly degraded (sound
    /// partial) outcome.
    pub degraded: usize,
    /// Silently wrong answers: undegraded mismatches, or a degraded
    /// partial that was not a subset of the other side's answer. Must be
    /// zero.
    pub divergent: usize,
    /// Auditor passes (one per update burst plus the final sweep).
    pub audit_passes: usize,
    /// Audit passes whose verdicts differed between the two sides (when
    /// both are audited). Must be zero.
    pub audit_divergent: usize,
    /// Auditor activity summed over side A's passes.
    pub audit_total: AuditReport,
    /// Entries still quarantined after the final audit. Both must be zero.
    pub quarantined: [usize; 2],
    /// Both sides' fault-tolerance counters at the end (panics contained,
    /// repair tallies, ...).
    pub health: [HealthSnapshot; 2],
    /// Worst observed `elapsed / deadline` ratio of side A's queries.
    pub max_overrun: f64,
    /// Harness-side per-query latency of side A, microseconds.
    pub latency: HistogramSnapshot,
    /// Pipeline-stage wall time accumulated by side A (all-zero unless it
    /// traces).
    pub stages: StageSpans,
    /// Candidates each side examined, summed.
    pub candidates: [u64; 2],
    /// Undegraded queries where side A examined *more* candidates than
    /// side B.
    pub candidate_violations: usize,
    /// Did side A's label index absorb every logged change incrementally
    /// (replay count equals the change-log length — no rebuild)?
    pub index_replay_ok: bool,
    /// Did the replay pass every check?
    pub passed: bool,
}

/// Aggregated result of one [`run_chaos`] invocation.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Which differential ran.
    pub mode: Mode,
    /// The injected plan, in its compact string form.
    pub fault_plan: String,
    /// The per-query deadline, milliseconds.
    pub deadline_ms: u64,
    /// One verdict per workload.
    pub cells: Vec<DiffCell>,
}

impl DiffReport {
    /// `true` iff every workload passed.
    pub fn passed(&self) -> bool {
        self.cells.iter().all(|c| c.passed)
    }

    /// Validity bits side A's repair path preserved across the suite — the
    /// repair diff's headline, which must be nonzero (a diff that never
    /// repairs anything proves nothing).
    pub fn total_invalidations_avoided(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.health[0].invalidations_avoided)
            .sum()
    }

    /// Hand-rolled JSON (the artifact uploaded by CI's chaos smoke job).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"fault_plan\": \"{}\",\n", self.fault_plan));
        out.push_str(&format!("  \"deadline_ms\": {},\n", self.deadline_ms));
        out.push_str(&format!("  \"passed\": {},\n", self.passed()));
        if self.mode == Mode::RepairDiff {
            out.push_str(&format!(
                "  \"total_invalidations_avoided\": {},\n",
                self.total_invalidations_avoided()
            ));
        }
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let fields: Vec<String> = self
                .cell_fields(c)
                .into_iter()
                .map(|(key, value)| format!("\"{key}\": {value}"))
                .collect();
            out.push_str(&format!(
                "    {{{}}}{}\n",
                fields.join(", "),
                if i + 1 == self.cells.len() { "" } else { "," },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// One cell's artifact keys, in order.
    fn cell_fields(&self, c: &DiffCell) -> Vec<(&'static str, String)> {
        let mut f = vec![
            ("workload", format!("\"{}\"", c.workload)),
            ("queries", c.queries.to_string()),
            ("updates", c.updates.to_string()),
            ("exact", c.exact.to_string()),
            ("degraded", c.degraded.to_string()),
            ("divergent", c.divergent.to_string()),
        ];
        let [a, b] = &c.health;
        let mode_fields: Vec<(&'static str, String)> = match self.mode {
            Mode::Chaos => vec![
                ("max_overrun", format!("{:.4}", c.max_overrun)),
                ("panics_recovered", a.panics_recovered.to_string()),
                ("audits", c.audit_passes.to_string()),
                ("audit_sampled", c.audit_total.sampled.to_string()),
                ("audit_repaired", c.audit_total.repaired.to_string()),
                ("audit_evicted", c.audit_total.evicted.to_string()),
                ("quarantined_final", c.quarantined[0].to_string()),
                ("latency_us", latency_json(&c.latency)),
                ("stage_nanos", spans_json(&c.stages)),
            ],
            Mode::IndexDiff => vec![
                ("audit_passes", c.audit_passes.to_string()),
                ("audit_divergent", c.audit_divergent.to_string()),
                ("audit_repaired", c.audit_total.repaired.to_string()),
                ("candidate_violations", c.candidate_violations.to_string()),
                ("index_candidates", c.candidates[0].to_string()),
                ("scan_candidates", c.candidates[1].to_string()),
                ("panics_indexed", a.panics_recovered.to_string()),
                ("panics_scanned", b.panics_recovered.to_string()),
                ("quarantined_indexed", c.quarantined[0].to_string()),
                ("quarantined_scanned", c.quarantined[1].to_string()),
                ("index_replay_ok", c.index_replay_ok.to_string()),
            ],
            Mode::RepairDiff => vec![
                ("audit_passes", c.audit_passes.to_string()),
                ("audit_divergent", c.audit_divergent.to_string()),
                ("audit_repaired", c.audit_total.repaired.to_string()),
                ("repairs_applied", a.repairs_applied.to_string()),
                ("invalidations_avoided", a.invalidations_avoided.to_string()),
                ("repair_fallbacks", a.repair_fallbacks.to_string()),
                ("repair_nanos", c.stages.get(Stage::Repair).to_string()),
                ("panics_repair", a.panics_recovered.to_string()),
                ("panics_oracle", b.panics_recovered.to_string()),
                ("quarantined_repair", c.quarantined[0].to_string()),
                ("quarantined_oracle", c.quarantined[1].to_string()),
            ],
        };
        f.extend(mode_fields);
        f
    }
}

/// Runs one differential suite: all six paper workloads, each replayed in
/// `mode` under the configured fault plan.
pub fn run_chaos(cfg: &ChaosConfig, mode: Mode) -> DiffReport {
    let dataset = build_dataset(&cfg.scale);
    let plan = build_plan(&cfg.scale);
    let mut workloads = build_type_a_workloads(&dataset, &cfg.scale);
    workloads.extend(build_type_b_workloads(&dataset, &cfg.scale));
    quiet_injected_panics();
    let cells = workloads
        .iter()
        .map(|w| run_cell(mode, &dataset, w, &plan, cfg))
        .collect();
    DiffReport {
        mode,
        fault_plan: cfg.fault_plan.to_string(),
        deadline_ms: cfg.deadline.as_millis() as u64,
        cells,
    }
}

/// Replays one workload in `mode`.
pub fn run_cell(
    mode: Mode,
    dataset: &[LabeledGraph],
    workload: &Workload,
    plan: &ChangePlan,
    cfg: &ChaosConfig,
) -> DiffCell {
    let sides = mode.sides(cfg, workload);
    differential(
        dataset,
        workload,
        plan,
        cfg,
        sides,
        mode.salt(),
        mode.checks(),
    )
}

/// Replays `workload` and `plan` on both `sides` (A, then B) side by side,
/// materializing changes with an RNG seeded by the scale seed XOR `salt`,
/// and tallies every comparison. The cell passes when no answer silently
/// diverged, no audit verdicts differed, no entry stayed quarantined, and
/// `checks` holds.
pub fn differential(
    dataset: &[LabeledGraph],
    workload: &Workload,
    plan: &ChangePlan,
    cfg: &ChaosConfig,
    sides: [Side; 2],
    salt: u64,
    checks: fn(&DiffCell) -> bool,
) -> DiffCell {
    let faulted = sides.map(|s| s.faulted);
    let mut sides = sides.map(|s| s.build(dataset, &cfg.fault_plan));
    let mut rng = StdRng::seed_from_u64(cfg.scale.seed ^ salt);
    let mut next_batch = 0usize;
    let mut cell = DiffCell {
        workload: workload.name.clone(),
        queries: workload.len(),
        ..DiffCell::default()
    };
    let latency = Histogram::new();

    for (i, q) in workload.queries.iter().enumerate() {
        // ---- fire due change batches through the panic boundaries ----
        let mut burst = 0usize;
        while next_batch < plan.batches.len() && plan.batches[next_batch].at_query <= i {
            for planned in &plan.batches[next_batch].ops {
                if let Some(op) = materialize(&mut rng, sides[0].store(), dataset, planned.op) {
                    let a = sides[0].apply_isolated(op.clone());
                    let b = sides[1].apply_isolated(op);
                    debug_assert_eq!(a.is_ok(), b.is_ok(), "materialized op valid on both");
                    burst += 1;
                }
            }
            next_batch += 1;
        }
        // ---- audit after each burst: silent corruption lands on the
        //      update path and must be caught before queries can see it ----
        if burst > 0 {
            cell.updates += burst;
            audit_pass(
                &mut cell,
                &mut sides,
                faulted,
                cfg,
                cfg.scale.seed + i as u64,
            );
        }
        // ---- one query on each side, side A timed against the deadline ----
        let t = Instant::now();
        let a = sides[0].execute_isolated(q, workload.kind);
        let elapsed = t.elapsed();
        let b = sides[1].execute_isolated(q, workload.kind);
        cell.max_overrun = cell
            .max_overrun
            .max(elapsed.as_secs_f64() / cfg.deadline.as_secs_f64());
        latency.record(elapsed.as_micros().min(u64::MAX as u128) as u64);
        cell.candidates[0] += a.metrics.candidate_size;
        cell.candidates[1] += b.metrics.candidate_size;
        match classify(&a, &b) {
            Verdict::Exact => cell.exact += 1,
            Verdict::Degraded => cell.degraded += 1,
            Verdict::Divergent => cell.divergent += 1,
        }
        let undegraded = a.metrics.degraded.is_none() && b.metrics.degraded.is_none();
        if undegraded && a.metrics.candidate_size > b.metrics.candidate_size {
            cell.candidate_violations += 1;
        }
    }

    // ---- final sweep: late faults may have left quarantined entries ----
    audit_pass(&mut cell, &mut sides, faulted, cfg, cfg.scale.seed);
    cell.quarantined = [0, 1].map(|s| sides[s].quarantined_entries());
    cell.health = [0, 1].map(|s| sides[s].health_snapshot());
    cell.latency = latency.snapshot();
    cell.stages = sides[0].stage_totals();
    cell.index_replay_ok = sides[0]
        .label_index()
        .is_some_and(|idx| idx.records_replayed() == sides[0].log_len() as u64);
    cell.passed = cell.divergent == 0
        && cell.audit_divergent == 0
        && cell.quarantined == [0, 0]
        && checks(&cell);
    cell
}

/// Audits every faulted side with the same rate and seed; side A's
/// verdict enters the total, and a pass where the verdicts differ counts
/// as divergent.
fn audit_pass(
    cell: &mut DiffCell,
    sides: &mut [GraphCachePlus; 2],
    faulted: [bool; 2],
    cfg: &ChaosConfig,
    seed: u64,
) {
    let verdicts: Vec<AuditReport> = sides
        .iter_mut()
        .zip(faulted)
        .filter(|(_, f)| *f)
        .map(|(gc, _)| gc.audit(cfg.audit_rate, seed))
        .collect();
    let Some(&first) = verdicts.first() else {
        return;
    };
    cell.audit_passes += 1;
    if verdicts.iter().any(|v| *v != first) {
        cell.audit_divergent += 1;
    }
    let total = &mut cell.audit_total;
    total.sampled += first.sampled;
    total.clean += first.clean;
    total.repaired += first.repaired;
    total.evicted += first.evicted;
}

/// How one query's two answers compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Exact,
    Degraded,
    Divergent,
}

/// Undegraded answers must be equal. A degraded partial may miss answers
/// but must never invent one the other side does not have — checked in
/// both directions, whichever side degraded.
fn classify(a: &QueryOutcome, b: &QueryOutcome) -> Verdict {
    let (da, db) = (a.metrics.degraded.is_some(), b.metrics.degraded.is_some());
    if !da && !db {
        return if a.answer == b.answer {
            Verdict::Exact
        } else {
            Verdict::Divergent
        };
    }
    let sound_a = !da || db || a.answer.is_subset_of(&b.answer);
    let sound_b = !db || da || b.answer.is_subset_of(&a.answer);
    if sound_a && sound_b {
        Verdict::Degraded
    } else {
        Verdict::Divergent
    }
}

/// Stage-span totals as a compact JSON object (`{"prefilter": ns, ...}`).
pub(crate) fn spans_json(spans: &StageSpans) -> String {
    let fields: Vec<String> = spans
        .iter()
        .map(|(stage, nanos)| format!("\"{}\": {}", stage.name(), nanos))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Histogram quantiles as a compact JSON object (values in the unit the
/// histogram was recorded in — microseconds for latency).
pub(crate) fn latency_json(snap: &HistogramSnapshot) -> String {
    format!(
        "{{\"count\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}",
        snap.count,
        snap.p50(),
        snap.p95(),
        snap.p99(),
        snap.max()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_core::QueryMetrics;
    use gc_graph::BitSet;
    use gc_subiso::Interrupt;

    fn tiny_chaos_config() -> ChaosConfig {
        ChaosConfig::new(Scale {
            dataset_graphs: 40,
            num_queries: 60,
            positive_pool: 20,
            noanswer_pool: 10,
            seed: 0xC405,
        })
    }

    #[test]
    fn chaos_suite_passes_under_builtin_faults() {
        let cfg = tiny_chaos_config();
        let report = run_chaos(&cfg, Mode::Chaos);
        assert_eq!(report.cells.len(), 6, "three Type A + three Type B");
        for c in &report.cells {
            assert_eq!(c.divergent, 0, "silent divergence in {}", c.workload);
            assert_eq!(c.quarantined[0], 0, "quarantine left in {}", c.workload);
            assert!(c.max_overrun <= 2.0, "deadline overrun in {}", c.workload);
            assert_eq!(c.queries, 60);
            // telemetry rides along: one latency sample per query, and
            // tracing accumulated real stage time
            assert_eq!(c.latency.count, 60, "latency samples in {}", c.workload);
            assert!(c.latency.max() > 0);
            assert!(c.latency.p50() <= c.latency.p99());
            assert!(c.stages.total() > 0, "no stage time in {}", c.workload);
        }
        assert!(report.passed());
        // the plan's panics actually fired somewhere in the suite
        let panics: u64 = report
            .cells
            .iter()
            .map(|c| c.health[0].panics_recovered)
            .sum();
        assert!(panics > 0, "fault plan injected no panics");
        // the auditor actually repaired the injected corruption
        let repaired: usize = report.cells.iter().map(|c| c.audit_total.repaired).sum();
        assert!(repaired > 0, "injected corruption was never caught");
    }

    #[test]
    fn index_diff_suite_passes_under_builtin_faults() {
        let cfg = tiny_chaos_config();
        let report = run_chaos(&cfg, Mode::IndexDiff);
        assert_eq!(report.cells.len(), 6, "three Type A + three Type B");
        for c in &report.cells {
            assert_eq!(c.divergent, 0, "answer divergence in {}", c.workload);
            assert_eq!(c.audit_divergent, 0, "audit divergence in {}", c.workload);
            assert_eq!(
                c.candidate_violations, 0,
                "index grew CS_M in {}",
                c.workload
            );
            assert_eq!(
                c.health[0].panics_recovered, c.health[1].panics_recovered,
                "{}",
                c.workload
            );
            assert!(c.index_replay_ok, "index rebuilt in {}", c.workload);
            assert_eq!(c.queries, 60);
            assert!(
                c.candidates[0] <= c.candidates[1],
                "index examined more candidates overall in {}",
                c.workload
            );
        }
        assert!(report.passed());
        // the plan's panics actually fired on both sides of the diff
        let panics: u64 = report
            .cells
            .iter()
            .map(|c| c.health[0].panics_recovered)
            .sum();
        assert!(panics > 0, "fault plan injected no panics");
        // the injected corruption was caught (identically, per cell above)
        let repaired: usize = report.cells.iter().map(|c| c.audit_total.repaired).sum();
        assert!(repaired > 0, "injected corruption was never caught");
        let json = report.to_json();
        assert!(json.contains("\"passed\": true"));
        assert!(json.contains("\"audit_divergent\": 0"));
        assert!(!json.contains(",\n  ]"), "no trailing comma");
    }

    #[test]
    fn repair_diff_suite_passes_under_builtin_faults() {
        let cfg = tiny_chaos_config();
        let report = run_chaos(&cfg, Mode::RepairDiff);
        assert_eq!(report.cells.len(), 6, "three Type A + three Type B");
        for c in &report.cells {
            assert_eq!(c.divergent, 0, "answer divergence in {}", c.workload);
            assert_eq!(c.audit_divergent, 0, "audit divergence in {}", c.workload);
            let oracle = &c.health[1];
            assert_eq!(
                oracle.repairs_applied + oracle.invalidations_avoided + oracle.repair_fallbacks,
                0,
                "invalidate mode ran the repair path in {}",
                c.workload
            );
            assert_eq!(
                c.health[0].panics_recovered, oracle.panics_recovered,
                "{}",
                c.workload
            );
            assert_eq!(c.quarantined[0], 0, "{}", c.workload);
            assert_eq!(c.queries, 60);
        }
        assert!(report.passed());
        // the diff is vacuous unless the repair path actually preserved
        // entries invalidation would have discarded
        assert!(
            report.total_invalidations_avoided() > 0,
            "repair mode never avoided an invalidation"
        );
        // the plan's panics actually fired on both sides of the diff
        let panics: u64 = report
            .cells
            .iter()
            .map(|c| c.health[0].panics_recovered)
            .sum();
        assert!(panics > 0, "fault plan injected no panics");
        // the injected corruption was caught (identically, per cell above)
        let repaired: usize = report.cells.iter().map(|c| c.audit_total.repaired).sum();
        assert!(repaired > 0, "injected corruption was never caught");
        let json = report.to_json();
        assert!(json.contains("\"passed\": true"));
        assert!(json.contains("\"total_invalidations_avoided\""));
        assert!(json.contains("\"repair_fallbacks\""));
        assert!(!json.contains(",\n  ]"), "no trailing comma");
    }

    #[test]
    fn fault_free_plan_is_all_exact() {
        let mut cfg = tiny_chaos_config();
        cfg.fault_plan = FaultPlan::none();
        let dataset = build_dataset(&cfg.scale);
        let plan = build_plan(&cfg.scale);
        let w = &build_type_a_workloads(&dataset, &cfg.scale)[0];
        let cell = run_cell(Mode::Chaos, &dataset, w, &plan, &cfg);
        assert_eq!(cell.divergent, 0);
        assert_eq!(cell.health[0].panics_recovered, 0);
        assert_eq!(cell.exact + cell.degraded, cell.queries);
        assert!(cell.passed);
    }

    #[test]
    fn unaudited_corruption_is_reported_divergent() {
        // corrupt a resident entry after every early update and never
        // audit: wrong answers reach queries and the cell must fail
        let mut cfg = tiny_chaos_config();
        cfg.fault_plan = (1..=12)
            .map(|n| format!("corrupt@{n}:{}", n % 4))
            .collect::<Vec<_>>()
            .join(";")
            .parse()
            .unwrap();
        cfg.audit_rate = 0.0;
        let dataset = build_dataset(&cfg.scale);
        let plan = build_plan(&cfg.scale);
        let w = &build_type_a_workloads(&dataset, &cfg.scale)[0];
        let cell = run_cell(Mode::Chaos, &dataset, w, &plan, &cfg);
        assert!(cell.divergent > 0, "corruption went unnoticed");
        assert!(!cell.passed);
    }

    fn outcome(ids: &[usize], degraded: bool) -> QueryOutcome {
        QueryOutcome {
            answer: BitSet::from_indices(ids.iter().copied()),
            metrics: QueryMetrics {
                degraded: degraded.then_some(Interrupt::Deadline),
                ..QueryMetrics::default()
            },
        }
    }

    #[test]
    fn degraded_answers_must_be_subsets_of_the_other_side() {
        let exact = outcome(&[1, 2], false);
        let partial = outcome(&[1], true);
        let invented = outcome(&[1, 3], true);
        assert_eq!(classify(&exact, &exact), Verdict::Exact);
        assert_eq!(classify(&exact, &outcome(&[1], false)), Verdict::Divergent);
        assert_eq!(classify(&partial, &exact), Verdict::Degraded);
        assert_eq!(classify(&exact, &partial), Verdict::Degraded);
        assert_eq!(classify(&invented, &exact), Verdict::Divergent);
        assert_eq!(classify(&exact, &invented), Verdict::Divergent);
        assert_eq!(classify(&invented, &partial), Verdict::Degraded);
    }

    #[test]
    fn report_json_shape() {
        let report = DiffReport {
            mode: Mode::Chaos,
            fault_plan: "panic-query@1".into(),
            deadline_ms: 250,
            cells: vec![DiffCell {
                workload: "ZZ".into(),
                queries: 10,
                updates: 4,
                exact: 9,
                degraded: 1,
                max_overrun: 0.5,
                audit_passes: 2,
                audit_total: AuditReport {
                    sampled: 8,
                    clean: 7,
                    repaired: 1,
                    evicted: 0,
                },
                passed: true,
                ..DiffCell::default()
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"passed\": true"));
        assert!(json.contains("\"workload\": \"ZZ\""));
        assert!(json.contains("\"audit_repaired\": 1"));
        assert!(json.contains("\"latency_us\": {\"count\": 0"));
        assert!(json.contains("\"stage_nanos\": {\"prefilter\": 0"));
        assert!(!json.contains(",\n  ]"), "no trailing comma");
    }
}
