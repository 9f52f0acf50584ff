//! Experiment runner — regenerates every figure of the GC+ paper.
//!
//! ```text
//! experiments <command> [--scale small|medium|paper]
//!
//! commands:
//!   fig4-typea   query-time speedups, Type A workloads (Fig 4 left)
//!   fig4-typeb   query-time speedups, Type B workloads (Fig 4 right)
//!   fig5         sub-iso test-count speedups (Fig 5)
//!   fig6         avg time + overhead breakdown (Fig 6)
//!   insights     §7.2 hit-type statistics (ZU vs UU etc.)
//!   dataset      print synthetic-AIDS statistics vs the published moments
//!   ablation     extensions: EVI vs CON vs CON-R (§8 retrospective
//!                validation) and full-scan vs updatable-FTV-filter CS_M
//!   bench-subiso candidate-scan microbench: legacy (pre-CSR) vs CSR vs
//!                CSR+prefilter vs CSR+prefilter+parallel; writes
//!                BENCH_subiso.json (use --quick for a CI smoke run,
//!                --out PATH to redirect the artifact)
//!   chaos        fault-injection suite: replays every workload under a
//!                deterministic fault plan (override with GC_FAULT_PLAN)
//!                against a fault-free oracle; writes CHAOS_report.json
//!                and exits non-zero on silent divergence, deadline
//!                overrun > 2x, or leftover quarantined entries; with
//!                --index-diff, replays the same pinned fault plan
//!                against BOTH candidate sources (postings-index default
//!                vs paper full scan) side by side, writes
//!                CHAOS_indexdiff.json and exits non-zero on any answer
//!                or audit divergence between the two; with
//!                --repair-diff, replays the same pinned fault plan
//!                against BOTH maintenance modes (delta-repair default
//!                vs paper invalidate-only) side by side, writes
//!                CHAOS_repairdiff.json and exits non-zero on any answer
//!                or audit divergence between the two; with
//!                --net, drives the real loopback TCP server instead: a
//!                Zipf storm of concurrent clients under dropped
//!                connections, delayed frames, a stalled shard and a
//!                twice-panicking shard (failover + audited rejoin)
//!   all          everything above (except bench-subiso and chaos)
//! ```

use std::time::Instant;

use gc_bench::report::{f1, f2, pct, spx, Table};
use gc_bench::{
    build_all_workloads, build_dataset, build_plan, build_type_a_workloads, build_type_b_workloads,
    run_fig4, run_fig5, run_fig6, run_insights, Mode, Scale,
};
use gc_core::FaultPlan;
use gc_graph::stats::DatasetStats;
use gc_subiso::Algorithm;
use gc_telemetry::{HistogramSnapshot, Stage, StageSpans};

fn usage() -> ! {
    eprintln!(
        "usage: experiments <fig4-typea|fig4-typeb|fig5|fig6|insights|dataset|ablation|bench-subiso|chaos|all> \
         [--scale small|medium|paper] [--quick] [--net] [--index-diff] [--repair-diff] [--out PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let command = args[0].clone();
    const COMMANDS: [&str; 10] = [
        "fig4-typea",
        "fig4-typeb",
        "fig5",
        "fig6",
        "insights",
        "dataset",
        "ablation",
        "bench-subiso",
        "chaos",
        "all",
    ];
    if !COMMANDS.contains(&command.as_str()) {
        eprintln!("unknown command '{command}'");
        usage();
    }
    let mut scale = Scale::medium();
    let mut quick = false;
    let mut net = false;
    let mut index_diff = false;
    let mut repair_diff = false;
    let mut out_path: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                let v = args.get(i).unwrap_or_else(|| usage());
                scale = Scale::parse(v).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
            }
            "--quick" => quick = true,
            "--net" => net = true,
            "--index-diff" => index_diff = true,
            "--repair-diff" => repair_diff = true,
            "--out" => {
                i += 1;
                out_path = Some(args.get(i).unwrap_or_else(|| usage()).clone());
            }
            other => {
                eprintln!("unknown argument '{other}'");
                usage();
            }
        }
        i += 1;
    }
    let out_path = out_path.unwrap_or_else(|| {
        String::from(match (command.as_str(), index_diff, repair_diff) {
            ("chaos", true, _) => "CHAOS_indexdiff.json",
            ("chaos", false, true) => "CHAOS_repairdiff.json",
            ("chaos", false, false) => "CHAOS_report.json",
            _ => "BENCH_subiso.json",
        })
    });

    if command == "bench-subiso" {
        bench_subiso(quick, &out_path);
        return;
    }
    if command == "chaos" {
        if net {
            net_chaos(scale, &out_path);
        } else if index_diff {
            chaos(Mode::IndexDiff, scale, &out_path);
        } else if repair_diff {
            chaos(Mode::RepairDiff, scale, &out_path);
        } else {
            chaos(Mode::Chaos, scale, &out_path);
        }
        return;
    }

    let t0 = Instant::now();
    println!(
        "# GC+ experiments — scale: {} graphs, {} queries\n",
        scale.dataset_graphs, scale.num_queries
    );
    let dataset = build_dataset(&scale);
    let plan = build_plan(&scale);
    println!(
        "dataset built in {:.1}s; change plan: {} ops\n",
        t0.elapsed().as_secs_f64(),
        plan.total_ops()
    );

    match command.as_str() {
        "fig4-typea" => fig4(&dataset, &scale, &plan, true),
        "fig4-typeb" => fig4(&dataset, &scale, &plan, false),
        "fig5" => fig5(&dataset, &scale, &plan),
        "fig6" => fig6(&dataset, &scale, &plan),
        "insights" => insights(&dataset, &scale, &plan),
        "dataset" => dataset_stats(&dataset),
        "ablation" => ablation(&dataset, &scale, &plan),
        "all" => {
            dataset_stats(&dataset);
            fig4(&dataset, &scale, &plan, true);
            fig4(&dataset, &scale, &plan, false);
            fig5(&dataset, &scale, &plan);
            fig6(&dataset, &scale, &plan);
            insights(&dataset, &scale, &plan);
            ablation(&dataset, &scale, &plan);
        }
        _ => usage(),
    }
    println!("\ntotal wall time: {:.1}s", t0.elapsed().as_secs_f64());
}

fn bench_subiso(quick: bool, out_path: &str) {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "# Method M candidate-scan microbench ({} mode, {} worker thread(s))\n",
        if quick { "quick" } else { "full" },
        threads
    );
    let result = gc_bench::run_subiso_bench(quick, threads);
    let mut t = Table::new(
        "Candidate-scan microbench: legacy (pre-CSR) vs CSR vs postings index",
        &[
            "configuration",
            "total s",
            "candidates",
            "tests",
            "prefilter skips",
            "speedup vs legacy",
        ],
    );
    let legacy_secs = result.measurements[0].total_secs;
    for m in &result.measurements {
        t.row(vec![
            m.config.to_string(),
            format!("{:.4}", m.total_secs),
            m.candidates.to_string(),
            m.tests.to_string(),
            m.prefilter_skips.to_string(),
            spx(legacy_secs / m.total_secs.max(1e-12)),
        ]);
    }
    println!("{}", t.render());
    println!(
        "headline: serial {:.2}x, best {:.2}x over the pre-CSR serial scan; \
         postings index {:.2}x vs the prefiltered CSR scan",
        result.speedup_serial, result.speedup_best, result.speedup_index_vs_prefilter
    );
    if let Err(e) = std::fs::write(out_path, result.to_json()) {
        eprintln!("cannot write bench artifact '{out_path}': {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
}

/// The fault plan of a chaos run: `GC_FAULT_PLAN` when set, else
/// `default`. Exits with code 2 on a malformed plan.
fn fault_plan_from_env(default: FaultPlan) -> FaultPlan {
    match FaultPlan::from_env() {
        Ok(plan) => plan.unwrap_or(default),
        Err(e) => {
            eprintln!("invalid GC_FAULT_PLAN: {e}");
            std::process::exit(2);
        }
    }
}

/// Writes a run's artifact; exits with code 1 when it cannot.
fn write_artifact(path: &str, json: String) {
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("cannot write artifact '{path}': {e}");
        std::process::exit(1);
    }
    println!("wrote {path}");
}

/// Exits with code 1 and `failure` unless the run passed.
fn exit_unless(passed: bool, failure: &str) {
    if !passed {
        eprintln!("{failure}");
        std::process::exit(1);
    }
}

fn chaos(mode: Mode, scale: Scale, out_path: &str) {
    let mut cfg = gc_bench::ChaosConfig::new(scale);
    cfg.fault_plan = fault_plan_from_env(cfg.fault_plan);
    let (graphs, queries) = (cfg.scale.dataset_graphs, cfg.scale.num_queries);
    let plan = &cfg.fault_plan;
    match mode {
        Mode::Chaos => println!(
            "# Chaos suite — {graphs} graphs, {queries} queries/workload, deadline {} ms\n\
             fault plan: {plan}\n",
            cfg.deadline.as_millis()
        ),
        Mode::IndexDiff => println!(
            "# Candidate-source differential chaos — {graphs} graphs, {queries} queries/workload\n\
             postings-index default vs paper full scan, both under fault plan: {plan}\n"
        ),
        Mode::RepairDiff => println!(
            "# Maintenance-mode differential chaos — {graphs} graphs, {queries} queries/workload\n\
             delta-repair default vs invalidate-only oracle, both under fault plan: {plan}\n"
        ),
    }
    let t0 = Instant::now();
    let report = gc_bench::run_chaos(&cfg, mode);
    let (title, mode_headers): (&str, &[&str]) = match mode {
        Mode::Chaos => (
            "Chaos verdicts: faulted GC+ vs fault-free oracle",
            &[
                "max deadline ratio",
                "p99 ms",
                "panics contained",
                "audit repairs",
                "quarantined at end",
            ],
        ),
        Mode::IndexDiff => (
            "Index-diff verdicts: index-backed vs scan-backed under identical faults",
            &[
                "audit diverg.",
                "cand. index",
                "cand. scan",
                "panics idx/scan",
            ],
        ),
        Mode::RepairDiff => (
            "Repair-diff verdicts: delta-repair vs invalidate-only under identical faults",
            &[
                "audit diverg.",
                "repairs",
                "inval. avoided",
                "fallbacks",
                "maint. ms",
                "panics rep/inv",
            ],
        ),
    };
    let mut headers = vec![
        "workload",
        "queries",
        "updates",
        "exact",
        "degraded",
        "divergent",
    ];
    headers.extend(mode_headers);
    headers.push("verdict");
    let mut t = Table::new(title, &headers);
    for c in &report.cells {
        let [a, b] = &c.health;
        let panics = format!("{}/{}", a.panics_recovered, b.panics_recovered);
        let mut row = vec![
            c.workload.clone(),
            c.queries.to_string(),
            c.updates.to_string(),
            c.exact.to_string(),
            c.degraded.to_string(),
            c.divergent.to_string(),
        ];
        row.extend(match mode {
            Mode::Chaos => vec![
                f2(c.max_overrun),
                f2(c.latency.p99() as f64 / 1000.0),
                a.panics_recovered.to_string(),
                c.audit_total.repaired.to_string(),
                c.quarantined[0].to_string(),
            ],
            Mode::IndexDiff => vec![
                c.audit_divergent.to_string(),
                c.candidates[0].to_string(),
                c.candidates[1].to_string(),
                panics,
            ],
            Mode::RepairDiff => vec![
                c.audit_divergent.to_string(),
                a.repairs_applied.to_string(),
                a.invalidations_avoided.to_string(),
                a.repair_fallbacks.to_string(),
                f2(c.stages.get(Stage::Repair) as f64 / 1e6),
                panics,
            ],
        });
        row.push(if c.passed { "ok" } else { "FAIL" }.to_string());
        t.row(row);
    }
    println!("{}", t.render());

    let mut health = gc_core::HealthSnapshot::default();
    let mut latency = HistogramSnapshot::default();
    let mut stages = StageSpans::default();
    let (mut index, mut scan) = (0u64, 0u64);
    for c in &report.cells {
        health.merge(&c.health[0]);
        latency.merge(&c.latency);
        stages.merge(&c.stages);
        index += c.candidates[0];
        scan += c.candidates[1];
    }
    let failure = match mode {
        Mode::Chaos => {
            // fold the per-cell telemetry into suite-wide health + tail latency
            println!(
                "health: {} panics contained, {} entries quarantined, {} degraded queries, \
                 {} audit repairs, {} audit evictions",
                health.panics_recovered,
                health.quarantined_entries,
                health.degraded_queries,
                health.audit_repairs,
                health.audit_evictions
            );
            println!(
                "latency (faulted side): p50 {} µs, p95 {} µs, p99 {} µs, max {} µs over {} queries",
                latency.p50(),
                latency.p95(),
                latency.p99(),
                latency.max(),
                latency.count
            );
            print_stages(&stages);
            "chaos suite FAILED: silent divergence, deadline overrun, or leftover quarantine"
        }
        Mode::IndexDiff => {
            println!(
                "candidate work: index-backed examined {index} candidates vs {scan} for the full \
                 scan ({:.1}% of CS_M pruned before any sub-iso test)",
                if scan > 0 {
                    (scan - scan.min(index)) as f64 / scan as f64 * 100.0
                } else {
                    0.0
                }
            );
            "index-diff FAILED: answer or audit divergence between the candidate sources, \
             an index that grew CS_M, mismatched panic containment, leftover quarantine, \
             or a rebuilt (non-incremental) index"
        }
        Mode::RepairDiff => {
            println!(
                "maintenance work: {} validity bits spliced, {} invalidations avoided, \
                 {} budget fallbacks across the suite",
                health.repairs_applied, health.invalidations_avoided, health.repair_fallbacks
            );
            "repair-diff FAILED: answer or audit divergence between the maintenance modes, \
             repair activity on the invalidate-only oracle, mismatched panic containment, \
             or leftover quarantine"
        }
    };
    println!("wall time: {:.1}s", t0.elapsed().as_secs_f64());
    write_artifact(out_path, report.to_json());
    exit_unless(report.passed(), failure);
    exit_unless(
        mode != Mode::RepairDiff || report.total_invalidations_avoided() > 0,
        "repair-diff FAILED: the repair path never avoided an invalidation — \
         the differential proved nothing at this scale/plan",
    );
}

fn net_chaos(scale: Scale, out_path: &str) {
    let mut cfg = gc_bench::NetChaosConfig::new(scale);
    cfg.fault_plan = fault_plan_from_env(cfg.fault_plan);
    println!(
        "# Networked chaos — {} shards, {} clients x {} queries/storm, deadline {} ms\nfault plan: {}\n",
        cfg.shards,
        cfg.clients,
        cfg.queries_per_client,
        cfg.deadline.as_millis(),
        cfg.fault_plan
    );
    let t0 = Instant::now();
    let report = gc_bench::run_net_chaos(&cfg);
    let mut t = Table::new(
        "Net chaos verdicts: loopback server vs fault-free oracle",
        &[
            "phase",
            "requests",
            "exact",
            "degraded",
            "divergent",
            "errors",
            "baseline hits",
            "retries",
            "max deadline ratio",
            "p95 ms",
            "p99 ms",
            "hung",
        ],
    );
    for (name, s) in [("storm 1", &report.storm1), ("storm 2", &report.storm2)] {
        t.row(vec![
            name.to_string(),
            s.requests.to_string(),
            s.exact.to_string(),
            s.degraded.to_string(),
            s.divergent.to_string(),
            s.errors.to_string(),
            s.baseline_hits.to_string(),
            s.retries.to_string(),
            f2(s.max_overrun),
            f2(s.latency.p95() as f64 / 1000.0),
            f2(s.latency.p99() as f64 / 1000.0),
            s.hung.to_string(),
        ]);
    }
    println!("{}", t.render());

    let mut t = Table::new(
        "Shed rate vs offered load (post-audit ramp, client retries off)",
        &[
            "clients",
            "offered",
            "completed",
            "shed",
            "shed rate",
            "errors",
        ],
    );
    for l in &report.ramp {
        t.row(vec![
            l.clients.to_string(),
            l.offered.to_string(),
            l.completed.to_string(),
            l.shed.to_string(),
            pct(l.shed_rate()),
            l.errors.to_string(),
        ]);
    }
    println!("{}", t.render());

    let mut t = Table::new(
        "Per-shard cache counters (live stats scrape)",
        &[
            "shard",
            "hits",
            "misses",
            "evictions",
            "quarantined",
            "shed",
        ],
    );
    for (i, s) in report.stats.shards.iter().enumerate() {
        t.row(vec![
            i.to_string(),
            s.hits.to_string(),
            s.misses.to_string(),
            s.evictions.to_string(),
            s.quarantined.to_string(),
            s.shed.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "stats scrape: {} queries, {} updates; server latency p50 {} µs, p95 {} µs, \
         p99 {} µs, max {} µs",
        report.stats.queries,
        report.stats.updates,
        report.stats.latency.p50(),
        report.stats.latency.p95(),
        report.stats.latency.p99(),
        report.stats.latency.max()
    );
    print_stages(&report.stats.stages);
    println!(
        "reconciliation: per-shard hits+misses vs {} ledger-executed queries -> {}",
        report.executed_queries,
        if report.reconciled() {
            "ok"
        } else {
            "MISMATCH"
        }
    );
    println!(
        "updates: {} applied, {} re-issued after provably-unexecuted drops, {} failed",
        report.updates_applied, report.update_reissues, report.update_failures
    );
    println!(
        "audit: {} sampled, {} repaired, {} evicted (second pass: {} repaired, {} evicted)",
        report.audit.sampled,
        report.audit.repaired,
        report.audit.evicted,
        report.audit_after.repaired,
        report.audit_after.evicted
    );
    println!(
        "health: {} panics contained, {} failovers, {} baseline serves, {} shed, {} degraded",
        report.health.panics_recovered,
        report.health.shard_failovers,
        report.health.baseline_served,
        report.health.load_shed,
        report.health.degraded_queries
    );
    println!("wall time: {:.1}s", t0.elapsed().as_secs_f64());
    write_artifact(out_path, report.to_json());
    write_artifact("METRICS_report.json", report.metrics_json());
    exit_unless(
        report.passed(),
        "net chaos FAILED: silent divergence, hung request, missing failover coverage, \
         a shard left unhealthy after audit, or a stats scrape that does not reconcile \
         with the request ledger",
    );
}

/// Prints the pipeline-stage time breakdown of a [`StageSpans`] total.
fn print_stages(stages: &StageSpans) {
    let total = stages.total();
    if total == 0 {
        return;
    }
    let parts: Vec<String> = stages
        .iter()
        .filter(|(_, nanos)| *nanos > 0)
        .map(|(stage, nanos)| {
            format!(
                "{} {:.1} ms ({:.0}%)",
                stage.name(),
                nanos as f64 / 1e6,
                nanos as f64 / total as f64 * 100.0
            )
        })
        .collect();
    println!("pipeline stages: {}", parts.join(", "));
}

fn dataset_stats(dataset: &[gc_graph::LabeledGraph]) {
    let stats = DatasetStats::compute(dataset);
    println!(
        "### Synthetic AIDS dataset (paper: ⌀45 vertices σ22 max 245; ⌀47 edges σ23 max 250)\n"
    );
    println!("{stats}\n");
}

fn fig4(
    dataset: &[gc_graph::LabeledGraph],
    scale: &Scale,
    plan: &gc_dataset::ChangePlan,
    type_a: bool,
) {
    let workloads = if type_a {
        build_type_a_workloads(dataset, scale)
    } else {
        build_type_b_workloads(dataset, scale)
    };
    let label = if type_a { "Type A" } else { "Type B" };
    let rows = run_fig4(dataset, &workloads, plan, &Algorithm::ALL);
    let mut t = Table::new(
        &format!("Figure 4 ({label}): GC+ speedup in query time"),
        &[
            "method",
            "workload",
            "base avg ms",
            "EVI speedup",
            "CON speedup",
        ],
    );
    for r in &rows {
        t.row(vec![
            r.method.to_string(),
            r.workload.clone(),
            f2(r.base_ms),
            spx(r.evi_speedup),
            spx(r.con_speedup),
        ]);
    }
    println!("{}", t.render());
}

fn fig5(dataset: &[gc_graph::LabeledGraph], scale: &Scale, plan: &gc_dataset::ChangePlan) {
    let workloads = build_all_workloads(dataset, scale);
    let rows = run_fig5(dataset, &workloads, plan);
    let mut t = Table::new(
        "Figure 5: GC+ speedup in number of sub-iso tests (Method-M independent)",
        &["workload", "base avg tests", "EVI speedup", "CON speedup"],
    );
    for r in &rows {
        t.row(vec![
            r.workload.clone(),
            f1(r.base_tests),
            spx(r.evi_speedup),
            spx(r.con_speedup),
        ]);
    }
    println!("{}", t.render());
}

fn fig6(dataset: &[gc_graph::LabeledGraph], scale: &Scale, plan: &gc_dataset::ChangePlan) {
    let workloads = build_all_workloads(dataset, scale);
    let rows = run_fig6(dataset, &workloads, plan);
    let mut t = Table::new(
        "Figure 6: average execution time and overhead per query (Method M = VF2)",
        &[
            "workload",
            "VF2 ms",
            "EVI ms",
            "EVI ovh µs",
            "CON ms",
            "CON ovh µs",
            "validation share of CON ovh",
        ],
    );
    for r in &rows {
        t.row(vec![
            r.workload.clone(),
            f2(r.vf2_ms),
            f2(r.evi_ms),
            f1(r.evi_overhead_ms * 1000.0),
            f2(r.con_ms),
            f1(r.con_overhead_ms * 1000.0),
            pct(r.con_validation_share),
        ]);
    }
    println!("{}", t.render());
}

fn ablation(dataset: &[gc_graph::LabeledGraph], scale: &Scale, plan: &gc_dataset::ChangePlan) {
    let workloads = gc_bench::build_type_a_workloads(dataset, scale);
    let w = &workloads[0]; // ZZ

    for (title, oscillating) in [
        (
            "Ablation: cache models under the paper's change plan (ZZ workload)",
            false,
        ),
        (
            "Ablation: cache models under oscillating churn (UR+UA of the same edge)",
            true,
        ),
    ] {
        let rows = gc_bench::run_model_ablation(dataset, w, plan, oscillating);
        let mut t = Table::new(title, &["model", "avg tests/query", "avg query ms"]);
        for r in &rows {
            t.row(vec![
                r.model.to_string(),
                f1(r.avg_tests),
                f2(r.avg_query_ms),
            ]);
        }
        println!("{}", t.render());
    }

    let rows = gc_bench::run_ftv_ablation(dataset, w, plan);
    let mut t = Table::new(
        "Ablation: candidate-set source (updatable FTV label/size filter)",
        &["configuration", "avg tests/query", "avg query ms"],
    );
    for r in &rows {
        t.row(vec![
            r.config.to_string(),
            f1(r.avg_tests),
            f2(r.avg_query_ms),
        ]);
    }
    println!("{}", t.render());
}

fn insights(dataset: &[gc_graph::LabeledGraph], scale: &Scale, plan: &gc_dataset::ChangePlan) {
    let workloads = build_all_workloads(dataset, scale);
    let rows = run_insights(dataset, &workloads, plan);
    let mut t = Table::new(
        "§7.2 insights: hit-type statistics under CON",
        &[
            "workload",
            "exact-match queries",
            "exact shortcuts",
            "empty shortcuts",
            "zero-test queries",
            "direct hits",
            "exclusion hits",
        ],
    );
    for r in &rows {
        t.row(vec![
            r.workload.clone(),
            r.exact_match_queries.to_string(),
            r.exact_shortcuts.to_string(),
            r.empty_shortcuts.to_string(),
            r.zero_test_queries.to_string(),
            r.direct_hits.to_string(),
            r.exclusion_hits.to_string(),
        ]);
    }
    println!("{}", t.render());
}
