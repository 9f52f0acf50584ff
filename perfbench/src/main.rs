//! Benchmark of GraphCache+ under `GcConfig::default()`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <zz-churn|uu-static|served-churn> --seed <n> --seconds <s> --trace <0|1> \
//!     [--scale <medium|tiny>]
//! ```
//!
//! Every run generates its inputs from the seed — twelve independent instances
//! of the workload — and computes the cache-less answer of every query (the
//! oracle) before anything is timed. It then repeats the instances in turn
//! — build, warm up, time — until the timed phases add up to `--seconds`,
//! and reports latency percentiles over every timed query of the run,
//! throughput over the run's timed seconds, and the median set-up time. The last
//! line of standard output is the result object; the line before it is a
//! report with provenance, sample counts, deterministic counters and
//! scheduler times. With `--trace 1` the run instead takes the first
//! instance, compares untraced repetitions with traced replays of the same
//! stream and reports the per-layer metrics. Any wrong, failed or degraded answer, or an unfaithful
//! trace, makes the run exit with code 1.

mod drive;
mod inputs;
mod report;
mod trace;

use std::process::ExitCode;

use drive::{QueryCounters, Rep};
use gc_graph::BitSet;
use inputs::{Inputs, Scale, Workload};
use report::{
    median, metric, peak_rss_mb, percentile, provenance, samples_beyond, Json, SchedTimes,
};
use trace::{ServiceTrace, TracedRep};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::MEDIUM;
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} has no value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--scale" => scale = Scale::parse(value).ok_or(format!("unknown scale {value}"))?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
    })
}

fn main() -> ExitCode {
    // GcConfig::from_env would let these silently change the configuration
    // a served deployment runs; the benchmark measures the defaults only
    let overrides: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("GC_"))
        .collect();
    if !overrides.is_empty() {
        eprintln!(
            "refusing to run with GC_* variables set: {}",
            overrides.join(", ")
        );
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // a traced run diagnoses one instance; an untraced run measures them all
    let count = if args.trace { 1 } else { inputs::INSTANCES };
    let instances = inputs::instances(args.workload, args.scale, args.seed, count);
    let mut out = Outcome::default();
    let mut report = Json::new();
    report.object("provenance", provenance(args.workload.name(), args.seed));
    let first = &instances[0].0;
    report
        .int("instances", count as u64)
        .int("graphs", first.dataset.len() as u64)
        .int("queries", first.queries.len() as u64)
        .int("warmup_queries", first.warmup as u64)
        .int("updates", first.update_count() as u64);
    let metrics = if args.trace {
        let (inputs, oracle) = &instances[0];
        traced_run(&args, inputs, oracle, &mut out, &mut report)
    } else {
        untraced_run(&args, &instances, &mut out, &mut report)
    };
    report
        .int("failed_ops", out.failed)
        .int("wrong_answers", out.wrong)
        .boolean("trace_faithful", out.faithful);
    println!("{}", report.finish());
    let correct = out.failed == 0 && out.faithful;
    let mut result = Json::new();
    result
        .boolean("correct", correct)
        .int("attempted", out.attempted)
        .int("failed", out.failed)
        .object("metrics", metrics);
    println!("{}", result.finish());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What every run tallies for the result line.
struct Outcome {
    attempted: u64,
    /// Wrong answers, error replies and degraded answers.
    failed: u64,
    wrong: u64,
    faithful: bool,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            wrong: 0,
            faithful: true,
        }
    }
}

impl Outcome {
    fn add(&mut self, rep: &Rep) {
        self.attempted += rep.attempted;
        self.wrong += rep.wrong;
        self.failed += rep.failed;
    }
}

/// Repeats `run` (given the repetition's index) until the timed phases
/// reach `seconds` and it ran at least `min_reps` times.
fn repeat<R>(
    seconds: f64,
    min_reps: usize,
    mut run: impl FnMut(usize) -> R,
    timed_s: impl Fn(&R) -> f64,
) -> Vec<R> {
    let mut reps = Vec::new();
    let mut timed = 0.0;
    while reps.len() < min_reps.max(1) || timed < seconds {
        let r = run(reps.len());
        timed += timed_s(&r);
        reps.push(r);
    }
    reps
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Untraced repetitions over the instances in turn. The latency metrics
/// are percentiles over every timed query of the run, throughput is the
/// run's timed queries over its timed seconds, and set-up time is the
/// median over the repetitions: whole-run figures, which came out steadier
/// across seeds than per-instance medians averaged over the instances.
fn untraced_run(
    args: &Args,
    instances: &[(Inputs, Vec<BitSet>)],
    out: &mut Outcome,
    report: &mut Json,
) -> Json {
    let k = instances.len();
    let reps = repeat(
        args.seconds,
        k,
        |j| {
            let (inputs, oracle) = &instances[j % k];
            match args.workload {
                Workload::ServedChurn => drive::served_rep(inputs, oracle),
                _ => drive::in_process_rep(inputs, oracle, false),
            }
        },
        |r| r.timed_s,
    );
    reps.iter().for_each(|r| out.add(r));
    let by_instance: Vec<Vec<&Rep>> = (0..k)
        .map(|i| reps.iter().skip(i).step_by(k).collect())
        .collect();
    // per instance, the median over its repetitions: how much the draws differ
    let per_instance = |f: &dyn Fn(&Rep) -> f64| -> Vec<f64> {
        by_instance
            .iter()
            .map(|rs| median(&rs.iter().map(|r| f(r)).collect::<Vec<_>>()))
            .collect()
    };
    let latencies: Vec<u64> = reps
        .iter()
        .flat_map(|r| r.query_ns.iter().copied())
        .collect();
    let timed_s: f64 = reps.iter().map(|r| r.timed_s).sum();
    let setup_s: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();

    let samples = reps[0].queries.count;
    report
        .int("repetitions", reps.len() as u64)
        .int("query_samples", latencies.len() as u64)
        .int(
            "p99_samples_beyond",
            samples_beyond(latencies.len(), 99.0) as u64,
        )
        .int("query_samples_per_rep", samples as u64)
        .nums(
            "queries_per_s_per_instance",
            &per_instance(&|r| r.queries_per_s()),
        )
        .nums(
            "query_p50_us_per_instance",
            &per_instance(&|r| r.queries.p50_us),
        )
        .nums(
            "query_p99_us_per_instance",
            &per_instance(&|r| r.queries.p99_us),
        )
        .nums(
            "queries_per_s_per_rep",
            &reps.iter().map(Rep::queries_per_s).collect::<Vec<_>>(),
        )
        .nums("setup_s_per_rep", &setup_s);
    let updates = reps[0].updates.count;
    if updates > 0 {
        report
            .num("update_p50_us", mean(&per_instance(&|r| r.updates.p50_us)))
            .num("update_p99_us", mean(&per_instance(&|r| r.updates.p99_us)))
            .int("update_samples_per_rep", updates as u64)
            .int(
                "update_p99_samples_beyond_per_rep",
                samples_beyond(updates, 99.0) as u64,
            );
    }
    let counters: Vec<Json> = by_instance.iter().map(|rs| counters_json(rs)).collect();
    report.objects("counters_per_instance", counters);
    report.object("host", host_json(&reps));

    let us = |p: f64| percentile(&latencies, p) as f64 / 1e3;
    let mut m = Json::new();
    m.object(
        "queries_per_s",
        metric(latencies.len() as f64 / timed_s, "1/s"),
    )
    .object("query_p50_us", metric(us(50.0), "us"))
    .object("query_p99_us", metric(us(99.0), "us"))
    .object("setup_s", metric(median(&setup_s), "s"))
    .object("peak_rss_mb", metric(peak_rss_mb(), "MiB"));
    m
}

/// Deterministic counters of an instance's first repetition, and how far
/// each moved across its repetitions (zero unless the known exception
/// fires: repair mode spends its per-pass test budget in hash-map
/// iteration order, so which bits are repaired and which invalidated can
/// differ between repetitions).
fn counters_json(reps: &[&Rep]) -> Json {
    let mut first = Json::new();
    let mut spread = Json::new();
    for (k, (name, v)) in reps[0].counts.iter().enumerate() {
        first.int(name, *v);
        let values: Vec<u64> = reps.iter().map(|r| r.counts[k].1).collect();
        let (lo, hi) = (values.iter().min(), values.iter().max());
        spread.int(
            name,
            hi.expect("one rep at least") - lo.expect("one rep at least"),
        );
    }
    let mut j = Json::new();
    j.object("totals", first)
        .object("spread_across_reps", spread);
    j
}

/// The driving thread's on-CPU time and run-queue wait against wall time,
/// summed over the timed phases: on-CPU ≈ wall with no wait means a slow
/// run was slow on the host, not descheduled.
fn host_json(reps: &[Rep]) -> Json {
    let mut sched = SchedTimes::default();
    reps.iter().for_each(|r| sched.add(r.sched));
    let wall: f64 = reps.iter().map(|r| r.timed_s).sum();
    let mut j = Json::new();
    j.num("timed_wall_s", wall)
        .num("on_cpu_s", sched.on_cpu_ns as f64 / 1e9)
        .num("run_wait_s", sched.run_wait_ns as f64 / 1e9);
    j
}

/// Per-query layer metrics, each named after the module it times.
fn traced_run(
    args: &Args,
    inputs: &Inputs,
    oracle: &[BitSet],
    out: &mut Outcome,
    report: &mut Json,
) -> Json {
    let served = args.workload == Workload::ServedChurn;
    let share = args.seconds / if served { 3.0 } else { 2.0 };

    // untraced reference: the program itself, in process
    let reference = repeat(
        share,
        1,
        |j| drive::in_process_rep(inputs, oracle, j == 0),
        |r| r.timed_s,
    );
    reference.iter().for_each(|r| out.add(r));
    let traced = repeat(
        share,
        1,
        |_| trace::traced_rep(inputs),
        |r| r.wall_ns as f64 / 1e9,
    );
    out.attempted += (traced.len() * (inputs.queries.len() + inputs.update_count())) as u64;
    let faith = faithfulness(&reference[0], &traced, oracle);
    out.wrong += faith.wrong;
    out.failed += faith.wrong;
    out.faithful = faith.faithful;
    report.object("faithfulness", faith.json);

    let mut spans = trace::Spans::default();
    let mut c = trace::Counts::default();
    let mut wall_ns = 0u64;
    for r in &traced {
        wall_ns += r.wall_ns;
        spans.add(&r.spans);
        c.add(&r.counts);
    }
    let reps = traced.len() as f64;
    let q = c.queries as f64;
    let us_per_query = |ns: u64| ns as f64 / 1e3 / q;
    let other_ns = wall_ns as f64 - spans.total() as f64;
    let untraced_wall = median(&reference.iter().map(|r| r.timed_s).collect::<Vec<_>>());
    let traced_wall = median(
        &traced
            .iter()
            .map(|r| r.wall_ns as f64 / 1e9)
            .collect::<Vec<_>>(),
    );

    let mut partition = Json::new();
    for (name, ns) in spans.named() {
        partition.num(name, ns as f64 / 1e9);
    }
    partition
        .num("other", other_ns / 1e9)
        .num("wall", wall_ns as f64 / 1e9);
    report
        .int("reference_repetitions", reference.len() as u64)
        .int("traced_repetitions", traced.len() as u64)
        .object("span_partition_s", partition);

    let mut m = Json::new();
    m.object(
        "index.lookup_us_per_query",
        metric(us_per_query(spans.index_lookup), "us"),
    )
    .object(
        "index.sync_us_per_query",
        metric(us_per_query(spans.index_sync), "us"),
    )
    .object(
        "index.candidates_per_query",
        metric(c.candidates as f64 / q, "count"),
    )
    .object(
        "index.records_replayed",
        metric(c.records_replayed as f64 / reps, "count"),
    )
    .object(
        "processor.probe_us_per_query",
        metric(us_per_query(spans.probe), "us"),
    )
    .object(
        "processor.entries_probed_per_query",
        metric(c.entries_probed as f64 / q, "count"),
    )
    .object(
        "processor.hits_per_query",
        metric(c.hits as f64 / q, "count"),
    )
    .object(
        "processor.useful_probe_ratio",
        metric(ratio(c.hits, c.entries_probed), "ratio"),
    )
    .object(
        "pruner.prune_us_per_query",
        metric(us_per_query(spans.prune), "us"),
    )
    .object(
        "pruner.tests_saved_per_query",
        metric(c.tests_saved as f64 / q, "count"),
    )
    .object(
        "pruner.shortcut_share",
        metric(c.shortcuts as f64 / q, "ratio"),
    )
    .object(
        "method.verify_us_per_query",
        metric(us_per_query(spans.verify), "us"),
    )
    .object(
        "method.tests_per_query",
        metric(c.tests as f64 / q, "count"),
    )
    .object(
        "method.positive_share",
        metric(ratio(c.positives, c.tests), "ratio"),
    )
    .object(
        "validator.maintain_us_per_query",
        metric(us_per_query(spans.maintain), "us"),
    )
    .object("validator.passes", metric(c.passes as f64 / reps, "count"))
    .object(
        "validator.bits_invalidated",
        metric(c.bits_invalidated as f64 / reps, "count"),
    )
    .object(
        "validator.bits_repaired",
        metric(c.bits_repaired as f64 / reps, "count"),
    )
    .object(
        "validator.repair_tests",
        metric(c.repair_tests as f64 / reps, "count"),
    )
    .object(
        "validator.repair_fallbacks",
        metric(c.repair_fallbacks as f64 / reps, "count"),
    )
    .object(
        "cache.admit_us_per_query",
        metric(us_per_query(spans.admit), "us"),
    )
    .object(
        "cache.evictions",
        metric(c.evictions as f64 / reps, "count"),
    )
    .object(
        "cache.resident_entries",
        metric(c.resident as f64 / reps, "count"),
    )
    .object(
        "trace.other_share",
        metric(other_ns / wall_ns as f64, "ratio"),
    )
    .object(
        "trace.overhead",
        metric(traced_wall / untraced_wall, "ratio"),
    );
    if c.passes > 0 {
        report.num(
            "validator.maintain_us_per_pass",
            spans.maintain as f64 / 1e3 / c.passes as f64,
        );
    }
    if served {
        report.object("wire_layers", wire_layers(inputs, oracle, share, out));
    }
    m
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

struct Faithfulness {
    wrong: u64,
    faithful: bool,
    json: Json,
}

/// The traced replay must give the program's answers, and count what the
/// program's `QueryMetrics` count, query by query. The one tolerated
/// difference is the known exception: once a repair-mode maintenance pass
/// ran out of test budget (in either run), which bits it repaired depends
/// on hash-map iteration order, so later counters may differ; answers may
/// not.
fn faithfulness(reference: &Rep, traced: &[TracedRep], oracle: &[BitSet]) -> Faithfulness {
    let (ref_answers, ref_counters) = reference
        .kept
        .as_ref()
        .expect("the reference kept its answers");
    let first_fallback = |c: &[QueryCounters]| c.iter().position(|q| q.repair_fallbacks > 0);
    let mut wrong = 0;
    let mut answers_match_program = true;
    let mut first_diff: Option<usize> = None;
    let mut fallback = first_fallback(ref_counters);
    for r in traced {
        wrong += r.answers.iter().zip(oracle).filter(|(a, o)| a != o).count() as u64;
        answers_match_program &= r.answers == *ref_answers;
        let diff = r
            .counters
            .iter()
            .zip(ref_counters)
            .position(|(a, b)| a != b);
        first_diff = first_diff.into_iter().chain(diff).min();
        fallback = fallback
            .into_iter()
            .chain(first_fallback(&r.counters))
            .min();
    }
    let excused = match (first_diff, fallback) {
        (None, _) => true,
        (Some(d), Some(f)) => f <= d,
        (Some(_), None) => false,
    };
    let mut j = Json::new();
    j.boolean("answers_match_oracle", wrong == 0)
        .boolean("answers_match_program", answers_match_program)
        .boolean("counters_match_program", first_diff.is_none())
        .int(
            "first_counter_difference_at_query",
            first_diff.map_or(0, |d| d as u64 + 1),
        )
        .int(
            "first_repair_fallback_at_query",
            fallback.map_or(0, |f| f as u64 + 1),
        )
        .boolean(
            "difference_is_known_exception",
            first_diff.is_some() && excused,
        );
    Faithfulness {
        wrong,
        faithful: wrong == 0 && answers_match_program && excused,
        json: j,
    }
}

/// The served workload's wire layers: codec and service from a socketless
/// pass, transport as what the loopback round trip adds on top of them.
fn wire_layers(inputs: &Inputs, oracle: &[BitSet], seconds: f64, out: &mut Outcome) -> Json {
    let loopback = repeat(
        seconds,
        1,
        |_| drive::served_rep(inputs, oracle),
        |r| r.timed_s,
    );
    loopback.iter().for_each(|r| out.add(r));
    let tr: ServiceTrace = trace::service_pass(inputs, oracle);
    out.attempted += tr.ops();
    out.failed += tr.failed;
    let ops = tr.ops() as f64;
    let rtt_ns: Vec<f64> = loopback
        .iter()
        .map(|r| {
            (r.queries.total_ns + r.updates.total_ns) as f64
                / (r.queries.count + r.updates.count) as f64
        })
        .collect();
    let codec_ns = (tr.encode_ns + tr.decode_ns) as f64 / ops;
    let handle_ns = (tr.handle_query_ns + tr.handle_update_ns) as f64 / ops;
    let spans = tr.encode_ns + tr.decode_ns + tr.handle_query_ns + tr.handle_update_ns;
    let mut j = Json::new();
    j.num("protocol.encode_us_per_op", tr.encode_ns as f64 / 1e3 / ops)
        .num("protocol.decode_us_per_op", tr.decode_ns as f64 / 1e3 / ops)
        .num("protocol.bytes_per_op", tr.bytes as f64 / ops)
        .num(
            "service.handle_us_per_query",
            tr.handle_query_ns as f64 / 1e3 / tr.queries as f64,
        )
        .num(
            "service.handle_us_per_update",
            tr.handle_update_ns as f64 / 1e3 / tr.updates as f64,
        )
        .int("service.shed", tr.shed)
        .num(
            "transport.us_per_op",
            (median(&rtt_ns) - codec_ns - handle_ns) / 1e3,
        )
        .num(
            "service_pass.other_share",
            (tr.wall_ns - spans) as f64 / tr.wall_ns as f64,
        )
        .int("loopback_repetitions", loopback.len() as u64);
    j
}
