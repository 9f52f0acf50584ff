//! Untraced repetitions: the program as users run it, `GcConfig::default()`,
//! driven by one closed-loop client (the next operation is sent only after
//! the previous one returned).

use std::time::Instant;

use gc_core::{GcConfig, GraphCachePlus, QueryMetrics, ShardedGraphCache};
use gc_dataset::ChangeOp;
use gc_graph::BitSet;
use gc_server::{serve, CacheClient, CacheService};

use crate::inputs::Inputs;
use crate::report::{percentile, SchedTimes};

/// Per-query counters the program reports in `QueryMetrics` and the traced
/// run recounts at the layer boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryCounters {
    pub tests: u64,
    pub candidates: u64,
    pub direct_hits: u64,
    pub exclusion_hits: u64,
    pub exact_match: bool,
    pub exact_shortcut: bool,
    pub empty_shortcut: bool,
    pub repairs_applied: u64,
    pub invalidations_avoided: u64,
    pub repair_fallbacks: u64,
}

impl From<&QueryMetrics> for QueryCounters {
    fn from(m: &QueryMetrics) -> Self {
        QueryCounters {
            tests: m.subiso_tests,
            candidates: m.candidate_size,
            direct_hits: u64::from(m.hits.direct_hits),
            exclusion_hits: u64::from(m.hits.exclusion_hits),
            exact_match: m.hits.exact_match,
            exact_shortcut: m.hits.exact_shortcut,
            empty_shortcut: m.hits.empty_shortcut,
            repairs_applied: m.repairs_applied,
            invalidations_avoided: m.invalidations_avoided,
            repair_fallbacks: m.repair_fallbacks,
        }
    }
}

/// Deterministic totals over a repetition's queries, warm-up included:
/// the counts that should repeat exactly from one run of a seed to the
/// next.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub tests: u64,
    pub candidates: u64,
    pub direct_hits: u64,
    pub exclusion_hits: u64,
    pub exact_matches: u64,
    pub exact_shortcuts: u64,
    pub empty_shortcuts: u64,
    pub repairs_applied: u64,
    pub invalidations_avoided: u64,
    pub repair_fallbacks: u64,
}

impl Totals {
    pub fn add(&mut self, c: &QueryCounters) {
        self.tests += c.tests;
        self.candidates += c.candidates;
        self.direct_hits += c.direct_hits;
        self.exclusion_hits += c.exclusion_hits;
        self.exact_matches += u64::from(c.exact_match);
        self.exact_shortcuts += u64::from(c.exact_shortcut);
        self.empty_shortcuts += u64::from(c.empty_shortcut);
        self.repairs_applied += c.repairs_applied;
        self.invalidations_avoided += c.invalidations_avoided;
        self.repair_fallbacks += c.repair_fallbacks;
    }

    pub fn of(counters: &[QueryCounters]) -> Totals {
        let mut t = Totals::default();
        counters.iter().for_each(|c| t.add(c));
        t
    }
}

/// One repetition: build, warm up (set-up), then the timed phase. Answers
/// are checked and update latencies summarized when it ends; only the
/// query latencies are kept, 8 bytes per timed query, for the run's
/// whole-run percentiles.
#[derive(Debug, Default)]
pub struct Rep {
    /// Building the system from the dataset plus the warm-up prefix.
    pub setup_s: f64,
    /// The timed phase: updates and queries after the warm-up.
    pub timed_s: f64,
    /// Client-observed query latency over the timed phase.
    pub queries: Latency,
    /// Every timed query's latency, in nanoseconds.
    pub query_ns: Vec<u64>,
    /// Client-observed update latency over the timed phase (served only).
    pub updates: Latency,
    /// Driving thread's scheduler times over the timed phase.
    pub sched: SchedTimes,
    /// Operations attempted (queries and updates, warm-up included).
    pub attempted: u64,
    /// Error replies, degraded answers and wrong answers.
    pub failed: u64,
    /// Answers that differ from the oracle.
    pub wrong: u64,
    /// Deterministic counters over the whole stream, warm-up included.
    pub counts: Vec<(&'static str, u64)>,
    /// Every answer and the program's per-query counters, when asked to
    /// keep them (the traced run's reference).
    pub kept: Option<(Vec<BitSet>, Vec<QueryCounters>)>,
}

/// A latency sample's size, sum and the percentiles reported from it.
#[derive(Debug, Default, Clone, Copy)]
pub struct Latency {
    pub count: usize,
    pub total_ns: u64,
    pub p50_us: f64,
    pub p99_us: f64,
}

impl Latency {
    fn of(ns: &[u64]) -> Latency {
        if ns.is_empty() {
            return Latency::default();
        }
        Latency {
            count: ns.len(),
            total_ns: ns.iter().sum(),
            p50_us: percentile(ns, 50.0) as f64 / 1e3,
            p99_us: percentile(ns, 99.0) as f64 / 1e3,
        }
    }
}

impl Rep {
    /// Queries completed per second of the timed phase.
    pub fn queries_per_s(&self) -> f64 {
        self.queries.count as f64 / self.timed_s
    }
}

/// Timed-phase bookkeeping shared by both systems.
struct Recorder {
    started: Instant,
    timed: Option<(Instant, SchedTimes)>,
    query_ns: Vec<u64>,
    update_ns: Vec<u64>,
    answers: Vec<Option<BitSet>>,
    rep: Rep,
}

impl Recorder {
    fn new(inputs: &Inputs) -> Recorder {
        let n = inputs.queries.len();
        Recorder {
            started: Instant::now(),
            timed: None,
            query_ns: Vec::with_capacity(n),
            update_ns: Vec::with_capacity(n * 4),
            answers: Vec::with_capacity(n),
            rep: Rep::default(),
        }
    }

    /// Called before query `i` and its updates: the set-up ends and the
    /// timed phase starts at the first query after the warm-up.
    fn at_query(&mut self, i: usize, warmup: usize) {
        if i == warmup {
            self.rep.setup_s = self.started.elapsed().as_secs_f64();
            self.timed = Some((Instant::now(), SchedTimes::now()));
        }
    }

    fn query(&mut self, t: Instant, answer: Option<BitSet>, failed: bool) {
        if self.timed.is_some() {
            self.query_ns.push(t.elapsed().as_nanos() as u64);
        }
        self.answers.push(answer);
        self.rep.attempted += 1;
        self.rep.failed += u64::from(failed);
    }

    fn update(&mut self, t: Instant, failed: bool) {
        if self.timed.is_some() {
            self.update_ns.push(t.elapsed().as_nanos() as u64);
        }
        self.rep.attempted += 1;
        self.rep.failed += u64::from(failed);
    }

    /// Ends the timed phase, then summarizes and checks the answers.
    fn finish(mut self, oracle: &[BitSet]) -> (Rep, Vec<Option<BitSet>>) {
        let (t, sched) = self.timed.expect("the stream is longer than its warm-up");
        self.rep.timed_s = t.elapsed().as_secs_f64();
        self.rep.sched = SchedTimes::now().since(sched);
        self.rep.queries = Latency::of(&self.query_ns);
        self.rep.query_ns = std::mem::take(&mut self.query_ns);
        self.rep.updates = Latency::of(&self.update_ns);
        self.rep.wrong = self
            .answers
            .iter()
            .zip(oracle)
            .filter(|(got, want)| got.as_ref().is_some_and(|a| a != *want))
            .count() as u64;
        self.rep.failed += self.rep.wrong;
        (self.rep, self.answers)
    }
}

/// The in-process system: `GraphCachePlus` with updates applied between
/// queries through `with_dataset`, as the paper's experiments do.
pub fn in_process_rep(inputs: &Inputs, oracle: &[BitSet], keep: bool) -> Rep {
    let mut rec = Recorder::new(inputs);
    let mut counters = Vec::with_capacity(inputs.queries.len());
    let mut gc = GraphCachePlus::new(GcConfig::default(), inputs.dataset.clone());
    let mut churn = inputs.churner();
    for (i, query) in inputs.queries.iter().enumerate() {
        rec.at_query(i, inputs.warmup);
        // in-process updates are not timed one by one: an apply takes well
        // under a microsecond and its cost lands in the next query's
        // maintenance pass
        rec.rep.attempted += gc.with_dataset(|store, log| churn.apply_due(i, store, log)) as u64;
        let t = Instant::now();
        let out = gc.execute(query, inputs.kind);
        counters.push(QueryCounters::from(&out.metrics));
        rec.query(t, Some(out.answer), out.metrics.degraded.is_some());
    }
    let (mut rep, answers) = rec.finish(oracle);
    let t = Totals::of(&counters);
    rep.counts = vec![
        ("subiso_tests", t.tests),
        ("candidate_size", t.candidates),
        ("direct_hits", t.direct_hits),
        ("exclusion_hits", t.exclusion_hits),
        ("exact_matches", t.exact_matches),
        ("exact_shortcuts", t.exact_shortcuts),
        ("empty_shortcuts", t.empty_shortcuts),
        ("repairs_applied", t.repairs_applied),
        ("invalidations_avoided", t.invalidations_avoided),
        ("repair_fallbacks", t.repair_fallbacks),
    ];
    if keep {
        let answers = answers
            .into_iter()
            .map(|a| a.expect("in-process queries always answer"))
            .collect();
        rep.kept = Some((answers, counters));
    }
    rep
}

/// The served system: a one-shard `ShardedGraphCache` behind
/// `CacheService` on loopback, driven by one `CacheClient` connection.
/// Server and client share this process; one connection suffices because
/// the service serializes every request under one lock.
pub fn served_rep(inputs: &Inputs, oracle: &[BitSet]) -> Rep {
    let mut rec = Recorder::new(inputs);
    let config = GcConfig::default();
    let cache = ShardedGraphCache::new(config, inputs.dataset.clone(), config.shards);
    let service = CacheService::new(cache, config.max_inflight, config.budget);
    let server = serve(service, 0, None).expect("bind a loopback port");
    let mut client = CacheClient::connect(server.addr());
    for (i, query) in inputs.queries.iter().enumerate() {
        rec.at_query(i, inputs.warmup);
        for op in inputs.ops_before(i) {
            let t = Instant::now();
            let applied = match *op {
                ChangeOp::Ua { id, u, v } => client.ua(id as u64, u, v),
                ChangeOp::Ur { id, u, v } => client.ur(id as u64, u, v),
                _ => unreachable!("the wire carries only UA and UR"),
            };
            rec.update(t, applied.is_err());
        }
        let t = Instant::now();
        match client.query(query, inputs.kind, None) {
            Ok(r) => {
                let answer = BitSet::from_indices(r.ids.iter().map(|&g| g as usize));
                rec.query(t, Some(answer), r.degraded.is_some());
            }
            Err(_) => rec.query(t, None, true),
        }
    }
    let (mut rep, _) = rec.finish(oracle);
    let stats = server.service().stats();
    let mut shard = gc_core::ShardStatsSnapshot::default();
    stats.shards.iter().for_each(|s| shard.merge(s));
    rep.counts = vec![
        ("shard_hits", shard.hits),
        ("shard_misses", shard.misses),
        ("evictions", shard.evictions),
        ("repairs_applied", stats.health.repairs_applied),
        ("invalidations_avoided", stats.health.invalidations_avoided),
        ("repair_fallbacks", stats.health.repair_fallbacks),
        ("degraded_queries", stats.health.degraded_queries),
    ];
    drop(client);
    server.shutdown();
    rep
}
