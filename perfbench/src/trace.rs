//! The traced run. It replays a workload through each layer's public
//! functions, in the order `GraphCachePlus::execute_budgeted` calls them,
//! and records a span around every call:
//!
//! 1. maintenance — `LogAnalyzer::analyze` + `validator::refresh_all_repair`
//! 2. index — `LabelIndex::sync`, then `subgraph_candidates` /
//!    `supergraph_candidates`
//! 3. hit probe — `processor::discover_hits_with`
//! 4. pruning — `pruner::prune`
//! 5. verification — `MethodM::run`
//! 6. admission — entry credit, `Window::push`, `CacheManager::admit_batch`
//!
//! The updates between queries get a span of their own, and whatever no
//! span covers is the `other` residual, so the spans partition wall time.
//! The served workload's wire layers are traced separately by
//! [`service_pass`], which encodes and decodes every message and calls
//! `CacheService::handle` directly.

use std::time::Instant;

use gc_core::cache::CacheManager;
use gc_core::processor::{discover_hits_with, EntryRef};
use gc_core::pruner::{prune, Shortcut};
use gc_core::{entry::CachedQuery, window::Window};
use gc_core::{
    validator, CacheModel, CandidateSource, GcConfig, MaintenanceMode, MaintenanceOutcome,
    ShardedGraphCache,
};
use gc_dataset::{ChangeLog, ChangeOp, GraphStore, LabelIndex, LogAnalyzer, LogCursor};
use gc_graph::{BitSet, LabeledGraph};
use gc_server::{CacheService, Request, Response};
use gc_subiso::QueryKind;

use crate::drive::QueryCounters;
use crate::inputs::{Churner, Inputs};

/// Nanoseconds spent in each traced step.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    pub updates: u64,
    pub maintain: u64,
    pub index_sync: u64,
    pub index_lookup: u64,
    pub probe: u64,
    pub prune: u64,
    pub verify: u64,
    pub admit: u64,
}

impl Spans {
    pub fn named(&self) -> [(&'static str, u64); 8] {
        [
            ("updates", self.updates),
            ("maintain", self.maintain),
            ("index_sync", self.index_sync),
            ("index_lookup", self.index_lookup),
            ("probe", self.probe),
            ("prune", self.prune),
            ("verify", self.verify),
            ("admit", self.admit),
        ]
    }

    pub fn total(&self) -> u64 {
        self.named().iter().map(|(_, ns)| ns).sum()
    }

    pub fn add(&mut self, o: &Spans) {
        self.updates += o.updates;
        self.maintain += o.maintain;
        self.index_sync += o.index_sync;
        self.index_lookup += o.index_lookup;
        self.probe += o.probe;
        self.prune += o.prune;
        self.verify += o.verify;
        self.admit += o.admit;
    }
}

/// Work counted at the same boundaries as the spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub queries: u64,
    pub candidates: u64,
    pub records_replayed: u64,
    pub entries_probed: u64,
    pub hits: u64,
    pub shortcuts: u64,
    pub tests: u64,
    pub tests_saved: u64,
    pub positives: u64,
    pub passes: u64,
    pub bits_invalidated: u64,
    pub bits_repaired: u64,
    pub repair_tests: u64,
    pub repair_fallbacks: u64,
    pub evictions: u64,
    pub resident: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.queries += o.queries;
        self.candidates += o.candidates;
        self.records_replayed += o.records_replayed;
        self.entries_probed += o.entries_probed;
        self.hits += o.hits;
        self.shortcuts += o.shortcuts;
        self.tests += o.tests;
        self.tests_saved += o.tests_saved;
        self.positives += o.positives;
        self.passes += o.passes;
        self.bits_invalidated += o.bits_invalidated;
        self.bits_repaired += o.bits_repaired;
        self.repair_tests += o.repair_tests;
        self.repair_fallbacks += o.repair_fallbacks;
        self.evictions += o.evictions;
        self.resident += o.resident;
    }
}

/// One traced repetition's timed phase.
#[derive(Debug)]
pub struct TracedRep {
    pub wall_ns: u64,
    pub spans: Spans,
    pub counts: Counts,
    pub answers: Vec<BitSet>,
    pub counters: Vec<QueryCounters>,
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// The program's state, held in the layers' own types.
struct Replica<'a> {
    config: GcConfig,
    store: GraphStore,
    log: ChangeLog,
    cursor: LogCursor,
    index: LabelIndex,
    cache: CacheManager,
    window: Window,
    clock: u64,
    churn: Churner<'a>,
}

impl<'a> Replica<'a> {
    /// Mirrors `GraphCachePlus::new` under `GcConfig::default()`.
    fn new(inputs: &'a Inputs) -> Self {
        let config = GcConfig::default();
        // this replica mirrors only the default path; a changed default
        // must be mirrored here before the trace can be trusted again
        assert!(
            config.model == CacheModel::Con
                && config.maintenance == MaintenanceMode::Repair
                && config.candidate_source == CandidateSource::LabelIndex
                && config.entry_ttl == 0
                && config.budget.is_unlimited(),
            "GcConfig::default() left the path the traced run mirrors"
        );
        let store = GraphStore::from_graphs(inputs.dataset.clone());
        let log = ChangeLog::new();
        let index = LabelIndex::build(&store, &log);
        Replica {
            cache: CacheManager::new(config.cache_capacity, config.policy),
            window: Window::new(config.window_capacity),
            config,
            store,
            log,
            cursor: LogCursor::default(),
            index,
            clock: 0,
            churn: inputs.churner(),
        }
    }

    fn valid_bits(&self) -> u64 {
        self.cache
            .iter()
            .chain(self.window.iter())
            .map(|e| e.cg_valid.count_ones() as u64)
            .sum()
    }

    /// Runs query `i` with its preceding updates, recording spans and
    /// counts. Returns the answer and the counters `QueryMetrics` holds.
    fn step(
        &mut self,
        i: usize,
        query: &LabeledGraph,
        kind: QueryKind,
        spans: &mut Spans,
        counts: &mut Counts,
    ) -> (BitSet, QueryCounters) {
        let t = Instant::now();
        self.churn.apply_due(i, &mut self.store, &mut self.log);
        spans.updates += ns_since(t);

        self.clock += 1;
        let now = self.clock;

        // ---- maintenance ----
        let t = Instant::now();
        let changed = self.log.changed_since(self.cursor);
        spans.maintain += ns_since(t);
        let mut maintenance = MaintenanceOutcome::default();
        if changed {
            let valid_before = self.valid_bits();
            let t = Instant::now();
            let counters = LogAnalyzer::analyze(self.log.records_since(self.cursor));
            let matcher = self.config.internal_matcher;
            let mut budget = self.config.repair_test_budget;
            let mut out = validator::refresh_all_repair(
                self.cache.iter_mut(),
                &counters,
                &self.store,
                matcher,
                &mut budget,
            );
            out.merge(&validator::refresh_all_repair(
                self.window.iter_mut(),
                &counters,
                &self.store,
                matcher,
                &mut budget,
            ));
            self.cursor = self.log.head();
            spans.maintain += ns_since(t);
            counts.passes += 1;
            counts.bits_invalidated += valid_before - self.valid_bits();
            counts.bits_repaired += out.repairs_applied;
            counts.repair_tests += out.repair_tests;
            counts.repair_fallbacks += out.repair_fallbacks;
            maintenance = out;
        }

        // ---- index: sync, then candidate lookup ----
        let t = Instant::now();
        self.index.sync(&self.store, &self.log);
        spans.index_sync += ns_since(t);
        let t = Instant::now();
        let csm = match kind {
            QueryKind::Subgraph => self.index.subgraph_candidates(query),
            QueryKind::Supergraph => self.index.supergraph_candidates(query),
        };
        spans.index_lookup += ns_since(t);
        let candidate_size = csm.count_ones() as u64;

        // ---- hit probe ----
        let population = (self.cache.len() + self.window.len()) as u64;
        let matcher = self.config.internal_matcher.matcher();
        let t = Instant::now();
        let hits = discover_hits_with(
            query,
            kind,
            &self.cache,
            &self.window,
            matcher,
            self.config.probe_parallelism,
        );
        spans.probe += ns_since(t);

        // ---- pruning ----
        let t = Instant::now();
        let outcome = prune(&csm, &hits, &self.cache, &self.window, &csm);
        spans.prune += ns_since(t);

        // ---- verification (the index already applied the pre-filter) ----
        let (answer, tests) = if outcome.candidates.is_empty() {
            (outcome.direct_answers.clone(), 0)
        } else {
            let t = Instant::now();
            let m = self.config.method.with_prefilter(false).run(
                query,
                kind,
                &self.store,
                &outcome.candidates,
            );
            spans.verify += ns_since(t);
            counts.positives += m.answer.count_ones() as u64;
            let mut answer = m.answer;
            answer.union_with(&outcome.direct_answers);
            (answer, m.tests)
        };

        // ---- statistics + admission ----
        let evictions_before = self.cache.evictions();
        let t = Instant::now();
        let per_test_cost = (query.vertex_count() + query.edge_count()) as f64;
        for &(r, saved) in &outcome.attribution {
            self.entry_mut(r)
                .credit(saved, saved as f64 * per_test_cost, now);
        }
        if let Some(r) = hits.exact {
            let span = self.store.id_span();
            let e = self.entry_mut(r);
            e.answer = answer.clone();
            e.cg_valid = BitSet::all_set(span);
            e.quarantined = false;
        } else {
            let entry = CachedQuery::new(
                query.clone(),
                kind,
                answer.clone(),
                self.store.id_span(),
                now,
            );
            if let Some(batch) = self.window.push(entry) {
                self.cache.admit_batch(batch);
            }
        }
        spans.admit += ns_since(t);
        counts.evictions += self.cache.evictions() - evictions_before;

        let counters = QueryCounters {
            tests,
            candidates: candidate_size,
            direct_hits: hits.direct.len() as u64,
            exclusion_hits: hits.exclusion.len() as u64,
            exact_match: hits.exact.is_some(),
            exact_shortcut: matches!(outcome.shortcut, Some(Shortcut::ExactMatch(_))),
            empty_shortcut: matches!(outcome.shortcut, Some(Shortcut::EmptyResult(_))),
            repairs_applied: maintenance.repairs_applied,
            invalidations_avoided: maintenance.invalidations_avoided,
            repair_fallbacks: maintenance.repair_fallbacks,
        };
        counts.queries += 1;
        counts.candidates += candidate_size;
        counts.entries_probed += population;
        counts.hits +=
            counters.direct_hits + counters.exclusion_hits + u64::from(counters.exact_match);
        counts.shortcuts += u64::from(outcome.shortcut.is_some());
        counts.tests += tests;
        counts.tests_saved += candidate_size - tests;
        (answer, counters)
    }

    fn entry_mut(&mut self, r: EntryRef) -> &mut CachedQuery {
        match r {
            EntryRef::Cache(i) => self.cache.get_mut(i),
            EntryRef::Window(i) => self.window.get_mut(i),
        }
        .expect("hit refs are valid until admission")
    }
}

/// One traced repetition: warm up untimed, then trace the timed phase.
pub fn traced_rep(inputs: &Inputs) -> TracedRep {
    let mut replica = Replica::new(inputs);
    let mut spans = Spans::default();
    let mut counts = Counts::default();
    let n = inputs.queries.len();
    let mut answers = Vec::with_capacity(n);
    let mut counters = Vec::with_capacity(n);
    let mut wall_start = None;
    let mut replayed_before = 0;
    for (i, query) in inputs.queries.iter().enumerate() {
        if i == inputs.warmup {
            // only the timed phase is traced
            spans = Spans::default();
            counts = Counts::default();
            replayed_before = replica.index.records_replayed();
            wall_start = Some(Instant::now());
        }
        let (answer, c) = replica.step(i, query, inputs.kind, &mut spans, &mut counts);
        answers.push(answer);
        counters.push(c);
    }
    let wall_ns = ns_since(wall_start.expect("the stream is longer than its warm-up"));
    counts.records_replayed = replica.index.records_replayed() - replayed_before;
    counts.resident = (replica.cache.len() + replica.window.len()) as u64;
    TracedRep {
        wall_ns,
        spans,
        counts,
        answers,
        counters,
    }
}

/// Nanoseconds and bytes of the served workload's wire layers, summed over
/// the timed phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceTrace {
    pub wall_ns: u64,
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub handle_query_ns: u64,
    pub handle_update_ns: u64,
    pub bytes: u64,
    pub queries: u64,
    pub updates: u64,
    pub shed: u64,
    /// Answers that differ from the oracle, error replies and degraded
    /// answers.
    pub failed: u64,
}

impl ServiceTrace {
    pub fn ops(&self) -> u64 {
        self.queries + self.updates
    }
}

/// The served workload without the socket: each request is encoded and
/// decoded as on the wire, handled by `CacheService::handle`, and its
/// response encoded and decoded back.
pub fn service_pass(inputs: &Inputs, oracle: &[BitSet]) -> ServiceTrace {
    let config = GcConfig::default();
    let cache = ShardedGraphCache::new(config, inputs.dataset.clone(), config.shards);
    let service = CacheService::new(cache, config.max_inflight, config.budget);
    let mut tr = ServiceTrace::default();
    let mut wall_start = None;
    for (i, query) in inputs.queries.iter().enumerate() {
        if i == inputs.warmup {
            tr = ServiceTrace::default();
            wall_start = Some(Instant::now());
        }
        for op in inputs.ops_before(i) {
            let req = match *op {
                ChangeOp::Ua { id, u, v } => Request::Ua {
                    id: id as u64,
                    u,
                    v,
                },
                ChangeOp::Ur { id, u, v } => Request::Ur {
                    id: id as u64,
                    u,
                    v,
                },
                _ => unreachable!("the wire carries only UA and UR"),
            };
            let (rsp, handle_ns) = round_trip(&service, req, &mut tr);
            tr.handle_update_ns += handle_ns;
            tr.updates += 1;
            tr.failed += u64::from(!matches!(rsp, Ok(Response::Updated { .. })));
        }
        let req = Request::Query {
            kind: inputs.kind,
            deadline_ms: 0,
            graph: query.clone(),
        };
        let (rsp, handle_ns) = round_trip(&service, req, &mut tr);
        tr.handle_query_ns += handle_ns;
        tr.queries += 1;
        let exact = match rsp {
            Ok(Response::Answer {
                ids,
                degraded: None,
                ..
            }) => BitSet::from_indices(ids.iter().map(|&g| g as usize)) == oracle[i],
            _ => false,
        };
        tr.failed += u64::from(!exact);
    }
    tr.wall_ns = ns_since(wall_start.expect("the stream is longer than its warm-up"));
    tr.shed = service.stats().health.load_shed;
    tr
}

/// Encode → decode → handle → encode → decode, timing each leg.
fn round_trip(
    service: &CacheService,
    req: Request,
    tr: &mut ServiceTrace,
) -> (Result<Response, gc_server::WireError>, u64) {
    let t = Instant::now();
    let body = req.encode();
    tr.encode_ns += ns_since(t);
    let t = Instant::now();
    let decoded = Request::decode(&body).expect("a request the client encoded decodes");
    tr.decode_ns += ns_since(t);
    let t = Instant::now();
    let rsp = service.handle(decoded, Instant::now(), None);
    let handle_ns = ns_since(t);
    let t = Instant::now();
    let reply = rsp.encode();
    tr.encode_ns += ns_since(t);
    let t = Instant::now();
    let rsp = Response::decode(&reply);
    tr.decode_ns += ns_since(t);
    tr.bytes += (body.len() + reply.len()) as u64;
    (rsp, handle_ns)
}
