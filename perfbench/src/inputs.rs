//! The three workloads, generated from the seed, and the answer oracle.

use gc_core::baseline_execute;
use gc_dataset::aids::{synthetic_aids, AidsConfig};
use gc_dataset::{
    ChangeLog, ChangeOp, ChangePlan, ChangePlanConfig, GraphStore, OpType, PlanExecutor,
};
use gc_graph::{BitSet, LabeledGraph};
use gc_subiso::{Algorithm, MethodM, QueryKind};
use gc_workload::{generate_type_a, TypeAConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The benchmark's workloads. Why each exists:
///
/// * `ZzChurn` — the paper's headline setting: a reuse-heavy ZZ stream
///   whose hot head fits the 120 cache+window slots, under the paper's
///   change plan (0.2 ops per query in batches of 20). Hit probing, the
///   pruner's shortcuts, admission and a light maintenance pass do the work.
///   Not declared in `BENCHMARK.json`: `ServedChurn` runs the same kind of
///   stream through the same layers and more, and two workloads leave each
///   run time enough to average out more of the host's drift.
/// * `UuStatic` — almost no reuse over an unchanging dataset, so the label
///   index and Method M's verify kernel do the work, hit probing is pure
///   overhead and maintenance never runs.
/// * `ServedChurn` — the ZZ stream over loopback through `gc_server` with
///   four UA/UR updates before every query (20× the paper's rate; the wire
///   carries only UA and UR), so maintenance and index sync weigh on every
///   query, and the wire codec, service and transport are on the path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ZzChurn,
    UuStatic,
    ServedChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::ZzChurn, Workload::UuStatic, Workload::ServedChurn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ZzChurn => "zz-churn",
            Workload::UuStatic => "uu-static",
            Workload::ServedChurn => "served-churn",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input size.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Dataset graphs (synthetic AIDS).
    pub graphs: usize,
    /// Queries in the stream, warm-up included.
    pub queries: usize,
    /// Leading queries (and their updates) run as set-up, to fill cache
    /// and window before timing starts.
    pub warmup: usize,
}

impl Scale {
    /// 1000 graphs, 1500 queries of which 200 warm up the 120 slots.
    pub const MEDIUM: Scale = Scale {
        graphs: 1000,
        queries: 1500,
        warmup: 200,
    };
    /// The self-test's size: seconds per workload in a debug build.
    pub const TINY: Scale = Scale {
        graphs: 60,
        queries: 120,
        warmup: 20,
    };

    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "medium" => Some(Scale::MEDIUM),
            "tiny" => Some(Scale::TINY),
            _ => None,
        }
    }
}

/// Dataset updates of a workload.
#[derive(Debug)]
pub enum Churn {
    /// Unchanging dataset.
    Static,
    /// The paper's change plan, materialized per query by a
    /// [`PlanExecutor`] seeded with `exec_seed`.
    Plan { plan: ChangePlan, exec_seed: u64 },
    /// Explicit UA/UR operations; `ops[i]` run just before query `i`.
    Ops(Vec<Vec<ChangeOp>>),
}

/// Everything a run feeds the program, generated from the seed.
#[derive(Debug)]
pub struct Inputs {
    pub dataset: Vec<LabeledGraph>,
    pub queries: Vec<LabeledGraph>,
    pub kind: QueryKind,
    pub churn: Churn,
    pub warmup: usize,
}

/// Updates served per query on `served-churn`.
const UPDATES_PER_QUERY: usize = 4;

/// Independent instances (dataset, stream and updates) an untraced run
/// measures in turn. A ZZ stream's cost hinges on the few graphs its Zipf
/// head picks, so one instance's figures move with the seed by as much as
/// ±30% (a served instance's p50 by 15% on average). Averaging over twelve
/// instances makes a run speak for the workload rather than for a few
/// draws; shorter streams keep the oracle's cost that of six 3000-query
/// instances while halving the variance the draws add to a run.
pub const INSTANCES: usize = 12;

/// Generates `count` instances from the run's seed, with their oracles,
/// spread over the available cores.
pub fn instances(
    workload: Workload,
    scale: Scale,
    seed: u64,
    count: usize,
) -> Vec<(Inputs, Vec<BitSet>)> {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(count);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    (t..count)
                        .step_by(threads)
                        .map(|k| {
                            // instance seeds never collide across run seeds
                            let s = seed
                                .wrapping_mul(INSTANCES as u64 + 1)
                                .wrapping_add(k as u64);
                            let inputs = Inputs::generate(workload, scale, s);
                            let oracle = inputs.oracle();
                            (k, inputs, oracle)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all: Vec<_> = workers
            .into_iter()
            .flat_map(|w| w.join().expect("instance generation panicked"))
            .collect();
        all.sort_by_key(|(k, ..)| *k);
        all.into_iter().map(|(_, i, o)| (i, o)).collect()
    })
}

impl Inputs {
    pub fn generate(workload: Workload, scale: Scale, seed: u64) -> Inputs {
        let dataset = synthetic_aids(&AidsConfig::scaled(scale.graphs, seed));
        let n = scale.queries;
        let stream = match workload {
            Workload::UuStatic => TypeAConfig::uu(n, seed.wrapping_add(3)),
            Workload::ZzChurn | Workload::ServedChurn => TypeAConfig::zz(n, seed.wrapping_add(1)),
        };
        let workload_queries = generate_type_a(&dataset, &stream);
        let churn = match workload {
            Workload::UuStatic => Churn::Static,
            Workload::ZzChurn => Churn::Plan {
                plan: ChangePlan::generate(&ChangePlanConfig::scaled(n, seed.wrapping_add(99))),
                exec_seed: seed.wrapping_add(7),
            },
            Workload::ServedChurn => Churn::Ops(edge_ops(&dataset, n, seed.wrapping_add(5))),
        };
        Inputs {
            dataset,
            queries: workload_queries.queries,
            kind: workload_queries.kind,
            churn,
            warmup: scale.warmup,
        }
    }

    /// A fresh applier of this workload's updates.
    pub fn churner(&self) -> Churner<'_> {
        let exec = match &self.churn {
            Churn::Plan { plan, exec_seed } => Some(PlanExecutor::new(
                plan.clone(),
                self.dataset.clone(),
                *exec_seed,
            )),
            _ => None,
        };
        Churner { inputs: self, exec }
    }

    /// The explicit operations due before query `i` (empty unless the
    /// workload carries explicit operations).
    pub fn ops_before(&self, i: usize) -> &[ChangeOp] {
        match &self.churn {
            Churn::Ops(ops) => &ops[i],
            _ => &[],
        }
    }

    /// Dataset updates in the whole stream (plan operations as planned).
    pub fn update_count(&self) -> usize {
        match &self.churn {
            Churn::Static => 0,
            Churn::Plan { plan, .. } => plan.total_ops(),
            Churn::Ops(ops) => ops.iter().map(Vec::len).sum(),
        }
    }

    /// Cache-less Method M answers for every query, each over the dataset
    /// state that query sees.
    pub fn oracle(&self) -> Vec<BitSet> {
        let mut store = GraphStore::from_graphs(self.dataset.clone());
        let mut log = ChangeLog::new();
        let mut churn = self.churner();
        let method = MethodM::new(Algorithm::Vf2);
        (0..self.queries.len())
            .map(|i| {
                churn.apply_due(i, &mut store, &mut log);
                baseline_execute(&store, &method, &self.queries[i], self.kind).answer
            })
            .collect()
    }
}

/// Applies a workload's updates to one store and log, query by query.
pub struct Churner<'a> {
    inputs: &'a Inputs,
    exec: Option<PlanExecutor>,
}

impl Churner<'_> {
    /// Applies every update due before query `i` and logs it, exactly as
    /// `GraphCachePlus::apply` (explicit ops) or the paper's plan executor
    /// would. Returns the number of operations applied.
    pub fn apply_due(&mut self, i: usize, store: &mut GraphStore, log: &mut ChangeLog) -> usize {
        if let Some(exec) = &mut self.exec {
            return exec.apply_due(i, store, log);
        }
        let ops = self.inputs.ops_before(i);
        for op in ops {
            match *op {
                ChangeOp::Ua { id, u, v } => {
                    store.add_edge(id, u, v).expect("generated UA is valid");
                    log.append_edge(id, OpType::Ua, u, v);
                }
                ChangeOp::Ur { id, u, v } => {
                    store.remove_edge(id, u, v).expect("generated UR is valid");
                    log.append_edge(id, OpType::Ur, u, v);
                }
                _ => unreachable!("explicit churn carries only UA/UR"),
            }
        }
        ops.len()
    }
}

/// `UPDATES_PER_QUERY` UA/UR operations before each of `queries` queries,
/// each valid against the dataset state it lands on: UA adds an absent
/// edge, UR removes a present one, on a uniformly drawn graph.
fn edge_ops(dataset: &[LabeledGraph], queries: usize, seed: u64) -> Vec<Vec<ChangeOp>> {
    let mut graphs = dataset.to_vec();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..queries)
        .map(|_| {
            (0..UPDATES_PER_QUERY)
                .map(|_| {
                    let add = rng.random_range(0..2u32) == 0;
                    loop {
                        let id = rng.random_range(0..graphs.len());
                        let g = &mut graphs[id];
                        let n = g.vertex_count();
                        if add && n >= 2 && g.edge_count() < n * (n - 1) / 2 {
                            let (u, v) = loop {
                                let u = rng.random_range(0..n as u32);
                                let v = rng.random_range(0..n as u32);
                                if u != v && !g.has_edge(u, v) {
                                    break (u, v);
                                }
                            };
                            g.add_edge(u, v).expect("edge chosen absent");
                            return ChangeOp::Ua { id, u, v };
                        }
                        if !add && g.edge_count() > 0 {
                            let edges: Vec<_> = g.edges().collect();
                            let (u, v) = edges[rng.random_range(0..edges.len())];
                            g.remove_edge(u, v).expect("edge chosen present");
                            return ChangeOp::Ur { id, u, v };
                        }
                    }
                })
                .collect()
        })
        .collect()
}
