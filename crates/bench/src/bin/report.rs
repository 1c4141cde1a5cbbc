//! Regenerate every NetTrails experiment table (E1–E8 of DESIGN.md), print
//! them to stdout and write a machine-readable `BENCH_results.json` so the
//! performance trajectory can be compared across revisions.
//!
//! ```text
//! cargo run --release -p nettrails-bench --bin report
//! ```

use logstore::{
    KvBackend, LogBackend, LogStore, MemBackend, Replay, SegmentFileBackend, SnapshotCapturer,
    SystemSnapshot,
};
use nettrails::{NetTrails, NetTrailsConfig, ReportTable};
use nt_runtime::{
    base_rule_sym, CompiledProgram, EngineConfig, EngineStats, Firing, Interner, NodeEngine,
    NodeId, StepOutput, Sym, Tuple, Value,
};
use provenance::{ProvenanceSystem, QueryKind, QueryOptions, QueryResult, TraversalOrder};
use serde::Serialize;
use simnet::{Link, Topology, TopologyEvent};
use std::sync::Arc;
use std::time::Instant;

/// The file the results are written to (in the invocation directory).
const RESULTS_PATH: &str = "BENCH_results.json";

/// Provenance-store footprint and query latency for one converged scenario:
/// the interned (fixed-width ids + one-time dictionary) encoding vs. the
/// string-per-entry encoding it replaced, and the wall-clock of a full
/// lineage query sweep before/after the result cache is warm.
#[derive(Serialize)]
struct ProvenanceStoreReport {
    scenario: String,
    prov_entries: usize,
    rule_execs: usize,
    /// Bytes of provenance state in the interned encoding (records +
    /// one-time dictionary).
    interned_bytes: usize,
    /// The one-time dictionary share of `interned_bytes`.
    dict_bytes: usize,
    /// The same state priced with the old `Addr = String` encoding (every
    /// entry carries its rloc/rule/node strings inline).
    string_encoded_bytes: usize,
    bytes_reduction_factor: f64,
    /// Wall-clock microseconds for a lineage query over every derived tuple,
    /// cold engine (no cache reuse).
    query_wall_us_uncached: u64,
    /// Same sweep repeated with the result cache warm.
    query_wall_us_cached: u64,
}

/// One row of the sharded-maintenance scaling sweep: the same synthetic
/// firing stream applied through the shard router at one shard count.
/// Determinism is part of the measurement: `matches_single_shard` asserts
/// the resulting provenance state is bit-identical to the S=1 run, and the
/// cross-shard exchange counts are exact (stable name-hash routing), so CI
/// can gate on them drifting.
#[derive(Serialize)]
struct ShardedProvenanceReport {
    scenario: String,
    /// Shard count of this run.
    shards: usize,
    /// Rounds the stream was chunked into.
    rounds: usize,
    /// Total firings applied (inserts + retractions).
    firings: u64,
    /// Wall-clock microseconds to maintain the whole stream.
    wall_us: u64,
    /// Cores available to the run (`std::thread::available_parallelism`).
    /// Shard workers only engage when this is > 1, so single-core hosts
    /// measure pure routing/exchange overhead, not parallel speedup.
    host_parallelism: usize,
    /// Shard workers the apply phase could actually engage: `min(shards,
    /// host_parallelism)` on multi-core hosts, 1 (inline apply) on
    /// single-core hosts. CI uses this to decide whether `speedup_vs_single`
    /// is a real scaling measurement or pure overhead accounting.
    workers_used: usize,
    /// Firings applied per round, in round order (identical across the
    /// shard sweep — the stream is fixed before the sweep starts).
    firings_per_round: Vec<u64>,
    /// Cross-shard maintenance batches sealed (0 for S=1).
    cross_shard_batches: u64,
    /// `ruleExec` halves those batches carried.
    cross_shard_records: u64,
    /// Once-per-destination dictionary bytes the exchange shipped.
    cross_shard_dict_bytes: u64,
    /// `wall_us(S=1) / wall_us(S)` within this sweep.
    speedup_vs_single: f64,
    /// True when the final system content digest equals the S=1 run's.
    matches_single_shard: bool,
}

/// One row of the morsel-driven parallel fixpoint sweep: the same
/// fan-out-join generation (≥ 10^5 rule firings from one delta batch)
/// evaluated by a single [`NodeEngine`] at one worker count. Determinism is
/// part of the measurement: `matches_w1` asserts the run's full
/// [`StepOutput`] (firing stream, local changes, outbox batches), final
/// tables and engine counters are bit-identical to the W=1 run, so CI can
/// gate on any divergence.
#[derive(Serialize)]
struct ParallelFixpointReport {
    scenario: String,
    /// `fixpoint_workers` of this run (morsels in flight on the shared pool).
    workers: usize,
    /// Monotonic trigger tasks in the measured generation.
    tasks: u64,
    /// Rule firings the generation committed.
    firings: u64,
    /// Wall-clock microseconds for the measured `run()`.
    wall_us: u64,
    /// Cores available to the run (`std::thread::available_parallelism`).
    /// The pool has one worker per core, so single-core hosts measure
    /// dispatch overhead, not speedup — CI skips the speedup gate there.
    host_parallelism: usize,
    /// Threads in the process-wide worker pool.
    pool_workers: usize,
    /// `wall_us(W=1) / wall_us(W)` within this sweep.
    speedup_vs_w1: f64,
    /// True when the run's outputs, tables and counters equal the W=1 run's.
    matches_w1: bool,
}

/// One row of the distributed query fan-out comparison: the *same* lineage
/// query executed as a message-driven session under both traversal orders,
/// on a fresh converged platform each (so per-destination dictionaries start
/// cold for both). Latency is *measured* — the simulated-clock span of the
/// session — so `bfs_beats_dfs` is a property of the executor's schedule
/// (max over hop chains vs. sum of hops), not of a latency formula; CI gates
/// on it.
#[derive(Serialize)]
struct QueryFanoutReport {
    scenario: String,
    /// Depth of the proof tree the query expanded.
    proof_depth: usize,
    /// Hop records exchanged (identical across traversal orders).
    query_records: u64,
    /// Frames shipped under sequential depth-first traversal.
    dfs_messages: u64,
    /// Frames shipped under concurrent breadth-first fan-out (per-destination
    /// coalescing makes this smaller).
    bfs_messages: u64,
    /// Payload bytes (dictionary headers included) under depth-first.
    dfs_bytes: u64,
    /// Payload bytes under breadth-first.
    bfs_bytes: u64,
    /// First-use dictionary bytes within `bfs_bytes`.
    bfs_dict_bytes: u64,
    /// Measured session latency, depth-first (simulated ms).
    dfs_latency_ms: f64,
    /// Measured session latency, breadth-first (simulated ms).
    bfs_latency_ms: f64,
    /// `dfs_latency_ms / bfs_latency_ms`.
    fanout_speedup: f64,
    /// True when breadth-first measured no worse than depth-first.
    bfs_beats_dfs: bool,
}

/// One row of the incremental-snapshot comparison: the same churned run
/// (converged platform + deterministic link churn) captured once, then fed
/// record-by-record into one log backend through a [`SnapshotCapturer`]
/// (periodic checkpoints + deltas) and compared against the pre-incremental
/// full-upload chain. Correctness is part of the measurement:
/// `matches_full` asserts the materialized snapshot at every capture index
/// is bit-identical to the full chain's, so CI can gate on it per backend.
#[derive(Serialize)]
struct SnapshotReplayReport {
    scenario: String,
    /// Backend name ("mem", "segment_file", "kv").
    backend: String,
    /// Snapshots captured in the run (1 post-fixpoint + 1 per churn event).
    captures: usize,
    /// Checkpoint cadence of the incremental chain (a checkpoint every Nth
    /// capture, deltas in between).
    checkpoint_every: usize,
    /// Checkpoint records the capturer emitted.
    checkpoints: usize,
    /// Delta records the capturer emitted.
    deltas: usize,
    /// Upload bytes of the reference chain (every capture shipped in full).
    full_bytes: u64,
    /// Upload bytes of the incremental chain (checkpoints + deltas).
    incremental_bytes: u64,
    /// Dictionary bytes carried by delta records alone — sublinear after
    /// warmup: once the run stops minting names, every further delta ships
    /// zero dictionary bytes.
    delta_dict_bytes: u64,
    /// Dictionary bytes of the *last* record (a delta after warmup, so CI
    /// gates this to 0).
    tail_dict_bytes: u64,
    /// Backend storage footprint after all appends.
    storage_bytes: usize,
    /// Footprint after a compaction pass (never larger than
    /// `storage_bytes`; answers are unchanged).
    compacted_bytes: usize,
    /// Wall-clock microseconds for a full replay walk (materialize every
    /// snapshot via cached delta application, diff consecutive pairs).
    replay_wall_us: u64,
    /// True when every materialized snapshot equals the full chain's.
    matches_full: bool,
}

/// One scenario-suite row: a seeded topology family converged under a
/// trace-driven workload (link churn, flash-crowd query storms, or mixed
/// concurrent protocols), with throughput and measured (simulated-clock)
/// query latency. `matches_seed` re-derives the topology and trace from the
/// spec's seed and — on slice rows — re-runs the whole scenario and compares
/// replay digests, so CI gates bit-identical replays per PR.
#[derive(Serialize)]
struct ScenarioSuiteReport {
    scenario: String,
    family: String,
    workload: String,
    seed: u64,
    /// True for representative-slice rows (run per-PR); false for the
    /// nightly-only 10^4-node rows.
    slice: bool,
    nodes: usize,
    links: usize,
    anchors: usize,
    converge_rounds: usize,
    converged_tuples: usize,
    converge_wall_ms: f64,
    replay_wall_ms: f64,
    /// Simulated span of the replay.
    sim_ms: f64,
    churn_events: usize,
    queries: usize,
    /// Insertions + deletions during replay (incremental recomputation
    /// volume).
    tuples_touched: usize,
    deliveries: usize,
    /// Trace events (churn + queries) per wall-clock second of replay.
    events_per_sec: f64,
    /// Tuples touched per wall-clock second of replay.
    tuples_per_sec: f64,
    /// Median measured query latency (simulated milliseconds).
    p50_latency_ms: f64,
    /// 99th-percentile measured query latency (simulated milliseconds).
    p99_latency_ms: f64,
    /// Seed determinism: topology and trace digests re-derived from the seed
    /// match the run, and (slice rows) an independent re-run reproduced the
    /// replay digest bit-for-bit.
    matches_seed: bool,
    /// Machine-independent digest of final state + latencies + counters.
    replay_digest: String,
}

/// One multi-tenant query-service scenario: 10^3+ concurrent provenance
/// sessions from ≥8 tenants against a churning AS-graph, run under merged
/// and per-session frame sealing. CI gates the merged/split digest match,
/// the frames-per-destination win, sublinear frame and dictionary growth
/// across the session scales, `p99 >= p50` and the fairness ratio.
#[derive(Serialize)]
struct QueryServiceReport {
    scenario: String,
    seed: u64,
    /// True for representative-slice rows (run per-PR); false for the
    /// nightly-only full-sweep rows.
    slice: bool,
    nodes: usize,
    links: usize,
    tenants: usize,
    /// Sessions offered across all waves (admitted + rejected).
    offered: usize,
    /// Sessions rejected with an explicit `Overloaded` at enqueue.
    rejected: usize,
    /// Sessions that completed with a result.
    completed: usize,
    /// Sessions cancelled at their deadline (queued or in flight).
    expired: usize,
    churn_events: usize,
    /// Query-plane frames shipped with cross-session merging on / off.
    frames_merged: u64,
    frames_split: u64,
    /// Distinct frame destinations observed during the run.
    dests: usize,
    frames_per_dest_merged: f64,
    frames_per_dest_split: f64,
    /// First-use dictionary bytes charged under each sealing mode (equal:
    /// the per-destination dictionary is shared across sessions either way).
    dict_bytes_merged: u64,
    dict_bytes_split: u64,
    /// Median / 99th-percentile completed-session latency (simulated ms).
    p50_latency_ms: f64,
    p99_latency_ms: f64,
    /// Completed sessions per wall-clock second of the merged-mode run.
    sessions_per_sec: f64,
    /// Completed sessions per tenant, sorted by tenant name.
    per_tenant_completed: Vec<(String, u64)>,
    /// max/min completed sessions across tenants (equal offered load).
    fairness_ratio: f64,
    /// Merged-mode per-session outcomes digest equals per-session sealing.
    merged_matches_split: bool,
    /// An independent merged-mode re-run reproduced the digest.
    matches_rerun: bool,
    /// A 2-worker merged-mode run reproduced the digest (or the row did not
    /// request worker verification; see `ServiceScenarioSpec`).
    matches_workers: bool,
    /// Simulated span of the merged-mode run.
    sim_ms: f64,
    converge_wall_ms: f64,
    run_wall_ms: f64,
    /// Machine-independent digest of per-session outcomes + tenant counters.
    service_digest: String,
}

#[derive(Serialize)]
struct BenchResults {
    /// Schema marker for downstream tooling.
    format: String,
    /// Wall-clock milliseconds to build each experiment table.
    experiment_wall_ms: Vec<(String, u64)>,
    /// The experiment tables themselves.
    tables: Vec<ReportTable>,
    /// Provenance-store bytes (interned vs string encoding) and query
    /// wall-clock on the standard scenarios.
    provenance_stores: Vec<ProvenanceStoreReport>,
    /// Sharded provenance maintenance: shard-count sweep (S ∈ {1, 2, 4, 8})
    /// over a synthetic maintenance stream, with wall-clock, cross-shard
    /// exchange counts and the determinism check.
    sharded_provenance: Vec<ShardedProvenanceReport>,
    /// Morsel-driven parallel fixpoint: worker-count sweep (W ∈ {1, 2, 4})
    /// over one large fan-out-join generation, with wall-clock and the
    /// bit-identical-output check. CI gates `matches_w1` on every row and
    /// the W=4 speedup on multi-core hosts.
    parallel_fixpoint: Vec<ParallelFixpointReport>,
    /// Distributed query fan-out: DFS vs BFS message-driven sessions on the
    /// standard scenarios, with measured (simulated-clock) latency. CI gates
    /// `bfs_beats_dfs`.
    query_fanout: Vec<QueryFanoutReport>,
    /// Incremental snapshots through every pluggable log backend: the same
    /// churned run captured as checkpoints + dictionary-diffed deltas vs the
    /// full-upload baseline. CI gates `matches_full` on every row,
    /// `incremental_bytes <= full_bytes` everywhere (strictly below on the
    /// pathvector ladder), compaction never growing the footprint, and the
    /// post-warmup delta dictionary cost being zero.
    snapshot_replay: Vec<SnapshotReplayReport>,
    /// Internet-scale scenario suite: seeded topology families (fat-tree,
    /// AS-graph, small-world, mobility mesh) under trace-driven workloads
    /// (churn, query storms, mixed concurrent protocols), with throughput
    /// and measured p50/p99 query latency. Per-PR runs carry the
    /// representative slice; `NT_SCENARIO_SCALE=full` (nightly) adds the
    /// 10^4-node rows. CI gates `matches_seed` and `p99 >= p50` on every
    /// row.
    scenario_suite: Vec<ScenarioSuiteReport>,
    /// Multi-tenant query service: admission control, deficit-round-robin
    /// fair scheduling and cross-session frame flushing driven at 10^3+
    /// concurrent sessions from ≥8 tenants on a churning AS-graph. CI gates
    /// `merged_matches_split`/`matches_rerun`/`matches_workers`, the
    /// frames-per-destination win and its sublinear growth in session
    /// count, `p99 >= p50` and `fairness_ratio <= 1.5` on every row.
    query_service: Vec<QueryServiceReport>,
}

/// Wire size of a value under the pre-interning encoding (addresses carried
/// their name inline).
fn legacy_value_size(v: &Value) -> usize {
    match v {
        Value::Int(_) | Value::Double(_) | Value::Id(_) => 8,
        Value::Bool(_) | Value::Infinity => 1,
        Value::Str(s) => 4 + s.len(),
        Value::Addr(a) => 4 + a.len(),
        Value::List(l) => 4 + l.iter().map(legacy_value_size).sum::<usize>(),
    }
}

/// Provenance state priced with the old string-per-entry encoding.
fn string_encoded_bytes(nt: &NetTrails) -> usize {
    let mut bytes = 0usize;
    for store in nt.provenance().stores() {
        for (_, entries) in store.iter_prov() {
            bytes += entries
                .iter()
                .map(|e| 8 + 8 + 4 + e.rloc.len())
                .sum::<usize>();
        }
        for exec in store.iter_rule_execs() {
            bytes += 8 + exec.rule.len() + exec.node.len() + 8 * exec.inputs.len();
        }
        for t in store.iter_tuples() {
            bytes += 8 + t.relation.len() + t.values.iter().map(legacy_value_size).sum::<usize>();
        }
    }
    bytes
}

fn provenance_store_report(name: &str, program: &str, topology: Topology) -> ProvenanceStoreReport {
    let mut nt =
        NetTrails::new(program, topology, NetTrailsConfig::default()).expect("program compiles");
    nt.seed_links_from_topology();
    nt.run_to_fixpoint();

    let stats = nt.stats().provenance;
    let string_bytes = string_encoded_bytes(&nt);

    // Lineage sweep over every top-level derived tuple of the scenario.
    let targets: Vec<_> = nt
        .relation("minCost")
        .into_iter()
        .chain(nt.relation("bestPathCost"))
        .collect();
    let sweep = |nt: &mut NetTrails, options: &QueryOptions| -> u64 {
        let start = Instant::now();
        for (node, tuple) in &targets {
            nt.query(tuple)
                .from_node(node.as_str())
                .kind(QueryKind::Lineage)
                .options(options.clone())
                .run();
        }
        start.elapsed().as_micros() as u64
    };
    nt.clear_query_cache();
    // Cold baseline: caching off, so overlapping lineages are re-traversed.
    let query_wall_us_uncached = sweep(&mut nt, &QueryOptions::default());
    // Warm: one cached sweep to populate, a second to measure the hits.
    let cached_opts = QueryOptions::cached();
    sweep(&mut nt, &cached_opts);
    let query_wall_us_cached = sweep(&mut nt, &cached_opts);

    ProvenanceStoreReport {
        scenario: name.to_string(),
        prov_entries: stats.prov_entries,
        rule_execs: stats.rule_execs,
        interned_bytes: stats.bytes,
        dict_bytes: stats.dict_bytes,
        string_encoded_bytes: string_bytes,
        bytes_reduction_factor: string_bytes as f64 / stats.bytes.max(1) as f64,
        query_wall_us_uncached,
        query_wall_us_cached,
    }
}

/// A deterministic synthetic maintenance workload: `width` base tuples over
/// `nodes` nodes and `layers - 1` derived layers. Post-localization, most
/// rule heads are homed at the executing node, so three quarters of the
/// derived firings here are exec-local and every fourth is homed one node
/// over (crossing nodes — and, at S > 1, usually shards). A churn phase then
/// retracts and re-derives every third derived firing. Chunked into rounds
/// the way the platform feeds the maintenance engine.
fn maintenance_rounds(
    node_names: &[String],
    layers: usize,
    width: usize,
    round_size: usize,
) -> Vec<Vec<Firing>> {
    let node = |i: usize| NodeId::new(&node_names[i % node_names.len()]);
    let tuple = |layer: usize, i: usize| {
        Tuple::new(
            format!("m{layer}"),
            vec![Value::addr(node(i)), Value::Int(i as i64)],
        )
    };
    let mut inserts = Vec::new();
    for i in 0..width {
        inserts.push(Firing {
            rule: base_rule_sym(),
            node: node(i),
            head: tuple(0, i),
            head_home: node(i),
            inputs: vec![],
            input_tuples: vec![],
            insert: true,
        });
    }
    let mut churnable = Vec::new();
    for layer in 1..layers {
        for i in 0..width {
            let a = tuple(layer - 1, i);
            let b = tuple(layer - 1, (i + 1) % width);
            let home = if i % 4 == 0 { node(i + 1) } else { node(i) };
            let firing = Firing {
                rule: Sym::new(&format!("r{layer}")),
                node: node(i),
                head: tuple(layer, i),
                head_home: home,
                inputs: vec![a.id(), b.id()],
                input_tuples: vec![a, b],
                insert: true,
            };
            if i % 3 == 0 {
                churnable.push(firing.clone());
            }
            inserts.push(firing);
        }
    }
    let mut rounds: Vec<Vec<Firing>> = inserts
        .chunks(round_size)
        .map(|chunk| chunk.to_vec())
        .collect();
    // Churn: retract every third derived firing in one round, re-derive in
    // the next (retractions ship without input tuple contents).
    rounds.push(
        churnable
            .iter()
            .map(|f| {
                let mut r = f.clone();
                r.insert = false;
                r.input_tuples.clear();
                r
            })
            .collect(),
    );
    rounds.push(churnable);
    rounds
}

/// Sweep the shard router over S ∈ {1, 2, 4, 8} on one synthetic
/// maintenance stream, measuring wall-clock and cross-shard exchange, and
/// checking every run against the S=1 content digest.
fn sharded_provenance_sweep(
    scenario: &str,
    nodes: usize,
    layers: usize,
    width: usize,
    round_size: usize,
) -> Vec<ShardedProvenanceReport> {
    let node_names: Vec<String> = (0..nodes).map(|i| format!("s{i:02}")).collect();
    let rounds = maintenance_rounds(&node_names, layers, width, round_size);
    let firings_per_round: Vec<u64> = rounds.iter().map(|r| r.len() as u64).collect();
    let firings: u64 = firings_per_round.iter().sum();
    let host_parallelism = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut reports = Vec::new();
    let mut single_digest = 0u64;
    let mut single_wall = 0u64;
    for shards in [1usize, 2, 4, 8] {
        let mut system = ProvenanceSystem::with_shards(node_names.iter(), shards);
        let start = Instant::now();
        for round in &rounds {
            system.apply_round(round);
        }
        let wall_us = start.elapsed().as_micros() as u64;
        let digest = system.content_digest();
        if shards == 1 {
            single_digest = digest;
            single_wall = wall_us;
        }
        let stats = system.shard_stats();
        reports.push(ShardedProvenanceReport {
            scenario: scenario.to_string(),
            shards,
            rounds: rounds.len(),
            firings,
            wall_us,
            host_parallelism,
            workers_used: if host_parallelism > 1 {
                shards.min(host_parallelism)
            } else {
                1
            },
            firings_per_round: firings_per_round.clone(),
            cross_shard_batches: stats.cross_shard_batches,
            cross_shard_records: stats.cross_shard_records,
            cross_shard_dict_bytes: stats.cross_shard_dict_bytes,
            speedup_vs_single: single_wall as f64 / wall_us.max(1) as f64,
            matches_single_shard: digest == single_digest,
        });
    }
    reports
}

/// Sweep the engine's fixpoint worker count over one large fan-out-join
/// generation. The workload is a two-atom join `out(A,C) :- e(A,B), f(B,C)`
/// with `keys * fanout` pre-loaded `f` facts and `probes` `e` facts inserted
/// as a single delta batch, so one generation carries `probes` trigger tasks
/// and commits `probes * fanout` firings — large enough that morsel dispatch
/// is the dominant cost being measured, well past the engine's inline
/// threshold. Every run is checked bit-for-bit against the W=1 run.
fn parallel_fixpoint_sweep(
    scenario: &str,
    probes: usize,
    keys: usize,
    fanout: usize,
) -> Vec<ParallelFixpointReport> {
    let program = Arc::new(
        CompiledProgram::from_source("r1 out(@S,A,C) :- e(@S,A,B), f(@S,B,C).")
            .expect("program compiles"),
    );
    let host_parallelism = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut reports = Vec::new();
    let mut baseline: Option<(StepOutput, Vec<String>, EngineStats)> = None;
    let mut w1_wall = 0u64;
    for workers in [1usize, 2, 4] {
        let mut engine = NodeEngine::new(
            program.clone(),
            EngineConfig::new("n1").with_fixpoint_workers(workers),
        );
        // Pre-load the probe side; its generation joins against an empty `e`
        // and commits nothing, leaving the tables converged.
        for b in 0..keys {
            for c in 0..fanout {
                engine.insert_base(Tuple::new(
                    "f",
                    vec![
                        Value::addr("n1"),
                        Value::Int(b as i64),
                        Value::Int(c as i64),
                    ],
                ));
            }
        }
        engine.run();
        // The measured generation: every `e` insert is one trigger task
        // joining `fanout` stored `f` facts.
        for a in 0..probes {
            engine.insert_base(Tuple::new(
                "e",
                vec![
                    Value::addr("n1"),
                    Value::Int(a as i64),
                    Value::Int((a % keys) as i64),
                ],
            ));
        }
        let start = Instant::now();
        let out = engine.run();
        let wall_us = start.elapsed().as_micros() as u64;
        let firings = out.firings.len() as u64;
        let mut table_dump: Vec<String> = engine
            .database()
            .tables()
            .flat_map(|t| t.iter().map(|s| format!("{:?}", s.to_stored())))
            .collect();
        table_dump.sort();
        let stats = engine.stats().clone();
        let matches_w1 = match &baseline {
            None => {
                w1_wall = wall_us;
                baseline = Some((out, table_dump, stats));
                true
            }
            Some((b_out, b_dump, b_stats)) => {
                *b_out == out && *b_dump == table_dump && *b_stats == stats
            }
        };
        reports.push(ParallelFixpointReport {
            scenario: scenario.to_string(),
            workers,
            tasks: probes as u64,
            firings,
            wall_us,
            host_parallelism,
            pool_workers: provenance::pool::workers(),
            speedup_vs_w1: w1_wall as f64 / wall_us.max(1) as f64,
            matches_w1,
        });
    }
    reports
}

/// Run the deepest lineage query of a scenario as a distributed session
/// under one traversal order, on a fresh converged platform (cold
/// per-destination dictionaries), and report the proof depth plus the
/// session stats.
fn fanout_run(
    program: &str,
    topology: &Topology,
    traversal: TraversalOrder,
) -> (usize, provenance::QueryStats) {
    let mut nt = NetTrails::new(program, topology.clone(), NetTrailsConfig::default())
        .expect("program compiles");
    nt.seed_links_from_topology();
    nt.run_to_fixpoint();
    let (node, target) = nt
        .relation("minCost")
        .into_iter()
        .chain(nt.relation("bestPathCost"))
        .max_by_key(|(_, t)| t.values[2].as_int())
        .expect("a derived tuple to explain");
    let (result, stats) = nt
        .query(&target)
        .from_node(&node)
        .kind(QueryKind::Lineage)
        .traversal(traversal)
        .run();
    let QueryResult::Lineage(tree) = result else {
        unreachable!("lineage query returns a tree");
    };
    (tree.depth(), stats)
}

fn query_fanout_report(name: &str, program: &str, topology: Topology) -> QueryFanoutReport {
    let (depth, dfs) = fanout_run(program, &topology, TraversalOrder::DepthFirst);
    let (bfs_depth, bfs) = fanout_run(program, &topology, TraversalOrder::BreadthFirst);
    assert_eq!(
        depth, bfs_depth,
        "traversal order must not change the proof"
    );
    assert_eq!(dfs.records, bfs.records, "same hop records either way");
    QueryFanoutReport {
        scenario: name.to_string(),
        proof_depth: depth,
        query_records: dfs.records,
        dfs_messages: dfs.messages,
        bfs_messages: bfs.messages,
        dfs_bytes: dfs.bytes,
        bfs_bytes: bfs.bytes,
        bfs_dict_bytes: bfs.dict_bytes,
        dfs_latency_ms: dfs.latency_ms,
        bfs_latency_ms: bfs.latency_ms,
        fanout_speedup: dfs.latency_ms / bfs.latency_ms.max(f64::EPSILON),
        bfs_beats_dfs: bfs.latency_ms <= dfs.latency_ms,
    }
}

/// Converge a platform, churn it deterministically and capture a canonical
/// snapshot (plus the interner watermark at capture time) after the fixpoint
/// and after every event — the one run every backend's chain is built from.
fn churned_captures(program: &str, topology: Topology) -> Vec<(SystemSnapshot, usize)> {
    let mut nt =
        NetTrails::new(program, topology, NetTrailsConfig::default()).expect("program compiles");
    nt.seed_links_from_topology();
    nt.run_to_fixpoint();

    // A fixed down / cost-change / restore schedule over the topology's
    // undirected links, derived from the topology itself so every scenario
    // gets real routing churn without hard-coded node names.
    let mut pairs: Vec<(String, String, i64)> = nt
        .network()
        .topology()
        .links()
        .filter(|l| l.from < l.to)
        .map(|l| (l.from.clone(), l.to.clone(), l.cost))
        .collect();
    pairs.sort();
    let mut events = Vec::new();
    for i in 0..9usize {
        let (a, b, cost) = pairs[i % pairs.len()].clone();
        events.push(match i % 3 {
            0 => TopologyEvent::LinkDown { a, b },
            1 => TopologyEvent::CostChange {
                a,
                b,
                cost: cost + 1 + i as i64,
            },
            _ => {
                // Restore the link taken down two events earlier.
                let (a, b, cost) = pairs[(i - 2) % pairs.len()].clone();
                TopologyEvent::LinkUp(Link::new(&a, &b, cost))
            }
        });
    }

    let mut captures = vec![(nt.capture_snapshot(), Interner::watermark())];
    for event in &events {
        nt.apply_topology_event(event);
        captures.push((nt.capture_snapshot(), Interner::watermark()));
    }
    captures
}

/// Feed the same captured run into every log backend as an incremental
/// checkpoint + delta chain and compare against the full-upload baseline.
fn snapshot_replay_sweep(
    scenario: &str,
    program: &str,
    topology: Topology,
    checkpoint_every: usize,
) -> Vec<SnapshotReplayReport> {
    let captures = churned_captures(program, topology);

    // The reference: every capture uploaded in full (the pre-incremental
    // upload path, kept as `LogStore::add`).
    let mut full = LogStore::new();
    for (snap, _) in &captures {
        full.add(snap.clone());
    }
    let full_bytes = full.uploaded_bytes();

    let seg_dir =
        std::env::temp_dir().join(format!("ntl-bench-seg-{}-{scenario}", std::process::id()));
    let _ = std::fs::remove_dir_all(&seg_dir);
    let backends: Vec<Box<dyn LogBackend>> = vec![
        Box::new(MemBackend::new()),
        Box::new(SegmentFileBackend::open(&seg_dir).expect("segment dir opens")),
        Box::new(KvBackend::new()),
    ];

    let mut rows = Vec::new();
    for backend in backends {
        let mut store = LogStore::with_backend(backend);
        let mut capturer = SnapshotCapturer::new(checkpoint_every);
        for (snap, watermark) in &captures {
            store.append_record(capturer.capture_with_watermark(snap.clone(), *watermark));
        }
        let matches_full = captures
            .iter()
            .enumerate()
            .all(|(i, (snap, _))| store.get(i).as_ref() == Some(snap));
        let tail_dict_bytes = store
            .record(store.len() - 1)
            .map(|r| r.dict_bytes())
            .unwrap_or(0) as u64;
        let storage_bytes = store.storage_bytes();

        let start = Instant::now();
        let mut replay = Replay::new(&store);
        while replay.step().is_some() {}
        let replay_wall_us = start.elapsed().as_micros() as u64;

        let compacted_bytes = store.compact().bytes_after;
        rows.push(SnapshotReplayReport {
            scenario: scenario.to_string(),
            backend: store.backend_name().to_string(),
            captures: captures.len(),
            checkpoint_every,
            checkpoints: store.checkpoint_count(),
            deltas: store.delta_count(),
            full_bytes,
            incremental_bytes: store.uploaded_bytes(),
            delta_dict_bytes: store.delta_dict_bytes(),
            tail_dict_bytes,
            storage_bytes,
            compacted_bytes,
            replay_wall_us,
            matches_full,
        });
    }
    let _ = std::fs::remove_dir_all(&seg_dir);
    rows
}

/// Run one scenario spec and fold it into a report row. Slice rows are run
/// twice — the second run must reproduce the replay digest bit-for-bit for
/// `matches_seed` to hold, which is the per-PR determinism gate.
fn scenario_suite_row(spec: &scenario::ScenarioSpec) -> ScenarioSuiteReport {
    let outcome = scenario::run_scenario(spec);
    let mut matches_seed = scenario::verify_seed(spec, &outcome);
    if spec.slice {
        let rerun = scenario::run_scenario(spec);
        matches_seed &= rerun.replay_digest == outcome.replay_digest;
    }
    ScenarioSuiteReport {
        scenario: outcome.name.clone(),
        family: outcome.family.clone(),
        workload: outcome.workload.clone(),
        seed: spec.seed,
        slice: spec.slice,
        nodes: outcome.nodes,
        links: outcome.links,
        anchors: outcome.anchors,
        converge_rounds: outcome.converge_rounds,
        converged_tuples: outcome.converged_tuples,
        converge_wall_ms: outcome.converge_wall_ms,
        replay_wall_ms: outcome.replay_wall_ms,
        sim_ms: outcome.sim_ms,
        churn_events: outcome.churn_events,
        queries: outcome.queries,
        tuples_touched: outcome.tuples_touched,
        deliveries: outcome.deliveries,
        events_per_sec: outcome.events_per_sec(),
        tuples_per_sec: outcome.tuples_per_sec(),
        p50_latency_ms: outcome.p50_ms(),
        p99_latency_ms: outcome.p99_ms(),
        matches_seed,
        replay_digest: format!("{:016x}", outcome.replay_digest),
    }
}

/// Run one query-service spec (merged + split + verification re-runs happen
/// inside [`scenario::run_service_scenario`]) and fold it into a report row.
fn query_service_row(spec: &scenario::ServiceScenarioSpec) -> QueryServiceReport {
    let outcome = scenario::run_service_scenario(spec);
    QueryServiceReport {
        scenario: outcome.name.clone(),
        seed: spec.seed,
        slice: spec.slice,
        nodes: outcome.nodes,
        links: outcome.links,
        tenants: outcome.tenants,
        offered: outcome.offered,
        rejected: outcome.rejected,
        completed: outcome.completed,
        expired: outcome.expired,
        churn_events: outcome.churn_events,
        frames_merged: outcome.frames_merged,
        frames_split: outcome.frames_split,
        dests: outcome.dests,
        frames_per_dest_merged: outcome.frames_per_dest_merged,
        frames_per_dest_split: outcome.frames_per_dest_split,
        dict_bytes_merged: outcome.dict_bytes_merged,
        dict_bytes_split: outcome.dict_bytes_split,
        p50_latency_ms: outcome.p50_ms(),
        p99_latency_ms: outcome.p99_ms(),
        sessions_per_sec: outcome.sessions_per_sec(),
        per_tenant_completed: outcome.per_tenant_completed.clone(),
        fairness_ratio: outcome.fairness_ratio,
        merged_matches_split: outcome.merged_matches_split,
        matches_rerun: outcome.matches_rerun,
        matches_workers: outcome.matches_workers,
        sim_ms: outcome.sim_ms,
        converge_wall_ms: outcome.converge_wall_ms,
        run_wall_ms: outcome.run_wall_ms,
        service_digest: format!("{:016x}", outcome.service_digest),
    }
}

fn main() {
    println!("NetTrails experiment report (see DESIGN.md section 2 and EXPERIMENTS.md)\n");
    println!(
        "E1 (architecture / end-to-end flow) is exercised by `cargo run --example quickstart`.\n"
    );

    let mut tables = Vec::new();
    let mut experiment_wall_ms = Vec::new();
    for build in nettrails_bench::experiment_builders() {
        let start = Instant::now();
        let table = build();
        experiment_wall_ms.push((table.title.clone(), start.elapsed().as_millis() as u64));
        println!("{table}");
        tables.push(table);
    }

    let provenance_stores = vec![
        provenance_store_report(
            "pathvector_ladder4",
            protocols::pathvector::PROGRAM,
            Topology::ladder(4),
        ),
        provenance_store_report(
            "mincost_ladder4",
            protocols::mincost::PROGRAM,
            Topology::ladder(4),
        ),
    ];
    println!("\nProvenance store footprint (interned vs string encoding) and query sweep:");
    for r in &provenance_stores {
        println!(
            "  {:20} interned={:>8}B (dict {:>5}B) strings={:>8}B ({:.2}x smaller) \
             lineage sweep cold={:>7}us warm={:>7}us",
            r.scenario,
            r.interned_bytes,
            r.dict_bytes,
            r.string_encoded_bytes,
            r.bytes_reduction_factor,
            r.query_wall_us_uncached,
            r.query_wall_us_cached,
        );
    }

    let sharded_provenance = sharded_provenance_sweep("synthetic_64n_4l", 64, 4, 4096, 2048);
    println!("\nSharded provenance maintenance (S-way shard router, synthetic stream):");
    for r in &sharded_provenance {
        println!(
            "  {:16} S={:1} wall={:>8}us ({:>4.2}x vs S=1, {} core(s)) batches={:>4} \
             records={:>6} dict={:>6}B identical={}",
            r.scenario,
            r.shards,
            r.wall_us,
            r.speedup_vs_single,
            r.host_parallelism,
            r.cross_shard_batches,
            r.cross_shard_records,
            r.cross_shard_dict_bytes,
            r.matches_single_shard,
        );
    }

    let parallel_fixpoint = parallel_fixpoint_sweep("fanout_join_2048x64", 2048, 16, 64);
    println!("\nMorsel-driven parallel fixpoint (W-way worker sweep, fan-out join):");
    for r in &parallel_fixpoint {
        println!(
            "  {:20} W={:1} tasks={:>5} firings={:>7} wall={:>8}us ({:>4.2}x vs W=1, \
             {} core(s), pool={}) identical={}",
            r.scenario,
            r.workers,
            r.tasks,
            r.firings,
            r.wall_us,
            r.speedup_vs_w1,
            r.host_parallelism,
            r.pool_workers,
            r.matches_w1,
        );
    }

    let query_fanout = vec![
        query_fanout_report(
            "pathvector_ladder4",
            protocols::pathvector::PROGRAM,
            Topology::ladder(4),
        ),
        query_fanout_report(
            "mincost_ladder4",
            protocols::mincost::PROGRAM,
            Topology::ladder(4),
        ),
    ];
    println!("\nDistributed query fan-out (measured on the simulated clock):");
    for r in &query_fanout {
        println!(
            "  {:20} depth={:2} records={:>4} msgs dfs={:>4} bfs={:>4} bytes dfs={:>7} \
             bfs={:>7} (dict {:>5}) latency dfs={:>8.1}ms bfs={:>8.1}ms ({:.2}x) beats={}",
            r.scenario,
            r.proof_depth,
            r.query_records,
            r.dfs_messages,
            r.bfs_messages,
            r.dfs_bytes,
            r.bfs_bytes,
            r.bfs_dict_bytes,
            r.dfs_latency_ms,
            r.bfs_latency_ms,
            r.fanout_speedup,
            r.bfs_beats_dfs,
        );
    }

    let mut snapshot_replay = snapshot_replay_sweep(
        "pathvector_ladder6",
        protocols::pathvector::PROGRAM,
        Topology::ladder(6),
        4,
    );
    snapshot_replay.extend(snapshot_replay_sweep(
        "mincost_ladder6",
        protocols::mincost::PROGRAM,
        Topology::ladder(6),
        4,
    ));
    println!("\nIncremental snapshots (checkpoint + delta chains vs full uploads, per backend):");
    for r in &snapshot_replay {
        println!(
            "  {:20} [{:12}] {:2} captures ({}C+{}Δ, every {}) full={:>8}B incr={:>8}B \
             dictΔ={:>5}B tail={:>2}B stored={:>8}B compacted={:>8}B replay={:>6}us identical={}",
            r.scenario,
            r.backend,
            r.captures,
            r.checkpoints,
            r.deltas,
            r.checkpoint_every,
            r.full_bytes,
            r.incremental_bytes,
            r.delta_dict_bytes,
            r.tail_dict_bytes,
            r.storage_bytes,
            r.compacted_bytes,
            r.replay_wall_us,
            r.matches_full,
        );
    }

    let scenario_scale = match std::env::var("NT_SCENARIO_SCALE").as_deref() {
        Ok("full") => scenario::SuiteScale::Full,
        _ => scenario::SuiteScale::Slice,
    };
    let scenario_suite: Vec<ScenarioSuiteReport> = scenario::suite(scenario_scale)
        .iter()
        .map(scenario_suite_row)
        .collect();
    println!(
        "\nScenario suite ({} scale; NT_SCENARIO_SCALE=full for the nightly sweep):",
        if scenario_scale == scenario::SuiteScale::Full {
            "full"
        } else {
            "slice"
        }
    );
    for r in &scenario_suite {
        println!(
            "  {:28} nodes={:>6} links={:>6} churn={:>5} queries={:>5} \
             events/s={:>8.0} tuples/s={:>9.0} p50={:>5.1}ms p99={:>5.1}ms \
             seeded={} digest={}",
            r.scenario,
            r.nodes,
            r.links,
            r.churn_events,
            r.queries,
            r.events_per_sec,
            r.tuples_per_sec,
            r.p50_latency_ms,
            r.p99_latency_ms,
            r.matches_seed,
            r.replay_digest,
        );
    }

    let query_service: Vec<QueryServiceReport> = scenario::service_suite(scenario_scale)
        .iter()
        .map(query_service_row)
        .collect();
    println!(
        "\nQuery service ({} scale; merged vs per-session frame sealing):",
        if scenario_scale == scenario::SuiteScale::Full {
            "full"
        } else {
            "slice"
        }
    );
    for r in &query_service {
        println!(
            "  {:28} tenants={:>2} offered={:>5} done={:>5} rej={:>4} exp={:>4} \
             frames/dest={:>7.1} (split {:>7.1}) dict={:>7}B p50={:>6.2}ms p99={:>6.2}ms \
             eq={} digest={}",
            r.scenario,
            r.tenants,
            r.offered,
            r.completed,
            r.rejected,
            r.expired,
            r.frames_per_dest_merged,
            r.frames_per_dest_split,
            r.dict_bytes_merged,
            r.p50_latency_ms,
            r.p99_latency_ms,
            r.merged_matches_split && r.matches_rerun && r.matches_workers,
            r.service_digest,
        );
        // Per-tenant fairness: under equal offered load the max/min
        // completed-session ratio is gated at <= 1.5 by the schema checker.
        println!(
            "    {:8} {:>9} {:>10}   fairness max/min = {:.3}",
            "tenant", "completed", "share", r.fairness_ratio
        );
        let total: u64 = r.per_tenant_completed.iter().map(|(_, c)| c).sum();
        for (tenant, completed) in &r.per_tenant_completed {
            println!(
                "    {:8} {:>9} {:>9.1}%",
                tenant,
                completed,
                if total == 0 {
                    0.0
                } else {
                    100.0 * *completed as f64 / total as f64
                }
            );
        }
    }

    let results = BenchResults {
        format: "nettrails-bench-results/v11".to_string(),
        experiment_wall_ms,
        tables,
        provenance_stores,
        sharded_provenance,
        parallel_fixpoint,
        query_fanout,
        snapshot_replay,
        scenario_suite,
        query_service,
    };
    let json = serde_json::to_string_pretty(&results).expect("results serialize");
    std::fs::write(RESULTS_PATH, &json).expect("write BENCH_results.json");
    println!("\nwrote {RESULTS_PATH} ({} bytes)", json.len());
}
