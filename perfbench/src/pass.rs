//! One pass over a workload: set up, converge, replay the trace, log
//! snapshots, check the outputs.
//!
//! Load generation (query targets, queriers, requests) reads a state
//! snapshot taken before each timed span opens, and counters are read only
//! at phase boundaries, never inside a span. `NetTrails::stats()` and
//! `NetTrails::relation()` are called only outside spans.

use crate::calib;
use crate::trace::{Totals, Tracer};
use crate::workload::{self, Cadence, Workload};
use logstore::{LogStore, SnapshotCapturer};
use nettrails::platform::PROTOCOL_CATEGORY;
use nettrails::{NetTrails, NetTrailsConfig, RunReport};
use nt_runtime::{CompiledProgram, EngineStats, Interner, Tuple};
use provenance::{
    QueryKind, QueryMode, QueryResult, QuerySpec, QueryStats, TraversalOrder, MAINTENANCE_CATEGORY,
    QUERY_CATEGORY,
};
use qsvc::{QueryService, ServiceConfig, TenantStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scenario::{Fnv, TraceAction};
use simnet::{SimTime, TrafficStats};
use std::collections::{BTreeMap, HashMap};

/// What a pass does besides set-up, convergence and churn.
#[derive(Debug, Clone, Copy)]
pub struct PassConfig {
    /// Keep spans (the traced pass).
    pub traced: bool,
    /// Capture provenance (`false` for the maintenance A/B pass).
    pub provenance: bool,
    /// Run the query storms.
    pub queries: bool,
    /// Capture snapshots into the log store and materialize them back.
    pub logstore: bool,
    /// Compare the result relations with a from-scratch rebuild.
    pub scratch_check: bool,
    /// Quiescent `run_to_fixpoint()` calls timed after convergence.
    pub idle_rounds: usize,
}

/// Counters read at a phase boundary.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Engine counters summed over nodes.
    pub engine: EngineStats,
    /// Provenance maintenance firings applied (traced passes only).
    pub firings_applied: u64,
    /// Protocol and query traffic.
    pub network: TrafficStats,
    /// Provenance maintenance traffic.
    pub maintenance: TrafficStats,
}

impl Counters {
    fn read(nt: &NetTrails, with_provenance_stats: bool) -> Counters {
        let mut engine = EngineStats::default();
        for node in nt.nodes() {
            let s = nt.engine(node.as_str()).expect("listed node").stats();
            engine.deltas_processed += s.deltas_processed;
            engine.rule_firings += s.rule_firings;
            engine.retractions += s.retractions;
            engine.tuples_sent += s.tuples_sent;
            engine.bytes_sent += s.bytes_sent;
            engine.dict_bytes_sent += s.dict_bytes_sent;
            engine.join_probes += s.join_probes;
            engine.agg_recomputes += s.agg_recomputes;
        }
        Counters {
            engine,
            firings_applied: if with_provenance_stats {
                nt.provenance().stats().firings_applied
            } else {
                0
            },
            network: nt.network().stats().clone(),
            maintenance: nt.provenance().maintenance_traffic().clone(),
        }
    }
}

/// The replay is cut into this many windows of consecutive trace steps:
/// the per-window log-store cadence and byte figures use them.
pub const WINDOWS: usize = 8;

/// The replay is also cut into this many calibration segments. Churn
/// events carry the segment they were taken in and are scaled by the
/// kernel times at its ends (see `calib`).
pub const SEGMENTS: usize = 64;

/// One timed churn event.
#[derive(Debug, Clone, Copy)]
pub struct ChurnSample {
    /// Replay window.
    pub window: usize,
    /// Calibration segment.
    pub segment: usize,
    /// Wall time of `apply_topology_event`, milliseconds.
    pub ms: f64,
    /// Simulated protocol + maintenance bytes it shipped.
    pub bytes: u64,
}

/// Everything one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Wall time of each first fixpoint, seconds.
    pub converge_s: Vec<f64>,
    /// Quiescent fixpoint calls, milliseconds each.
    pub idle_round_ms: Vec<f64>,
    /// Every churn event, timed.
    pub churn_events: Vec<ChurnSample>,
    /// Run reports of the churn events, summed.
    pub churn: RunReport,
    /// Network records shipped during churn events.
    pub churn_records: u64,
    /// Sessions offered.
    pub sessions_offered: u64,
    /// Sessions completed with a result.
    pub sessions_completed: u64,
    /// Sessions rejected `Overloaded`.
    pub sessions_rejected: u64,
    /// Sessions cancelled by their deadline.
    pub sessions_expired: u64,
    /// Wall time of each storm, submitting and draining its sessions
    /// (seconds), and its host-speed scale from calibration points taken
    /// right before and after it.
    pub storms: Vec<(f64, f64)>,
    /// Simulated latency of each completed session, milliseconds.
    pub sim_latency_ms: Vec<f64>,
    /// Per-session stats summed over completed and expired sessions.
    pub query_totals: QueryStats,
    /// Time inside `poll_queries` and the sessions it drained.
    pub poll: (f64, u64),
    /// Query-service fairness ratio (1 without the service).
    pub fairness: f64,
    /// Wall time (ms) of each snapshot capture + encode + append, and its
    /// host-speed scale from calibration points taken right before and
    /// after it.
    pub captures: Vec<(f64, f64)>,
    /// Bytes uploaded to the log store.
    pub uploaded_bytes: u64,
    /// Log-store footprint after the run.
    pub storage_bytes: u64,
    /// Wall time of each materialization of every logged snapshot at
    /// reference host speed, seconds: every `LogStore::get` is scaled by
    /// the calibration points around it.
    pub materialize_s: Vec<f64>,
    /// Counters after convergence and after the replay.
    pub before: Counters,
    /// See `before`.
    pub after: Counters,
    /// Interner length at the start and end of the pass.
    pub watermarks: (usize, usize),
    /// Tuples stored across all nodes after the replay (traced only).
    pub stored_tuples: usize,
    /// Provenance store bytes after the replay (traced only).
    pub store_bytes: usize,
    /// `VmHWM` after the replay, before the checks, in MiB.
    pub peak_rss_mb: f64,
    /// Digest of every deterministic output.
    pub digest: u64,
    /// Log-store digest (uploaded and stored bytes, snapshot shapes).
    pub logstore_digest: u64,
    /// Operations attempted: churn events, sessions, snapshot captures.
    pub attempted: u64,
    /// Operations failed (rejected, expired, stalled, or failing a check).
    pub failed: u64,
    /// Correctness-check failures, described.
    pub errors: Vec<String>,
    /// Churn and session time of the replay, seconds.
    pub platform_s: f64,
    /// Span totals (traced passes only).
    pub spans: BTreeMap<&'static str, Totals>,
    /// Every host-speed kernel time taken (see `calib`), milliseconds.
    pub kernel_ms: Vec<f64>,
    /// Host-speed scale of each set-up repetition.
    pub setup_scale: Vec<f64>,
    /// Host-speed scale of each convergence.
    pub converge_scale: Vec<f64>,
    /// Host-speed scale of each calibration segment of the replay.
    pub segment_scale: Vec<f64>,
}

impl Pass {
    /// Take a host-speed calibration point.
    fn calibrate(&mut self) -> f64 {
        let ms = calib::point();
        self.kernel_ms.push(ms);
        ms
    }
}

/// Every fourth logged snapshot is a full checkpoint, the rest deltas.
const CHECKPOINT_EVERY: usize = 4;

const KINDS: [QueryKind; 4] = [
    QueryKind::Lineage,
    QueryKind::BaseTuples,
    QueryKind::ParticipatingNodes,
    QueryKind::DerivationCount,
];

/// Sorted `node tuple` rows of every result relation.
fn dump(nt: &NetTrails, relations: &[&str]) -> Vec<Vec<String>> {
    relations
        .iter()
        .map(|rel| {
            let mut rows: Vec<String> = nt
                .relation(rel)
                .into_iter()
                .map(|(addr, tuple)| format!("{} {}", addr.as_str(), tuple))
                .collect();
            rows.sort();
            rows
        })
        .collect()
}

/// Peak resident set (`VmHWM`) in MiB; 0 where `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn hash_stats(h: &mut Fnv, s: &QueryStats) {
    for v in [
        s.messages,
        s.records,
        s.bytes,
        s.dict_bytes,
        s.vertices_visited,
        s.cache_hits,
    ] {
        h.write_u64(v);
    }
    h.write_f64(s.latency_ms);
}

fn add_stats(sum: &mut QueryStats, s: &QueryStats) {
    sum.messages += s.messages;
    sum.records += s.records;
    sum.bytes += s.bytes;
    sum.dict_bytes += s.dict_bytes;
    sum.vertices_visited += s.vertices_visited;
    sum.cache_hits += s.cache_hits;
    sum.latency_ms += s.latency_ms;
}

/// The replay state shared by the step handlers.
struct Replay<'a> {
    w: &'a Workload,
    cfg: PassConfig,
    nt: NetTrails,
    tracer: Tracer,
    pass: Pass,
    digest: Fnv,
    queriers: Vec<String>,
    rng: StdRng,
    service: Option<QueryService>,
    capturer: SnapshotCapturer,
    store: LogStore,
    /// (simulated time, tuples, upload bytes) of each capture.
    captured: Vec<(SimTime, usize, usize)>,
    /// The last storm's session specs, for the direct `poll_queries` replay.
    last_storm: Vec<QuerySpec>,
    /// Window of the step being replayed.
    window: usize,
    /// Calibration segment of the step being replayed.
    segment: usize,
}

/// Generate the inputs, then build and seed a platform, timing it.
fn set_up(
    w: &Workload,
    config: &NetTrailsConfig,
    tracer: &mut Tracer,
    pass: &mut Pass,
) -> (NetTrails, workload::Inputs) {
    let before = pass.calibrate();
    let open = tracer.open("setup");
    let inputs = workload::generate(w, tracer);
    let topology = inputs.topology.clone();
    let (nt, _) = tracer.time("nettrails.new", || {
        NetTrails::new(&w.program, topology, config.clone())
    });
    let mut nt = nt.expect("workload program compiles");
    tracer.time("nettrails.seed", || {
        workload::seed_facts(&mut nt, &inputs.anchors)
    });
    let setup = tracer.close(open);
    let after = pass.calibrate();
    pass.setup_scale.push(calib::scale(before, after));
    pass.setup_s.push(setup);
    (nt, inputs)
}

/// Set up a platform, then converge it, timing both.
fn build(
    w: &Workload,
    config: &NetTrailsConfig,
    tracer: &mut Tracer,
    pass: &mut Pass,
) -> (NetTrails, workload::Inputs, RunReport) {
    let (mut nt, inputs) = set_up(w, config, tracer, pass);
    let (compiled, _) = tracer.time("runtime.compile", || {
        CompiledProgram::from_source(&w.program)
    });
    compiled.expect("workload program compiles");
    let before = pass.calibrate();
    let (report, converge) = tracer.time("nettrails.converge", || nt.run_to_fixpoint());
    let after = pass.calibrate();
    pass.converge_scale.push(calib::scale(before, after));
    pass.converge_s.push(converge);
    (nt, inputs, report)
}

/// Run one pass of `w` with inputs from `seed`.
pub fn run(w: &Workload, seed: u64, cfg: PassConfig) -> Pass {
    let mut tracer = Tracer::new(cfg.traced);
    let watermark0 = Interner::watermark();
    let config = NetTrailsConfig {
        capture_provenance: cfg.provenance,
        merge_query_frames: w.merge_query_frames,
        ..NetTrailsConfig::default()
    };

    // Host speed drifts over seconds, so set-up and convergence are timed
    // both before the replay and after it; the last platform built before
    // the replay is the one replayed.
    let mut pass = Pass {
        fairness: 1.0,
        ..Pass::default()
    };
    let mut built = None;
    for _ in 0..w.reps.div_ceil(2) {
        // Drop the previous repetition's platform before building the next.
        drop(built.take());
        built = Some(build(w, &config, &mut tracer, &mut pass));
    }
    let (mut nt, inputs, report) = built.expect("set-up ran");
    let mut digest = Fnv::default();
    digest.write_u64(report.rounds as u64);
    for _ in 0..cfg.idle_rounds {
        let (idle, secs) = tracer.time("nettrails.idle_round", || nt.run_to_fixpoint());
        assert_eq!(idle.rounds, 0, "a converged platform is quiescent");
        pass.idle_round_ms.push(secs * 1000.0);
    }
    pass.before = Counters::read(&nt, cfg.traced);

    let mut queriers: Vec<String> = nt.nodes().iter().map(|a| a.as_str().to_string()).collect();
    queriers.sort();
    let mut r = Replay {
        w,
        cfg,
        nt,
        tracer,
        pass,
        digest,
        queriers,
        rng: StdRng::seed_from_u64(seed ^ 0x6a09_e667_f3bc_c908),
        service: w.service.map(|s| {
            QueryService::new(ServiceConfig {
                max_in_flight: s.max_in_flight,
                queue_cap: s.queue_cap,
                quantum: 1,
            })
        }),
        capturer: SnapshotCapturer::new(CHECKPOINT_EVERY),
        store: LogStore::new(),
        captured: Vec::new(),
        last_storm: Vec::new(),
        window: 0,
        segment: 0,
    };
    r.replay(&inputs.trace);
    let (mut pass, mut tracer) = r.finish(&inputs.anchors, watermark0);
    for _ in 0..w.reps / 2 {
        build(w, &config, &mut tracer, &mut pass);
    }
    for _ in 0..w.extra_setups {
        set_up(w, &config, &mut tracer, &mut pass);
    }
    pass.spans = tracer.summary();
    pass
}

impl Replay<'_> {
    fn replay(&mut self, trace: &scenario::WorkloadTrace) {
        let t0 = self.nt.now();
        let mut second = 0;
        // Kernel time at the start of each segment, and at the end.
        let mut boundaries = vec![self.pass.calibrate(); SEGMENTS + 1];
        for (i, step) in trace.steps.iter().enumerate() {
            let window = i * WINDOWS / trace.steps.len();
            let segment = i * SEGMENTS / trace.steps.len();
            if segment > self.segment {
                let ms = self.pass.calibrate();
                boundaries[self.segment + 1..=segment].fill(ms);
                self.segment = segment;
            }
            let capture = match self.w.cadence {
                Cadence::PerSimSecond => step.at_ms / 1000 > second,
                Cadence::PerWindow => window > self.window,
                Cadence::AtEnd => false,
            };
            self.window = window;
            second = step.at_ms / 1000;
            if capture && self.cfg.logstore {
                self.capture();
            }
            self.nt
                .advance_clock_to(t0 + SimTime::from_millis(step.at_ms));
            match &step.action {
                TraceAction::Churn(event) => self.churn(event),
                TraceAction::QueryStorm { queries } if self.cfg.queries => {
                    if self.service.is_some() {
                        self.service_storm(*queries);
                    } else {
                        self.direct_storm(*queries);
                    }
                }
                TraceAction::QueryStorm { .. } => {}
            }
        }
        if self.cfg.logstore {
            self.capture();
        }
        boundaries[SEGMENTS] = self.pass.calibrate();
        self.pass.segment_scale = calib::scales(&boundaries);
    }

    fn churn(&mut self, event: &simnet::TopologyEvent) {
        let shipped = |nt: &NetTrails| {
            let net = nt.network().stats();
            (
                net.records,
                net.category_bytes(PROTOCOL_CATEGORY) + nt.provenance().maintenance_traffic().bytes,
            )
        };
        let (records, bytes) = shipped(&self.nt);
        let (report, secs) = self.tracer.time("nettrails.apply_topology_event", || {
            self.nt.apply_topology_event(event)
        });
        let (records_after, bytes_after) = shipped(&self.nt);
        self.pass.churn_records += records_after - records;
        self.pass.churn_events.push(ChurnSample {
            window: self.window,
            segment: self.segment,
            ms: secs * 1000.0,
            bytes: bytes_after - bytes,
        });
        self.pass.platform_s += secs;
        self.pass.attempted += 1;
        let c = &mut self.pass.churn;
        c.rounds += report.rounds;
        c.deliveries += report.deliveries;
        c.insertions += report.insertions;
        c.deletions += report.deletions;
        c.misrouted += report.misrouted;
        c.truncated |= report.truncated;
        if report.truncated || report.misrouted > 0 {
            self.pass.failed += 1;
            self.pass
                .errors
                .push(format!("churn event {event:?} truncated or misrouted"));
        }
        for v in [
            report.rounds,
            report.deliveries,
            report.insertions,
            report.deletions,
        ] {
            self.digest.write_u64(v as u64);
        }
    }

    /// Draw `count` session specs from the current result relations: a
    /// state snapshot taken before any span opens, sorted by display form so
    /// the draw never depends on interner ids.
    fn draw_sessions(&mut self, count: usize) -> Vec<QuerySpec> {
        let mut candidates: Vec<(String, Tuple)> = Vec::new();
        for rel in self.w.results {
            for (addr, tuple) in self.nt.relation(rel) {
                candidates.push((format!("{} {}", addr.as_str(), tuple), tuple));
            }
        }
        candidates.sort_by(|a, b| a.0.cmp(&b.0));
        if candidates.is_empty() {
            self.pass.errors.push("no result tuples to query".into());
            return Vec::new();
        }
        (0..count)
            .map(|q| {
                let target = &candidates[self.rng.gen_range(0..candidates.len())].1;
                let querier = &self.queriers[self.rng.gen_range(0..self.queriers.len())];
                let traversal = if q % 2 == 0 {
                    TraversalOrder::BreadthFirst
                } else {
                    TraversalOrder::DepthFirst
                };
                self.nt
                    .query(target)
                    .from_node(querier)
                    .kind(KINDS[q % KINDS.len()])
                    .traversal(traversal)
                    .cached()
                    .spec()
                    .clone()
            })
            .collect()
    }

    /// Record one finished session: completed, or failed (expired/stalled).
    fn finish_session(&mut self, stats: &QueryStats, completed: bool) {
        add_stats(&mut self.pass.query_totals, stats);
        hash_stats(&mut self.digest, stats);
        if completed {
            self.pass.sessions_completed += 1;
            self.pass.sim_latency_ms.push(stats.latency_ms);
        } else {
            self.pass.failed += 1;
        }
    }

    /// Drive `poll_queries` until the executor is idle; returns false on a
    /// stall.
    fn drain(&mut self) -> bool {
        while !self.nt.query_executor().idle() {
            let (progressed, secs) = self
                .tracer
                .time("nettrails.poll_queries", || self.nt.poll_queries());
            self.pass.poll.0 += secs;
            if !progressed {
                return false;
            }
        }
        true
    }

    /// A storm submitted straight to the platform.
    fn direct_storm(&mut self, count: usize) {
        let specs = self.draw_sessions(count);
        self.pass.sessions_offered += specs.len() as u64;
        self.pass.attempted += specs.len() as u64;
        let before = self.pass.calibrate();
        let open = self.tracer.open("storm");
        let mut handles = Vec::with_capacity(specs.len());
        for spec in &specs {
            let (h, _) = self.tracer.time("nettrails.submit_query", || {
                self.nt.submit_query(spec.clone())
            });
            handles.push(h);
        }
        let drained = self.drain();
        let finished: Vec<_> = handles.iter().map(|&h| self.nt.try_wait_query(h)).collect();
        let secs = self.tracer.close(open);
        let after = self.pass.calibrate();
        self.pass.storms.push((secs, calib::scale(before, after)));
        self.pass.platform_s += secs;
        self.pass.poll.1 += specs.len() as u64;
        if !drained {
            self.pass.errors.push("query sessions stalled".into());
        }
        let mut done = Vec::new();
        for (spec, result) in specs.iter().zip(finished) {
            match result {
                Some((result, stats)) => {
                    self.finish_session(&stats, true);
                    done.push((spec.clone(), result));
                }
                None => self.finish_session(&QueryStats::default(), false),
            }
        }
        self.check_local(&done);
    }

    /// A storm offered through the query service, round-robin over tenants.
    fn service_storm(&mut self, count: usize) {
        let s = self.w.service.expect("service storm");
        let specs = self.draw_sessions(count);
        let mut requests = Vec::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            let tenant = format!("t{:02}", i % s.tenants);
            let mut builder = self.nt.service(&tenant).query_vid(spec.vid);
            builder = builder
                .from_node(spec.querier.as_str())
                .kind(spec.kind)
                .options(spec.options.clone());
            if s.deadline_every > 0 && i % s.deadline_every == s.deadline_every - 1 {
                builder = builder.deadline_ms(s.deadline_ms);
            }
            requests.push(builder.request());
        }
        self.pass.sessions_offered += requests.len() as u64;
        self.pass.attempted += requests.len() as u64;
        let mut svc = self.service.take().expect("service storm");
        let mut tickets: HashMap<u64, QuerySpec> = HashMap::new();
        let before = self.pass.calibrate();
        let open = self.tracer.open("storm");
        for request in requests {
            let spec = request.spec.clone();
            let (admitted, _) = self
                .tracer
                .time("qsvc.enqueue", || svc.enqueue(&self.nt, request));
            match admitted {
                Ok(ticket) => {
                    tickets.insert(ticket, spec);
                }
                Err(_) => {
                    self.pass.sessions_rejected += 1;
                    self.pass.failed += 1;
                }
            }
        }
        let mut stalled = false;
        while !svc.idle() {
            let (progressed, _) = self.tracer.time("qsvc.pump", || svc.pump(&mut self.nt));
            if !progressed {
                stalled = true;
                break;
            }
        }
        let completions = svc.take_completions();
        let secs = self.tracer.close(open);
        let after = self.pass.calibrate();
        self.pass.storms.push((secs, calib::scale(before, after)));
        self.pass.platform_s += secs;
        if stalled {
            self.pass.errors.push("query service stalled".into());
        }
        let mut done = Vec::new();
        for c in completions {
            self.digest.write(c.tenant.as_bytes());
            self.digest.write_u64(c.ticket);
            if c.expired {
                self.pass.sessions_expired += 1;
            }
            self.finish_session(&c.stats, !c.expired);
            if let Some(result) = c.result {
                done.push((tickets[&c.ticket].clone(), result));
            }
        }
        self.pass.fairness = svc.fairness_ratio();
        for (tenant, stats) in svc.tenant_stats() {
            hash_tenant(&mut self.digest, &tenant, &stats);
        }
        self.last_storm = specs;
        self.service = Some(svc);
        self.check_local(&done);
    }

    /// Re-run a seeded sample of completed sessions in local mode; each
    /// must return the distributed result.
    fn check_local(&mut self, done: &[(QuerySpec, QueryResult)]) {
        for _ in 0..self.w.local_checks_per_storm.min(done.len()) {
            let (spec, distributed) = &done[self.rng.gen_range(0..done.len())];
            let local = QuerySpec {
                mode: QueryMode::Local,
                ..spec.clone()
            };
            let handle = self.nt.submit_query(local);
            match self.nt.try_wait_query(handle) {
                Some((result, _)) if &result == distributed => {}
                _ => {
                    self.pass.failed += 1;
                    self.pass
                        .errors
                        .push(format!("local re-run of {spec:?} disagrees"));
                }
            }
        }
    }

    fn capture(&mut self) {
        let before = self.pass.calibrate();
        let open = self.tracer.open("logstore.snapshot");
        let (snapshot, _) = self
            .tracer
            .time("nettrails.capture_snapshot", || self.nt.capture_snapshot());
        self.captured.push((
            snapshot.time,
            snapshot.tuple_count(),
            snapshot.upload_bytes(),
        ));
        let (record, _) = self
            .tracer
            .time("logstore.encode", || self.capturer.capture(snapshot));
        self.tracer
            .time("logstore.append", || self.store.append_record(record));
        let secs = self.tracer.close(open);
        let after = self.pass.calibrate();
        self.pass
            .captures
            .push((secs * 1000.0, calib::scale(before, after)));
        self.pass.attempted += 1;
    }

    /// Materialize every logged snapshot, a few times, and check the last
    /// round against the captures.
    fn materialize(&mut self) {
        let mut shapes = Vec::with_capacity(self.store.len());
        let mut last = None;
        let mut before = self.pass.calibrate();
        for _ in 0..self.w.materialize_reps {
            shapes.clear();
            let mut total = 0.0;
            for i in 0..self.store.len() {
                let (snapshot, secs) = self.tracer.time("logstore.get", || self.store.get(i));
                let after = self.pass.calibrate();
                total += secs * calib::scale(before, after);
                before = after;
                shapes.push(
                    snapshot
                        .as_ref()
                        .map(|s| (s.time, s.tuple_count(), s.upload_bytes())),
                );
                last = snapshot;
            }
            self.pass.materialize_s.push(total);
        }
        let mut h = Fnv::default();
        for (i, (expected, got)) in self.captured.iter().zip(&shapes).enumerate() {
            h.write_u64(expected.1 as u64);
            h.write_u64(expected.2 as u64);
            if got.as_ref() != Some(expected) {
                self.pass.failed += 1;
                self.pass
                    .errors
                    .push(format!("logged snapshot {i} materializes differently"));
            }
        }
        if last.as_ref() != self.capturer.last() {
            self.pass.failed += 1;
            self.pass
                .errors
                .push("last logged snapshot differs from its capture".into());
        }
        self.pass.uploaded_bytes = self.store.uploaded_bytes();
        self.pass.storage_bytes = self.store.storage_bytes() as u64;
        h.write_u64(self.pass.uploaded_bytes);
        h.write_u64(self.pass.storage_bytes);
        self.pass.logstore_digest = h.finish();
    }

    /// Read the closing counters, run the checks and hand back the pass;
    /// the replayed platform is dropped on return.
    fn finish(mut self, anchors: &[String], watermark0: usize) -> (Pass, Tracer) {
        self.pass.after = Counters::read(&self.nt, self.cfg.traced);
        // Traffic totals enter the digest before anything else can ship.
        let traffic = [
            &self.pass.after.network.since(&self.pass.before.network),
            &self
                .pass
                .after
                .maintenance
                .since(&self.pass.before.maintenance),
        ];
        for t in traffic {
            for category in [PROTOCOL_CATEGORY, MAINTENANCE_CATEGORY, QUERY_CATEGORY] {
                self.digest.write_u64(t.category_messages(category));
                self.digest.write_u64(t.category_bytes(category));
            }
        }
        if self.cfg.traced && !self.last_storm.is_empty() {
            // The service calls `poll_queries` internally; time it on a
            // direct replay of the last wave's sessions.
            let specs = std::mem::take(&mut self.last_storm);
            self.pass.poll = (0.0, specs.len() as u64);
            let handles: Vec<_> = specs.into_iter().map(|s| self.nt.submit_query(s)).collect();
            if !self.drain() {
                self.pass
                    .errors
                    .push("direct session replay stalled".into());
            }
            for h in handles {
                let _ = self.nt.try_wait_query(h);
            }
        }
        if self.cfg.logstore {
            self.materialize();
        }
        if self.cfg.traced {
            let stats = self.nt.stats();
            self.pass.stored_tuples = stats.stored_tuples;
            self.pass.store_bytes = stats.provenance.bytes;
        }
        self.pass.peak_rss_mb = peak_rss_mb();
        self.pass.watermarks = (watermark0, Interner::watermark());

        let rows = dump(&self.nt, self.w.results);
        for row in rows.iter().flatten() {
            self.digest.write(row.as_bytes());
            self.digest.write(b"\n");
        }
        for &l in &self.pass.sim_latency_ms {
            self.digest.write_f64(l);
        }
        self.pass.digest = self.digest.finish();
        if self.cfg.scratch_check {
            self.scratch_check(anchors, &rows);
        }
        (self.pass, self.tracer)
    }

    /// The replayed result relations must equal a from-scratch rebuild over
    /// the final topology. `recompute_from_scratch` re-seeds the link facts
    /// only, so the anchors are seeded again before its second fixpoint.
    fn scratch_check(&mut self, anchors: &[String], rows: &[Vec<String>]) {
        let (mut fresh, _) = self
            .nt
            .recompute_from_scratch()
            .expect("workload program compiles");
        for anchor in anchors {
            fresh.insert_fact(anchor, scenario::programs::anchor_tuple(anchor));
        }
        fresh.run_to_fixpoint();
        for (rel, (got, want)) in self
            .w
            .results
            .iter()
            .zip(rows.iter().zip(dump(&fresh, self.w.results)))
        {
            if *got != want {
                self.pass.failed += 1;
                self.pass.errors.push(format!(
                    "{rel}: replay has {} rows, scratch rebuild {}",
                    got.len(),
                    want.len()
                ));
            }
        }
    }
}

fn hash_tenant(h: &mut Fnv, tenant: &str, s: &TenantStats) {
    h.write(tenant.as_bytes());
    for v in [s.offered, s.rejected, s.admitted, s.completed, s.expired] {
        h.write_u64(v);
    }
}
