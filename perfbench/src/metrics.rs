//! Turning passes into the reported metrics.

use crate::pass::{self, Pass, PassConfig};
use crate::workload::Workload;
use nettrails::platform::PROTOCOL_CATEGORY;
use provenance::QUERY_CATEGORY;

/// Quiescent fixpoint calls timed in the traced pass.
const IDLE_ROUNDS: usize = 20;

/// Set-ups and convergences timed in the untraced and no-provenance passes
/// of a traced run.
const AB_REPS: usize = 5;

/// The metrics of one run, ready to print.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Correctness-check failures.
    pub errors: Vec<String>,
    /// Deterministic digests that must repeat across runs of one seed.
    pub digests: Vec<(&'static str, u64)>,
    attempted: u64,
    failed: u64,
    /// Median host-speed kernel time of the run, milliseconds (0 when the
    /// metrics are not scaled).
    pub host_kernel_ms: f64,
}

impl Report {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Print one `name value unit` line per metric, then the result object
    /// as the last line.
    pub fn print(&self, correct: bool) {
        if self.host_kernel_ms > 0.0 {
            println!(
                "# host kernel median {:.3} ms; wall-clock metrics are scaled to a {} ms kernel",
                self.host_kernel_ms,
                crate::calib::REFERENCE_MS
            );
        }
        let mut fields = Vec::new();
        for &(name, value, unit) in &self.metrics {
            // JSON has no infinity; an unbounded ratio prints as 1e12.
            let value = if value.is_finite() { value } else { 1e12 };
            println!("{name:<40} {value:>18.6} {unit}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
    }
}

fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut v = v.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    v
}

fn pct(v: &[f64], p: f64) -> f64 {
    scenario::percentile(&sorted(v), p)
}

fn per(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Base configuration: every phase on, untraced.
fn full() -> PassConfig {
    PassConfig {
        traced: false,
        provenance: true,
        queries: true,
        logstore: true,
        scratch_check: true,
        idle_rounds: 0,
    }
}

/// The samples at reference host speed: each times its own scale (see
/// `calib`).
fn scaled(samples: &[f64], scale: &[f64]) -> Vec<f64> {
    assert_eq!(samples.len(), scale.len(), "one scale per sample");
    samples.iter().zip(scale).map(|(s, k)| s * k).collect()
}

/// Wall time of every churn event at reference host speed, milliseconds.
fn churn_ms(p: &Pass) -> Vec<f64> {
    p.churn_events
        .iter()
        .map(|c| c.ms * p.segment_scale[c.segment])
        .collect()
}

/// Run the workload once, untraced, and report the end-to-end metrics.
///
/// Every wall-clock sample is scaled to reference host speed by the
/// calibration points around it (see `calib`); the figures are medians,
/// percentiles and rates over all scaled samples. Simulated-clock and byte
/// figures cover the whole replay.
pub fn untraced(w: &Workload, seed: u64) -> Report {
    let p = pass::run(w, seed, full());
    let net = p.after.network.since(&p.before.network);
    let mut r = Report {
        errors: p.errors.clone(),
        digests: vec![("replay", p.digest), ("logstore", p.logstore_digest)],
        attempted: p.attempted,
        failed: p.failed,
        host_kernel_ms: pct(&p.kernel_ms, 50.0),
        ..Report::default()
    };
    r.push(
        "setup_s",
        pct(&scaled(&p.setup_s, &p.setup_scale), 50.0),
        "s",
    );
    r.push(
        "converge_s",
        pct(&scaled(&p.converge_s, &p.converge_scale), 50.0),
        "s",
    );
    let churn = churn_ms(&p);
    r.push("churn_p50_ms", pct(&churn, 50.0), "ms");
    r.push("churn_p95_ms", pct(&churn, 95.0), "ms");
    r.push(
        "churn_events_per_s",
        per(churn.len() as f64, churn.iter().sum::<f64>() / 1000.0),
        "1/s",
    );
    let storm_secs: f64 = p.storms.iter().map(|&(secs, k)| secs * k).sum();
    r.push(
        "query_sessions_per_s",
        per(p.sessions_completed as f64, storm_secs),
        "1/s",
    );
    r.push("query_sim_p50_ms", pct(&p.sim_latency_ms, 50.0), "sim_ms");
    r.push("query_sim_p99_ms", pct(&p.sim_latency_ms, 99.0), "sim_ms");
    r.push(
        "ops_ok_ratio",
        1.0 - per(p.failed as f64, p.attempted as f64),
        "ratio",
    );
    // Bytes per event are heavy-tailed (a failed anchor link re-routes
    // everything), so the median over windows keeps one cascade from
    // deciding the figure.
    let window_bytes: Vec<f64> = (0..pass::WINDOWS)
        .filter_map(|w| {
            let bytes: Vec<u64> = p
                .churn_events
                .iter()
                .filter(|c| c.window == w)
                .map(|c| c.bytes)
                .collect();
            (!bytes.is_empty()).then(|| per(bytes.iter().sum::<u64>() as f64, bytes.len() as f64))
        })
        .collect();
    r.push("maint_bytes_per_churn", pct(&window_bytes, 50.0), "B");
    r.push(
        "query_bytes_per_session",
        per(
            net.category_bytes(QUERY_CATEGORY) as f64,
            p.sessions_completed as f64,
        ),
        "B",
    );
    r.push("peak_rss_mb", p.peak_rss_mb, "MB");
    let captures: Vec<f64> = p.captures.iter().map(|&(ms, k)| ms * k).collect();
    r.push("snapshot_capture_p50_ms", pct(&captures, 50.0), "ms");
    r.push("replay_materialize_s", pct(&p.materialize_s, 50.0), "s");
    r
}

/// Mean seconds per call of a span, or its total per `n`.
fn span_secs(p: &Pass, name: &str) -> (f64, u64, u64) {
    p.spans
        .get(name)
        .map_or((0.0, 0, 0), |t| (t.secs, t.count, t.allocs))
}

fn churn_secs(p: &Pass) -> f64 {
    p.churn_events.iter().map(|c| c.ms).sum::<f64>() / 1000.0
}

fn mean_secs(p: &Pass, name: &str) -> f64 {
    let (secs, count, _) = span_secs(p, name);
    per(secs, count as f64)
}

/// Wall time of the work traced and untraced passes share: a mean set-up
/// and convergence plus the replay's churn and sessions, seconds.
fn shared_secs(p: &Pass) -> f64 {
    let mean = |v: &[f64]| per(v.iter().sum(), v.len() as f64);
    mean(&p.setup_s) + mean(&p.converge_s) + p.platform_s
}

/// Replay the workload traced, untraced and without provenance, and report
/// the per-layer metrics of the traced pass.
pub fn traced(w: &Workload, seed: u64) -> Report {
    // The traced pass runs first so that it, like an untraced run, starts
    // from an empty interner.
    let t = pass::run(
        w,
        seed,
        PassConfig {
            traced: true,
            logstore: w.traced_logstore,
            idle_rounds: IDLE_ROUNDS,
            ..full()
        },
    );
    // The A/B passes feed only the maintenance shares and the tracing
    // overhead, so they time fewer set-ups and convergences.
    let ab = Workload {
        reps: w.reps.min(AB_REPS),
        extra_setups: 0,
        ..w.clone()
    };
    let u = pass::run(
        &ab,
        seed,
        PassConfig {
            logstore: false,
            scratch_check: false,
            ..full()
        },
    );
    let n = pass::run(
        &ab,
        seed,
        PassConfig {
            provenance: false,
            queries: false,
            logstore: false,
            scratch_check: false,
            ..full()
        },
    );
    let mut errors: Vec<String> = [&t, &u, &n]
        .iter()
        .flat_map(|p| p.errors.iter().cloned())
        .collect();
    if t.digest != u.digest {
        errors.push(format!(
            "traced pass digest {:016x} differs from untraced pass {:016x}",
            t.digest, u.digest
        ));
    }
    let mut r = Report {
        errors,
        digests: vec![("replay", t.digest), ("logstore", t.logstore_digest)],
        attempted: t.attempted,
        failed: t.failed,
        ..Report::default()
    };

    let churn = t.churn_events.len() as f64;
    let churn_s = churn_secs(&t);
    let e = {
        let (a, b) = (&t.after.engine, &t.before.engine);
        [
            a.deltas_processed - b.deltas_processed,
            a.rule_firings - b.rule_firings,
            a.join_probes - b.join_probes,
            a.agg_recomputes - b.agg_recomputes,
            a.retractions - b.retractions,
        ]
        .map(|v| v as f64)
    };
    let [deltas, firings, probes, aggs, retractions] = e;
    let net = t.after.network.since(&t.before.network);
    let maint = t.after.maintenance.since(&t.before.maintenance);
    let protocol_msgs = net.category_messages(PROTOCOL_CATEGORY) as f64;
    let sessions = (t.sessions_completed + t.sessions_expired) as f64;
    let q = &t.query_totals;
    let captures = t.captures.len() as f64;
    let (_, _, churn_allocs) = span_secs(&t, "nettrails.apply_topology_event");
    let (_, _, capture_allocs) = span_secs(&t, "logstore.snapshot");

    r.push(
        "scenario.topology_build_s",
        mean_secs(&t, "scenario.topology_build"),
        "s",
    );
    r.push(
        "scenario.trace_gen_s",
        mean_secs(&t, "scenario.trace_gen"),
        "s",
    );
    r.push("runtime.compile_s", mean_secs(&t, "runtime.compile"), "s");
    r.push("nettrails.new_s", mean_secs(&t, "nettrails.new"), "s");
    r.push("nettrails.seed_s", mean_secs(&t, "nettrails.seed"), "s");
    r.push("nettrails.idle_round_ms", pct(&t.idle_round_ms, 50.0), "ms");
    r.push(
        "nettrails.rounds_per_churn",
        per(t.churn.rounds as f64, churn),
        "count",
    );
    r.push(
        "nettrails.churn_ns_per_delta",
        per(churn_s * 1e9, deltas),
        "ns",
    );
    r.push(
        "nettrails.poll_queries_s",
        per(t.poll.0, t.poll.1 as f64),
        "s",
    );
    r.push("runtime.deltas_per_churn", per(deltas, churn), "count");
    r.push("runtime.firings_per_churn", per(firings, churn), "count");
    r.push(
        "runtime.join_probes_per_delta",
        per(probes, deltas),
        "count",
    );
    r.push(
        "runtime.agg_recomputes_per_churn",
        per(aggs, churn),
        "count",
    );
    r.push(
        "runtime.retractions_per_churn",
        per(retractions, churn),
        "count",
    );
    r.push(
        "runtime.allocs_per_delta",
        per(churn_allocs as f64, deltas),
        "count",
    );
    r.push("runtime.stored_tuples", t.stored_tuples as f64, "count");
    r.push(
        "provenance.maint_share_converge",
        1.0 - per(
            pct(&scaled(&n.converge_s, &n.converge_scale), 50.0),
            pct(&scaled(&u.converge_s, &u.converge_scale), 50.0),
        ),
        "ratio",
    );
    r.push(
        "provenance.maint_share_churn",
        1.0 - per(
            churn_ms(&n).iter().sum::<f64>(),
            churn_ms(&u).iter().sum::<f64>(),
        ),
        "ratio",
    );
    r.push(
        "provenance.firings_applied_per_churn",
        per(
            (t.after.firings_applied - t.before.firings_applied) as f64,
            churn,
        ),
        "count",
    );
    r.push(
        "provenance.maint_records_per_churn",
        per(maint.records as f64, churn),
        "count",
    );
    r.push("provenance.store_bytes", t.store_bytes as f64, "B");
    r.push(
        "query.frames_per_session",
        per(q.messages as f64, sessions),
        "count",
    );
    r.push(
        "query.records_per_session",
        per(q.records as f64, sessions),
        "count",
    );
    r.push(
        "query.dict_bytes_per_session",
        per(q.dict_bytes as f64, sessions),
        "B",
    );
    r.push(
        "query.visits_per_session",
        per(q.vertices_visited as f64, sessions),
        "count",
    );
    r.push(
        "query.cache_hit_ratio",
        per(q.cache_hits as f64, q.vertices_visited as f64),
        "ratio",
    );
    r.push(
        "simnet.messages_per_churn",
        per(protocol_msgs, churn),
        "count",
    );
    r.push(
        "simnet.records_per_message",
        per(t.churn_records as f64, protocol_msgs),
        "count",
    );
    r.push(
        "simnet.deliveries_per_churn",
        per(t.churn.deliveries as f64, churn),
        "count",
    );
    let offered = t.sessions_offered as f64;
    r.push(
        "qsvc.enqueue_s",
        per(span_secs(&t, "qsvc.enqueue").0, offered),
        "s",
    );
    r.push(
        "qsvc.pump_s",
        per(span_secs(&t, "qsvc.pump").0, offered),
        "s",
    );
    r.push("qsvc.rejected", t.sessions_rejected as f64, "count");
    r.push("qsvc.expired", t.sessions_expired as f64, "count");
    r.push("qsvc.fairness_ratio", t.fairness, "ratio");
    r.push(
        "logstore.capture_s",
        mean_secs(&t, "nettrails.capture_snapshot"),
        "s",
    );
    r.push("logstore.encode_s", mean_secs(&t, "logstore.encode"), "s");
    r.push("logstore.append_s", mean_secs(&t, "logstore.append"), "s");
    r.push(
        "logstore.upload_bytes_per_capture",
        per(t.uploaded_bytes as f64, captures),
        "B",
    );
    r.push(
        "logstore.allocs_per_capture",
        per(capture_allocs as f64, captures),
        "count",
    );
    r.push("logstore.storage_bytes", t.storage_bytes as f64, "B");
    r.push("logstore.get_s", mean_secs(&t, "logstore.get"), "s");
    r.push(
        "intern.symbols_minted",
        (t.watermarks.1 - t.watermarks.0) as f64,
        "count",
    );
    r.push(
        "trace.overhead_ratio",
        per(shared_secs(&t), shared_secs(&u)),
        "ratio",
    );

    for (name, totals) in &t.spans {
        eprintln!(
            "span {name:<36} n={:<7} total={:>10.4}s self={:>10.4}s allocs={:<10} bytes={}",
            totals.count, totals.secs, totals.self_secs, totals.allocs, totals.alloc_bytes
        );
    }
    r
}
