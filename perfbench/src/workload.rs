//! The workloads and the seeded generator of their inputs.
//!
//! A workload is a fixed network (topology family, size, generator seed and
//! anchors) and its churn, plus the query load. Keeping the network and its
//! churn fixed keeps runs of different seeds comparable. `--seed` draws the
//! query targets, queriers and checked samples. Inputs come from the `scenario` crate's public generators
//! ([`TopologyFamily::build`], [`WorkloadTrace::generate`],
//! `scenario::programs`). The trace size is a function of the workload and
//! `--seconds` only, so one seed gives the same inputs on any host.

use nettrails::NetTrails;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scenario::programs;
use scenario::{ScenarioSpec, TopologyFamily, TraceAction, TraceStep, WorkloadKind, WorkloadTrace};
use simnet::{Topology, TopologyEvent};

/// The workloads, by their `--workload` name.
pub const NAMES: [&str; 3] = ["mesh-churn", "as10k-churn", "as-query-storm"];

/// Default `--seed` per workload, in [`NAMES`] order.
pub const DEFAULT_SEEDS: [u64; 3] = [11, 12, 13];

/// Motion horizon of the mesh, seconds: the replayed motion always lies
/// inside it.
const MESH_HORIZON_SECS: u32 = 120;

/// The seed later claims are re-checked on; never used while tuning.
pub const HELD_OUT_SEED: u64 = 424_242;

/// When the log store captures a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cadence {
    /// At every simulated-second boundary the trace crosses, and at the end.
    PerSimSecond,
    /// At the start of every replay window, and at the end.
    PerWindow,
    /// Once, after the replay.
    AtEnd,
}

/// The query-service parameters of a storm workload.
#[derive(Debug, Clone, Copy)]
pub struct Service {
    /// Tenants the sessions of a wave are offered round-robin across.
    pub tenants: usize,
    /// Global in-flight session budget.
    pub max_in_flight: usize,
    /// Per-tenant queue cap.
    pub queue_cap: usize,
    /// Every `deadline_every`-th session carries a deadline.
    pub deadline_every: usize,
    /// That deadline, simulated milliseconds from enqueue.
    pub deadline_ms: f64,
}

/// One workload at one run length.
#[derive(Debug, Clone)]
pub struct Workload {
    /// `--workload` name.
    pub name: &'static str,
    /// Topology family and size.
    pub family: TopologyFamily,
    /// Seed of the topology generator and the anchor pick.
    pub network_seed: u64,
    /// NDlog source of the protocol(s).
    pub program: String,
    /// Relations the queries target and the correctness check compares.
    pub results: &'static [&'static str],
    /// Anchor destinations the programs route toward.
    pub anchors: usize,
    /// Hop bound of the programs.
    pub max_hops: usize,
    /// Churn steps handed to the trace generator (link events for static
    /// families, simulated seconds of motion for the mesh).
    pub churn_steps: usize,
    /// Sessions per query storm (one storm up front and one after each
    /// eighth of the churn).
    pub storm_sessions: usize,
    /// Storms go through the query service when set, straight to the
    /// platform otherwise.
    pub service: Option<Service>,
    /// Merge concurrent sessions' query frames per destination.
    pub merge_query_frames: bool,
    /// Log-store capture cadence.
    pub cadence: Cadence,
    /// Whether the traced run captures snapshots too. Off where one capture
    /// costs most of the run and the log-store metrics are predicted to
    /// move on another workload.
    pub traced_logstore: bool,
    /// Completed sessions per storm re-run in local mode as a check.
    pub local_checks_per_storm: usize,
    /// Times set-up and convergence are timed per pass, half before the
    /// replay (rounded up) and half after it; `setup_s` and `converge_s`
    /// are their medians.
    pub reps: usize,
    /// Further set-ups timed after the replay, without convergence, where
    /// one set-up is too short to time on its own.
    pub extra_setups: usize,
    /// Times the log store is materialized; `replay_materialize_s` is
    /// their median.
    pub materialize_reps: usize,
}

impl Workload {
    /// The workload `name` sized for a `seconds`-long replay.
    pub fn new(name: &str, seconds: u64) -> Option<Workload> {
        let seconds = seconds.max(1) as usize;
        let w = match name {
            // Movement-driven churn of a 384-node radio mesh under three
            // concurrent protocols: many deltas, firings, aggregate
            // recomputes and disappear cascades per event on few nodes.
            "mesh-churn" => {
                let sim_secs = (3 * seconds / 2).min(MESH_HORIZON_SECS as usize);
                Workload {
                    name: NAMES[0],
                    family: TopologyFamily::MobilityMesh {
                        n: 384,
                        horizon_secs: MESH_HORIZON_SECS,
                    },
                    network_seed: 9108,
                    program: programs::mixed_protocols(3),
                    results: programs::MIXED_RESULTS,
                    anchors: 6,
                    max_hops: 3,
                    churn_steps: sim_secs,
                    storm_sessions: 1000,
                    service: None,
                    merge_query_frames: false,
                    cadence: Cadence::PerSimSecond,
                    traced_logstore: true,
                    local_checks_per_storm: 8,
                    reps: 13,
                    extra_setups: 6,
                    materialize_reps: 3,
                }
            }
            // Isolated link events on a 10^4-node AS graph: little work per
            // event, so per-round overhead that scales with node count shows.
            "as10k-churn" => Workload {
                name: NAMES[1],
                family: TopologyFamily::InternetAs { n: 10_000, m: 2 },
                network_seed: 9203,
                program: programs::anchored_pathvector(3),
                results: programs::PATHVECTOR_RESULTS,
                anchors: 4,
                max_hops: 3,
                churn_steps: 32 * seconds,
                storm_sessions: 32,
                service: None,
                merge_query_frames: false,
                cadence: Cadence::AtEnd,
                // One capture assembles the provenance graph of 10^4 nodes
                // and takes most of the run.
                traced_logstore: false,
                local_checks_per_storm: 8,
                // Convergence of 10^4 nodes takes seconds; three samples.
                reps: 3,
                extra_setups: 0,
                materialize_reps: 3,
            },
            // Waves of multi-tenant sessions through the query service on a
            // converged 10^3-node AS graph, with light churn between waves.
            "as-query-storm" => {
                let storm_sessions = 450 * seconds;
                let tenants = 8;
                Workload {
                    name: NAMES[2],
                    family: TopologyFamily::InternetAs { n: 1000, m: 2 },
                    network_seed: 10102,
                    program: programs::anchored_pathvector(3),
                    results: programs::PATHVECTOR_RESULTS,
                    anchors: 8,
                    max_hops: 3,
                    churn_steps: 400 * seconds,
                    storm_sessions,
                    service: Some(Service {
                        tenants,
                        max_in_flight: 256,
                        queue_cap: storm_sessions.div_ceil(tenants) + 16,
                        deadline_every: 13,
                        deadline_ms: 2000.0,
                    }),
                    merge_query_frames: true,
                    cadence: Cadence::PerWindow,
                    traced_logstore: true,
                    local_checks_per_storm: 16,
                    reps: 11,
                    // One set-up takes about 20 ms.
                    extra_setups: 10,
                    // Nine snapshots of about 0.2 s each.
                    materialize_reps: 5,
                }
            }
            _ => return None,
        };
        Some(w)
    }

    /// The scenario spec the generators take.
    pub fn spec(&self, seed: u64) -> ScenarioSpec {
        ScenarioSpec {
            family: self.family,
            workload: WorkloadKind::Mixed,
            seed,
            anchors: self.anchors,
            max_hops: self.max_hops,
            churn_steps: self.churn_steps,
            storm_queries: self.storm_sessions,
            slice: false,
        }
    }
}

/// Seeded anchor pick: distinct connected nodes from the sorted node list.
pub fn pick_anchors(topology: &Topology, count: usize, seed: u64) -> Vec<String> {
    let mut names: Vec<String> = topology
        .nodes()
        .filter(|n| topology.degree(n) > 0)
        .map(str::to_string)
        .collect();
    names.sort();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xbb67_ae85_84ca_a73b);
    let mut picked = Vec::new();
    while picked.len() < count.min(names.len()) {
        let candidate = names[rng.gen_range(0..names.len())].clone();
        if !picked.contains(&candidate) {
            picked.push(candidate);
        }
    }
    picked.sort();
    picked
}

/// Seed the base facts: every link tuple plus the anchor advertisements.
pub fn seed_facts(nt: &mut NetTrails, anchors: &[String]) {
    nt.seed_links_from_topology();
    for anchor in anchors {
        nt.insert_fact(anchor, programs::anchor_tuple(anchor));
    }
}

/// The generated inputs of one run.
pub struct Inputs {
    /// The topology at time zero.
    pub topology: Topology,
    /// The trace.
    pub trace: WorkloadTrace,
    /// Anchor nodes.
    pub anchors: Vec<String>,
}

/// Generate the network and churn of `workload`, timing the two
/// generators.
pub fn generate(workload: &Workload, tracer: &mut crate::trace::Tracer) -> Inputs {
    let network = workload.network_seed;
    let (topology, _) = tracer.time("scenario.topology_build", || workload.family.build(network));
    let anchors = pick_anchors(&topology, workload.anchors, network);
    // The churn belongs to the network, like the mesh's motion. Drawn from
    // the run seed, it moved the mesh's churn tail by a third and the AS
    // graph's maintenance bytes per event by a sixth between seeds: a few
    // events that cut an anchor's links cost as much as all the others.
    let (trace, _) = tracer.time("scenario.trace_gen", || {
        let churn = WorkloadTrace::generate(&workload.spec(network), &topology)
            .steps
            .into_iter()
            .filter_map(|step| match step.action {
                TraceAction::Churn(event) => Some((step.at_ms, event)),
                TraceAction::QueryStorm { .. } => None,
            })
            .collect();
        interleave(churn, workload.storm_sessions)
    });
    Inputs {
        topology,
        trace,
        anchors,
    }
}

/// Churn with one storm up front and one after each eighth of the events:
/// the layout [`WorkloadTrace::generate`] gives mixed workloads, with twice
/// the storms so that every replay window holds one.
fn interleave(churn: Vec<(u64, TopologyEvent)>, storm: usize) -> WorkloadTrace {
    let storm_at = |at_ms| TraceStep {
        at_ms,
        action: TraceAction::QueryStorm { queries: storm },
    };
    let mut steps = vec![storm_at(0)];
    let stride = churn.len().div_ceil(8).max(1);
    let total = churn.len();
    for (i, (at_ms, event)) in churn.into_iter().enumerate() {
        steps.push(TraceStep {
            at_ms,
            action: TraceAction::Churn(event),
        });
        if (i + 1) % stride == 0 || i + 1 == total {
            steps.push(storm_at(at_ms));
        }
    }
    WorkloadTrace { steps }
}
