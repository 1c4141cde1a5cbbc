#!/usr/bin/env python3
"""Assert that a freshly generated BENCH_results.json has the same schema as
the committed one, and gate the sharded-provenance sweep against regressions.

Usage: check_bench_schema.py <committed.json> <fresh.json>

Values (timings, byte counts) are expected to differ between machines; the
*shape* — the format marker, the set of keys at every level, and the element
shape of each array — must not drift silently. CI regenerates the report and
fails when the schema of the regenerated file differs from the committed one.

On top of the schema check, the `sharded_provenance` section carries hard
regression gates:

* every fresh row must be deterministic (`matches_single_shard` true);
* cross-shard batch/record counts must equal the committed baseline exactly
  (routing is a stable name hash — any drift is a behavior change);
* the fresh shard-4 wall-clock must stay within 1.5x of the committed
  baseline, compared as the *sharding overhead ratio* (S=4 wall / S=1 wall
  of the same run) so the gate is independent of how fast the measuring
  machine is and of its core count — raw microseconds are not comparable
  between a laptop baseline and a CI runner. A small absolute slack keeps
  scheduler noise on trivial workloads from tripping the gate.

Wall-clock gates on parallel sweeps are only meaningful where parallelism is
physically possible: when the fresh run reports `host_parallelism == 1`, the
sharded wall gate is demoted to a warning (the row still must be
deterministic and its exchange counts exact).

The `parallel_fixpoint` section (format v6) gates the morsel-driven parallel
fixpoint of the node engine:

* the sweep must cover W in {1, 2, 4} and every row's measured generation
  must carry at least 10^5 firings (otherwise it measures dispatch, not
  evaluation);
* every row must be bit-identical to the W=1 run (`matches_w1` true) — the
  determinism contract is absolute, on any host;
* on hosts with >= 4 cores, the W=4 run must reach a 1.2x speedup over W=1;
  single-core hosts skip that gate with a notice.

The `query_fanout` section carries its own gates. Its latencies are
*simulated-clock* measurements of message-driven query sessions, so they are
deterministic and machine-independent:

* breadth-first fan-out must measure no slower than depth-first on every
  row, and strictly faster whenever the proof is multi-hop (depth > 2) —
  this is the executor genuinely overlapping hops, not a latency formula;
* records must match between the traversals (the fan-out changes the
  schedule, never the work), and breadth-first must not ship more frames.

The `snapshot_replay` section (format v8) gates the incremental
checkpoint + delta snapshot chains against the full-upload baseline, across
every pluggable log backend:

* every row must be bit-identical to the full chain (`matches_full` true) —
  materializing any capture through its delta chain reproduces exactly the
  snapshot a full upload would have stored, on every backend;
* every scenario must cover all three backends (mem, segment_file, kv) —
  the comparison is only meaningful when the same records flow through each;
* `incremental_bytes <= full_bytes` on every row, and strictly below on the
  pathvector ladder rows (the headline scenario — equality there means the
  deltas saved nothing);
* compaction must never grow the footprint
  (`compacted_bytes <= storage_bytes`);
* `tail_dict_bytes` must be 0 — after warmup the run mints no new names, so
  the last delta's dictionary diff must be empty (the sublinear-dictionary
  property).

The `scenario_suite` section (format v9) gates the internet-scale scenario
suite — seeded topology generators replayed under trace-driven workloads:

* every required topology family (fat_tree, internet_as, small_world, mesh)
  and every workload kind (churn, storm, mixed) must appear among the
  slice rows — a missing scenario kind fails the check outright;
* the static slice families (fat_tree, internet_as, small_world) must each
  carry at least one >= 10^3-node row, the ISSUE's scale floor for the
  per-PR gate;
* every row must be seed-deterministic (`matches_seed` true): topology and
  trace digests re-derive from the seed, and slice rows additionally re-ran
  the whole replay and reproduced the digest bit-for-bit;
* every row must have measured latency (`queries >= 1`) with
  `p99_latency_ms >= p50_latency_ms` — the latencies are simulated-clock
  measurements of real query sessions, so a p99 below p50 means the
  percentile bookkeeping broke;
* throughput must be positive (`events_per_sec > 0`);
* the replay digest of every slice row present in both files must match the
  committed baseline exactly — the digests are machine-independent, so any
  drift is a behavior change that must ship with a regenerated
  BENCH_results.json.

The `query_service` section (format v10) gates the multi-tenant provenance
query service — admission control, deficit-round-robin fairness and
cross-session frame flushing:

* the slice must carry a >= 10^3-session row from >= 8 tenants — the scale
  at which merged sealing's sublinear frame growth is observable;
* merged sealing must be observationally invisible on every row:
  `merged_matches_split` (per-session results, visits, cache hits, records,
  frames and measured latency identical to per-session sealing),
  `matches_rerun` (an independent re-run reproduces the digest) and
  `matches_workers` (worker count does not change the digest);
* merged frames-per-destination must beat per-session sealing on every
  >= 10^3-session row, and across the slice's session scales both
  frames/destination and first-use dictionary bytes must grow *sublinearly*
  in offered sessions (the ratio of the big row to the small row stays
  under the session-count ratio);
* the per-destination dictionary is shared across sessions under both
  sealing modes, so `dict_bytes_merged == dict_bytes_split` exactly;
* `p99_latency_ms >= p50_latency_ms` (simulated-clock session latencies);
* under equal offered load the per-tenant fairness ratio (max/min completed
  sessions) must stay <= 1.5 — the deficit-round-robin scheduler's bound;
* the service digest of every slice row present in both files must match
  the committed baseline exactly, same rule as the scenario suite.
"""

import json
import sys


def shape(value, depth=0):
    """A structural fingerprint: dict key-sets, array element shapes, scalar
    type names. Arrays are summarized by the union of their element shapes so
    row counts don't matter."""
    if isinstance(value, dict):
        return {k: shape(v, depth + 1) for k, v in sorted(value.items())}
    if isinstance(value, list):
        shapes = []
        for v in value:
            s = shape(v, depth + 1)
            if s not in shapes:
                shapes.append(s)
        return ["array", shapes]
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    if value is None:
        return "null"
    return "string"


# Sections every BENCH_results.json must carry, with the keys each of their
# rows must have. A report missing one of these (or a row missing a key)
# fails even when committed and fresh agree — the schema requirement is
# absolute, not merely drift-free.
REQUIRED_SECTIONS = {
    "sharded_provenance": {
        "scenario",
        "shards",
        "rounds",
        "firings",
        "wall_us",
        "host_parallelism",
        "workers_used",
        "firings_per_round",
        "cross_shard_batches",
        "cross_shard_records",
        "cross_shard_dict_bytes",
        "speedup_vs_single",
        "matches_single_shard",
    },
    "parallel_fixpoint": {
        "scenario",
        "workers",
        "tasks",
        "firings",
        "wall_us",
        "host_parallelism",
        "pool_workers",
        "speedup_vs_w1",
        "matches_w1",
    },
    "query_fanout": {
        "scenario",
        "proof_depth",
        "query_records",
        "dfs_messages",
        "bfs_messages",
        "dfs_bytes",
        "bfs_bytes",
        "bfs_dict_bytes",
        "dfs_latency_ms",
        "bfs_latency_ms",
        "fanout_speedup",
        "bfs_beats_dfs",
    },
    "snapshot_replay": {
        "scenario",
        "backend",
        "captures",
        "checkpoint_every",
        "checkpoints",
        "deltas",
        "full_bytes",
        "incremental_bytes",
        "delta_dict_bytes",
        "tail_dict_bytes",
        "storage_bytes",
        "compacted_bytes",
        "replay_wall_us",
        "matches_full",
    },
    "scenario_suite": {
        "scenario",
        "family",
        "workload",
        "seed",
        "slice",
        "nodes",
        "links",
        "anchors",
        "converge_rounds",
        "converged_tuples",
        "converge_wall_ms",
        "replay_wall_ms",
        "sim_ms",
        "churn_events",
        "queries",
        "tuples_touched",
        "deliveries",
        "events_per_sec",
        "tuples_per_sec",
        "p50_latency_ms",
        "p99_latency_ms",
        "matches_seed",
        "replay_digest",
    },
    "query_service": {
        "scenario",
        "seed",
        "slice",
        "nodes",
        "links",
        "tenants",
        "offered",
        "rejected",
        "completed",
        "expired",
        "churn_events",
        "frames_merged",
        "frames_split",
        "dests",
        "frames_per_dest_merged",
        "frames_per_dest_split",
        "dict_bytes_merged",
        "dict_bytes_split",
        "p50_latency_ms",
        "p99_latency_ms",
        "sessions_per_sec",
        "per_tenant_completed",
        "fairness_ratio",
        "merged_matches_split",
        "matches_rerun",
        "matches_workers",
        "sim_ms",
        "converge_wall_ms",
        "run_wall_ms",
        "service_digest",
    },
}

# The format marker every report must carry (bumped with the schema).
REQUIRED_FORMAT = "nettrails-bench-results/v11"

# The log backends every snapshot_replay scenario must cover.
REQUIRED_LOG_BACKENDS = {"mem", "segment_file", "kv"}

# The shard-count sweep every report must cover.
REQUIRED_SHARD_SWEEP = [1, 2, 4, 8]

# The fixpoint worker sweep every report must cover, the firing floor that
# makes its wall-clocks meaningful, and the W=4 speedup gate (enforced only
# on hosts that can physically run 4 workers).
REQUIRED_WORKER_SWEEP = [1, 2, 4]
MIN_FIXPOINT_FIRINGS = 100_000
FIXPOINT_SPEEDUP_WORKERS = 4
FIXPOINT_MIN_SPEEDUP = 1.2

# Regression tolerance for the shard-4 wall-clock: fail when the fresh run's
# sharding overhead ratio (S=4 wall / S=1 wall, same run and machine) is more
# than WALL_TOLERANCE times the committed baseline's ratio AND the fresh S=4
# wall is more than WALL_SLACK_US above its own S=1 wall (the slack keeps
# scheduler noise on fast runs from tripping the gate).
WALL_TOLERANCE = 1.5
WALL_SLACK_US = 5000
GATED_SHARDS = 4
BASELINE_SHARDS = 1

# The query-service slice must drive at least this many concurrent sessions
# from at least this many tenants, and the deficit-round-robin scheduler must
# keep the max/min completed-sessions ratio under this bound.
QUERY_SERVICE_SESSION_FLOOR = 1000
QUERY_SERVICE_TENANT_FLOOR = 8
QUERY_SERVICE_MAX_FAIRNESS = 1.5

# The topology families and workload kinds the scenario-suite slice must
# cover, and the node floor for the static (non-mesh) families.
REQUIRED_SCENARIO_FAMILIES = {"fat_tree", "internet_as", "small_world", "mesh"}
REQUIRED_SCENARIO_WORKLOADS = {"churn", "storm", "mixed"}
SCENARIO_STATIC_NODE_FLOOR = 1000
SCENARIO_FLOOR_FAMILIES = {"fat_tree", "internet_as", "small_world"}


def check_required_sections(name, doc):
    for section, required_keys in REQUIRED_SECTIONS.items():
        rows = doc.get(section)
        if not isinstance(rows, list) or not rows:
            sys.exit(
                f"{name}: required section {section!r} is missing or empty. "
                "Regenerate BENCH_results.json "
                "(cargo run --release -p nettrails-bench --bin report)."
            )
        for i, row in enumerate(rows):
            missing = required_keys - set(row)
            if missing:
                sys.exit(
                    f"{name}: {section}[{i}] is missing keys {sorted(missing)}."
                )


def check_sharded_provenance(committed, fresh):
    """Regression gates on the sharded-maintenance sweep (see module doc)."""

    def rows_by_key(doc):
        return {
            (row["scenario"], row["shards"]): row
            for row in doc.get("sharded_provenance", [])
        }

    committed_rows = rows_by_key(committed)
    fresh_rows = rows_by_key(fresh)

    for scenario in {k[0] for k in committed_rows}:
        shards = sorted(s for (sc, s) in committed_rows if sc == scenario)
        if shards != REQUIRED_SHARD_SWEEP:
            sys.exit(
                f"sharded_provenance[{scenario!r}] must sweep shards "
                f"{REQUIRED_SHARD_SWEEP}, found {shards}."
            )

    for key, committed_row in sorted(committed_rows.items()):
        scenario, shards = key
        fresh_row = fresh_rows.get(key)
        if fresh_row is None:
            sys.exit(
                f"sharded_provenance row {scenario!r} S={shards} missing from "
                "the regenerated report."
            )
        if not fresh_row["matches_single_shard"]:
            sys.exit(
                f"sharded_provenance {scenario!r} S={shards}: regenerated run "
                "is NOT bit-identical to the single-shard path "
                "(matches_single_shard=false). Sharding broke determinism."
            )
        for counter in ("cross_shard_batches", "cross_shard_records"):
            if fresh_row[counter] != committed_row[counter]:
                sys.exit(
                    f"sharded_provenance {scenario!r} S={shards}: {counter} "
                    f"drifted ({committed_row[counter]} -> "
                    f"{fresh_row[counter]}). Routing and batching are "
                    "deterministic; update the committed BENCH_results.json "
                    "in the same change that altered them."
                )
        if shards == GATED_SHARDS:
            committed_single = committed_rows[(scenario, BASELINE_SHARDS)]
            fresh_single = fresh_rows.get((scenario, BASELINE_SHARDS))
            if fresh_single is None:
                sys.exit(
                    f"sharded_provenance row {scenario!r} "
                    f"S={BASELINE_SHARDS} missing from the regenerated "
                    "report."
                )
            committed_ratio = committed_row["wall_us"] / max(
                committed_single["wall_us"], 1
            )
            fresh_ratio = fresh_row["wall_us"] / max(fresh_single["wall_us"], 1)
            if (
                fresh_ratio > committed_ratio * WALL_TOLERANCE
                and fresh_row["wall_us"]
                > fresh_single["wall_us"] + WALL_SLACK_US
            ):
                message = (
                    f"sharded_provenance {scenario!r} S={shards}: sharding "
                    f"overhead regressed — wall-clock is {fresh_ratio:.2f}x "
                    f"the same run's S={BASELINE_SHARDS} path, more than "
                    f"{WALL_TOLERANCE}x the committed baseline ratio of "
                    f"{committed_ratio:.2f}x."
                )
                if fresh_row.get("host_parallelism", 1) == 1:
                    # Single-core host: shard workers never engaged
                    # (workers_used == 1), so the wall-clock is pure
                    # scheduler noise — advisory only.
                    print(
                        "WARNING (advisory on single-core host): " + message,
                        file=sys.stderr,
                    )
                else:
                    sys.exit(message)
    print(
        "sharded_provenance gate OK "
        f"({len(committed_rows)} rows, shard-{GATED_SHARDS} overhead ratio "
        f"within {WALL_TOLERANCE}x of baseline, exchange counts exact)"
    )


def check_parallel_fixpoint(fresh):
    """Regression gates on the morsel-driven parallel fixpoint sweep (see
    module doc)."""
    rows = fresh.get("parallel_fixpoint", [])
    by_scenario = {}
    for row in rows:
        by_scenario.setdefault(row["scenario"], {})[row["workers"]] = row

    for scenario, sweep in sorted(by_scenario.items()):
        workers = sorted(sweep)
        if workers != REQUIRED_WORKER_SWEEP:
            sys.exit(
                f"parallel_fixpoint[{scenario!r}] must sweep workers "
                f"{REQUIRED_WORKER_SWEEP}, found {workers}."
            )
        for w, row in sorted(sweep.items()):
            if row["firings"] < MIN_FIXPOINT_FIRINGS:
                sys.exit(
                    f"parallel_fixpoint[{scenario!r}] W={w}: the measured "
                    f"generation carried only {row['firings']} firings "
                    f"(floor {MIN_FIXPOINT_FIRINGS}); the sweep no longer "
                    "measures parallel evaluation."
                )
            if not row["matches_w1"]:
                sys.exit(
                    f"parallel_fixpoint[{scenario!r}] W={w}: run is NOT "
                    "bit-identical to the W=1 engine (matches_w1=false). "
                    "Parallel evaluation broke determinism."
                )
        gated = sweep[FIXPOINT_SPEEDUP_WORKERS]
        if gated["host_parallelism"] >= FIXPOINT_SPEEDUP_WORKERS:
            if gated["speedup_vs_w1"] < FIXPOINT_MIN_SPEEDUP:
                sys.exit(
                    f"parallel_fixpoint[{scenario!r}] "
                    f"W={FIXPOINT_SPEEDUP_WORKERS}: speedup over W=1 is "
                    f"{gated['speedup_vs_w1']:.2f}x on a "
                    f"{gated['host_parallelism']}-core host (gate "
                    f"{FIXPOINT_MIN_SPEEDUP}x)."
                )
        else:
            print(
                f"parallel_fixpoint[{scenario!r}]: speedup gate skipped — "
                f"host has {gated['host_parallelism']} core(s), fewer than "
                f"the {FIXPOINT_SPEEDUP_WORKERS} the gate needs "
                "(determinism still checked on every row)."
            )
    print(
        f"parallel_fixpoint gate OK ({len(rows)} rows, every worker count "
        "bit-identical to W=1)"
    )


def check_query_fanout(fresh):
    """Regression gates on the distributed query fan-out (see module doc)."""
    rows = fresh.get("query_fanout", [])
    for row in rows:
        scenario = row["scenario"]
        if row["query_records"] <= 0:
            sys.exit(
                f"query_fanout[{scenario!r}]: the session exchanged no "
                "records — the distributed traversal never touched the wire."
            )
        if not row["bfs_beats_dfs"] or row["bfs_latency_ms"] > row["dfs_latency_ms"]:
            sys.exit(
                f"query_fanout[{scenario!r}]: breadth-first fan-out measured "
                f"{row['bfs_latency_ms']:.1f}ms, slower than depth-first's "
                f"{row['dfs_latency_ms']:.1f}ms. The executor stopped "
                "overlapping hops."
            )
        if row["proof_depth"] > 2 and row["bfs_latency_ms"] >= row["dfs_latency_ms"]:
            sys.exit(
                f"query_fanout[{scenario!r}]: a depth-{row['proof_depth']} "
                "proof must fan out strictly faster than the sequential "
                f"traversal ({row['bfs_latency_ms']:.1f}ms vs "
                f"{row['dfs_latency_ms']:.1f}ms)."
            )
        if row["bfs_messages"] > row["dfs_messages"]:
            sys.exit(
                f"query_fanout[{scenario!r}]: fan-out shipped more frames "
                f"({row['bfs_messages']}) than the sequential traversal "
                f"({row['dfs_messages']}); per-destination coalescing broke."
            )
    print(
        f"query_fanout gate OK ({len(rows)} rows, measured BFS latency beats "
        "DFS on every multi-hop proof)"
    )


def check_snapshot_replay(fresh):
    """Regression gates on the incremental-snapshot comparison (see module
    doc)."""
    rows = fresh.get("snapshot_replay", [])
    by_scenario = {}
    for row in rows:
        by_scenario.setdefault(row["scenario"], set()).add(row["backend"])
    for scenario, backends in sorted(by_scenario.items()):
        if backends != REQUIRED_LOG_BACKENDS:
            sys.exit(
                f"snapshot_replay[{scenario!r}] must cover backends "
                f"{sorted(REQUIRED_LOG_BACKENDS)}, found {sorted(backends)}."
            )
    for row in rows:
        scenario = f"{row['scenario']} [{row['backend']}]"
        if not row["matches_full"]:
            sys.exit(
                f"snapshot_replay[{scenario}]: materializing through the "
                "delta chain is NOT bit-identical to the full-upload chain "
                "(matches_full=false). Incremental snapshots broke replay."
            )
        if row["incremental_bytes"] > row["full_bytes"]:
            sys.exit(
                f"snapshot_replay[{scenario}]: the incremental chain "
                f"uploaded more than the full chain "
                f"({row['incremental_bytes']} > {row['full_bytes']} bytes). "
                "Deltas stopped paying for themselves."
            )
        if (
            "pathvector" in row["scenario"]
            and row["incremental_bytes"] >= row["full_bytes"]
        ):
            sys.exit(
                f"snapshot_replay[{scenario}]: the headline scenario must "
                "upload strictly less incrementally "
                f"({row['incremental_bytes']} vs {row['full_bytes']} bytes)."
            )
        if row["compacted_bytes"] > row["storage_bytes"]:
            sys.exit(
                f"snapshot_replay[{scenario}]: compaction grew the backend "
                f"footprint ({row['storage_bytes']} -> "
                f"{row['compacted_bytes']} bytes)."
            )
        if row["tail_dict_bytes"] != 0:
            sys.exit(
                f"snapshot_replay[{scenario}]: the last delta carried "
                f"{row['tail_dict_bytes']} dictionary bytes; after warmup "
                "the dictionary diff must be empty (the sublinear-dictionary "
                "property)."
            )
    print(
        f"snapshot_replay gate OK ({len(rows)} rows, every backend "
        "bit-identical to the full chain, incremental never larger)"
    )


def check_scenario_suite(committed, fresh):
    """Regression gates on the internet-scale scenario suite (see module
    doc)."""
    rows = fresh.get("scenario_suite", [])
    slice_rows = [r for r in rows if r["slice"]]

    families = {r["family"] for r in slice_rows}
    missing = REQUIRED_SCENARIO_FAMILIES - families
    if missing:
        sys.exit(
            f"scenario_suite: slice is missing topology families "
            f"{sorted(missing)} (found {sorted(families)}). Every generator "
            "family must be exercised per-PR."
        )
    workloads = {r["workload"] for r in slice_rows}
    missing = REQUIRED_SCENARIO_WORKLOADS - workloads
    if missing:
        sys.exit(
            f"scenario_suite: slice is missing workload kinds "
            f"{sorted(missing)} (found {sorted(workloads)}). Every workload "
            "must be exercised per-PR."
        )
    for family in sorted(SCENARIO_FLOOR_FAMILIES):
        biggest = max(
            (r["nodes"] for r in slice_rows if r["family"] == family),
            default=0,
        )
        if biggest < SCENARIO_STATIC_NODE_FLOOR:
            sys.exit(
                f"scenario_suite: family {family!r} peaks at {biggest} nodes "
                f"in the slice; the per-PR gate requires at least one "
                f">= {SCENARIO_STATIC_NODE_FLOOR}-node row per static family."
            )

    for row in rows:
        scenario = row["scenario"]
        if not row["matches_seed"]:
            sys.exit(
                f"scenario_suite[{scenario!r}]: NOT seed-deterministic "
                "(matches_seed=false). The topology, trace, or replay no "
                "longer reproduces from the seed."
            )
        if row["queries"] < 1:
            sys.exit(
                f"scenario_suite[{scenario!r}]: the replay ran no query "
                "sessions — the row carries no measured latency."
            )
        if row["p99_latency_ms"] < row["p50_latency_ms"]:
            sys.exit(
                f"scenario_suite[{scenario!r}]: p99 latency "
                f"({row['p99_latency_ms']:.1f}ms) is below p50 "
                f"({row['p50_latency_ms']:.1f}ms); percentile bookkeeping "
                "broke."
            )
        if row["events_per_sec"] <= 0:
            sys.exit(
                f"scenario_suite[{scenario!r}]: non-positive replay "
                "throughput (events_per_sec="
                f"{row['events_per_sec']}); the trace replayed nothing."
            )

    committed_digests = {
        r["scenario"]: r["replay_digest"]
        for r in committed.get("scenario_suite", [])
        if r["slice"]
    }
    compared = 0
    for row in slice_rows:
        baseline = committed_digests.get(row["scenario"])
        if baseline is None:
            continue
        compared += 1
        if row["replay_digest"] != baseline:
            sys.exit(
                f"scenario_suite[{row['scenario']!r}]: replay digest drifted "
                f"({baseline} -> {row['replay_digest']}). The digest is "
                "machine-independent, so this is a behavior change — commit "
                "the regenerated BENCH_results.json in the same change."
            )
    if compared == 0:
        sys.exit(
            "scenario_suite: no slice row of the regenerated report matches "
            "a committed scenario name — the committed baseline is stale."
        )
    print(
        f"scenario_suite gate OK ({len(rows)} rows, {len(slice_rows)} slice; "
        f"{compared} replay digests bit-identical to the committed baseline)"
    )


def check_query_service(committed, fresh):
    """Regression gates on the multi-tenant query service (see module doc)."""
    rows = fresh.get("query_service", [])
    slice_rows = [r for r in rows if r["slice"]]

    at_scale = [r for r in slice_rows if r["offered"] >= QUERY_SERVICE_SESSION_FLOOR]
    if not at_scale:
        biggest = max((r["offered"] for r in slice_rows), default=0)
        sys.exit(
            f"query_service: the slice peaks at {biggest} offered sessions; "
            f"the per-PR gate requires a >= {QUERY_SERVICE_SESSION_FLOOR}-"
            "session row (sublinear frame growth is only observable at "
            "scale)."
        )
    for row in rows:
        scenario = row["scenario"]
        if row["tenants"] < QUERY_SERVICE_TENANT_FLOOR:
            sys.exit(
                f"query_service[{scenario!r}]: only {row['tenants']} tenants; "
                f"the gate requires >= {QUERY_SERVICE_TENANT_FLOOR} so "
                "fairness is measured under real contention."
            )
        for flag in ("merged_matches_split", "matches_rerun", "matches_workers"):
            if not row[flag]:
                sys.exit(
                    f"query_service[{scenario!r}]: {flag}=false. Merged frame "
                    "sealing must be observationally invisible — identical "
                    "per-session outcomes, deterministic across re-runs and "
                    "worker counts."
                )
        if row["dict_bytes_merged"] != row["dict_bytes_split"]:
            sys.exit(
                f"query_service[{scenario!r}]: dictionary bytes diverge "
                f"between sealing modes ({row['dict_bytes_merged']} merged "
                f"vs {row['dict_bytes_split']} split); the per-destination "
                "first-use dictionary must be shared either way."
            )
        if row["offered"] >= QUERY_SERVICE_SESSION_FLOOR and (
            row["frames_per_dest_merged"] >= row["frames_per_dest_split"]
        ):
            sys.exit(
                f"query_service[{scenario!r}]: merged sealing ships "
                f"{row['frames_per_dest_merged']:.1f} frames/destination vs "
                f"{row['frames_per_dest_split']:.1f} per-session at "
                f"{row['offered']} sessions — cross-session flushing is not "
                "merging anything."
            )
        if row["p99_latency_ms"] < row["p50_latency_ms"]:
            sys.exit(
                f"query_service[{scenario!r}]: p99 latency "
                f"({row['p99_latency_ms']:.2f}ms) is below p50 "
                f"({row['p50_latency_ms']:.2f}ms); percentile bookkeeping "
                "broke."
            )
        fairness = row["fairness_ratio"]
        if (
            not isinstance(fairness, (int, float))
            or fairness != fairness  # NaN
            or fairness > QUERY_SERVICE_MAX_FAIRNESS
        ):
            sys.exit(
                f"query_service[{scenario!r}]: fairness ratio {fairness} "
                f"exceeds {QUERY_SERVICE_MAX_FAIRNESS} — under equal offered "
                "load the deficit-round-robin scheduler must keep tenant "
                "completions within that bound."
            )

    # Sublinearity across the slice's session scales: frames/destination and
    # dictionary bytes must grow strictly slower than offered sessions.
    small = min(slice_rows, key=lambda r: r["offered"])
    big = max(slice_rows, key=lambda r: r["offered"])
    if big["offered"] > small["offered"]:
        session_ratio = big["offered"] / small["offered"]
        frame_ratio = big["frames_per_dest_merged"] / max(
            small["frames_per_dest_merged"], 1e-9
        )
        if frame_ratio >= session_ratio:
            sys.exit(
                f"query_service: frames/destination grew {frame_ratio:.2f}x "
                f"from {small['offered']} to {big['offered']} sessions "
                f"(>= the {session_ratio:.2f}x session growth) — merged "
                "flushing is supposed to make that sublinear."
            )
        dict_ratio = big["dict_bytes_merged"] / max(small["dict_bytes_merged"], 1)
        if dict_ratio >= session_ratio:
            sys.exit(
                f"query_service: dictionary bytes grew {dict_ratio:.2f}x "
                f"from {small['offered']} to {big['offered']} sessions "
                f"(>= the {session_ratio:.2f}x session growth) — the shared "
                "first-use dictionary charge is supposed to make that "
                "sublinear."
            )

    committed_digests = {
        r["scenario"]: r["service_digest"]
        for r in committed.get("query_service", [])
        if r["slice"]
    }
    compared = 0
    for row in slice_rows:
        baseline = committed_digests.get(row["scenario"])
        if baseline is None:
            continue
        compared += 1
        if row["service_digest"] != baseline:
            sys.exit(
                f"query_service[{row['scenario']!r}]: service digest drifted "
                f"({baseline} -> {row['service_digest']}). The digest is "
                "machine-independent, so this is a behavior change — commit "
                "the regenerated BENCH_results.json in the same change."
            )
    if compared == 0:
        sys.exit(
            "query_service: no slice row of the regenerated report matches a "
            "committed scenario name — the committed baseline is stale."
        )
    print(
        f"query_service gate OK ({len(rows)} rows, {len(slice_rows)} slice; "
        f"{compared} service digests bit-identical to the committed baseline)"
    )


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    committed_path, fresh_path = sys.argv[1], sys.argv[2]
    with open(committed_path) as f:
        committed = json.load(f)
    with open(fresh_path) as f:
        fresh = json.load(f)

    for name, doc in ((committed_path, committed), (fresh_path, fresh)):
        if doc.get("format") != REQUIRED_FORMAT:
            sys.exit(
                f"{name}: format marker is {doc.get('format')!r}, expected "
                f"{REQUIRED_FORMAT!r}. Regenerate BENCH_results.json "
                "(cargo run --release -p nettrails-bench --bin report)."
            )

    check_required_sections(committed_path, committed)
    check_required_sections(fresh_path, fresh)
    check_sharded_provenance(committed, fresh)
    check_parallel_fixpoint(fresh)
    check_query_fanout(fresh)
    check_snapshot_replay(fresh)
    check_scenario_suite(committed, fresh)
    check_query_service(committed, fresh)

    if committed.get("format") != fresh.get("format"):
        sys.exit(
            f"format marker changed: {committed.get('format')!r} -> "
            f"{fresh.get('format')!r}. Update BENCH_results.json in the same "
            "change that bumps the schema."
        )

    committed_shape = shape(committed)
    fresh_shape = shape(fresh)
    if committed_shape != fresh_shape:
        print("BENCH_results.json schema drift detected.", file=sys.stderr)
        print("--- committed shape ---", file=sys.stderr)
        json.dump(committed_shape, sys.stderr, indent=1)
        print("\n--- regenerated shape ---", file=sys.stderr)
        json.dump(fresh_shape, sys.stderr, indent=1)
        sys.exit(
            "\nRegenerate and commit BENCH_results.json "
            "(cargo run --release -p nettrails-bench --bin report)."
        )
    print(f"BENCH_results.json schema OK ({committed.get('format')})")


if __name__ == "__main__":
    main()
