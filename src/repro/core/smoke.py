"""Perf smoke harness: time a fixed measurement batch, track a trajectory.

``python -m repro bench-smoke --json`` runs a pinned batch (standalone +
online shop + hotel on RISC-V, TEST scale, seed 0) with the result cache
disabled, so the number it reports is honest simulation wall-clock.

Schema v2 makes ``BENCH_SMOKE.json`` a *trajectory*: a list of entries
keyed by git SHA and date, appended with ``bench-smoke --append``, so
the perf history accumulates per PR instead of overwriting a single
snapshot.  CI appends an entry per run, uploads the file as an artifact,
and fails on a wall-clock regression beyond its threshold vs the
previous entry.  A v1 single-snapshot file migrates transparently: it
becomes the trajectory's first entry (with no SHA — it predates the
trajectory).

Beyond the full-detail batch, a smoke run can time a ``sampled`` phase:
the same batch under a sampling config (default the calibrated
``accurate`` preset).  It runs in the same process after the
full-detail phase and one untimed sampled warmup pass, so
assembled-program, dataset and decode caches are warm; the figure
isolates the simulation hot loop the way FireSim's fast mode isolates
target time, and is honest about that framing.

Every run also times a pinned clustered serve (``cluster_serve``): a
burst arrival trace through :class:`~repro.serverless.platform.
ClusterPlatform` at three nodes with spread placement, so the trajectory
records the cluster scheduling path's wall-clock alongside the
simulation batches.  And a pinned ML-inference batch (``ml_infer``): the
quantized inference functions measured on RISC-V with the RVV vector
lane enabled, so the vector lowering and its tier interaction have a
wall-clock of their own in the trajectory.
"""

from __future__ import annotations

import json
import subprocess
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

#: Bump when the smoke workload itself changes, so trajectories are only
#: compared within a generation.
SMOKE_SCHEMA = "repro-bench-smoke/2"

#: Default trajectory location (repo root in the source checkout).
TRAJECTORY_PATH = "BENCH_SMOKE.json"


def _run_batches(jobs, cache, sampling=None) -> Tuple[Dict[str, Any], int, float]:
    """Time the pinned batches; returns (batches, instructions, wall_s)."""
    from repro.core.reproduce import measure
    from repro.core.scale import TEST
    from repro.core.spec import MeasurementSpec

    batches: Dict[str, Dict[str, Any]] = {}
    start_total = time.perf_counter()

    start = time.perf_counter()
    standalone = measure(
        MeasurementSpec(function="standalone+shop", isa="riscv", scale=TEST,
                        seed=0, sampling=sampling),
        jobs=jobs, cache=cache)
    batches["riscv_standalone_shop"] = {
        "functions": len(standalone),
        "wall_s": round(time.perf_counter() - start, 3),
    }
    start = time.perf_counter()
    hotel = measure(
        MeasurementSpec(function="hotel", isa="riscv", scale=TEST, seed=0,
                        db="cassandra", sampling=sampling),
        jobs=jobs, cache=cache)
    batches["riscv_hotel"] = {
        "functions": len(hotel),
        "wall_s": round(time.perf_counter() - start, 3),
    }
    wall_total = time.perf_counter() - start_total

    total_instructions = sum(
        m.cold.instructions + m.warm.instructions
        for batch in (standalone, hotel) for m in batch.values()
    )
    return batches, total_instructions, wall_total


def _run_cluster_serve() -> Dict[str, Any]:
    """Time the pinned clustered serve (the Platform API's hot path)."""
    from repro.serverless.loadgen import arrival_ticks
    from repro.serverless.platform import ClusterConfig, make_platform
    from repro.workloads.catalog import get_function

    function = get_function("fibonacci-python")
    cluster = ClusterConfig(nodes=3, placement="spread")
    start = time.perf_counter()
    platform = make_platform("riscv", cluster=cluster, seed=0)
    platform.registry.push(function.image("riscv"))
    platform.deploy(function.name, function.name, function.runtime_name,
                    function.handler)
    arrivals = arrival_ticks("burst", rps=80.0, requests=150, seed=0)
    result = platform.serve(function.name, arrivals,
                            payload_factory=function.default_payload)
    wall = time.perf_counter() - start
    return {
        "nodes": cluster.nodes,
        "placement": cluster.placement,
        "requests": len(result.records),
        "cross_node": result.cross_node,
        "wall_s": round(wall, 3),
    }


def _run_ml_infer() -> Dict[str, Any]:
    """Time the pinned ML-inference batch (the vector lane end to end)."""
    from repro.core.parallel import execute_task
    from repro.core.scale import TEST
    from repro.core.spec import MeasurementSpec
    from repro.sim.isa.vector import VectorConfig
    from repro.workloads.mlinfer import ML_FUNCTION_NAMES

    vector = VectorConfig.parse("rvv256")
    start = time.perf_counter()
    instructions = 0
    for name in ML_FUNCTION_NAMES:
        spec = MeasurementSpec(function=name, isa="riscv", scale=TEST,
                               seed=0, vector=vector)
        measurement = execute_task(spec)
        instructions += (measurement.cold.instructions
                         + measurement.warm.instructions)
    wall = time.perf_counter() - start
    return {
        "functions": len(ML_FUNCTION_NAMES),
        "vector": vector.fingerprint(),
        "simulated_instructions": instructions,
        "wall_s": round(wall, 3),
    }


def run_smoke(jobs: Optional[int] = None, cache=False,
              sampling: Optional[str] = "accurate") -> Dict[str, Any]:
    """Run the pinned smoke batch; returns the JSON-ready report.

    ``sampling`` names the config for the sampled phase (a spec string;
    ``"off"``/``None`` skips the phase).
    """
    from repro.core.parallel import resolve_jobs
    from repro.core.scale import TEST
    from repro.sim.sampling import SamplingConfig

    resolved_jobs = resolve_jobs(jobs)
    batches, total_instructions, wall_total = _run_batches(jobs, cache)

    report: Dict[str, Any] = {
        "schema": SMOKE_SCHEMA,
        "scale": {"time": TEST.time, "space": TEST.space},
        "seed": 0,
        "jobs": resolved_jobs,
        "cache": "disabled" if cache is False else "enabled",
        "batches": batches,
        "functions": sum(b["functions"] for b in batches.values()),
        "simulated_instructions": total_instructions,
        "wall_s": round(wall_total, 3),
    }

    report["cluster_serve"] = _run_cluster_serve()
    report["ml_infer"] = _run_ml_infer()

    config = SamplingConfig.parse(sampling)
    if config is not None:
        # Untimed warmup pass: any one-time cost of the sampled path
        # would otherwise land inside the timed window.  The phase's
        # contract is the warm simulation hot loop, so pay it here.
        _run_batches(jobs, cache, sampling=config)
        sampled_batches, _, sampled_wall = _run_batches(
            jobs, cache, sampling=config)
        report["sampled"] = {
            "sampling": config.fingerprint(),
            "batches": sampled_batches,
            "wall_s": round(sampled_wall, 3),
            "note": "same-process rerun after the full-detail phase and "
                    "an untimed sampled warmup pass; assembled-program, "
                    "dataset and decode caches are warm, so this "
                    "isolates the simulation hot loop",
        }
    return report


def _git_sha() -> Optional[str]:
    try:
        return subprocess.check_output(
            ["git", "rev-parse", "--short", "HEAD"],
            stderr=subprocess.DEVNULL).decode().strip() or None
    except (OSError, subprocess.CalledProcessError):
        return None


def _git_added_provenance(path) -> Tuple[Optional[str], Optional[str]]:
    """(short sha, UTC date) of the commit that first added ``path``.

    Used to backfill provenance on a migrated v1 snapshot: the snapshot
    was committed by whichever commit created the trajectory file, so
    git history is the authoritative source for its missing sha/date.
    """
    try:
        out = subprocess.check_output(
            ["git", "log", "--follow", "--diff-filter=A",
             "--format=%h %cI", "--", str(path)],
            stderr=subprocess.DEVNULL).decode()
    except (OSError, subprocess.CalledProcessError):
        return None, None
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        return None, None
    sha, _, stamp = lines[-1].partition(" ")
    try:
        when = datetime.fromisoformat(stamp).astimezone(timezone.utc)
        date: Optional[str] = when.strftime("%Y-%m-%dT%H:%M:%SZ")
    except ValueError:
        date = None
    return sha or None, date


def load_trajectory(path=TRAJECTORY_PATH) -> Dict[str, Any]:
    """Load (or initialise) the trajectory; migrates a v1 snapshot."""
    target = Path(path)
    if not target.exists():
        return {"schema": SMOKE_SCHEMA, "entries": []}
    data = json.loads(target.read_text())
    if isinstance(data, dict) and isinstance(data.get("entries"), list):
        return {"schema": SMOKE_SCHEMA, "entries": data["entries"]}
    # v1 single snapshot: it becomes the first trajectory entry, stamped
    # with the provenance of the commit that added the snapshot file.
    entry = dict(data)
    if entry.get("sha") is None or entry.get("date") is None:
        sha, date = _git_added_provenance(target)
        if entry.get("sha") is None:
            entry["sha"] = sha
        if entry.get("date") is None:
            entry["date"] = date
    return {"schema": SMOKE_SCHEMA, "entries": [entry]}


def append_entry(report: Dict[str, Any], path=TRAJECTORY_PATH,
                 sha: Optional[str] = None) -> Tuple[Dict[str, Any],
                                                     Optional[Dict[str, Any]]]:
    """Append a smoke report to the trajectory file.

    Returns ``(entry, previous_entry)`` — the previous entry is what a
    regression gate compares against (None on the first append).
    """
    trajectory = load_trajectory(path)
    entry = dict(report)
    entry["sha"] = sha if sha is not None else _git_sha()
    entry["date"] = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    previous = trajectory["entries"][-1] if trajectory["entries"] else None
    trajectory["entries"].append(entry)
    Path(path).write_text(
        json.dumps(trajectory, indent=2, sort_keys=True) + "\n")
    return entry, previous


def wall_regression(previous: Optional[Dict[str, Any]],
                    entry: Dict[str, Any]) -> Optional[float]:
    """Fractional wall-clock change vs the previous entry (+0.30 = 30%
    slower); None when there is nothing to compare against."""
    if not previous or not previous.get("wall_s") or not entry.get("wall_s"):
        return None
    return entry["wall_s"] / previous["wall_s"] - 1.0


#: Phases whose wall-clocks the CI gate compares alongside the top-level
#: batch wall: a regression confined to the sampled fast path, the
#: cluster scheduling path, or the vector lane must fail the gate even
#: when the full-detail batch happens to absorb it.
GATED_PHASES = ("sampled", "cluster_serve", "ml_infer")


def phase_regressions(previous: Optional[Dict[str, Any]],
                      entry: Dict[str, Any]) -> Dict[str, float]:
    """Per-phase fractional wall-clock changes vs the previous entry.

    Covers :data:`GATED_PHASES` and fails *closed*: once the previous
    entry records a phase, it must stay comparable — a zero or missing
    baseline wall, or a phase that vanished from (or recorded no wall
    in) the current run, raises :class:`ValueError` instead of silently
    passing the gate.  Phases the previous entry never recorded are
    skipped — a brand-new phase has no baseline on its first append;
    :func:`phase_gate_skips` reports those so the skip is visible.
    """
    out: Dict[str, float] = {}
    for phase in GATED_PHASES:
        before = (previous or {}).get(phase)
        after = entry.get(phase)
        if before is None:
            # The phase postdates the baseline entry: nothing to gate
            # yet; it enters the gate on the next append.
            continue
        if not before.get("wall_s"):
            raise ValueError(
                "cannot gate phase %r: baseline wall_s is %r (zero or "
                "missing) in the previous trajectory entry; re-run "
                "bench-smoke --append to record a usable baseline"
                % (phase, before.get("wall_s")))
        if after is None or not after.get("wall_s"):
            raise ValueError(
                "cannot gate phase %r: recorded in the previous entry "
                "but wall_s is %r in this run — the phase vanished or "
                "recorded no wall, failing closed"
                % (phase, (after or {}).get("wall_s")))
        out[phase] = after["wall_s"] / before["wall_s"] - 1.0
    return out


def phase_gate_skips(previous: Optional[Dict[str, Any]],
                     entry: Dict[str, Any]) -> List[str]:
    """Gated phases this run recorded but the previous entry did not.

    These have no baseline to compare against (the first ``ml_infer``
    append is the canonical case); the gate skips them this run, and the
    CLI prints them so the skip never looks like a silent pass.
    """
    return [phase for phase in GATED_PHASES
            if entry.get(phase) and not (previous or {}).get(phase)]


def render_smoke(report: Dict[str, Any], as_json: bool) -> str:
    """Render the report for the CLI (JSON or a short human summary)."""
    if as_json:
        return json.dumps(report, indent=2, sort_keys=True)
    lines = ["bench-smoke: %d functions in %.2fs (%d jobs, cache %s)" % (
        report["functions"], report["wall_s"], report["jobs"], report["cache"])]
    for name, batch in report["batches"].items():
        lines.append("  %-24s %2d functions  %8.2fs"
                     % (name, batch["functions"], batch["wall_s"]))
    cluster = report.get("cluster_serve")
    if cluster:
        lines.append("  cluster serve (%d nodes, %s): %d requests  %8.2fs"
                     % (cluster["nodes"], cluster["placement"],
                        cluster["requests"], cluster["wall_s"]))
    ml_infer = report.get("ml_infer")
    if ml_infer:
        lines.append("  ml infer (%s): %d functions  %8.2fs"
                     % (ml_infer["vector"], ml_infer["functions"],
                        ml_infer["wall_s"]))
    sampled = report.get("sampled")
    if sampled:
        lines.append("  sampled (%s): %.2fs" % (
            sampled["sampling"], sampled["wall_s"]))
    return "\n".join(lines)
