"""The repository's benchmark: Table II and the analysis service, cold.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seconds S]

A run starts ``SETUP_PROBES[workload]`` fresh processes that only set
up (import ``repro.api``, build the inputs, start the daemon for
``service_mix``), then measures the workload in fresh processes too:
the fixed Table II ``SEQUENCE``, one operation per process, or one
``service_mix`` closed loop that lasts until ``--seconds`` are used.
Nothing - memo, orbit, compiled circuit - is shared between those
processes.  Every answer is checked against ``reference.json``, and
every time is scaled to a reference host speed by the kernel of
``calib.py`` that each measuring process times around its work.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  The lines
before it, prefixed ``#``, give the environment, every metric with its
sample count and, for a traced run, the self time of every layer and the
tracing overhead.  ``--workload all`` runs every workload untraced and
traced.  The exit code is 0 only when every answer was correct.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("comparator_pss", "logic_table2", "service_mix")
#: Set-up-only processes started per run.  Their set-up times join those
#: of the measured processes in the ``setup_s`` median; with two probes
#: one slow start moved a run's median.  A ``service_mix`` set-up
#: (daemon spawn included) takes about 3.5 s out of the closed loop's
#: time, so it gets fewer probes.  ``logic_table2`` needs none: its
#: twelve measured processes give twelve set-ups.
SETUP_PROBES = {"comparator_pss": 6, "logic_table2": 0, "service_mix": 3}
#: The operations of one Table II run, one fresh process each, in this
#: order; the n-th proposed and n-th MC call form row n.  The sequence is
#: fixed, not fitted to ``--seconds``, so every metric rests on the same
#: samples whatever the machine's speed.  ``logic_table2`` fits six rows
#: in a run; one ``comparator_pss`` row alone takes about 20 s.
SEQUENCE = {"comparator_pss": ("proposed", "mc", "proposed"),
            "logic_table2": ("proposed", "mc") * 6}
#: A run (set-up probes, rounds, checks) must end within this.
HARD_LIMIT_S = 170.0
#: Time ``service_mix`` keeps for its own set-up, the host-speed kernel
#: between loop segments and teardown, outside the closed loop.
SERVICE_OVERHEAD_S = 5.0

#: Environment of every measured process.  The systems are 10-100
#: unknowns, where BLAS threads only spin; one thread per process keeps
#: the load at the two processes the workloads are sized for.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

END_TO_END = [
    ("setup_s", "s"),
    ("proposed_s", "s"),
    ("mc_s", "s"),
    ("speedup_vs_batched_mc", "x"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("throughput_rps", "req/s"),
    ("peak_rss_mb", "MB"),
]


def nearest_rank(values: list, q: float) -> float:
    """The *q*-quantile (0 < q <= 1) by the nearest-rank method."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------
def run_child(workload: str, extra: list, deadline: float,
              tag: str) -> "dict | None":
    """Run ``child.py`` in a fresh process (its own process group, so a
    timeout also ends the daemon and pool workers it started); returns
    its record, or ``None`` when it failed."""
    out = OUT / f"child-{os.getpid()}-{tag}.json"
    cmd = [sys.executable, str(HERE / "child.py"), workload,
           "--out", str(out), *extra]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                            env={**os.environ, **CHILD_ENV},
                            start_new_session=True)
    try:
        proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        pass
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0 or not out.is_file():
        return None
    with open(out) as fh:
        record = json.load(fh)
    out.unlink()
    return record


def environment(records: list) -> dict:
    """What a result must be read with: the machine, the versions, the
    code and how the workload ran."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    versions = next((r["versions"] for r in records if "versions" in r),
                    {})
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            **versions,
            "git_commit": commit,
            "src_sha256": digest.hexdigest(),
            "child_env": CHILD_ENV,
            "fresh_process_per_operation": True,
            "memo_shared_across_processes": False}


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------
def batch_result(rounds: list, setups: list) -> dict:
    """End-to-end metrics of a Table II run from its rounds, each
    ``(operation, record or None)``; every time is scaled to the
    reference host speed by the kernel its process timed."""
    walls: dict[str, list] = {}
    failed = 0
    errors = []
    for op, rec in rounds:
        if rec is None:
            failed += 1
            errors.append(f"the process of {op} failed")
            continue
        host = calib.scale(rec["kernel_s"])
        setups.append(rec["setup_s"] * host)
        if rec["errors"]:
            failed += 1
            errors.extend(rec["errors"])
        else:
            walls.setdefault(op, []).append(rec["wall_s"] * host)
    good = [rec for _, rec in rounds if rec is not None]
    metrics, counts = {}, {}
    if "proposed" in walls and "mc" in walls:
        # the user-visible unit is one Table II row: the proposed call
        # and its Monte-Carlo baseline, paired in run order
        lat = [(p + m) * 1e3 for p, m in zip(walls["proposed"],
                                              walls["mc"])]
        metrics = {
            "setup_s": statistics.median(setups),
            "proposed_s": statistics.median(walls["proposed"]),
            "mc_s": statistics.median(walls["mc"]),
            "latency_p50_ms": statistics.median(lat),
            "latency_p99_ms": nearest_rank(lat, 0.99),
            "throughput_rps": len(lat) / (sum(lat) / 1e3),
            "peak_rss_mb": max(rec["peak_rss_mb"] for rec in good),
        }
        metrics["speedup_vs_batched_mc"] = (metrics["mc_s"]
                                            / metrics["proposed_s"])
        counts = {"setup_s": len(setups),
                  "proposed_s": len(walls["proposed"]),
                  "mc_s": len(walls["mc"]),
                  "speedup_vs_batched_mc": len(walls["mc"]),
                  "latency_p50_ms": len(lat), "latency_p99_ms": len(lat),
                  "throughput_rps": len(lat), "peak_rss_mb": len(good)}
    trace, tables = None, {}
    traced = [(op, rec) for op, rec in rounds
              if rec is not None and "trace" in rec]
    if traced:
        # one representative process per operation: the median-wall one
        for op in walls:
            mine = sorted((rec for o, rec in traced if o == op),
                          key=lambda rec: rec["wall_s"])
            if mine:
                tables[op] = mine[(len(mine) - 1) // 2]["trace"]
        import layers
        trace = layers.merge(list(tables.values()))
    return {"metrics": metrics, "counts": counts, "attempted": len(rounds),
            "failed": failed, "errors": errors[:20], "trace": trace,
            "tables": {op: t["rows"] for op, t in tables.items()}}


def service_result(rec: "dict | None", setups: list) -> dict:
    """End-to-end metrics of a ``service_mix`` run from its record;
    every request is scaled to the reference host speed by the kernel
    timed around its loop segment."""
    if rec is None:
        return {"metrics": {}, "counts": {}, "attempted": 1, "failed": 1,
                "errors": ["the service_mix process failed"],
                "trace": None, "tables": {}}
    setups.append(rec["setup_s"] * calib.scale(rec["kernel_s"]))
    host = [calib.scale(seg["kernel_s"]) for seg in rec["segments"]]
    done = [(label, latency * host[seg])
            for label, latency, ok, _, seg in rec["requests"] if ok]
    lat = [latency * 1e3 for _, latency in done]
    miss = {kind: [latency * host[seg] for label, latency, ok, cached, seg
                   in rec["requests"]
                   if ok and not cached and label.startswith(kind + "-")]
            for kind in ("tm", "mc")}
    loop_s = sum(seg["loop_s"] * scale
                 for seg, scale in zip(rec["segments"], host))
    metrics, counts = {}, {}
    if lat and miss["tm"] and miss["mc"]:
        metrics = {
            "setup_s": statistics.median(setups),
            "proposed_s": statistics.median(miss["tm"]),
            "mc_s": statistics.median(miss["mc"]),
            "latency_p50_ms": statistics.median(lat),
            "latency_p99_ms": nearest_rank(lat, 0.99),
            "throughput_rps": len(done) / loop_s,
            "peak_rss_mb": rec["peak_rss_mb"],
        }
        metrics["speedup_vs_batched_mc"] = (metrics["mc_s"]
                                            / metrics["proposed_s"])
        counts = {"setup_s": len(setups), "proposed_s": len(miss["tm"]),
                  "mc_s": len(miss["mc"]),
                  "speedup_vs_batched_mc": len(miss["mc"]),
                  "latency_p50_ms": len(lat), "latency_p99_ms": len(lat),
                  "throughput_rps": len(done), "peak_rss_mb": 1}
    # per kind: requests sent and requests the engine ran (memo misses;
    # every shard, since shards are not memoized)
    kinds: dict[str, list] = {}
    for label, _, ok, cached, _ in rec["requests"]:
        row = kinds.setdefault(label.split("-", 1)[0], [0, 0])
        row[0] += 1
        row[1] += ok and not cached
    trace = rec.get("trace")
    return {"metrics": metrics, "counts": counts,
            "attempted": len(rec["requests"]), "failed": rec["failed"],
            "errors": rec["errors"], "trace": trace, "mix": kinds,
            "tables": {"requests": trace["rows"]} if trace else {}}


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------
def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    t0 = time.monotonic()
    deadline = t0 + HARD_LIMIT_S
    OUT.mkdir(exist_ok=True)
    probes = [run_child(workload, ["--setup-only"], deadline, f"probe{i}")
              for i in range(SETUP_PROBES[workload])]
    setups = [p["setup_s"] * calib.scale(p["kernel_s"])
              for p in probes if p is not None]
    flags = ["--trace"] if trace else []
    if workload == "service_mix":
        loop_s = max(seconds - (time.monotonic() - t0)
                     - SERVICE_OVERHEAD_S, 1.0)
        rec = run_child(workload, [*flags, "--seed", str(seed),
                                   "--seconds", f"{loop_s:.3f}"],
                        deadline, "loop")
        result = service_result(rec, setups)
        records = [rec]
    else:
        rounds = [(op, run_child(workload, [*flags, "--op", op], deadline,
                                 f"round{i}"))
                  for i, op in enumerate(SEQUENCE[workload])]
        result = batch_result(rounds, setups)
        records = [rec for _, rec in rounds]
    failed_probes = sum(p is None for p in probes)
    if failed_probes:
        result["attempted"] += failed_probes
        result["failed"] += failed_probes
        result["errors"].append(f"{failed_probes} set-up probe(s) failed")
    ran = [r for r in records + probes if r]
    result["env"] = environment(ran)
    result["host_scales"] = sorted(
        [calib.scale(r["kernel_s"]) for r in ran]
        + [calib.scale(seg["kernel_s"]) for r in ran
           for seg in r.get("segments", ())])
    result["wall_s"] = time.monotonic() - t0
    result["rounds"] = len(records)
    return result


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------
def _overhead_lines(workload: str, traced: dict) -> list[str]:
    """Traced minus untraced value of each end-to-end metric, against
    the last untraced run of this workload in ``out/``."""
    path = OUT / f"{workload}-trace0.json"
    if not path.is_file():
        return ["# tracing overhead: no untraced run of this workload in "
                "perfbench/out/ yet"]
    with open(path) as fh:
        base = json.load(fh)["metrics"]
    lines = ["# tracing overhead (traced - untraced; untraced run from "
             f"{path.name}):"]
    for name, unit in END_TO_END:
        if name in base and name in traced:
            diff = traced[name] - base[name]
            rel = diff / base[name] if base[name] else float("nan")
            lines.append(f"#   {name:<24s} {diff:+12.6g} {unit:<6s} "
                         f"({rel:+.1%})")
    return lines


def report(workload: str, seed: int, trace: bool, result: dict) -> dict:
    """Print the ``#`` lines and return the final JSON object."""
    metrics = result["metrics"]
    print(f"# perfbench workload={workload} seed={seed} "
          f"trace={int(trace)} processes={result['rounds']}+"
          f"{SETUP_PROBES[workload]} probes wall={result['wall_s']:.1f}s")
    print("# env " + json.dumps(result["env"], sort_keys=True))
    scales = result["host_scales"]
    if scales:
        print(f"# host scale (reference kernel pass {calib.REFERENCE_S} s "
              f"/ this host's; times below are multiplied by it): median "
              f"{statistics.median(scales):.4f}, min {scales[0]:.4f}, "
              f"max {scales[-1]:.4f} over {len(scales)} kernel brackets")
    units = dict(END_TO_END)
    for name, unit in END_TO_END:
        if name in metrics:
            print(f"# {name:<24s} {metrics[name]:>14.6g} {unit:<6s} "
                  f"(n={result['counts'][name]})")
    attempted, failed = result["attempted"], result["failed"]
    print(f"# failed_frac = {failed}/{attempted} = "
          f"{failed / attempted if attempted else 1.0:.4g}")
    for kind, (sent, ran) in sorted(result.get("mix", {}).items()):
        print(f"# mix {kind:<5s} requests {sent:5d}  engine runs {ran:5d}"
              f"  memo hits {1 - ran / sent:6.1%}")
    for err in result["errors"]:
        print(f"# error: {err}")
    correct = failed == 0 and bool(metrics)
    if trace:
        import layers
        values = {}
        for label, table in result["tables"].items():
            print(f"# layers of {label}, largest self time first "
                  f"(kernels: {', '.join(sorted(layers.KERNELS))}):")
            for name, row in sorted(table.items(),
                                    key=lambda kv: -kv[1]["self_s"]):
                print(f"#   {name:<20s} self {row['self_s']:10.4f} s  "
                      f"total {row['total_s']:10.4f} s  calls "
                      f"{row['calls']}")
        if result["trace"] is not None:
            print("# session stores, hits/misses: " + ", ".join(
                f"{store} {hits}/{misses}" for store, (hits, misses)
                in sorted(result["trace"]["session"].items())))
            for name, value in layers.layer_metrics(
                    result["trace"], layers.PRINTED_METRICS).items():
                if value:
                    print(f"# {name:<28s} {value:.6g} s")
            values = layers.layer_metrics(result["trace"])
        for line in _overhead_lines(workload, metrics):
            print(line)
        out = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in layers.LAYER_METRICS if name in values}
        correct = correct and len(out) == len(layers.LAYER_METRICS)
    else:
        out = {name: {"value": value, "unit": units[name]}
               for name, value in metrics.items()}
    with open(OUT / f"{workload}-trace{int(trace)}.json", "w") as fh:
        json.dump({"seed": seed, "metrics": metrics, "result": result},
                  fh, indent=1, default=str)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "api.py").is_file():
        print(f"perfbench: no program to measure at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        ok = True
        for workload in WORKLOADS:
            for trace in (False, True):
                final = report(workload, args.seed, trace,
                               run_workload(workload, args.seed,
                                            args.seconds, trace))
                print(json.dumps(final), flush=True)
                ok = ok and final["correct"]
        return 0 if ok else 1
    trace = bool(args.trace)
    final = report(args.workload, args.seed, trace,
                   run_workload(args.workload, args.seed, args.seconds,
                                trace))
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
