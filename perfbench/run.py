"""qwebs benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload relations --seed 1 --seconds 30 --trace 0

Run from the repository root (any directory works; paths are found from
this file). The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
Lines before it describe the run: Python version, commit, nproc, seed, and
sample counts. The same record, with the outcome of every op, is written to
.perfbench_out/ at the repository root. Workloads, metrics and the reasons
for them are in perfbench/README.md.

Every pass of a workload runs in a fresh worker process (worker.py), so each
starts from cold library caches as a CLI call or a fresh sweep does. Passes
are started while the next one is expected to end within --seconds. Times in
the metrics are at a reference machine speed (speed.py); the raw times are
printed on the `run:` line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("relations", "compile", "ext", "cli")
SETUP_SAMPLES = 11
IMPORT_SAMPLES = 5
# A worker that outlives this is killed and the run fails: no op may take
# longer than its deadline, so only a broken harness gets here.
WORKER_TIMEOUT_S = 150


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _worker(workload, seed, pass_no=0, mode="run", inproc=False, skip=()):
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--pass-no", str(pass_no), "--mode", mode]
    if inproc:
        cmd.append("--inproc")
    if skip:
        cmd += ["--skip", ",".join(str(i) for i in sorted(skip))]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"worker {mode} pass {pass_no} ran past {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise HarnessError(f"worker {mode} pass {pass_no} exited {proc.returncode}:\n"
                           + proc.stderr[-4000:])
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["setup_end"] - start
    return out


def _import_s():
    """Seconds a fresh interpreter spends in `import qwebs.cli`."""
    code = "import time; t = time.perf_counter(); import qwebs.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=60)
    if proc.returncode != 0:
        raise HarnessError("import qwebs.cli failed:\n" + proc.stderr[-4000:])
    return float(proc.stdout)


def _percentile(sorted_values, p):
    """Nearest-rank percentile of a sorted list."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def _tally(ops):
    counts = {"solved": 0, "typed": 0, "deadline": 0, "failed": 0}
    for op in ops:
        counts[op[1]] += 1
    return counts


def _reference_times(res):
    """Per-op times of one pass, at the reference speed (speed.py).

    An op cut off at its deadline keeps its raw time: the deadline is a
    fixed wall-clock cost, whatever the machine's speed.
    """
    ops = res["ops"]
    ref = speed.to_reference([op[2] for op in ops], [op[3] for op in ops], res["cal_ref"])
    return [op[2] if op[1] == "deadline" else t for op, t in zip(ops, ref)]


def _latency_metrics(ops, times):
    """ops_per_s, op_p50_ms and op_p90_ms over ops with the given times."""
    completed = sorted(t for op, t in zip(ops, times) if op[1] in ("solved", "typed"))
    if not completed:
        raise HarnessError("no op completed")
    return {
        "ops_per_s": len(completed) / sum(times),
        "op_p50_ms": 1e3 * _percentile(completed, 50),
        "op_p90_ms": 1e3 * _percentile(completed, 90),
    }, len(completed)


def _setup_sample(workload, seed):
    before = speed.spawn_time()
    raw = _worker(workload, seed, mode="setup")["setup_s"]
    cal = (before + speed.spawn_time()) / 2
    return raw, raw * speed.SPAWN_REF_S / cal


def end_to_end(workload, seed, seconds):
    setups = [_setup_sample(workload, seed) for _ in range(SETUP_SAMPLES)]
    passes = []
    while sum(res["wall_s"] for res in passes) * (1 + 1 / max(1, len(passes))) <= seconds:
        passes.append(_worker(workload, seed, pass_no=len(passes)))
    wall = sum(res["wall_s"] for res in passes)
    ops = [op for res in passes for op in res["ops"]]
    times = [t for res in passes for t in _reference_times(res)]
    lat, samples = _latency_metrics(ops, times)
    raw_lat, _ = _latency_metrics(ops, [op[2] for op in ops])
    counts = _tally(ops)
    metrics = dict(lat, solved_frac=counts["solved"] / len(ops),
                   setup_s=statistics.median(ref for _, ref in setups),
                   peak_rss_mb=max(res["peak_rss_mb"] for res in passes))
    info = {"passes": len(passes), "wall_s": wall, "latency_samples": samples,
            "outcomes": counts,
            "deadline_ops": sorted({op[0] for op in ops if op[1] == "deadline"}),
            "raw": dict(raw_lat, setup_s=statistics.median(raw for raw, _ in setups)),
            "speed_vs_reference": passes[0]["cal_ref"] / statistics.median(
                op[3] for op in ops if op[3] is not None)}
    return ops, [], metrics, info


def per_layer(workload, seed):
    # cli ops run through cli.run in-process here, since spans can only be
    # recorded in this harness's own processes
    inproc = workload == "cli"
    base = _worker(workload, seed, inproc=inproc)
    # the traced pass leaves out every op that did not complete untraced
    cut = {op[0] for op in base["ops"] if op[1] not in ("solved", "typed")}
    traced = _worker(workload, seed, mode="trace", inproc=inproc, skip=cut)
    base_s = sum(t for op, t in zip(base["ops"], _reference_times(base)) if op[0] not in cut)
    traced_s = sum(_reference_times(traced))
    metrics = dict(traced["layers"])
    metrics["cli.import_s"] = statistics.median(_import_s() for _ in range(IMPORT_SAMPLES))
    metrics["trace.overhead_s"] = traced_s - base_s
    metrics["harness.deadline_ops"] = sum(1 for op in base["ops"] if op[1] == "deadline")
    info = {"untraced_s": base_s, "traced_s": traced_s, "spans": traced["spans"],
            "untraced_only_ops": sorted(cut),
            "traced_ops": len(traced["ops"]), "outcomes": _tally(base["ops"] + traced["ops"])}
    return base["ops"], traced["ops"], metrics, info


def _commit():
    # The ceiling keeps git from reporting an enclosing repository when this
    # checkout is not one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None):
    p = argparse.ArgumentParser(description="qwebs benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qwebs", "__init__.py")):
        print(f"error: no qwebs sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    env = {"python": platform.python_version(), "commit": _commit(), "nproc": os.cpu_count(),
           "seed": args.seed, "workload": args.workload, "seconds": args.seconds,
           "trace": args.trace}
    try:
        if args.trace:
            ops, traced_ops, metrics, info = per_layer(args.workload, args.seed)
        else:
            ops, traced_ops, metrics, info = end_to_end(args.workload, args.seed, args.seconds)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    with open(SPEC) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        print(f"error: metrics differ from {SPEC}: {sorted(set(units) ^ set(metrics))}",
              file=sys.stderr)
        return 1
    for idx, outcome, _, _, detail in ops + traced_ops:
        if outcome == "failed":
            print(f"FAILED op {idx}: {detail}")
    print("env: " + json.dumps(env))
    print("run: " + json.dumps(info))
    for name in units:
        print(f"{name}: {metrics[name]:.6g} {units[name]}")
    failed = sum(1 for op in ops + traced_ops if op[1] == "failed")
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    record = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump({"env": env, "run": info, "result": result, "ops": ops,
                   "traced_ops": traced_ops}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
