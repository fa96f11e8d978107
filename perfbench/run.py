"""Campaign benchmark for wegnerlab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload's ``wegnerlab`` CLI command in fresh processes, closed
loop (the next command starts when the previous one has exited), for at
most S seconds and at least one command, using the package under ``src/``
of this checkout.  Every CSV row, or every verify suite, is checked against
the reference recorded from the unmodified program (reference.json).  The
last line of stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: with ``--trace 0`` the end-to-end metrics, with ``--trace 1``
the per-layer ones from a traced run interleaved with untraced runs.

``--seed N`` selects reference slot ``N % 16``: campaign commands get
``run --seed <config seed> + slot``, the verify suites their default seed
+ 1000 * slot.  Details and the environment block go to stdout before the
result line and to ``.perfbench_work/results/``.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("band_center_1d", "edge_pair", "coupled_bulk", "oracles")
SUITES = ("tensor", "dist", "resolvent", "events", "perturbation", "lyapunov")
LAYERS = ("lattice", "randomfield", "hamiltonian", "spectral", "wegner")
SLOTS = 16
SETUP_PROBES = 5
INVOCATION_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    **{f"{layer}.us_per_trial": "us" for layer in LAYERS},
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "randomfield.points_per_trial": "count",
    "hamiltonian.builds_per_trial": "count",
    "hamiltonian.dense_bytes_per_trial": "B",
    "spectral.eig_calls_per_trial": "count",
    "spectral.eig_dim3_per_trial": "count",
    "spectral.useful_ratio": "ratio",
    "trial.us_p50": "us",
    "trial.us_p99": "us",
    "trial.unattributed_us": "us",
    "spectral.count_below_calls": "count",
    "spectral.count_below_us": "us",
    "spectral.count_below_retries": "count",
    "transfer.steps": "count",
    "transfer.ns_per_step": "ns",
    **{f"verify.{suite}_s": "s" for suite in SUITES},
    "cli.import_s": "s",
    "config.parse_s": "s",
    "config.validate_s": "s",
    "process.cpu_s": "s",
    "process.blas_threads": "count",
    "trace.overhead": "ratio",
    "fail_rate": "ratio",
}


def config_path(workload):
    return HERE / "workloads" / f"{workload}.json"


def campaign_seed(workload, slot):
    return json.loads(config_path(workload).read_text())["run"]["seed"] + slot


def cli_args(workload, slot, out_csv):
    if workload == "oracles":
        return ["verify"]
    return [
        "run",
        "--config",
        str(config_path(workload)),
        "--out",
        str(out_csv),
        "--seed",
        str(campaign_seed(workload, slot)),
    ]


def stolen_cpu_s():
    """CPU seconds the hypervisor has taken from this machine's CPUs since boot.

    The ``steal`` column of /proc/stat; 0 where the kernel does not report it.
    """
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def invoke(workload, slot, workdir, **options):
    """Run the workload command once in a fresh process; return what it measured.

    ``options`` go to child.py (trace, setup_only, env_only).  The result
    holds the exit code, the wall and set-up times seen from here, the share
    of the machine's CPU time the hypervisor took meanwhile, the child's
    stats and the CSV bytes (None when no file was written).
    """
    inv_dir = Path(tempfile.mkdtemp(dir=workdir))
    stats_path, out_csv, log_path = (inv_dir / name for name in ("stats.json", "out.csv", "log"))
    options = {**options, "seed_slot": slot}
    pythonpath = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    argv = [
        sys.executable,
        str(HERE / "child.py"),
        str(stats_path),
        json.dumps(options),
        *cli_args(workload, slot, out_csv),
    ]
    with open(log_path, "wb") as log:
        stolen = stolen_cpu_s()
        started = time.monotonic()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
            env=env, cwd=ROOT,
        )
        try:
            code = proc.wait(timeout=INVOCATION_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        wall = time.monotonic() - started
        stolen = stolen_cpu_s() - stolen
    stats = json.loads(stats_path.read_text()) if stats_path.exists() else None
    start = stats.get("campaign_start") if stats else None
    return {
        "exit_code": code,
        "wall_s": wall,
        "setup_s": None if start is None else start - started,
        "steal_share": min(stolen / (os.cpu_count() * wall), 1.0),
        "stats": stats,
        "csv": out_csv.read_bytes() if out_csv.exists() else None,
        "log": log_path.read_text(errors="replace"),
    }


def record(workload, inv):
    """The reference entry for one invocation: exit status plus outputs."""
    entry = {"exit_code": inv["exit_code"]}
    if workload == "oracles":
        suites = inv["stats"]["suites"] if inv["stats"] else {}
        entry["suites"] = {name: suites.get(name) for name in SUITES}
    else:
        lines = (inv["csv"] or b"").decode().split("\r\n")
        entry["header"] = lines[0]
        entry["rows"] = [line for line in lines[1:] if line]
    return entry


def check(workload, reference, inv):
    """(attempted, failed) operations of one invocation against its reference.

    A campaign row fails if the command raised, or if its CSV line or the
    exit status differs from the reference.  A verify suite fails if it
    raised or did not pass, or if its result or the exit status differs.
    """
    got = record(workload, inv)
    same_status = got["exit_code"] == reference["exit_code"]
    if workload == "oracles":
        expected = reference["suites"]
        failed = sum(
            not same_status or got["suites"][name] != result or not result[0]
            for name, result in expected.items()
        )
        return len(expected), failed
    expected = reference["rows"]
    if not same_status or got["header"] != reference["header"]:
        return len(expected), len(expected)
    rows = got["rows"]
    failed = sum(i >= len(rows) or rows[i] != line for i, line in enumerate(expected))
    return len(expected), failed


def percentile(sorted_values, q):
    """Nearest-rank percentile of a non-empty ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[rank - 1]


def rate(inv):
    """Trials (campaigns) or checked instances (oracles) per second of rows."""
    rows = inv["stats"]["rows"]
    return sum(n for n, _ in rows) / sum(s for _, s in rows)


def end_to_end(probes, runs):
    """The end-to-end metrics of a run, net of the time the hypervisor took.

    The shared host's hypervisor takes a share of the CPUs that changes
    over minutes (its ``steal_share``), so each command's times are
    multiplied by ``1 - steal_share``.  ``trials_per_s`` is all trials of
    the run over all their row time and ``wall_s`` the mean over the
    commands, which use every command; ``setup_s`` is the median over the
    probes and the commands, ``peak_rss_mb`` over the commands.
    """
    trials = sum(n for inv in runs for n, _ in inv["stats"]["rows"])
    row_s = sum(s * (1 - inv["steal_share"]) for inv in runs for _, s in inv["stats"]["rows"])
    values = {
        "setup_s": median([inv["setup_s"] * (1 - inv["steal_share"]) for inv in probes + runs]),
        "wall_s": sum(inv["wall_s"] * (1 - inv["steal_share"]) for inv in runs) / len(runs),
        "trials_per_s": trials / row_s,
        "peak_rss_mb": median([inv["stats"]["maxrss_kb"] / 1024 for inv in runs]),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def span_totals(spans):
    """Nanoseconds and calls per span name, trial durations, trial self time."""
    ns, calls, child_ns = Counter(), Counter(), Counter()
    for name, start, end, parent, _ in spans:
        ns[name] += end - start
        calls[name] += 1
        if parent >= 0 and spans[parent][0] == "trial":
            child_ns[parent] += end - start
    trials = [(i, end - start) for i, (name, start, end, _, _) in enumerate(spans) if name == "trial"]
    return ns, calls, [d for _, d in trials], sum(d - child_ns[i] for i, d in trials)


def row_breakdown(workload, stats):
    """Per campaign row: ms per trial and each layer's share of the row."""
    if workload == "oracles":
        return []
    L_list = json.loads(config_path(workload).read_text())["model"]["L_list"]
    spans = stats["spans"]
    rows = [i for i, s in enumerate(spans) if s[0] == "row"]
    owner = {}
    for i, (name, _, _, parent, _) in enumerate(spans):
        if name == "trial":
            owner[i] = parent
        elif parent in owner:
            owner[i] = owner[parent]
    out = []
    for k, r in enumerate(rows):
        row_ns = spans[r][2] - spans[r][1]
        trials = stats["rows"][k][0]
        layer_ns = {layer: 0 for layer in LAYERS}
        for i, (name, start, end, parent, _) in enumerate(spans):
            if name in layer_ns and owner.get(i) == r:
                layer_ns[name] += end - start
        out.append(
            {
                "L": L_list[k],
                "ms_per_trial": row_ns / 1e6 / trials,
                **{layer: ns / row_ns for layer, ns in layer_ns.items()},
            }
        )
    return out


def per_layer(workload, untraced, traced, attempted, failed):
    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    n = len(traced)
    trials = sum(t for inv in traced for t, _ in inv["stats"]["rows"])
    row_s = sum(s for inv in traced for _, s in inv["stats"]["rows"])
    totals, calls, counters, trial_ns, self_ns = Counter(), Counter(), Counter(), [], 0
    for inv in traced:
        inv_ns, inv_calls, inv_trial_ns, inv_self_ns = span_totals(inv["stats"]["spans"])
        totals += inv_ns
        calls += inv_calls
        trial_ns += inv_trial_ns
        self_ns += inv_self_ns
        counters.update(inv["stats"]["counters"])
    if workload != "oracles":
        for layer in LAYERS:
            values[f"{layer}.us_per_trial"] = totals[layer] / 1e3 / trials
            values[f"{layer}.share"] = totals[layer] / 1e9 / row_s
        values["randomfield.points_per_trial"] = counters["field_points"] / trials
        values["hamiltonian.builds_per_trial"] = counters["builds"] / trials
        values["hamiltonian.dense_bytes_per_trial"] = counters["dense_bytes"] / trials
        values["spectral.eig_calls_per_trial"] = counters["eig_calls"] / trials
        values["spectral.eig_dim3_per_trial"] = counters["eig_dim3"] / trials
        if counters["eig_values"]:
            values["spectral.useful_ratio"] = counters["eig_useful"] / counters["eig_values"]
        trial_ns.sort()
        values["trial.us_p50"] = percentile(trial_ns, 50) / 1e3
        values["trial.us_p99"] = percentile(trial_ns, 99) / 1e3
        values["trial.unattributed_us"] = self_ns / 1e3 / trials
        values["config.parse_s"] = totals["config.parse"] / 1e9 / n
        values["config.validate_s"] = totals["config.validate"] / 1e9 / n
    else:
        values["spectral.count_below_calls"] = calls["count_below"] / n
        values["spectral.count_below_us"] = totals["count_below"] / 1e3 / n
        values["spectral.count_below_retries"] = counters["count_below_retries"] / n
        steps = counters["transfer_steps"]
        values["transfer.steps"] = steps / n
        if steps:
            values["transfer.ns_per_step"] = totals["transfer.lyapunov"] / steps
        for suite in SUITES:
            values[f"verify.{suite}_s"] = totals[f"verify.{suite}"] / 1e9 / n
    values["cli.import_s"] = median([inv["stats"]["import_s"] for inv in untraced + traced])
    values["process.cpu_s"] = median([inv["stats"]["cpu_s"] for inv in untraced])
    values["process.blas_threads"] = traced[0]["stats"]["blas_threads"]
    values["trace.overhead"] = (
        median([inv["wall_s"] for inv in traced]) / median([inv["wall_s"] for inv in untraced])
        - 1.0
    )
    values["fail_rate"] = failed / attempted
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


def measure(workload, seed, seconds, trace, workdir):
    """Run the workload for about ``seconds``; return the result and details."""
    slot = seed % SLOTS
    reference = json.loads(REFERENCE.read_text())[workload][str(slot)]
    started = time.monotonic()
    probes, untraced, traced = [], [], []
    if not trace:
        probes = [invoke(workload, slot, workdir, setup_only=True) for _ in range(SETUP_PROBES)]
    while True:
        begun = time.monotonic()
        untraced.append(invoke(workload, slot, workdir))
        if trace:
            traced.append(invoke(workload, slot, workdir, trace=True))
        # Start another command only while a whole one still fits.
        now = time.monotonic()
        if now - started + (now - begun) > seconds:
            break
    attempted = failed = 0
    for inv in untraced + traced:
        a, f = check(workload, reference, inv)
        attempted += a
        failed += f
        if inv["stats"] is None:
            print(f"command failed (exit {inv['exit_code']}):\n{inv['log']}", file=sys.stderr)
    if traced and all(inv["stats"] for inv in traced + untraced):
        metrics = per_layer(workload, untraced, traced, attempted, failed)
    elif not trace and all(inv["stats"] for inv in probes + untraced):
        metrics = end_to_end(probes, untraced)
    else:
        metrics = None
    details = {
        "invocations": [
            {
                "kind": kind,
                "exit_code": inv["exit_code"],
                "wall_s": inv["wall_s"],
                "setup_s": inv["setup_s"],
                "rate": rate(inv) if inv["stats"] and inv["stats"]["rows"] else None,
                "cpu_s": inv["stats"]["cpu_s"] if inv["stats"] else None,
                "steal_share": inv["steal_share"],
            }
            for kind, group in (("setup", probes), ("untraced", untraced), ("traced", traced))
            for inv in group
        ],
        "csv_identical": len({inv["csv"] for inv in untraced + traced}) == 1,
        "rows": row_breakdown(workload, traced[0]["stats"]) if traced and traced[0]["stats"] else [],
    }
    result = {
        "correct": failed == 0 and metrics is not None,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics or {},
    }
    return result, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds through the finally clauses, which kill and
    # reap the workload process still running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "wegnerlab" / "__init__.py").is_file():
        print(f"no wegnerlab package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        env = invoke(args.workload, 0, workdir, env_only=True)["stats"]["env"]
        result, details = measure(args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"invocations {len(details['invocations'])}, csv identical {details['csv_identical']}")
    for row in details["rows"]:
        shares = " ".join(f"{layer} {row[layer]:.1%}" for layer in LAYERS)
        print(f"row L={row['L']}: {row['ms_per_trial']:.3f} ms/trial, {shares}")
    results_dir = WORK / "results"
    results_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(
        json.dumps({"env": env, "details": details, "result": result}, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
