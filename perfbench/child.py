"""One workload process: a wegnerlab CLI command as a user runs it.

    python3 perfbench/child.py STATS_PATH OPTIONS_JSON CLI_ARGS...

run.py starts this with the checkout's ``src`` first on PYTHONPATH.  It
imports ``wegnerlab.cli``, runs ``CLI_ARGS`` through the click entry point
(the same call the ``wegnerlab`` console script makes) and writes what it
measured to STATS_PATH as JSON before exiting with the command's status.

OPTIONS_JSON keys:
  trace        install the span recorder (spans.py) before the command runs;
  setup_only   stop where the campaign would start, to time set-up alone;
  seed_slot    oracles only: every verify suite runs at its default seed
               + 1000 * seed_slot;
  env_only     record the environment block and run no command.

Everything before the first campaign row (or the first verify suite) is
set-up: interpreter start, ``import wegnerlab``, argument and config
parsing and validation.  Only a timestamp per row is taken outside the
traced mode, so untraced runs carry no per-trial bookkeeping.
"""

import json
import sys
import time


class SetupDone(Exception):
    """Raised where the campaign would start when timing set-up alone."""


def blas_threads():
    """Thread count of the OpenBLAS that numpy links, or 0 if not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return 0
    names = (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads",
    )
    for path in sorted(paths, key=lambda p: "numpy" not in p):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return 0


def environment():
    import os
    import platform

    import numpy
    import scipy

    config = getattr(numpy, "__config__", None)
    deps = getattr(config, "CONFIG", {}).get("Build Dependencies", {})
    blas = deps.get("blas", {})
    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
    }


def seed_suites(verify, slot, stats):
    """Run each verify suite at its default seed + 1000 * slot, recording its result."""
    import functools
    import inspect

    for name, suite in list(verify.ALL_SUITES.items()):
        seed = inspect.signature(suite).parameters["seed"].default + 1000 * slot

        def seeded(suite=suite, seed=seed):
            result = suite(seed=seed)
            stats["suites"][result.name] = [result.passed, result.checked]
            return result

        verify.ALL_SUITES[name] = functools.update_wrapper(seeded, suite)


def main(argv):
    stats_path, options, cli_args = argv[1], json.loads(argv[2]), argv[3:]
    stats = {"rows": [], "suites": {}, "campaign_start": None}
    if options.get("env_only"):
        stats["env"] = environment()
        with open(stats_path, "w") as f:
            json.dump(stats, f)
        return 0

    started = time.monotonic()
    import wegnerlab.cli as cli

    stats["import_s"] = time.monotonic() - started
    setup_only = options.get("setup_only", False)
    tracer = None
    if options.get("trace"):
        from spans import Tracer

        tracer = Tracer()
    if cli_args[0] == "verify":
        import wegnerlab.verify as verify

        seed_suites(verify, options["seed_slot"], stats)
        if tracer is not None:
            tracer.install_oracles()
        run_suites = cli.run_suites

        def timed_run_suites(*args, **kwargs):
            stats["campaign_start"] = begin = time.monotonic()
            if setup_only:
                raise SetupDone
            results = run_suites(*args, **kwargs)
            checked = sum(r.checked for r in results)
            stats["rows"].append([checked, time.monotonic() - begin])
            return results

        cli.run_suites = timed_run_suites
    else:
        if tracer is not None:
            tracer.install_campaign()
        mc_estimate = cli.mc_estimate

        def timed_mc_estimate(*args, **kwargs):
            begin = time.monotonic()
            if stats["campaign_start"] is None:
                stats["campaign_start"] = begin
            if setup_only:
                raise SetupDone
            result = mc_estimate(*args, **kwargs)
            stats["rows"].append([result.trials, time.monotonic() - begin])
            return result

        cli.mc_estimate = timed_mc_estimate

    try:
        code = cli.main.main(args=cli_args, prog_name="wegnerlab", standalone_mode=False)
    except SetupDone:
        code = 0

    import resource

    usage = resource.getrusage(resource.RUSAGE_SELF)
    stats["exit_code"] = code
    stats["cpu_s"] = usage.ru_utime + usage.ru_stime
    stats["maxrss_kb"] = usage.ru_maxrss
    if tracer is not None:
        stats["spans"] = tracer.spans
        stats["counters"] = dict(tracer.counters)
        stats["blas_threads"] = blas_threads()
    with open(stats_path, "w") as f:
        json.dump(stats, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
