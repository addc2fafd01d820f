"""Benchmark of rieszlab's three marches. See perfbench/README.md.

    python3 perfbench/run.py --workload growth --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. One invocation makes three reps, one
after another; each rep is a fresh interpreter that sets up and then
makes passes over the workload's public API calls (cli.validate_config,
then cli.run) for a third of --seconds. A pass's time is reported in
units of a reference probe timed between its calls (probe.py), because
the shared host's speed drifts by half from minute to minute. Outputs
are gated for correctness outside the timed region. --trace 1 adds one
traced rep and one rep of micro timings, and reports the per-layer
metrics instead of the end-to-end ones. The last line of standard
output is one JSON object; --workload all runs every workload and
prefixes each metric with its workload's name.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import probe
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("growth", "remainder", "sweep")
# fresh interpreters per run, each with its share of --seconds; this is
# also the number of set-up samples behind setup_s
REPS = 3
# every invocation must end within 180 s
HARD_LIMIT_S = 170.0


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    # two sweep workers on two cores would otherwise oversubscribe
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def use_checkout_source():
    """Import rieszlab from ./src, the checkout being measured."""
    if not os.path.isfile(os.path.join("src", "rieszlab", "__init__.py")):
        raise SystemExit("no src/rieszlab here: run from a checkout's root")
    sys.path.insert(0, os.path.abspath("src"))


def _spawn(spec, work, label, deadline):
    """Run child.py on `spec` in a fresh interpreter. Returns (reply, None)
    or (None, error). setup_s in the reply counts from before the start."""
    path = os.path.join(work, "spec-%s.json" % label)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=_child_env(), start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        return None, "timed out"
    finally:
        if proc.returncode is None:
            # the session holds the child and any sweep workers it forked
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or [""]
        return None, "child exit %d: %s" % (proc.returncode, tail[0])
    reply = json.loads(out.strip().splitlines()[-1])
    reply["setup_s"] = reply["ready"] - t0
    return reply, None


def _gate(name, seed, runs):
    try:
        return workloads.check(name, seed, runs)
    except (OSError, ValueError, KeyError) as exc:
        return {run: "outputs unreadable: %s" % exc for run in runs}


def _intervals(configs):
    """Output intervals marched by the model and by the full system."""
    from rieszlab.cli import validate_config
    model = full = 0
    for _, values in configs:
        config = validate_config(values)
        per_run = config.sample_count - 1
        if config.run_kind == "model":
            model += per_run
        elif config.run_kind == "remainder":
            model += per_run
            full += per_run
        elif config.run_kind == "sweep":
            model += per_run * len(config.alphas)
            full += per_run * len(config.alphas)
    return model, full


class Tally:
    """Attempted and failed runs; a run fails on an exception, a manifest
    error or check, or a failed gate."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, label, n_runs, problems):
        self.attempted += n_runs
        self.failed += len(problems)
        for run, problem in sorted(problems.items()):
            print("FAIL %s %s: %s" % (label, run, problem), file=sys.stderr)


def run_rep(name, seed, mode, work, label, pass_seconds, deadline, tally,
            trace_dir=None):
    """One fresh interpreter; gates each of its passes."""
    spec = {"mode": mode, "workload": name, "seed": seed,
            "out_dir": os.path.join(work, label),
            "pass_seconds": pass_seconds, "trace_dir": trace_dir}
    reply, error = _spawn(spec, work, label, deadline)
    if error is not None:
        runs = [run for run, _ in workloads.configs(name, seed, work)]
        tally.add(label, len(runs), {run: error for run in runs})
        return None
    for k, one_pass in enumerate(reply["passes"]):
        tally.add("%s pass%d" % (label, k), len(one_pass["runs"]),
                  _gate(name, seed, one_pass["runs"]))
    return reply


def run_workload(name, seed, seconds, trace):
    """Returns (end-to-end metrics, host timings, per-layer metrics or
    None, tally, start method); each metric is (value, unit, sample
    count)."""
    work = os.path.join(HERE, "_work", name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    deadline = time.monotonic() + HARD_LIMIT_S
    tally = Tally()
    replies = []
    for k in range(REPS):
        reply = run_rep(name, seed, "run", work, "rep%d" % k, seconds / REPS,
                        deadline, tally)
        if reply is not None:
            replies.append(reply)
            print("%s rep %d: setup %.3f s, passes (s/probe ms) %s" % (
                name, k, reply["setup_s"], " ".join(
                    "%.3f/%.1f" % (p["run_s"], 1e3 * p["probe_s"])
                    for p in reply["passes"])), file=sys.stderr)
    if not replies:
        raise SystemExit("workload %s: every rep failed" % name)
    passes = [p for r in replies for p in r["passes"]]
    setup = [r["setup_s"] for r in replies]
    run_s = [p["run_s"] for p in passes]
    run_norm_s = [p["run_s"] / p["probe_s"] * probe.REFERENCE_S
                  for p in passes]
    rss = [r["peak_rss_mb"] for r in replies]
    e2e = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "run_norm_s": (statistics.median(run_norm_s), "s", len(run_norm_s)),
        "peak_rss_mb": (statistics.median(rss), "MB", len(rss)),
    }
    # shown, not reported: wall time swings with the host's speed
    host = {
        "run_s": (statistics.median(run_s), "s", len(run_s)),
        "probe_ms": (1e3 * statistics.median(p["probe_s"] for p in passes),
                     "ms", len(passes)),
    }
    start_method = replies[0]["start_method"]
    if not trace:
        return e2e, host, None, tally, start_method

    trace_dir = os.path.join(work, "trace")
    os.makedirs(trace_dir)
    traced = run_rep(name, seed, "traced", work, "traced", 0.0, deadline,
                     tally, trace_dir)
    micro, error = _spawn({"mode": "micro", "workload": name, "seed": seed,
                           "out_dir": os.path.join(work, "micro")},
                          work, "micro", deadline)
    if traced is None or error is not None:
        raise SystemExit("workload %s: traced or micro rep failed: %s"
                         % (name, error or "see above"))
    calls, self_s, cfl = tracer.summarise(trace_dir)
    layer = {}
    for span in tracer.span_names():
        layer[span + ".calls"] = (calls.get(span, 0), "count", 1)
        layer[span + ".self_s"] = (self_s.get(span, 0.0), "s", 1)
    model_iv, full_iv = _intervals(workloads.configs(name, seed, work))
    tendencies = calls.get("evolution.rhs_full", 0)
    idle = [workloads.worker_idle_share(p["runs"], p["run_s"])
            for p in passes
            if name == "sweep" and p["runs"]["sweep"][1] is None] or [0.0]
    layer.update({
        "evolution.cfl_utilisation": (cfl, "ratio", 1),
        "elliptic.solves_per_tendency": (
            calls.get("elliptic.solve_full", 0) / tendencies
            if tendencies else 0.0, "ratio", 1),
        "evolution.steps_per_sample": (
            calls.get("evolution.step_full", 0) / full_iv if full_iv else 0.0,
            "ratio", 1),
        "model.steps_per_sample": (
            calls.get("model.step", 0) / model_iv if model_iv else 0.0,
            "ratio", 1),
        "cli.sweep.worker_idle_share": (statistics.median(idle), "ratio",
                                        len(idle)),
        "trace.overhead_s": (
            traced["passes"][0]["run_s"] - statistics.median(run_s), "s", 1),
    })
    for fn, seconds_per_call in micro["micro_s"].items():
        layer["micro.%s.us" % fn] = (1e6 * seconds_per_call, "us", 1)
    return e2e, host, layer, tally, start_method


def metadata(start_method):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas["name"], blas["version"])
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "start_method": start_method}


def _stop(signum, frame):
    raise SystemExit("stopped by signal %d" % signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_checkout_source()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        e2e, host, layer, tally, start_method = run_workload(
            name, args.seed, args.seconds, args.trace)
        print("%s seed %d: %d of %d runs failed; run %s"
              % (name, args.seed, tally.failed, tally.attempted,
                 json.dumps(metadata(start_method))))
        for group in (e2e, host, layer or {}):
            for metric, (value, unit, n) in group.items():
                print("  %-40s %16.6f %-6s n=%d" % (metric, value, unit, n))
        prefix = name + "." if args.workload == "all" else ""
        for metric, (value, unit, _) in (layer or e2e).items():
            result["metrics"][prefix + metric] = {"value": value,
                                                  "unit": unit}
        result["attempted"] += tally.attempted
        result["failed"] += tally.failed
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
