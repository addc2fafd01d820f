"""One fresh interpreter of the benchmark: set up, then do what the spec
file asks and print one JSON line.

    python3 perfbench/child.py SPEC.json

The spec holds "mode" (run, traced or micro), "workload", "seed",
"out_dir", "pass_seconds" and, for traced, "trace_dir". Set-up is what
every CLI run pays before its first step: importing rieszlab, validating
the configs and the first kernels.kernel_values call. A run or traced
child then makes passes over the workload's cli.run calls, each pass
writing to its own directory, until "pass_seconds" of them have passed.
Between its calls a pass times the reference probe (probe.py), so the
parent can put each pass's time in units of the host's speed at that
moment. The reply carries the monotonic clock at the end of set-up, so
the parent can time set-up from before it started this process.
"""

import json
import multiprocessing
import os
import resource
import statistics
import sys
import time

import probe
import workloads

# at least this many probes a pass, shared out between the gaps before
# each cli.run call and after the last one
PROBES_PER_PASS = 16


def _micro():
    """Median seconds per call of six layer functions on ROADMAP's fixed
    inputs: n_r = 512, n_theta = 256, the default bump, alpha = 0.1."""
    from rieszlab import cli, elliptic, evolution, kernels, model
    alpha = 0.1
    config = cli.validate_config({"alpha": alpha})
    rgrid, agrid = cli.build_grids(config)
    f0 = cli.build_profile(config, rgrid)
    marched = model.init_state(f0, alpha)
    for _ in range(10):
        marched = model.step(marched, alpha * config.dt_factor)
    omega = model.reconstruct_Omega2(model.init_state(f0, alpha), agrid)
    full = evolution.FullState(alpha, omega, 0.0)
    calls = {
        "kernels.kernel_values": lambda: kernels.kernel_values(
            marched.A.values),
        "kernels.apply_lf_kernel": lambda: kernels.apply_lf_kernel(
            f0, marched.A),
        "model.step": lambda: model.step(marched, alpha * config.dt_factor),
        "elliptic.solve_full": lambda: elliptic.solve_full(
            omega, alpha, n_modes=agrid.n_theta // 3),
        "evolution.rhs_full": lambda: evolution.rhs_full(full),
        "evolution.step_full": lambda: evolution.step_full(
            full, 1e-4, enforce_cfl=False),
    }
    out = {}
    for name, call in calls.items():
        call()
        times = []
        spent = 0.0
        while len(times) < 5 or spent < 0.3:
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
            spent += times[-1]
        out[name] = statistics.median(times)
    return out


def _validated(cli, spec, n_pass):
    out_dir = os.path.join(spec["out_dir"], "pass%d" % n_pass)
    return [(name, cli.validate_config(values)) for name, values in
            workloads.configs(spec["workload"], spec["seed"], out_dir)]


def _probes(times, count, cores):
    """Times `count` probes on each of `cores` processes at once, so a
    workload that keeps several cores busy is gauged on as many."""
    if cores == 1:
        times.extend(probe.probes(count))
        return
    with multiprocessing.get_context("fork").Pool(cores - 1) as pool:
        others = pool.map_async(probe.probes, [count] * (cores - 1))
        times.extend(probe.probes(count))
        for got in others.get():
            times.extend(got)


def _run_pass(cli, configs, cores):
    """Times the pass's cli.run calls, with the probe between them; "spent"
    also counts the probes."""
    runs = {}
    probes = []
    per_gap = -(-PROBES_PER_PASS // (len(configs) + 1))
    run_s = 0.0
    start = time.perf_counter()
    for name, config in configs:
        _probes(probes, per_gap, cores)
        t0 = time.perf_counter()
        try:
            cli.run(config)
            error = None
        except Exception as exc:
            # a failed run counts as failed; the next run still goes
            error = "%s: %s" % (type(exc).__name__, exc)
        run_s += time.perf_counter() - t0
        runs[name] = [config.output_dir, error]
    _probes(probes, per_gap, cores)
    # the mean, not the median: the host switches between a fast and a
    # slow speed, and the mean follows the share of slow time as the
    # pass's own time does
    return {"run_s": run_s, "probe_s": statistics.fmean(probes),
            "spent": time.perf_counter() - start, "runs": runs}


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    mode = spec["mode"]
    import numpy as np
    import rieszlab
    src = os.path.abspath("src")
    if os.path.dirname(os.path.dirname(os.path.abspath(
            rieszlab.__file__))) != src:
        sys.exit("rieszlab was imported from %s, not from %s"
                 % (rieszlab.__file__, src))
    from rieszlab import cli, kernels
    tracer = None
    if mode == "traced":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer, spec["trace_dir"])
    configs = _validated(cli, spec, 0)
    kernels.kernel_values(np.zeros(1))
    reply = {"ready": time.monotonic(),
             "start_method": multiprocessing.get_start_method()}
    if mode == "micro":
        reply["micro_s"] = _micro()
    else:
        # passes after the first reuse the warm interpreter; the first
        # one is what a single CLI run pays after set-up
        cores = workloads.busy_cores(spec["workload"])
        passes = [_run_pass(cli, configs, cores)]
        spent = passes[0]["spent"]
        while spent < spec["pass_seconds"]:
            passes.append(_run_pass(
                cli, _validated(cli, spec, len(passes)), cores))
            spent += passes[-1]["spent"]
        reply["passes"] = passes
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # sweep workers: the largest of them
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        reply["peak_rss_mb"] = peak_kb / 1024.0
        if tracer is not None:
            tracer.dump(os.path.join(spec["trace_dir"], "main.json"))
    print(json.dumps(reply))


if __name__ == "__main__":
    main(sys.argv[1])
