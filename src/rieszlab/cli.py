"""Batch front end: config files, run orchestration, CSV and manifest
output, and the built-in verification suites.

Config files are flat ``key = value`` text with dotted keys, one
assignment per line, # comments on whole lines. Every run writes its
output files plus a manifest.json recording the resolved configuration,
code version, wall time, per-check summary, and a sha256 digest of every
emitted file, so identical config and code give byte-identical output.

Exit codes: 0 success, 2 bad config, 3 numerical failure, a solver's
ValueError, a MemoryError, a sweep worker that died or an output file
that could not be written (the manifest names the failing stage), 4 a
verify subcommand found a failing check.
"""

import argparse
import contextlib
import hashlib
import importlib
import json
import math
import numbers
import os
import re
import sys
import time
import warnings

import numpy as np

from . import __version__
from .errors import ConfigError, NumericalError, RieszlabError, WriteError
from .grids import (build_radial_grid, AngularGrid, RadialProfile, Field2D,
                    trapz)
from .kernels import (gamma_kernel, kernel_values, profile_tail, op_Ls,
                      apply_lf_kernel)
from . import model as model_mod
from .elliptic import (solve_mode, exact_mode2, principal_remainder_split,
                       mode_residual, lapack_tridiagonal)
from .evolution import (FullState, FullMarch, MAX_STEP_OVER_ALPHA,
                        step_linear, run_remainder_study, field_row,
                        support_edge_index)
from .diagnostics import alpha_scaling_study

# validation bounds: set-up overflows past MAX_AMPLITUDE, every node and
# sample count sizes arrays and may not pass MAX_COUNT, and a full march
# to T = horizon_factor alpha |log alpha| takes at least horizon_factor
# |log alpha| / MAX_STEP_OVER_ALPHA steps, which may not pass MAX_FULL_STEPS
MAX_AMPLITUDE = 1e300
MAX_COUNT = 65536
MAX_FULL_STEPS = 1e5
_POSITIVE = ("(", 0.0, math.inf, ")")

# the entries of one (samples, distinct rows) array of a linear run's
# rows, so that its memory does not grow with the sample count. The same
# for a model run's (samples, distinct L0) arrays, whose l2 column's
# products are not bitwise stable when their rows are split, so one
# block holds the default and benchmark runs whole
_LINEAR_BLOCK = 8192
_MODEL_BLOCK = 1 << 18

# what stops a started run with exit 3: a numerical failure, a solver
# precondition that validation missed, or an allocation that fails
_RUN_FAILURES = (RieszlabError, ValueError, MemoryError)

# each key's RunConfig attribute, default, type (int, float, str) or the
# tuple of values it may take, and the interval a number must lie in, as
# (opening bracket, low end, high end, closing bracket), or None; every
# kind needs 8 angles, as 4 sample sin 2 theta only at its zeros
_KEYS = {
    "alpha": ("alpha", 0.1, float, ("(", 0.0, 1.0, ")")),
    "delta": ("delta", 1.0, float, ("[", 0.0, MAX_AMPLITUDE, "]")),
    "grid.r_max": ("r_max", 8.0, float, _POSITIVE),
    "grid.n_r": ("n_r", 512, int, ("[", 8, MAX_COUNT, "]")),
    "grid.n_theta": ("n_theta", 256, int, ("[", 8, MAX_COUNT, "]")),
    "time.dt_factor": ("dt_factor", 1.0 / 50.0, float, _POSITIVE),
    "time.horizon_factor": ("horizon_factor", 0.1, float, _POSITIVE),
    "time.sample_count": ("sample_count", 200, int, ("[", 2, MAX_COUNT, "]")),
    "initial.kind": ("initial_kind", "bump", ("bump", "indicator", "table"),
                     None),
    "initial.center": ("center", 2.0, float, None),
    "initial.width": ("width", 1.0, float, _POSITIVE),
    "initial.table_path": ("table_path", "", str, None),
    "run.kind": ("run_kind", "model",
                 ("model", "linear", "full", "remainder", "sweep"), None),
    "run.alphas": ("alphas", "0.4,0.2,0.1", str, None),
    "output.dir": ("output_dir", "rieszlab-out", str, None),
}

# the values validate_config accepts for each type of the table
_ACCEPTS = {int: numbers.Integral, float: numbers.Real, str: str}


class RunConfig:
    """Resolved, validated run parameters: each key as the attribute _KEYS
    names, but alphas is run.alphas split into floats."""

    def __init__(self, values, alphas):
        self.values = dict(values)
        for key, (attr, _, _, _) in _KEYS.items():
            setattr(self, attr, values[key])
        self.alphas = alphas


def _member_dir_name(alpha):
    """The directory a sweep member writes under the sweep's output.dir."""
    return "alpha_%g" % alpha


def _check_range(key, value, bounds):
    """Refuse a value of key that lies outside the interval bounds."""
    opening, lo, hi, closing = bounds
    if not ((lo < value or opening == "[" and value == lo)
            and (value < hi or closing == "]" and value == hi)):
        raise ConfigError("%s must lie in %s%g, %g%s, got %s"
                          % (key, *bounds, value))


def validate_config(values):
    unknown = sorted(set(values) - set(_KEYS))
    if unknown:
        raise ConfigError("unknown key %s" % ", ".join(map(repr, unknown)))
    merged = {key: default for key, (_, default, _, _) in _KEYS.items()}
    merged.update(values)
    for key, (_, _, kind, bounds) in _KEYS.items():
        value = merged[key]
        if isinstance(kind, tuple):
            if value not in kind:
                raise ConfigError("%s must be one of %s, got %r"
                                  % (key, "|".join(kind), value))
        elif (isinstance(value, bool)
              or not isinstance(value, _ACCEPTS[kind])):
            # bool is an Integral, but True is no count or size
            raise ConfigError("%s must be of type %s, got %r"
                              % (key, kind.__name__, value))
        elif kind is float and not abs(value) <= sys.float_info.max:
            # compared exactly, so an int past the float range fails too
            raise ConfigError("%s must be finite and fit a float" % key)
        elif bounds is not None:
            _check_range(key, value, bounds)
    alpha = merged["alpha"]
    if merged["grid.n_theta"] % 4 != 0:
        raise ConfigError("grid.n_theta must be a multiple of 4, got %d"
                          % merged["grid.n_theta"])
    kind = merged["initial.kind"]
    if kind == "table":
        if not merged["initial.table_path"]:
            raise ConfigError("initial.table_path is required for "
                              "initial.kind = table")
    else:
        # the bump's half-width, or half the indicator's width
        half = (1.0 if kind == "bump" else 0.5) * merged["initial.width"]
        lo = merged["initial.center"] - half
        hi = merged["initial.center"] + half
        if lo < 1.0:
            raise ConfigError('support must avoid [0,1); initial data '
                              'starts at %g' % lo)
        if hi > 0.8 * merged["grid.r_max"]:
            raise ConfigError("support must end inside 0.8*r_max = %g, "
                              "got %g" % (0.8 * merged["grid.r_max"], hi))
    try:
        alphas = tuple(float(a) for a in merged["run.alphas"].split(",")
                       if a != "")
    except ValueError:
        raise ConfigError("run.alphas must be comma-separated numbers")
    for a in alphas:
        _check_range("run.alphas", a, _KEYS["alpha"][3])
    if merged["run.kind"] == "sweep" and not alphas:
        raise ConfigError("run.kind = sweep needs at least one run.alphas "
                          "member")
    names = [_member_dir_name(a) for a in alphas]
    if len(set(names)) < len(names):
        raise ConfigError("run.alphas members must be distinct and give "
                          "distinct member dirs alpha_<value>, got %s"
                          % merged["run.alphas"])
    if merged["run.kind"] in ("full", "remainder", "sweep"):
        marched = alphas if merged["run.kind"] == "sweep" else (alpha,)
        steps = max(float(merged["time.horizon_factor"]) * abs(math.log(a))
                    for a in marched) / MAX_STEP_OVER_ALPHA
        if steps > MAX_FULL_STEPS:
            raise ConfigError("time.horizon_factor = %g needs at least %.3g "
                              "full-march steps, over the %g allowed"
                              % (merged["time.horizon_factor"], steps,
                                 MAX_FULL_STEPS))
    config = RunConfig(merged, alphas)
    if kind != "table":
        _check_sampled(build_profile(config, build_grids(config)[0]),
                       config.delta > 0, "initial.center, initial.width")
    return config


def parse_config(path):
    """Read and validate a flat dotted-key config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    values, lines_of = {}, {}
    for ln, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("%s:%d: expected key = value, got %r"
                              % (path, ln, line))
        key, _, val = line.partition("=")
        if re.search(r"\s#", val):
            raise ConfigError("%s:%d: comments must take a whole line, got %r"
                              % (path, ln, line))
        key = key.strip()
        val = val.strip()
        if key not in _KEYS:
            raise ConfigError("%s:%d: unknown key %r" % (path, ln, key))
        if key in lines_of:
            raise ConfigError("%s:%d: key %r repeated, first set on line %d"
                              % (path, ln, key, lines_of[key]))
        lines_of[key] = ln
        kind = _KEYS[key][2]
        try:
            values[key] = val if isinstance(kind, tuple) else kind(val)
        except ValueError:
            raise ConfigError("%s:%d: bad value %r for %s"
                              % (path, ln, val, key))
    return validate_config(values)


def _check_sampled(f0, nonzero, keys):
    """Refuse initial data that the radial nodes miss, else return it: it
    must vanish at the first node, where the causal recurrences start
    from 0, and data that is nonzero must be nonzero at some node. keys
    name what moves the data."""
    first = f0.grid.nodes[0]
    if f0.values[0] != 0:
        raise ConfigError("initial data must vanish at the first radial node "
                          "1e-3*r_max = %g; lower grid.r_max or move the "
                          "data up (%s)" % (first, keys))
    if nonzero and not np.any(f0.values):
        raise ConfigError("no radial node on [%g, %g] samples the initial "
                          "data; raise grid.n_r, lower grid.r_max or widen "
                          "the data (%s)" % (first, f0.grid.r_max, keys))
    return f0


def build_grids(config):
    rgrid = build_radial_grid(1e-3 * config.r_max, config.r_max, config.n_r)
    return rgrid, AngularGrid(config.n_theta)


def build_profile(config, rgrid):
    kind = config.initial_kind
    if kind == "bump":
        return model_mod.make_bump(rgrid, config.center, config.width,
                                   config.delta)
    if kind == "indicator":
        return model_mod.make_indicator(
            rgrid, config.center - 0.5 * config.width,
            config.center + 0.5 * config.width, config.delta)
    try:
        with warnings.catch_warnings():
            # a file with no data rows warns; the check below reports it
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(config.table_path, ndmin=2)
    except (OSError, ValueError) as exc:
        # ValueError: a header line, comma separators or ragged rows
        raise ConfigError("cannot read initial table %s: %s"
                          % (config.table_path, exc))
    if table.shape[0] == 0:
        raise ConfigError("initial table %s has no data rows"
                          % config.table_path)
    if table.shape[1] < 2:
        raise ConfigError("initial table needs two columns: R, value")
    if table.shape[0] < 2:
        raise ConfigError("initial table needs at least two rows, got %d"
                          % table.shape[0])
    if not np.all(np.isfinite(table)):
        raise ConfigError("initial table entries must be finite")
    if np.any(table[:, 1] < 0):
        raise ConfigError("initial table values must be nonnegative")
    if not np.all(np.diff(table[:, 0]) > 0):
        raise ConfigError("initial table R column must be strictly "
                          "increasing")
    vals = np.interp(rgrid.nodes, table[:, 0], table[:, 1], left=0.0,
                     right=0.0)
    nz = rgrid.nodes[vals != 0.0]
    if nz.size:
        if nz.min() < 1.0:
            raise ConfigError("support must avoid [0,1); table data starts "
                              "at %g" % nz.min())
        if nz.max() > 0.8 * config.r_max:
            raise ConfigError("support must end inside 0.8*r_max")
    return _check_sampled(RadialProfile(rgrid, vals), np.any(table[:, 1]),
                          "initial.table_path")


@contextlib.contextmanager
def _writing(path):
    """path opened for writing text; an OSError while it is open, written
    or closed (a full disk, a revoked permission) is a WriteError."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise WriteError("cannot write %s: %s"
                         % (path, exc.strerror or exc)) from exc


def _write_csv(path, header, keys, rows):
    """The header, then per key (a sample time or an alpha) key and row,
    one %.17g field per column of the header. Returns (path, sha256 of the
    bytes written); with newline="" those bytes are the text in utf-8."""
    line = ",".join(["%.17g"] * (header.count(",") + 1)) + "\n"
    # Python floats, which % formats faster than numpy scalars
    text = header + "\n" + "".join(
        line % (key, *row) for key, row in zip(np.asarray(keys).tolist(),
                                               np.asarray(rows).tolist()))
    with _writing(path) as fh:
        fh.write(text)
    return path, hashlib.sha256(text.encode("utf-8")).hexdigest()


def _sample_times(config):
    t_final = model_mod.default_horizon(config.alpha, config.horizon_factor)
    return np.linspace(0.0, t_final, config.sample_count)


def _write_growth(out_dir, manifest, times, rows):
    """Write growth.csv, one (sup, l2, Ls_at_support_inf, A_max) row per
    sample time, check that every sup and l2 norm is finite, and return
    _write_csv's (path, digest)."""
    written = _write_csv(os.path.join(out_dir, "growth.csv"),
                         "t,sup_norm,l2_norm,Ls_at_support_inf,A_max", times,
                         rows)
    manifest["checks"]["finite_norms"] = (
        "pass" if np.all(np.isfinite(np.asarray(rows)[:, :2])) else "fail")
    return written


def _run_model(config, out_dir, manifest):
    rgrid, _ = build_grids(config)
    f0 = build_profile(config, rgrid)
    alpha = config.alpha
    times = _sample_times(config)
    # the model is read once per distinct tail L0 (model.TailGroups), so
    # each sum and maximum over R runs over the distinct L0 values, with
    # the summed trapezoid weights (of 1 and of f0^2)
    tails = model_mod.TailGroups(f0, alpha, times[-1])
    L0, group, profile = tails.L0, tails.group, tails.profile
    half_widths = 0.5 * np.diff(rgrid.nodes)
    weights = np.zeros(rgrid.n)
    weights[:-1] = half_widths
    weights[1:] += half_widths
    j = group[support_edge_index(f0)]
    # both norms are exact in the angle, so no angular grid is sampled:
    # sup over theta of Omega_2 is f0 + A/2, and with b = e^-A, t = tan
    # theta turns the angular integral of f_t^2 into a rational one,
    # pi f0^2 K(A); f_t is odd in theta, so the cross term with A/2
    # vanishes and ||Omega_2||^2 = integral of pi (f0^2 K(A) + A^2/2) dR.
    # Squares past the float range give an inf or nan l2 for finite_norms
    with np.errstate(over="ignore", invalid="ignore"):
        f0_sq = np.bincount(group, weights * f0.values * f0.values)
    w_sum = np.bincount(group, weights)
    manifest["stats"] = {"z_max": profile.z_max,
                         "profile_steps": profile.steps,
                         "profile_steps_marched": profile.marched}
    rows = np.empty((times.size, 4))
    violations = 0
    start = 0
    for t, z, A, sup in tails.blocks(times, _MODEL_BLOCK):
        with np.errstate(over="ignore", invalid="ignore"):
            l2 = np.sqrt(np.pi * (kernel_values(A) @ f0_sq
                                  + 0.5 * (A * A) @ w_sum))
        rows[start:start + t.size] = np.column_stack((
            sup, l2, L0[j] * profile.dphi(z[:, j]), np.max(A, axis=1)))
        start += t.size
        lower, upper = model_mod.sandwich_bounds(alpha, t, L0)
        violated = model_mod.sandwich_violated(lower, alpha * A, upper)
        violations += int(np.sum(violated * tails.counts))
    manifest["checks"]["sandwich"] = (
        "pass" if violations == 0 else "fail: %d node-times" % violations)
    return [_write_growth(out_dir, manifest, times, rows)]


def _run_linear(config, out_dir, manifest):
    rgrid, agrid = build_grids(config)
    f0 = build_profile(config, rgrid)
    sin2 = np.sin(2.0 * agrid.nodes)
    omega0 = Field2D(rgrid, agrid, np.outer(f0.values, sin2))
    times = _sample_times(config)
    j0 = support_edge_index(f0)
    f, ls0 = f0.values, op_Ls(omega0).values
    # at the grid nodes the field is f S_k + s ls0, with S_k = sin 2 theta_k
    # and s = t / (2 alpha). It is affine in S_k, so the sup sits at the
    # largest or smallest S_k, and the angular sums of the field and its
    # square need only the grid's own sums of S_k and S_k^2. The sup and
    # A_max skip rows whose (f, ls0) repeats the last row's, as off the
    # support (not ls0 alone: f / R underflows at tiny delta)
    sum1, sum2 = float(np.sum(sin2)), float(np.sum(sin2 ** 2))
    new = np.ones(f.size, bool)
    new[1:] = (f[1:] != f[:-1]) | (ls0[1:] != ls0[:-1])
    ls = ls0[new]
    hi, lo, mean0 = np.outer((np.max(sin2), np.min(sin2), sum1 / sin2.size),
                             f[new])
    # squares past the float range give norms that fail finite_norms, and
    # a field past it (at a huge horizon) fails step_linear's finite check
    with np.errstate(over="ignore", invalid="ignore"):
        s = 0.5 * times / config.alpha
        # trapz is linear: l2^2 = T0 + s T1 + s^2 T2, T_k that of s^k's term
        T0, T1, T2 = trapz(np.stack(((agrid.dtheta * sum2) * f ** 2,
                                     (2.0 * agrid.dtheta * sum1) * f * ls0,
                                     (agrid.dtheta * sin2.size) * ls0 ** 2)),
                           rgrid.nodes)
        rows = np.empty((times.size, 4))
        rows[:, 1] = np.sqrt(T0 + s * T1 + s * s * T2)
        rows[:, 2] = ls0[j0]
        # the sup keeps max(top, bottom)'s choice and nan
        size = max(1, _LINEAR_BLOCK // ls.size)
        for start in range(0, times.size, size):
            block = rows[start:start + size]
            src = s[start:start + size, None] * ls
            top = np.max(np.abs(hi + src), axis=1)
            bottom = np.max(np.abs(lo + src), axis=1)
            block[:, 0] = np.where(bottom > top, bottom, top)
            block[:, 3] = 2.0 * np.max(mean0 + src, axis=1)
        # the check marches the grid field to the horizon in two steps, so
        # the second takes L_s from an evolved field, and holds the march
        # and its growth columns against the closed form
        state = FullState(config.alpha, omega0, 0.0)
        for ts in (0.5 * times[-1], times[-1]):
            state = step_linear(state, ts - state.t)
        exact = omega0.values + (0.5 * times[-1] / config.alpha) * ls0[:, None]
    gaps = [float(np.max(np.abs(state.omega.values - exact)))
            / max(float(np.max(np.abs(exact))), 1e-300)]
    # Python floats: an inf - inf gap is a nan, where numpy would warn
    last = rows[-1].tolist()
    gaps += [abs(got - want) / max(abs(want), 1e-300)
             for got, want in zip(field_row(state.omega, j0), last)]
    # np.max keeps a nan gap, which then fails, where max would skip it
    worst = float(np.max(gaps))
    manifest["checks"]["closed_form"] = (
        "pass (%.2e)" % worst if worst <= 1e-10 else "fail: %.2e" % worst)
    return [_write_growth(out_dir, manifest, times, rows)]


def _report_full(manifest, full):
    """The support check and stats of a FullMarch run to its last sample."""
    # check_support raises on any step past the threshold, so a march
    # that came back passed; the status carries how close it came
    manifest["checks"]["support_containment"] = (
        "pass (peak reach %.2e, threshold %.2e)"
        % (full.peak_reach, full.reach_threshold))
    manifest["stats"] = full.stats()


def _run_remainder(config, out_dir, manifest):
    rgrid, agrid = build_grids(config)
    f0 = build_profile(config, rgrid)
    times = _sample_times(config)
    # linspace ends on its stop exactly, so the study samples these times
    series = run_remainder_study(f0, config.alpha, agrid, t_final=times[-1],
                                 n_samples=times.size)
    growth = _write_growth(out_dir, manifest, times, series.growth)
    rem = _write_csv(os.path.join(out_dir, "remainder.csv"),
                     "t,rem_sup,rem_l2,full_sup,model_sup", times,
                     series.remainder)
    _report_full(manifest, series.full)
    manifest["stats"]["peak_rem_sup"] = series.max_rem_sup()
    return [growth, rem]


def _run_full(config, out_dir, manifest):
    rgrid, agrid = build_grids(config)
    f0 = build_profile(config, rgrid)
    full = FullMarch(f0, config.alpha, agrid)
    times = _sample_times(config)
    j0 = support_edge_index(f0)
    rows = [field_row(state.omega, j0, full.sample_scratch[0])
            for state in full.samples(times)]
    _report_full(manifest, full)
    return [_write_growth(out_dir, manifest, times, rows)]


def _sweep_member(args):
    """One sweep alpha in a worker process; args is (member config, alpha,
    member output dir). Returns (peak rem_sup, [(output file, digest)])
    from the member's manifest; a failure raises. The manifest itself is
    not among the files: its wall time differs between identical runs."""
    config, _, member_dir = args
    manifest = _execute(config, _run_remainder)
    return manifest["stats"]["peak_rem_sup"], [
        (os.path.join(member_dir, rel), digest)
        for rel, digest in manifest["files"].items()]


def _run_sweep(config, out_dir, manifest):
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    jobs = []
    for alpha in config.alphas:
        member = validate_config(dict(config.values, alpha=alpha, **{
            "run.kind": "remainder",
            "output.dir": os.path.join(out_dir, _member_dir_name(alpha))}))
        jobs.append((member, alpha, member.output_dir))
    workers = min(len(jobs), os.cpu_count() or 1)
    # every member solves for the stream function: bind LAPACK here, once,
    # so that workers started by fork inherit the loaded extension instead
    # of each loading it on its own. The same holds for numpy.fft, which
    # numpy loads on first use, and which each member's first tendency
    # uses. Under spawn or forkserver a worker imports rieszlab afresh and
    # loads both on its first solve
    lapack_tridiagonal()
    importlib.import_module("numpy.fft")
    # longest first (Graham's longest-processing-time rule): a member
    # marches about 2 log(1/alpha) steps at its 0.05 alpha step cap, so
    # the smallest alpha is submitted first, and no worker idles while a
    # long member started last runs on; futures stay in run.alphas order
    futures = [None] * len(jobs)
    # a worker that dies (a signal, the OOM killer) breaks the pool: every
    # member not yet finished, its own among them, then reads
    # BrokenProcessPool, and so does every submit after it
    with contextlib.suppress(BrokenProcessPool), \
            ProcessPoolExecutor(max_workers=workers) as pool:
        for k in sorted(range(len(jobs)), key=config.alphas.__getitem__):
            futures[k] = pool.submit(_sweep_member, jobs[k])
    errors = [BrokenProcessPool() if future is None else future.exception()
              for future in futures]
    lost = [(alpha, err) for alpha, err in zip(config.alphas, errors)
            if isinstance(err, BrokenProcessPool)]
    if lost:
        # named alone when only the dead worker's member was lost
        names = ", ".join("%g" % alpha for alpha, _ in lost)
        raise NumericalError("a sweep worker died before member%s alpha=%s "
                             "finished: %s" % ("s" * (len(lost) > 1), names,
                                               lost[0][1]),
                             stage="sweep") from lost[0][1]
    for alpha, err in zip(config.alphas, errors):
        if isinstance(err, ConfigError):  # a bad initial table
            raise ConfigError("sweep member alpha=%g: %s" % (alpha, err))
        if isinstance(err, _RUN_FAILURES):
            raise NumericalError("sweep member alpha=%g failed: %s"
                                 % (alpha, err),
                                 stage=getattr(err, "stage", "sweep"))
        if err is not None:
            raise err
    results = [future.result() for future in futures]
    alphas = np.array(config.alphas)
    peaks = np.array([peak for peak, _ in results])
    checks = manifest["checks"]
    try:
        report = alpha_scaling_study(list(zip(alphas, peaks)))
        cumulative = report.cumulative
        checks["scaling_exponent"] = "%.6f" % report.exponent
        local = [float(p) for p in report.local]
    except ValueError as exc:
        cumulative = np.full(alphas.size, np.nan)
        checks["scaling_exponent"] = local = "unavailable: %s" % exc
    manifest["stats"] = {"local_slopes": local}
    return [written for _, files in results for written in files] + [
        _write_csv(os.path.join(out_dir, "scaling_report.csv"),
                   "alpha,max_rem_sup,fit_exponent_cumulative", alphas,
                   np.column_stack((peaks, cumulative)))]


_BODIES = {"model": _run_model, "linear": _run_linear, "full": _run_full,
           "remainder": _run_remainder, "sweep": _run_sweep}


def _execute(config, body):
    """Call body(config, out_dir, manifest), which fills the manifest's
    checks dict, may add its stats dict, and returns the (path, sha256)
    of each file it wrote; write manifest.json whether or not it raises:
    the resolved config, code version, wall time, named checks, stats,
    emitted files with digests, and the error if one stopped the run.
    Returns the manifest dict."""
    out_dir = config.output_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        # no manifest can be written without the directory
        raise ConfigError("cannot create output.dir %s: %s"
                          % (out_dir, exc.strerror or exc))
    manifest = {"config": config.values, "version": __version__,
                "wall_time_s": 0.0, "checks": {}, "files": {}, "error": None}
    t0 = time.perf_counter()

    def write_manifest():
        manifest["wall_time_s"] = time.perf_counter() - t0
        with _writing(os.path.join(out_dir, "manifest.json")) as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")

    try:
        for path, digest in body(config, out_dir, manifest):
            manifest["files"][os.path.relpath(path, out_dir)] = digest
    except BaseException as exc:
        # recorded whatever it is, an interrupt or exit too, and raised
        # unchanged; main maps ConfigError and _RUN_FAILURES to exit codes
        manifest["error"] = {"type": type(exc).__name__, "message": str(exc),
                             "stage": getattr(exc, "stage", "")}
        try:
            write_manifest()
        except WriteError as lost:
            # the run's own failure keeps its exit code and message
            print("numerical failure (write): %s" % lost, file=sys.stderr)
        raise
    write_manifest()
    return manifest


def run(config):
    """Execute a validated config; always writes manifest.json and returns
    its contents."""
    return _execute(config, _BODIES[config.run_kind])


def _report(lines, name, ok, detail):
    lines.append("%-4s %-28s %s" % ("ok" if ok else "FAIL", name, detail))
    return ok


def _report_bound(lines, name, what, value, bound, suffix=""):
    """Report the check value <= bound with the margin left to it."""
    return _report(lines, name, value <= bound, "%s %.2e, margin %.2e to %g%s"
                   % (what, value, bound - value, bound, suffix))


def _report_fourth_order(lines, name, errs):
    """Report the orders observed between errors at halved steps, each
    to lie in [3.7, 4.3], with the margin left to that band."""
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    margin = min(min(o - 3.7, 4.3 - o) for o in orders)
    return _report(lines, name, margin >= 0,
                   "observed %s, margin %.3f to [3.7, 4.3]"
                   % (", ".join("%.3f" % o for o in orders), margin))


def verify_kernel():
    """Kernel self-checks: quadrature vs closed form, sandwich, the
    production kernel vs quadrature."""
    lines, good = [], True
    pts = [0.0, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0]
    worst = 0.0
    for a in pts:
        K = gamma_kernel(a).value
        ref = 1.0 / np.cosh(0.5 * a) ** 2
        worst = max(worst, abs(K - ref) / ref)
    good &= _report_bound(lines, "closed-form-identity", "max rel", worst,
                          1e-8, " over %d points" % len(pts))
    a_dense = np.linspace(0.0, 40.0, 401)
    margin_lo, margin_hi = np.inf, np.inf
    for a in a_dense:
        K = gamma_kernel(a).value
        e = np.exp(-a)
        margin_lo = min(margin_lo, K - e * (1.0 - 1e-12))
        margin_hi = min(margin_hi, 4.0 * e * (1.0 + 1e-12) - K)
    good &= _report(lines, "kernel-sandwich", margin_lo >= 0 and
                    margin_hi >= 0, "min margins %.2e / %.2e"
                    % (margin_lo, margin_hi))
    # the production closed form against the defining integral, with
    # points packed into (0, 1/256) where K is flat
    a_prod = np.concatenate([np.geomspace(1e-6, 1.0 / 256.0, 12),
                             np.linspace(0.0, 40.0, 161)])
    quad_ref = np.array([gamma_kernel(a).value for a in a_prod])
    prod_err = float(np.max(np.abs(kernel_values(a_prod) - quad_ref)
                            / quad_ref))
    good &= _report_bound(lines, "production-vs-quadrature", "max rel",
                          prod_err, 1e-9, " over %d points" % a_prod.size)
    grid = build_radial_grid(0.5, 8.0, 4097)
    f0 = model_mod.make_indicator(grid, 1.0, 2.0)
    A0 = RadialProfile(grid, np.zeros(grid.n))
    lf = apply_lf_kernel(f0, A0).values
    tails = profile_tail(f0).values[::256]
    diff = float(np.max(np.abs(lf[::256] - tails)))
    good &= _report_bound(lines, "zero-exponent-reduction", "max abs", diff,
                          1e-12)
    return good, lines


def verify_elliptic():
    """Elliptic self-checks: oracle value, solver agreement, residual,
    split bound."""
    lines, good = [], True
    grid = build_radial_grid(0.5, 8.0, 4097)
    f = model_mod.make_indicator(grid, 1.0, 2.0)
    oracle = -255.0 / 4096.0
    v = exact_mode2(f, 0.5, R=2.0)
    good &= _report_bound(lines, "mode2-closed-form", "rel",
                          abs(v - oracle) / abs(oracle), 1e-5)
    bvp = solve_mode(2, f, 0.5)
    ex = exact_mode2(f, 0.5)
    dv = float(np.max(np.abs(bvp.values - ex.values)))
    good &= _report_bound(lines, "bvp-vs-quadrature", "max abs", dv, 1e-4)
    smooth = model_mod.make_bump(grid)
    res = mode_residual(solve_mode(4, smooth, 0.3), smooth, 4, 0.3)
    good &= _report_bound(lines, "stencil-residual", "max abs", res, 1e-9)
    worst = 0.0
    for alpha in (0.4, 0.2, 0.1, 0.05):
        _, rem = principal_remainder_split(smooth, alpha)
        worst = max(worst, float(np.max(np.abs(rem.values)))
                    / float(np.max(smooth.values)))
    good &= _report_bound(lines, "split-remainder-bound", "max ratio", worst,
                          1.0 / 16.0)
    return good, lines


def verify_oracle():
    """Model integrator and similarity profile vs the closed-form solution
    for the simplified kernel, value and convergence order."""
    lines, good = [], True
    alpha = 0.25
    grid = build_radial_grid(0.5, 8.0, 20481)
    f0 = model_mod.make_indicator(grid, 1.0, 2.0)
    state = model_mod.init_state(f0, alpha,
                                 kernel=lambda a: np.exp(-np.asarray(a)))
    t_final = 0.5 * alpha
    dt = alpha / 200.0
    nsteps = int(round(t_final / dt))
    for _ in range(nsteps):
        state = model_mod.step(state, dt)
    _, acc = model_mod.closed_form_L(f0, alpha, t_final)
    got = alpha * state.A.values
    mask = acc > 1e-3 * acc.max()
    rel = float(np.max(np.abs(got[mask] - acc[mask]) / acc[mask]))
    good &= _report_bound(lines, "closed-form-value", "max rel", rel, 1e-6,
                          " at dt=alpha/200")
    coarse = build_radial_grid(0.5, 8.0, 1025)
    fs = model_mod.make_indicator(coarse, 1.0, 2.0, amplitude=40.0)
    errs = []
    t_short = 0.02 * alpha

    def integrate(nsteps):
        st = model_mod.init_state(fs, alpha,
                                  kernel=lambda a: np.exp(-np.asarray(a)))
        h = t_short / nsteps
        for _ in range(nsteps):
            st = model_mod.step(st, h)
        return st.A.values

    ref = integrate(80)
    for n in (5, 10, 20):
        errs.append(float(np.max(np.abs(integrate(n) - ref))))
    good &= _report_fourth_order(lines, "time-order", errs)
    # the similarity profile for the kernel e^-a is 2 log(1 + z/2), at the
    # table's own step and at fourth order under step halving
    z = np.concatenate([np.geomspace(1e-8, 1.0, 41),
                        np.linspace(0.0, 100.0, 1001)[1:]])
    exact = 2.0 * np.log1p(0.5 * z)

    def profile_error(step):
        profile = model_mod.similarity_profile(
            100.0, kernel=lambda a: np.exp(-np.asarray(a)), step=step)
        return float(np.max(np.abs(profile.phi(z) - exact) / exact))

    good &= _report_bound(lines, "profile-closed-form", "max rel",
                          profile_error(model_mod.PROFILE_STEP), 1e-10,
                          " on [0, 100]")
    good &= _report_fourth_order(lines, "profile-order",
                                 [profile_error(h) for h in (0.2, 0.1, 0.05)])
    return good, lines


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="rieszlab",
        description="Growth laws of a forced 2d vorticity model: batch "
                    "runs and self checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a config file")
    p_run.add_argument("config", help="path to a key = value config file")
    sub.add_parser("verify-kernel", help="kernel closed form vs quadrature")
    sub.add_parser("verify-elliptic", help="mode solver self checks")
    sub.add_parser("verify-oracle",
                   help="model integrator and profile self checks")
    args = parser.parse_args(argv)

    if args.command == "run":
        try:
            config = parse_config(args.config)
            manifest = run(config)
        except ConfigError as exc:
            print("config error: %s" % exc, file=sys.stderr)
            return 2
        except _RUN_FAILURES as exc:
            # a bare MemoryError has no message, so its type stands in
            print("numerical failure (%s): %s"
                  % (getattr(exc, "stage", "") or "run",
                     str(exc) or type(exc).__name__), file=sys.stderr)
            return 3
        print("wrote %s (%d files, %.1f s)"
              % (os.path.join(config.output_dir, "manifest.json"),
                 len(manifest["files"]), manifest["wall_time_s"]))
        for name, status in sorted(manifest["checks"].items()):
            print("  %-20s %s" % (name, status))
        return 0

    suites = {"verify-kernel": verify_kernel,
              "verify-elliptic": verify_elliptic,
              "verify-oracle": verify_oracle}
    try:
        good, lines = suites[args.command]()
    except RieszlabError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    for line in lines:
        print(line)
    return 0 if good else 4


if __name__ == "__main__":
    sys.exit(main())
