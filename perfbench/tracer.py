"""Spans around rieszlab's public functions, recorded from outside the
package.

Modules bind each other's functions by ``from ... import``, so a function
lives under several names: ``evolution.solve_full``, ``cli.op_Ls`` and so
on. Patching only the defining module would miss every call made through
another binding, so ``install`` replaces the function at every attribute
of every loaded rieszlab module that holds it.

A span is [name, start, end, index of the enclosing span or -1]. Spans stay
in memory and are written to one JSON file per process. Sweep members run
in worker processes forked from the traced one; each member starts from an
empty trace and writes its own file.
"""

import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict

TARGETS = {
    "kernels": ("kernel_values", "apply_lf_kernel", "op_Ls"),
    "model": ("step", "reconstruct_Omega2", "check_sandwich"),
    "grids": ("l2_norm", "sup_norm", "project_mode"),
    "elliptic": ("solve_full",),
    "evolution": ("run_remainder_study", "step_full", "rhs_full", "cfl_dt",
                  "check_support", "step_linear"),
    "diagnostics": ("alpha_scaling_study",),
    "cli": ("run",),
}

# values noted in call order, for evolution.cfl_utilisation
_NOTES = {
    "evolution.cfl_dt": lambda args, kwargs, result: result,
    "evolution.step_full": lambda args, kwargs, result:
        args[1] if len(args) > 1 else kwargs["dt"],
}


def span_names():
    return ["%s.%s" % (mod, fn) for mod, fns in TARGETS.items() for fn in fns]


class Tracer:

    def __init__(self):
        self.spans = []
        self.stack = []
        self.notes = []

    def reset(self):
        # cleared in place: the wrappers hold these lists
        del self.spans[:], self.stack[:], self.notes[:]

    def wrap(self, name, fn):
        spans, stack, notes = self.spans, self.stack, self.notes
        note = _NOTES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                notes.append((name, note(args, kwargs, result)))
            return result

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "notes": self.notes}, fh)


def _rebind(old, new):
    for modname, mod in list(sys.modules.items()):
        if modname == "rieszlab" or modname.startswith("rieszlab."):
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)


def install(tracer, trace_dir):
    """Wrap every target at every binding; sweep members dump their spans
    to `trace_dir`/<member dir name>.json."""
    import rieszlab.cli as cli
    for modname, names in TARGETS.items():
        mod = sys.modules["rieszlab." + modname]
        for fname in names:
            fn = getattr(mod, fname)
            _rebind(fn, tracer.wrap("%s.%s" % (modname, fname), fn))

    member = cli._sweep_member

    @functools.wraps(member)
    def traced_member(args):
        tracer.reset()
        try:
            return member(args)
        finally:
            tracer.dump(os.path.join(trace_dir,
                                     os.path.basename(args[2]) + ".json"))

    _rebind(member, traced_member)


def summarise(trace_dir):
    """Calls and self time per span name, summed over every process's
    file, and the median dt/bound over step_full calls that follow a
    cfl_dt in the same process."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    utilisation = []
    for fname in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, fname), encoding="utf-8") as fh:
            data = json.load(fh)
        spans = data["spans"]
        inner = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                inner[parent] += end - start
        for (name, start, end, _), covered in zip(spans, inner):
            calls[name] += 1
            self_s[name] += end - start - covered
        bound = None
        for name, value in data["notes"]:
            if name == "evolution.cfl_dt":
                bound = value
            elif bound is not None and 0 < bound < float("inf"):
                utilisation.append(value / bound)
    cfl = statistics.median(utilisation) if utilisation else 0.0
    return dict(calls), dict(self_s), cfl
