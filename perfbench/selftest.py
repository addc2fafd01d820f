"""Self-test of the tracer: calls made through every binding are counted.

    python3 perfbench/selftest.py

Run from the root of a checkout. It runs the traced rep of growth and of
remainder at seed 0 and compares call counts that repeat exactly with the
counts of the code the benchmark was written against. evolution calls
solve_full and model calls apply_lf_kernel through names bound by
``from ... import``; a tracer that patched only the defining module would
count none of them. A change that alters these counts on purpose (a
factor-once solve, a march at the stability bound) says so and records
its new counts here. Exits 1 on any mismatch.
"""

import os
import shutil
import sys
import time

import run
import tracer

EXPECTED = {
    "remainder": {"elliptic.solve_full": 116, "evolution.rhs_full": 87,
                  "evolution.step_full": 29},
    "growth": {"elliptic.solve_full": 0, "model.step": 2786,
               "kernels.apply_lf_kernel": 11944},
}


def main():
    run.use_checkout_source()
    good = True
    for name, expected in EXPECTED.items():
        work = os.path.join(run.HERE, "_work", "selftest-" + name)
        shutil.rmtree(work, ignore_errors=True)
        trace_dir = os.path.join(work, "trace")
        os.makedirs(trace_dir)
        tally = run.Tally()
        reply = run.run_rep(name, 0, "traced", work, "traced", 0.0,
                            time.monotonic() + run.HARD_LIMIT_S, tally,
                            trace_dir)
        if reply is None or tally.failed:
            print("FAIL %s: the traced rep failed" % name)
            good = False
            continue
        calls, _, _ = tracer.summarise(trace_dir)
        for span, want in expected.items():
            got = calls.get(span, 0)
            good &= got == want
            print("%-4s %s %s.calls = %d (expected %d)"
                  % ("ok" if got == want else "FAIL", name, span, got, want))
    sys.exit(0 if good else 1)


if __name__ == "__main__":
    main()
