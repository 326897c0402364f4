"""One measured call of ``wkit.cli.main`` in a fresh interpreter.

Started by ``bench/run.py`` with ``src/`` on PYTHONPATH and a JSON spec as
the only argument: ``{"argv": [...] | null, "trace": bool, "fault": null |
name}``. Prints one JSON object: the seconds spent importing ``wkit.cli``,
the module path imported, and the seconds of the reference loop run right
after the import. With an ``argv`` it adds the exit code, the seconds spent
in ``main``, the reference loop run again after ``main``, the peak RSS in
KiB, the captured stdout and, when traced, the per-layer table.

The reference loop is fixed benchmark code, a yardstick for how fast the
shared machine runs at that moment: run.py divides each measured time by
the loop times around it.

A ``fault`` replaces one wkit function by a copy that returns a perturbed
value; the self-test uses it to show that the oracles catch the error.
"""

import time

_START = time.perf_counter()
import wkit.cli  # noqa: E402 -- the import is the set-up time being measured

IMPORT_S = time.perf_counter() - _START

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

REFERENCE_LOOPS = 4_000


def reference_seconds() -> float:
    """Seconds for a fixed loop of interpreter work and small-array numpy
    calls, the same kinds of work the workloads do."""
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(REFERENCE_LOOPS):
        u = np.asarray([1.0, float(i), 2.0])
        v = u * 1.5 + 0.5
        if not np.all(np.isfinite(v)):
            raise ArithmeticError("reference loop overflowed")
        c = np.cross(u, v)
        acc += math.sqrt(float(c @ c)) + float(np.sum(np.outer(u, v)))
    return time.perf_counter() - t0


def install_fault(name: str) -> None:
    import wkit.sweeps
    from wkit.qsqrt3 import QSqrt3

    if name == "curvature":
        real = wkit.cli.curvature_bound_report

        def perturbed(*args, **kwargs):
            rep = real(*args, **kwargs)
            return dataclasses.replace(rep, curvature=rep.curvature * (1.0 + 1e-6))

        wkit.cli.curvature_bound_report = perturbed
    elif name == "exact":
        real = wkit.sweeps.verify_exact

        def perturbed(*args, **kwargs):
            return real(*args, **kwargs) + QSqrt3("1/1000000000000")

        wkit.sweeps.verify_exact = perturbed
    else:
        raise ValueError(f"unknown fault {name!r}")


def main() -> None:
    spec = json.loads(sys.argv[1])
    result = {
        "import_s": IMPORT_S,
        "module": wkit.cli.__file__,
        "reference_s": [reference_seconds()],
    }
    if spec["argv"] is not None:
        if spec["fault"]:
            install_fault(spec["fault"])
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            rc = wkit.cli.main(spec["argv"])
            seconds = time.perf_counter() - t0
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["reference_s"].append(reference_seconds())
        result.update(rc=rc, seconds=seconds, maxrss_kb=maxrss_kb, stdout=buf.getvalue())
        if tracer is not None:
            result["trace"] = tracer.report(seconds)
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
