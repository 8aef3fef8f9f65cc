"""One CLI invocation in a fresh interpreter, as a user pays for it.

Usage: python3 child.py '<json spec>'

The spec holds ``src`` (the directory holding the weylmod package),
``series``/``rank`` (the job's algebra), ``argv`` (passed to
``weylmod.cli.main``), ``setup_only`` and ``trace``.  The child imports
weylmod, builds the algebra, then prints ``ready`` so the parent can time
set-up.  Unless set-up is all it was asked for, it runs ``cli.main`` with
stdout captured, timed on its own, and prints one JSON line with the exit
code, the captured stdout, the peak resident set and, when traced, the span
tree and counters.  The reference loop is timed right after set-up and
again after ``cli.main``, so the parent can tell how fast the host ran.
"""

import contextlib
import gc
import io
import json
import os
import sys
import time


def reference_s():
    """Time of a fixed stdlib loop: exact fractions, tuple-keyed dict, sorts.

    It stands for the kind of work weylmod does and uses none of its code,
    so a change to weylmod cannot change it.  The collector is off, so the
    heap the job left behind does not count.
    """
    from fractions import Fraction

    gc.disable()
    try:
        t0 = time.perf_counter()
        acc, table = Fraction(0), {}
        for i in range(1, 6000):
            acc += Fraction(i % 97, i % 13 + 1) * Fraction(3, 7)
            key = (i % 50, i % 7)
            table[key] = table.get(key, 0) + i
            sorted([i * 7 % 11, i % 5, i % 3])
        return time.perf_counter() - t0
    finally:
        gc.enable()


def peak_rss_kb():
    """Peak resident set of this process image, in KiB.

    ru_maxrss is not used: on Linux it keeps the high-water mark of the
    process that forked this one, so it would report the driver's size.
    VmHWM belongs to the memory map made by exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    t0 = time.perf_counter()
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import weylmod  # noqa: F401  (the package import is part of set-up)
    from weylmod import cli
    from weylmod.root_system import build_algebra

    t1 = time.perf_counter()
    build_algebra(spec["series"], spec["rank"])
    t2 = time.perf_counter()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    result = {"import_s": t1 - t0, "build_algebra_s": t2 - t1, "ref_s": [reference_s()]}
    if not spec["setup_only"]:
        tracer = None
        if spec["trace"]:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t3 = time.perf_counter()
            code = cli.main(spec["argv"])
            t4 = time.perf_counter()
        if tracer is not None:
            tracer.uninstall()
        result["ref_s"].append(reference_s())
        result.update(solve_s=t4 - t3, exit=code, stdout=buf.getvalue(),
                      peak_rss_kb=peak_rss_kb())
        if tracer is not None:
            result.update(
                spans=tracer.summary(),
                counters={**tracer.counters, **tracer.cache_misses()},
                tree=tracer.root.to_json(),
            )
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
