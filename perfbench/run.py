"""weylmod benchmark: the CLI over fixed job grids, one fresh child per job.

    python3 perfbench/run.py --workload lattice --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --known-slow

Run from anywhere inside a checkout; the package is imported from its
``src``.  The load is closed loop: one driver process, one child at a time.
A run makes at least MIN_PASSES passes over the workload's jobs, and more
while another pass still fits in ``--seconds``.  Every output is checked
against its golden exit code and stdout sha256 and by the checks in
cases.py.

The speed of a shared host swings by up to 1.7x for tens of seconds at a
time, and the swings slow the CLI's work and a plain stdlib loop nearly
alike.  So every child also
times a fixed stdlib loop (child.reference_s) next to what it measures, and
each time is reported at host speed REFERENCE_S: multiplied by REFERENCE_S
and divided by the loop's time in that child.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are end to end:

* solve_s      sum over the jobs of the median, over the job's passes, of
               the time inside cli.main at host speed REFERENCE_S
* setup_s      sum over the jobs of the median time from spawning a child to
               it reporting ``import weylmod`` and ``build_algebra`` done,
               at host speed REFERENCE_S
* peak_rss_mb  the largest peak resident set (VmHWM) of any job's child

With ``--trace 1`` the run makes one untraced and one traced pass and
reports the per-layer metrics of the traced pass (see PER_LAYER); the span
trees are written to .bench_run/.  ``--known-slow`` runs the ROADMAP
baseline cases once each under KNOWN_SLOW_TIMEOUT and reports wall time or
``timeout``; it is never part of a timed run.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
GOLDEN_PATH = HERE / "golden.json"
sys.path.insert(0, str(HERE))

import cases  # noqa: E402

JOB_TIMEOUT = 90.0
# no job runs past this many seconds from the start, so a run ends in time
# even when several jobs hang
RUN_LIMIT = 170.0
# extra set-up-only children per job in every pass, so setup_s is a median
# of several samples spread over the run
SETUP_REPEATS = 1
# passes a run makes even when fewer fit in --seconds, so every job's
# solve time is the median of at least this many samples
MIN_PASSES = 3
# time of child.reference_s on an unloaded 2-vCPU Xeon VM; the end-to-end
# times are scaled to a host that runs the loop in this time
REFERENCE_S = 0.035
KNOWN_SLOW_TIMEOUT = 120.0

PER_LAYER = (
    "root_system.enumerate_root_lattice_ball.calls",
    "root_system.enumerate_root_lattice_ball.points",
    "root_system.enumerate_root_lattice_ball.self_s",
    "affine_numerics.kostant_bound_C.calls",
    "affine_numerics.candidate_pairs.calls",
    "affine_numerics.candidate_pairs.pairs",
    "affine_numerics.irreducibility_certificate.s",
    "affine_numerics.delta_upper_bound.s",
    "graded_sym.sym_ad_graded.calls",
    "graded_sym.sym_ad_graded.misses",
    "graded_sym.sym_ad_graded.max_n",
    "graded_sym.sym_ad_graded.self_s",
    "graded_sym.weyl_level_decomposition.calls",
    "graded_sym.weyl_level_decomposition.s",
    "finite_rep.tensor_decompose.calls",
    "finite_rep.tensor_decompose.self_s",
    "finite_rep.decompose_character.calls",
    "finite_rep.irrep_character.misses",
    "explicit_module.build_truncated.s",
    "explicit_module.basis_dim",
    "explicit_module.act.calls",
    "explicit_module.act.self_s",
    "explicit_module.sugawara_l0.self_s",
    "explicit_module.virasoro_commutation_check.self_s",
    "explicit_module.singular_vectors.self_s",
    "explicit_module.annihilator_level.self_s",
    "explicit_module.check_kl_exact_sequence.self_s",
    "explicit_module.module_json_dict.self_s",
    "chevalley.chevalley_basis.s",
    "chevalley.rep_from_hw.s",
    "linalg.nullspace.calls",
    "linalg.nullspace.rows",
    "linalg.nullspace.cols",
    "linalg.nullspace.nnz",
    "linalg.nullspace.self_s",
    "linalg.rank.calls",
    "linalg.SpanBuilder.add.calls",
    "linalg.SpanBuilder.add.self_s",
    "cli.emit.s",
    "cli.self_s",
    "setup.import_s",
    "setup.build_algebra_s",
    "trace.overhead_ratio",
    "trace.named_share",
    "error_rate",
    "host.reference_s",
) + tuple(
    "job.%s.s" % slot for slots in cases.WORKLOADS.values() for slot, _ in slots
)


def unit_of(metric: str) -> str:
    last = metric.rpartition(".")[2]
    if last in ("s", "self_s", "import_s", "build_algebra_s", "reference_s"):
        return "s"
    if metric.startswith("trace.") or metric == "error_rate":
        return "ratio"
    if last == "max_n":
        return "degree"
    return "count"


# -- one child ----------------------------------------------------------------

class Child:
    """Outcome of one child: set-up time, its result record, or why not."""

    def __init__(self, setup_s, data, timed_out, returncode, stderr):
        self.setup_s = setup_s
        self.data = data
        self.timed_out = timed_out
        self.returncode = returncode
        self.stderr = stderr

    @property
    def reference_s(self):
        """Mean time of the reference loop in this child, None if unknown."""
        refs = (self.data or {}).get("ref_s")
        return sum(refs) / len(refs) if refs else None

    def at_reference_speed(self, seconds):
        ref = self.reference_s
        return seconds * REFERENCE_S / ref if ref else seconds


def spawn(spec: dict, timeout: float) -> Child:
    cmd = [sys.executable, str(HERE / "child.py"), json.dumps(spec)]
    fired = threading.Event()
    with tempfile.TemporaryFile(dir=RUN_DIR) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=err, text=True)
        timer = threading.Timer(timeout, lambda: (fired.set(), proc.kill()))
        timer.start()
        try:
            ready = proc.stdout.readline()
            t1 = time.perf_counter()
            rest = proc.stdout.read()
            proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    setup_s = t1 - t0 if ready == "ready\n" else None
    data = None
    if setup_s is not None and proc.returncode == 0:
        try:
            data = json.loads(rest)
        except ValueError:
            data = None
    return Child(setup_s, data, fired.is_set(), proc.returncode, stderr)


def child_spec(case: str, setup_only: bool, trace: bool, dump_path: str) -> dict:
    series, rank = cases.algebra_of(case)
    return {
        "src": str(SRC),
        "series": series,
        "rank": rank,
        "argv": cases.argv_of(case, dump_path),
        "setup_only": setup_only,
        "trace": trace,
    }


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def output_errors(golden: dict, case: str, exit_code: int, stdout: str, dump):
    """Every reason a job's output is wrong; dump is the --dump file's bytes."""
    errors = cases.semantic_errors(case, exit_code, stdout)
    gold = golden.get(case)
    if gold is None:
        return errors + ["no golden record"]
    if exit_code != gold["exit"]:
        errors.append("exit %d, golden %d" % (exit_code, gold["exit"]))
    if sha256(stdout) != gold["stdout_sha256"]:
        errors.append("stdout sha256 differs from golden")
    if "dump_sha256" in gold and (dump is None or sha256(dump) != gold["dump_sha256"]):
        errors.append("dump sha256 differs from golden")
    return errors


class Job:
    def __init__(self, slot, case, child, wall_s, errors):
        self.slot = slot
        self.case = case
        self.child = child
        self.wall_s = wall_s
        self.errors = errors

    @property
    def solve_s(self):
        return self.child.data["solve_s"] if self.child.data else self.wall_s

    @property
    def scaled_solve_s(self):
        return self.child.at_reference_speed(self.solve_s)


def execute(case: str, trace=False, timeout=JOB_TIMEOUT):
    """Run one case in a fresh child: (child, wall_s, --dump bytes or None)."""
    dump_path = os.path.relpath(RUN_DIR / ("dump-%d.json" % os.getpid()), ROOT)
    t0 = time.perf_counter()
    child = spawn(child_spec(case, False, trace, dump_path), timeout)
    wall_s = time.perf_counter() - t0
    dump = None
    if os.path.exists(ROOT / dump_path):
        with open(ROOT / dump_path, "rb") as fh:
            dump = fh.read()
        os.remove(ROOT / dump_path)
    return child, wall_s, dump


def run_job(golden, slot, case, trace=False, timeout=JOB_TIMEOUT) -> Job:
    if timeout <= 0:
        child = Child(None, None, False, None, "")
        return Job(slot, case, child, 0.0, ["run time limit reached"])
    child, wall_s, dump = execute(case, trace, timeout)
    if child.timed_out:
        errors = ["timeout after %.0f s" % timeout]
    elif child.data is None:
        tail = child.stderr.strip().splitlines()[-1:] or ["no output"]
        errors = ["child exited %s: %s" % (child.returncode, tail[0])]
    else:
        errors = output_errors(golden, case, child.data["exit"], child.data["stdout"], dump)
    if errors:
        sys.stderr.write("FAILED %s [%s]: %s\n" % (slot, case, "; ".join(errors)))
    return Job(slot, case, child, wall_s, errors)


def run_pass(golden, selected, trace, setup_repeats, deadline):
    """Run every selected job once; returns [(job, scaled set-up samples)]."""
    out = []
    for slot, case in selected:
        samples = []
        for _ in range(setup_repeats):
            timeout = min(JOB_TIMEOUT, deadline - time.perf_counter())
            if timeout > 0:
                child = spawn(child_spec(case, True, False, ""), timeout)
                if child.setup_s is not None:
                    samples.append(child.at_reference_speed(child.setup_s))
        timeout = min(JOB_TIMEOUT, deadline - time.perf_counter())
        job = run_job(golden, slot, case, trace, timeout)
        if job.child.setup_s is not None:
            samples.append(job.child.at_reference_speed(job.child.setup_s))
        out.append((job, samples))
    return out


# -- runs ---------------------------------------------------------------------

def measure(golden, selected, seconds, deadline):
    """MIN_PASSES passes, more while another fits; end-to-end metrics.

    A job's solve time is the median of its passes, each at host speed
    REFERENCE_S; a pass in which the host changed speed mid-job is an
    outlier, and the median drops it.
    """
    passes = []
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        passes.append(run_pass(golden, selected, False, SETUP_REPEATS, deadline))
        now = time.perf_counter()
        if now + (now - p0) > deadline:
            break
        if len(passes) >= MIN_PASSES and now - start + (now - p0) > seconds:
            break
    solve = setup = 0.0
    for i in range(len(selected)):
        solve += statistics.median(p[i][0].scaled_solve_s for p in passes)
        samples = [s for p in passes for s in p[i][1]]
        setup += statistics.median(samples) if samples else 0.0
    jobs = [job for p in passes for job, _ in p]
    rss_mb = max((job.child.data or {}).get("peak_rss_kb", 0) for job in jobs) / 1024.0
    metrics = {
        "solve_s": (solve, "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return jobs, metrics


def layer_metrics(plain, traced):
    """Per-layer metrics from an untraced and a traced pass of the same jobs."""
    stats, counters = {}, {}
    for job in traced:
        data = job.child.data or {}
        for name, st in data.get("spans", {}).items():
            acc = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += st[key]
        for key, value in data.get("counters", {}).items():
            if key.endswith(".max_n"):
                counters[key] = max(counters.get(key, value), value)
            else:
                counters[key] = counters.get(key, 0) + value
    # the overhead compares two children, so it is taken at reference speed
    plain_scaled = sum(job.scaled_solve_s for job in plain)
    traced_scaled = sum(job.scaled_solve_s for job in traced)
    traced_solve = sum(job.solve_s for job in traced)
    cli = stats.get("cli", {"s": 0.0, "self_s": 0.0})
    emit = stats.get("cli.emit", {"s": 0.0})
    jobs = plain + traced
    refs = [job.child.reference_s for job in jobs if job.child.reference_s]
    derived = {
        "host.reference_s": statistics.median(refs) if refs else 0.0,
        "cli.self_s": cli["self_s"],
        "trace.overhead_ratio": traced_scaled / plain_scaled if plain_scaled else 0.0,
        "trace.named_share": (cli["s"] - cli["self_s"] - emit["s"]) / traced_solve
        if traced_solve else 0.0,
        "error_rate": sum(1 for job in jobs if job.errors) / len(jobs),
    }
    for job in plain:
        data = job.child.data or {}
        for key in ("import_s", "build_algebra_s"):
            derived["setup." + key] = derived.get("setup." + key, 0.0) + data.get(key, 0.0)
        derived["job.%s.s" % job.slot] = job.solve_s

    metrics = {}
    for name in PER_LAYER:
        if name in derived:
            value = derived[name]
        elif name in counters:
            value = counters[name]
        else:
            span, _, what = name.rpartition(".")
            value = stats.get(span, {}).get(what, 0)
        metrics[name] = (value, unit_of(name))
    return metrics


def write_trace(workload, seed, traced):
    path = RUN_DIR / ("trace-%s-%d.json" % (workload, seed))
    trees = [
        {"slot": job.slot, "case": job.case, "tree": (job.child.data or {}).get("tree")}
        for job in traced
    ]
    with open(path, "w") as fh:
        json.dump(trees, fh, indent=1)
        fh.write("\n")


def known_slow():
    report = []
    for case in cases.KNOWN_SLOW:
        child, wall_s, _ = execute(case, timeout=KNOWN_SLOW_TIMEOUT)
        entry = {"case": case, "wall_s": "timeout" if child.timed_out else wall_s}
        if child.data is not None:
            entry["exit"] = child.data["exit"]
            entry["solve_s"] = child.data["solve_s"]
        report.append(entry)
        sys.stderr.write("%s: %s\n" % (case, entry["wall_s"]))
    print(json.dumps({"known_slow": report, "timeout_s": KNOWN_SLOW_TIMEOUT}, indent=1))


def prepare():
    if not (SRC / "weylmod" / "cli.py").is_file():
        sys.exit("error: %s holds no weylmod package" % SRC)
    RUN_DIR.mkdir(exist_ok=True)
    # a user's install compiles the package once; do it before timing
    compileall.compile_dir(str(SRC / "weylmod"), quiet=2)
    compileall.compile_dir(str(HERE), quiet=2, maxlevels=0)


def load_golden():
    if not GOLDEN_PATH.is_file():
        sys.exit("error: %s is missing" % GOLDEN_PATH)
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(cases.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--known-slow", action="store_true",
                   help="run the known-slow cases once each and report wall time")
    args = p.parse_args(argv)
    # leave through the finally blocks on SIGTERM, so a running child is
    # killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    prepare()
    if args.known_slow:
        known_slow()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    golden = load_golden()
    deadline = time.perf_counter() + RUN_LIMIT
    selected = cases.select_jobs(args.workload, args.seed)
    if args.trace:
        plain = [job for job, _ in run_pass(golden, selected, False, 0, deadline)]
        traced = [job for job, _ in run_pass(golden, selected, True, 0, deadline)]
        write_trace(args.workload, args.seed, traced)
        jobs, metrics = plain + traced, layer_metrics(plain, traced)
    else:
        jobs, metrics = measure(golden, selected, args.seconds, deadline)
    failed = sum(1 for job in jobs if job.errors)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
