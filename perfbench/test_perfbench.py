"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import cases  # noqa: E402
import run  # noqa: E402
from tracer import SPANS, Tracer  # noqa: E402

import weylmod  # noqa: E402,F401
from weylmod import affine_numerics, cli, explicit_module, linalg  # noqa: E402
from weylmod import root_system  # noqa: E402

CHEAP = "certify G 2 --hw 5 5 --kappa=-1+1i"


def _bindings():
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "weylmod" or name.startswith("weylmod."):
            for key, value in vars(mod).items():
                out[(name, key)] = value
    out[("SpanBuilder", "add")] = linalg.SpanBuilder.__dict__["add"]
    return out


def _golden():
    with open(run.GOLDEN_PATH) as fh:
        return json.load(fh)


def _cli_stdout(case):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(cases.argv_of(case, ""))
    return code, buf.getvalue()


def test_install_wraps_every_binding_and_uninstall_restores():
    before = _bindings()
    ball = root_system.enumerate_root_lattice_ball
    tracer = Tracer()
    tracer.install()
    try:
        assert affine_numerics.enumerate_root_lattice_ball is not ball
        assert affine_numerics.enumerate_root_lattice_ball.__wrapped__ is ball
        assert explicit_module.nullspace.__wrapped__ is before[("weylmod.linalg", "nullspace")]
        assert cli.sym_ad_graded.__wrapped__ is before[("weylmod.graded_sym", "sym_ad_graded")]
        assert weylmod.candidate_pairs is affine_numerics.candidate_pairs
        assert linalg.SpanBuilder.__dict__["add"] is not before[("SpanBuilder", "add")]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert len(SPANS) == len({span for _, _, span, _, _ in SPANS})


def test_generator_time_is_counted_only_inside_next():
    now = [0.0]

    def clock():
        return now[0]

    def points(n):
        for i in range(n):
            now[0] += 1.0  # work inside the generator
            yield i

    def consumer(gen):
        total = 0
        for i in gen:
            now[0] += 10.0  # work in the consumer between items
            total += i
        return total

    tracer = Tracer(clock)
    traced_points = tracer.wrap("ball", points, after="ball.points")
    traced_consumer = tracer.wrap("scan", consumer)
    gen = traced_points(3)
    now[0] += 100.0  # time between creating and consuming is nobody's
    assert traced_consumer(gen) == 3
    stats = tracer.summary()
    assert stats["ball"] == {"calls": 1, "s": 3.0, "self_s": 3.0}
    assert stats["scan"] == {"calls": 1, "s": 33.0, "self_s": 30.0}
    assert tracer.counters["ball.points"] == 3
    node = tracer.root.children["scan"].children["ball"]
    assert node.total == 3.0


def test_self_time_subtracts_nested_spans():
    now = [0.0]
    tracer = Tracer(lambda: now[0])

    def inner():
        now[0] += 2.0

    traced_inner = tracer.wrap("inner", inner)

    def outer():
        now[0] += 1.0
        traced_inner()
        traced_inner()

    tracer.wrap("outer", outer)()
    stats = tracer.summary()
    assert stats["outer"] == {"calls": 1, "s": 5.0, "self_s": 1.0}
    assert stats["inner"] == {"calls": 2, "s": 4.0, "self_s": 4.0}


def test_corrupted_stdout_counts_as_an_error():
    golden = _golden()
    code, out = _cli_stdout(CHEAP)
    assert run.output_errors(golden, CHEAP, code, out, None) == []
    corrupted = out.replace("OutsideXLambda", "KostantBound")
    assert corrupted != out
    assert run.output_errors(golden, CHEAP, code, corrupted, None) == [
        "stdout sha256 differs from golden"
    ]
    assert run.output_errors(golden, CHEAP, 2, out, None)

    run.RUN_DIR.mkdir(exist_ok=True)
    bad_golden = {CHEAP: dict(golden[CHEAP], stdout_sha256="0" * 64)}
    job = run.run_job(bad_golden, "g2_55", CHEAP)
    assert job.errors == ["stdout sha256 differs from golden"]


def test_semantic_checks_reject_wrong_dimensions_and_exit_codes():
    case = "symlevels A 2 --n 6"
    code, out = _cli_stdout(case)
    assert cases.semantic_errors(case, code, out) == []
    report = json.loads(out)
    report["levels"][3]["dimension"] += 1
    assert cases.semantic_errors(case, code, json.dumps(report))
    code, out = _cli_stdout(CHEAP)
    assert code == 0 and cases.semantic_errors(CHEAP, 2, out)


def test_semantic_checks_count_levels_from_the_command_line():
    case = "symlevels A 2 --n 6"
    code, out = _cli_stdout(case)
    report = json.loads(out)
    del report["levels"][-1]  # still agrees with the formula up to level 5
    assert cases.semantic_errors(case, code, json.dumps(report)) == [
        "level dims [1, 8, 44, 192, 726, 2464], product formula gives "
        "[1, 8, 44, 192, 726, 2464, 7704]"
    ]


def test_malformed_reports_are_errors_not_crashes():
    assert cases.semantic_errors(CHEAP, 0, '{"reason": "KostantBound"}') == [
        "malformed report: KeyError 'status'"
    ]
    assert cases.semantic_errors("symlevels A 2 --n 6", 0, "[1, 2]")[0].startswith(
        "malformed report: TypeError"
    )
    assert cases.semantic_errors("crossvalidate A 1 --hw 0 --kappa=-1 --depth 5", 0, "{}")


def test_times_are_scaled_to_reference_speed():
    # a host that runs the reference loop at half speed doubles every time
    ref = 2 * run.REFERENCE_S
    child = run.Child(0.8, {"ref_s": [ref, ref], "solve_s": 3.0}, False, 0, "")
    assert child.at_reference_speed(0.8) == 0.4
    assert run.Job("slot", CHEAP, child, 3.5, []).scaled_solve_s == 1.5
    failed = run.Child(None, None, False, 1, "")
    assert failed.reference_s is None and failed.at_reference_speed(2.0) == 2.0


def test_product_formula():
    # prod (1 - q^k)^-3, the S(ad) levels of sl2
    assert cases.sym_level_dimensions(3, 5) == [1, 3, 9, 22, 51, 108]
    assert cases.sym_level_dimensions(1, 6) == [1, 1, 2, 3, 5, 7, 11]


def test_traced_child_reproduces_golden_hash():
    run.RUN_DIR.mkdir(exist_ok=True)
    job = run.run_job(_golden(), "g2_55", CHEAP, trace=True)
    assert job.errors == []
    spans = job.child.data["spans"]
    assert spans["root_system.enumerate_root_lattice_ball"]["calls"] >= 1
    assert spans["cli"]["calls"] == 1


def test_seeds_and_golden_records():
    golden = _golden()
    every_case = {c for slots in cases.WORKLOADS.values() for _, pool in slots for c in pool}
    assert set(golden) == every_case
    for workload, slots in cases.WORKLOADS.items():
        assert cases.select_jobs(workload, 0) == [(s, c[0]) for s, c in slots]
        assert cases.select_jobs(workload, 7) == cases.select_jobs(workload, 7)
        assert [s for s, _ in cases.select_jobs(workload, 3)] == [s for s, _ in slots]


def test_benchmark_json_lists_what_the_run_reports():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(cases.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, run.unit_of(name)) for name in run.PER_LAYER
    ]
    assert [m["name"] for m in bench["end_to_end"]] == ["solve_s", "setup_s", "peak_rss_mb"]
