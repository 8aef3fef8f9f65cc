"""Tests for the command line interface."""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import weylmod
from helpers import job_config_from_json_dict
from weylmod import affine_numerics
from weylmod import explicit_module as em
from weylmod.graded_sym import sym_ad_graded
from weylmod.cli import JobConfig, build_parser, main
from weylmod.rational import ComplexRational


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_job_config_round_trip():
    cfg = JobConfig("certify", "A", 1, weights=[[2]], kappa=Fraction(-2),
                    n_max=None, fmt="json")
    assert job_config_from_json_dict(cfg.to_json_dict()) == cfg
    cfg2 = JobConfig("crossvalidate", "A", 2, weights=[[1, 0]],
                     kappa=ComplexRational(-1, 1), n_max=2, fmt="text")
    assert job_config_from_json_dict(cfg2.to_json_dict()) == cfg2


def test_parser_routes_subcommands():
    p = build_parser()
    args = p.parse_args(["certify", "A", "1", "--hw", "2", "--kappa", "-2"])
    assert args.command == "certify"
    assert args.hw == ["2"]
    args = p.parse_args(["certify", "A", "1", "--hw", "2", "--kappa", "-1+1i"])
    assert args.kappa == "-1+1i"
    args = p.parse_args(["symlevels", "B", "2", "--n", "3", "--format", "json"])
    assert args.n == 3 and args.fmt == "json"


def test_algebra_text_and_json(capsys):
    code, out, _ = _run(["algebra", "A", "1"], capsys)
    assert code == 0
    assert "algebra A1: dimension 3" in out
    assert "dual Coxeter number: 2" in out
    code, out, _ = _run(["algebra", "A", "1", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["algebra"]["dimension"] == 3
    assert data["algebra"]["dual_coxeter"] == "2"
    assert data["algebra"]["rho_norm_sq"] == "1/2"
    assert data["config"]["command"] == "algebra"
    code, out, _ = _run(["algebra", "a", "1", "--format", "json"], capsys)
    assert json.loads(out)["config"]["algebra"]["series"] == "A"


def test_algebra_works_beyond_rank_two(capsys):
    code, out, _ = _run(["algebra", "E", "6", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["algebra"]["dimension"] == 78
    assert data["algebra"]["dual_coxeter"] == "12"


def test_symlevels_sl2(capsys):
    code, out, _ = _run(["symlevels", "A", "1", "--n", "2", "--format", "json"],
                        capsys)
    assert code == 0
    data = json.loads(out)
    dims = [lvl["dimension"] for lvl in data["levels"]]
    assert dims == [1, 3, 9]
    level2 = data["levels"][2]
    assert level2["length"] == 3
    hws = sorted(c["hw"] for c in level2["constituents"])
    assert hws == [["0"], ["2"], ["4"]]


def test_certify_inconclusive_exit_two(capsys):
    code, out, _ = _run(
        ["certify", "A", "1", "--hw", "2", "--kappa", "-2", "--format", "json"],
        capsys)
    assert code == 2
    data = json.loads(out)
    assert data["status"] == "Inconclusive"
    assert data["reason"] is None
    assert data["kostant_bound_C"] == "-4"
    assert data["exhaustive_level_bound"] == 1
    assert data["in_X_lambda"] is True
    assert data["in_Y_lambda"] is True
    assert data["delta_upper_bound"] == {"value": 4, "complete": True}
    assert data["top_l0_eigenvalue"] == "-1"
    assert data["candidates"] == [
        {"mu": [-2], "n": 1, "xi": "0"},
        {"mu": [-1], "n": 1, "xi": "0"},
    ]


def test_certify_outside_x_exit_zero(capsys):
    code, out, _ = _run(["certify", "A", "1", "--hw", "0", "--kappa", "-1"],
                        capsys)
    assert code == 0
    assert "CertifiedIrreducible (OutsideXLambda)" in out


def test_certify_kostant_bound(capsys):
    code, out, _ = _run(
        ["certify", "A", "1", "--hw", "2", "--kappa", "-100", "--format", "json"],
        capsys)
    assert code == 0
    assert json.loads(out)["reason"] == "KostantBound"


def test_certify_complex_kappa(capsys):
    code, out, _ = _run(
        ["certify", "A", "2", "--hw", "1", "0", "--kappa=-1+1i",
         "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["reason"] == "OutsideXLambda"
    assert data["in_Y_lambda"] is False
    assert data["config"]["kappa"] == "-1+1 i"


def test_certify_walks_the_lattice_ball_once(monkeypatch, capsys):
    calls = []
    walk = affine_numerics.enumerate_root_lattice_ball

    def counted(*args, **kwargs):
        calls.append(args)
        return walk(*args, **kwargs)

    monkeypatch.setattr(affine_numerics, "enumerate_root_lattice_ball", counted)
    for argv, expected in (
        (["A", "2", "--hw", "1", "0", "--kappa=-1+1i"], "OutsideXLambda"),
        (["A", "1", "--hw", "2", "--kappa", "-100"], "KostantBound"),
        (["A", "1", "--hw", "2", "--kappa", "-2"], None),
    ):
        calls.clear()
        code, out, _ = _run(["certify"] + argv + ["--format", "json"], capsys)
        assert json.loads(out)["reason"] == expected
        assert code == (2 if expected is None else 0)
        assert len(calls) == 1, argv
    # crossvalidate: one scan per module, shared by every degree
    for argv in (
        ["A", "1", "--hw", "2", "--kappa=-2", "--depth", "4"],
        ["A", "1", "--hw", "0", "--kappa=-1+1i", "--depth", "2"],
    ):
        calls.clear()
        code, out, _ = _run(["crossvalidate"] + argv + ["--format", "json"], capsys)
        assert code == 0 and json.loads(out)["ok"] is True
        assert len(calls) == 1, argv


def test_certify_checks_hw_before_the_scan(monkeypatch, capsys):
    def no_scan(*args, **kwargs):
        raise AssertionError("ResonanceScan built before hw was validated")

    monkeypatch.setattr(affine_numerics, "ResonanceScan", no_scan)
    code, out, err = _run(["certify", "E", "6", "--hw", "0", "0", "0", "0", "0",
                           "1/2", "--kappa=-1+1i"], capsys)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: highest weight must be integral")


def test_sym_ad_is_expanded_once_per_job(capsys):
    # symlevels reads every level, and an inconclusive certify every
    # candidate degree, from one S(ad) expansion
    for argv, code_expected in (
        (["symlevels", "B", "3", "--n", "4"], 0),
        (["certify", "A", "2", "--hw", "2", "0", "--kappa=-1/2"], 2),
    ):
        sym_ad_graded.cache_clear()
        code, out, _ = _run(argv + ["--format", "json"], capsys)
        assert code == code_expected
        json.loads(out)
        assert sym_ad_graded.cache_info().misses == 1, argv


def test_kl_check_builds_each_annihilator_level_once(monkeypatch, capsys):
    built = []
    build = em.annihilator_level

    def counted(module, order):
        built.append(order)
        return build(module, order)

    monkeypatch.setattr(em, "annihilator_level", counted)
    argv = ["crossvalidate", "A", "1", "--hw", "0", "--kappa=-1", "--depth", "5",
            "--format", "json"]
    code, out, _ = _run(argv, capsys)
    assert code == 0
    report = json.loads(out)
    assert report["checks"]["kl_exact"] is True
    assert [entry["order"] for entry in report["kl"]] == [1, 2]
    # V(1) and V(2), each built once and shared by both orders
    assert sorted(built) == [1, 2]


def test_kl_check_builds_each_annihilator_span_once(monkeypatch, capsys):
    # spans created while span_contains runs are charged to its (level, degree)
    builds = {}
    asking = []
    span_contains = em.AnnihilatorSubspace.span_contains

    def traced(self, degree, vec):
        asking.append((id(self), self.order, degree))
        try:
            return span_contains(self, degree, vec)
        finally:
            asking.pop()

    class CountedSpan(em.SpanBuilder):
        def __init__(self, dim):
            super().__init__(dim)
            if asking:
                builds[asking[-1]] = builds.get(asking[-1], 0) + 1

    monkeypatch.setattr(em.AnnihilatorSubspace, "span_contains", traced)
    monkeypatch.setattr(em, "SpanBuilder", CountedSpan)
    argv = ["crossvalidate", "A", "1", "--hw", "2", "--kappa=-2", "--depth", "4",
            "--format", "json"]
    code, out, _ = _run(argv, capsys)
    assert code == 0
    assert json.loads(out)["checks"]["kl_exact"] is True
    assert builds, "the KL check asked no annihilator span"
    assert max(builds.values()) == 1, builds


def test_certify_rejects_nonnegative_kappa(capsys):
    code, _, err = _run(["certify", "A", "1", "--hw", "0", "--kappa", "1"],
                        capsys)
    assert code == 1
    assert "error" in err


def test_usage_errors_exit_one(capsys):
    for argv in (
        [],
        ["nosuchcommand"],
        ["certify", "A", "1", "--hw", "2"],
        ["symlevels", "A", "1"],
        ["crossvalidate", "A", "1", "--hw", "0", "--kappa", "-1"],
    ):
        code, _, _ = _run(argv, capsys)
        assert code == 1, argv


def test_bad_algebra_exits_one(capsys):
    code, _, err = _run(["algebra", "Z", "9"], capsys)
    assert code == 1
    assert "error" in err


def test_wrong_hw_length_exits_one(capsys):
    code, _, err = _run(["certify", "A", "2", "--hw", "2", "--kappa", "-1"],
                        capsys)
    assert code == 1
    assert "coordinates" in err


def test_depth_cap_respected(capsys):
    code, _, err = _run(
        ["crossvalidate", "A", "1", "--hw", "0", "--kappa", "-1", "--depth",
         "99"], capsys)
    assert code == 1
    assert "cap" in err


def test_crossvalidate_all_checks_pass(capsys):
    code, out, _ = _run(
        ["crossvalidate", "A", "1", "--hw", "2", "--kappa", "-2", "--depth",
         "2", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["dims"] == [3, 9, 27]
    assert data["l0_eigenvalues"] == ["-1", "0", "1"]
    assert data["checks"] == {
        "graded_dims": True,
        "l0_scalar": True,
        "virasoro": True,
        "singular_necessity": True,
        "certificate_consistent": True,
        "kl_exact": True,
    }
    assert [f["degree"] for f in data["singular_findings"]] == [1]
    assert data["singular_findings"][0]["matched_candidate"]["mu"] == [-1]
    assert [entry["order"] for entry in data["kl"]] == [1, 2]
    assert all(entry["ok"] for entry in data["kl"])


def test_crossvalidate_positive_kappa_skips_candidate_checks(capsys):
    code, out, _ = _run(
        ["crossvalidate", "A", "1", "--hw", "0", "--kappa", "2", "--depth",
         "1", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["checks"]["singular_necessity"] is None
    assert data["checks"]["certificate_consistent"] is None
    assert data["candidates"] == []


@pytest.mark.parametrize("argv", [
    ["A", "1", "--hw", "0", "--kappa=2"],
    ["A", "2", "--hw", "0", "0", "--kappa=3"],
])
def test_crossvalidate_at_dual_coxeter_level(argv, capsys):
    # K acts by kappa - h-dual = 0; the candidate checks do not apply (None)
    code, out, _ = _run(["crossvalidate"] + argv + ["--depth", "2", "--format",
                                                    "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert all(v is not False for v in data["checks"].values())
    assert data["checks"]["l0_scalar"] and data["checks"]["virasoro"]
    assert data["checks"]["kl_exact"]


def test_crossvalidate_dump_writes_module(tmp_path, capsys):
    target = tmp_path / "module.json"
    code, _, _ = _run(
        ["crossvalidate", "A", "1", "--hw", "0", "--kappa", "-1", "--depth",
         "1", "--dump", str(target)], capsys)
    assert code == 0
    data = json.loads(target.read_text())
    assert data["schema"] == "weylmod.truncated_module.v1"
    assert data["depth"] == 1
    assert data["generators"] == ["e", "h", "f"]


def test_crossvalidate_dump_to_missing_directory_exits_one(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, _, err = _run(
        ["crossvalidate", "A", "1", "--hw", "0", "--kappa=-1", "--depth", "1",
         "--dump", str(target)], capsys)
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["B", "2", "--hw", "1", "0"],
    ["G", "2", "--hw", "0", "0"],
    ["A", "3", "--hw", "0", "0", "0"],
])
def test_crossvalidate_beyond_type_a(argv, capsys):
    code, out, _ = _run(["crossvalidate"] + argv + ["--kappa=-1", "--depth", "2",
                                                    "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert all(data["checks"].values())


def test_crossvalidate_rejects_algebras_over_64_dimensions(capsys):
    code, out, err = _run(["crossvalidate", "E", "6", "--hw"] + ["0"] * 6
                          + ["--kappa=-1", "--depth", "1"], capsys)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_json_output_is_deterministic(capsys):
    argv = ["certify", "A", "2", "--hw", "1", "1", "--kappa", "-3/2",
            "--format", "json"]
    code1, out1, _ = _run(argv, capsys)
    code2, out2, _ = _run(argv, capsys)
    assert code1 in (0, 2)
    assert json.loads(out1)["config"]["kappa"] == "-3/2"
    assert code1 == code2
    assert out1 == out2
    argv = ["crossvalidate", "A", "1", "--hw", "2", "--kappa", "-2",
            "--depth", "2", "--format", "json"]
    _, out1, _ = _run(argv, capsys)
    _, out2, _ = _run(argv, capsys)
    assert out1 == out2


def test_console_script_installed():
    exe = shutil.which("weylmod")
    if exe is None:
        pytest.skip("console script not on PATH in this environment")
    proc = subprocess.run([exe, "algebra", "A", "1"], capture_output=True,
                          text=True)
    assert proc.returncode == 0
    assert "dimension 3" in proc.stdout


def test_invariant_failure_exits_one_without_traceback(monkeypatch, capsys):
    # a wrong Casimir scalar breaks the Sugawara invariant L0 = a/(2 kappa) + n
    monkeypatch.setattr(em, "casimir_on_irrep", lambda algebra, hw: Fraction(99))
    code, out, err = _run(["crossvalidate", "A", "1", "--hw", "0", "--kappa=-1",
                           "--depth", "1"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: Sugawara sum is not the expected scalar at degree 0\n"


def test_module_entry_point():
    # the child finds the package where this process imported it from
    src = os.path.dirname(os.path.dirname(weylmod.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "weylmod.cli", "certify", "A", "1", "--hw", "2",
         "--kappa", "-2"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 2
    assert "Inconclusive" in proc.stdout
