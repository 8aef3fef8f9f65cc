"""Tests for the command line interface."""

import gc
import hashlib
import importlib
import importlib.util
import json
import os
import pkgutil
import shutil
import subprocess
import sys
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import pytest

import weylmod
from helpers import job_config_from_json_dict
from weylmod import affine_numerics, cli, finite_rep, root_system
from weylmod import explicit_module as em
from weylmod.graded_sym import sym_ad_graded
from weylmod.cli import _COMMANDS, JobConfig, main, parse_argv
from weylmod.rational import ComplexRational, format_scalar, parse_scalar
from weylmod.root_system import Weight, build_algebra


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
    config, dump = parse_argv(["certify", "A", "1", "--hw", "2", "--kappa", "-2"])
    assert config.command == "certify" and dump is None
    assert config.weights == ((2,),)
    config, _ = parse_argv(["certify", "A", "1", "--hw", "2", "--kappa", "-1+1i"])
    assert config.kappa == ComplexRational(-1, 1)
    config, _ = parse_argv(["symlevels", "B", "2", "--n", "3", "--format", "json"])
    assert config.n_max == 3 and config.fmt == "json"
    config, _ = parse_argv(["certify", "A", "1", "--hw", "2", "--kappa", "-3/2"])
    assert config.kappa == Fraction(-3, 2)
    config, _ = parse_argv(["certify", "--format", "json", "A", "1", "--hw", "2",
                            "--kappa=-2"])
    assert config == JobConfig("certify", "A", 1, weights=[[2]], kappa=Fraction(-2),
                               fmt="json")
    config, dump = parse_argv(["crossvalidate", "A", "2", "--hw", "1", "-1",
                               "--kappa=-1", "--depth", "1", "--depth", "2",
                               "--dump", "m.json"])
    assert config.weights == ((1, -1),) and config.n_max == 2 and dump == "m.json"


def test_algebra_text_and_json(capsys):
    code, out, _ = _run(["algebra", "A", "1"], capsys)
    assert code == 0
    assert "algebra A1: dimension 3" in out
    assert "dual Coxeter number: 2" in out
    code, out, _ = _run(["algebra", "G", "2"], capsys)
    assert code == 0
    assert "cartan matrix: [[2, -1], [-3, 2]]" in out
    assert "gram (alpha_i, alpha_j): [[2, -1], [-1, 2/3]]" in out
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


def test_crossvalidate_builds_one_scan_and_walks_the_ball_once(monkeypatch, capsys):
    # one scan per run, shared by the candidates and the certificate, and
    # none where kappa >= 0; the module matches findings without one
    scans, walks = [], []
    scan_class = affine_numerics.ResonanceScan
    walk = affine_numerics.enumerate_root_lattice_ball

    def counted_scan(*args, **kwargs):
        scans.append(args)
        return scan_class(*args, **kwargs)

    def counted_walk(*args, **kwargs):
        walks.append(args)
        return walk(*args, **kwargs)

    monkeypatch.setattr(affine_numerics, "ResonanceScan", counted_scan)
    monkeypatch.setattr(affine_numerics, "enumerate_root_lattice_ball", counted_walk)
    for argv, expected in (
        (["A", "1", "--hw", "2", "--kappa=-2", "--depth", "4"], 1),
        (["A", "2", "--hw", "1", "0", "--kappa=-3/2", "--depth", "2"], 1),
        (["A", "1", "--hw", "0", "--kappa=-1+1i", "--depth", "2"], 1),
        (["A", "1", "--hw", "0", "--kappa=2", "--depth", "2"], 0),
    ):
        scans.clear()
        walks.clear()
        code, out, _ = _run(["crossvalidate"] + argv + ["--format", "json"], capsys)
        assert code == 0 and json.loads(out)["ok"] is True
        assert (len(scans), len(walks)) == (expected, expected), argv


def test_certify_builds_its_candidate_list_once(monkeypatch, capsys):
    # the certificate and the length bound read the candidates of one scan
    made = []
    pair = affine_numerics.CandidatePair

    def counted(*args):
        made.append(args)
        return pair(*args)

    hw = weylmod.build_algebra("A", 2).weight([2, 0])
    expected = len(affine_numerics.candidate_pairs(
        hw + hw.algebra.rho, Fraction(-1, 2), 99))
    monkeypatch.setattr(affine_numerics, "CandidatePair", counted)
    code, out, _ = _run(["certify", "A", "2", "--hw", "2", "0", "--kappa=-1/2",
                         "--format", "json"], capsys)
    assert code == 2 and json.loads(out)["candidates"]
    assert len(made) == expected


def test_certify_checks_hw_before_the_scan(monkeypatch, capsys):
    def no_scan(*args, **kwargs):
        raise AssertionError("ResonanceScan built before hw was validated")

    monkeypatch.setattr(affine_numerics, "ResonanceScan", no_scan)
    kappa_error = "error: kappa must lie outside the nonnegative real axis\n"
    for last, kappa, expected in (
        ("1/2", "-1+1i", "error: highest weight must be integral: "
                         "Weight(0,0,0,0,0,1/2)\n"),
        ("0", "1", kappa_error),
        ("0", "0", kappa_error),
    ):
        code, out, err = _run(["certify", "E", "6", "--hw", "0", "0", "0", "0", "0",
                               last, "--kappa=" + kappa], capsys)
        assert (code, out, err) == (1, "", expected), kappa


def test_certify_and_crossvalidate_word_a_bad_highest_weight_alike(capsys):
    # both check the highest weight first, so kappa = 0 (also rejected by
    # both) does not change the error
    for hw, expected in (
        ("-1", "error: highest weight must be dominant: Weight(-1)\n"),
        ("1/2", "error: highest weight must be integral: Weight(1/2)\n"),
    ):
        for kappa in ("-1", "0"):
            for argv in (["certify", "A", "1", "--hw", hw, "--kappa=" + kappa],
                         ["crossvalidate", "A", "1", "--hw", hw, "--kappa=" + kappa,
                          "--depth", "2"]):
                assert _run(argv, capsys) == (1, "", expected), argv


def test_certify_evaluates_each_norm_once(monkeypatch, capsys):
    # |lambda|^2 and |rho|^2, each once, inside the one ResonanceScan; the
    # reported top L0 eigenvalue is the scan's xi0
    calls = []
    real = root_system.norm_sq
    for module in (root_system, affine_numerics, finite_rep, cli):
        monkeypatch.setattr(module, "norm_sq", lambda x: calls.append(x) or real(x))
    for series, rank, hw, kappa, code_expected in (
        ("A", 2, ["1", "0"], "-1", 2),
        ("B", 2, ["1", "1"], "-3/2", 2),
        ("A", 1, ["2"], "-1+1i", 0),
    ):
        calls.clear()
        code, out, _ = _run(["certify", series, str(rank), "--hw", *hw,
                             "--kappa=" + kappa, "--format", "json"], capsys)
        assert code == code_expected, (series, hw, kappa)
        algebra = build_algebra(series, rank)
        lam = algebra.weight([Fraction(c) for c in hw]) + algebra.rho
        assert calls == [lam, algebra.rho], (series, hw, kappa)
        xi0 = affine_numerics.top_l0_eigenvalue(
            real(lam) - real(algebra.rho), parse_scalar(kappa))
        assert json.loads(out)["top_l0_eigenvalue"] == format_scalar(xi0)


def test_crossvalidate_builds_no_weight_per_basis_vector(monkeypatch, capsys):
    # the truncated module keeps its weights as int tuples, and a Weight is
    # built only at the API boundary; with one Weight per PBW key this job
    # built 329 for its 159 basis vectors
    built = []
    real = Weight.__init__
    monkeypatch.setattr(Weight, "__init__",
                        lambda self, *args: built.append(args) or real(self, *args))
    code, out, _ = _run(["crossvalidate", "A", "2", "--hw", "1", "0", "--kappa=-1",
                         "--depth", "2", "--format", "json"], capsys)
    assert code == 0
    assert sum(json.loads(out)["dims"]) == 159
    assert 0 < len(built) <= 60


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
        def __init__(self):
            super().__init__()
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
        ["algebra", "A", "1", "--verbose"],
        ["certify", "A", "1", "--hw", "2", "--kap=-1"],  # no prefix matching
        ["algebra", "A", "1", "--format", "xml"],
        ["symlevels", "A", "1", "--n", "x"],
        ["algebra", "A", "one"],
        ["certify", "A", "1", "--hw", "2", "--kappa"],
        ["certify", "A", "1", "--hw", "--kappa=-1"],
        ["algebra", "A", "1", "extra"],
        ["certify", "A", "1", "--hw", "2", "--kappa=-1", "--depth", "2"],
        # PEP 515 underscores are malformed on every Python version
        ["certify", "A", "1", "--hw", "1", "--kappa=-1_0"],
        ["certify", "A", "1", "--hw", "1", "--kappa=1+1_0i"],
        ["certify", "A", "1", "--hw", "1_0", "--kappa=-1"],
        ["symlevels", "A", "1", "--n", "0_2"],
        ["crossvalidate", "A", "1", "--hw", "0", "--kappa=-1", "--depth", "0_2"],
        ["algebra", "A", "1_0"],
        # integer and fraction tokens are ASCII
        ["algebra", "A", "\u0662"],
        ["certify", "A", "1", "--hw", "\u0662", "--kappa=-\u0661"],
    ):
        code, out, err = _run(argv, capsys)
        assert code == 1, argv
        assert out == "", argv
        assert err.count("\n") == 1 and err.startswith("error: "), argv


def test_help_lists_every_command_and_flag(capsys):
    # the help text and the parser read one table
    code, out, err = _run(["--help"], capsys)
    assert (code, err) == (0, "")
    assert all(name in out for name in _COMMANDS)
    for name, (_, _, options) in _COMMANDS.items():
        code, out, err = _run([name, "-h"], capsys)
        assert (code, err) == (0, ""), name
        assert all(option[0] in out for option in options), name


def test_bad_algebra_exits_one(capsys):
    code, _, err = _run(["algebra", "Z", "9"], capsys)
    assert code == 1
    assert "error" in err


def test_rank_over_series_cap_exits_one(capsys):
    # A-D stop at rank 64, where `algebra --format json` still answers in
    # about a second; one rank more is the one-line invalid-rank error
    for series in "ABCD":
        code, out, err = _run(["algebra", series, "65", "--format", "json"], capsys)
        assert (code, out) == (1, ""), series
        assert err == "error: invalid rank 65 for series %s\n" % series


def test_zero_denominator_names_the_token(capsys):
    # a complex scalar's error names the whole scalar, not the summand
    for argv, message in (
        (["certify", "A", "1", "--hw", "2", "--kappa=1/0"], "zero denominator in '1/0'"),
        (["certify", "A", "1", "--hw", "1/0", "--kappa=-1"], "zero denominator in '1/0'"),
        (["certify", "A", "1", "--hw", "1", "--kappa=1/0i"], "zero denominator in '1/0i'"),
        (["certify", "A", "1", "--hw", "1", "--kappa=1+-1i"], "invalid scalar '1+-1i'"),
        (["certify", "A", "1", "--hw", "1", "--kappa=nan"], "invalid scalar 'nan'"),
        (["certify", "A", "1", "--hw", "x", "--kappa=-1"], "invalid scalar 'x'"),
    ):
        code, out, err = _run(argv, capsys)
        assert code == 1, argv
        assert out == ""
        assert err == "error: %s\n" % message, argv


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


def test_crossvalidate_dump_to_missing_directory_exits_one(tmp_path, capsys,
                                                           monkeypatch):
    built = []
    real = em.build_truncated
    monkeypatch.setattr(em, "build_truncated",
                        lambda *args: built.append(args) or real(*args))
    target = tmp_path / "missing" / "x.json"
    code, out, err = _run(
        ["crossvalidate", "A", "1", "--hw", "0", "--kappa=-1", "--depth", "1",
         "--dump", str(target)], capsys)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    # the bad path fails before any work
    assert built == []


@pytest.mark.parametrize("args", [
    ["--hw", "0", "--kappa=-1", "--depth", "9"],   # beyond the depth cap
    ["--hw", "0", "--kappa=0", "--depth", "1"],    # critical level
    ["--hw", "-1", "--kappa=-1", "--depth", "1"],  # not dominant
    ["--hw", "1/2", "--kappa=-1", "--depth", "1"],  # not integral
])
def test_crossvalidate_rejected_input_leaves_no_dump_file(tmp_path, capsys, args):
    target = tmp_path / "d.json"
    code, out, err = _run(["crossvalidate", "A", "1"] + args
                          + ["--dump", str(target)], capsys)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert not target.exists()


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


# Full stdout sha256 of runs off the simply-laced types, recorded while every
# scalar was still a Fraction: the int store and the scaled Sugawara sum must
# reproduce them byte for byte.  The --dump sha256, recorded while negative
# modes were still straightened by a recursion of their own, pins the whole
# action store of each.
@pytest.mark.parametrize("argv,digest,dump_digest", [
    ("B 2 --hw 1 0 --kappa=-1/3",
     "f727551e873475664db7880c3c3c288a5ed5811ed5d19d6d31e015b426a656cf",
     "1db94ddd4a4724de6d38dc6dbf2e65b41af72053d209021e2d917c7953197436"),
    ("G 2 --hw 0 0 --kappa=-1+1i",
     "544d6f5a1e8af110af1e219b5eb2f9f2b5512b2658e1c69550695777412e1654",
     "cb827fff15f82ce8254a8859f79cfefdb5b263f3aafab8b82632054897ff2c75"),
    ("C 2 --hw 0 1 --kappa=-5/2",
     "ac0dfec60847071f5cb74f0d68dca2cd483a9843e86844aeeeaa039be1a22238",
     "06cc8083b627014823bcf964fc007257c89a975e46ff797b780920d935b04863"),
], ids=["B2", "G2", "C2"])
def test_crossvalidate_output_is_pinned(argv, digest, dump_digest, tmp_path, capsys):
    dump = tmp_path / "dump.json"
    code, out, _ = _run(["crossvalidate"] + argv.split()
                        + ["--depth", "2", "--format", "json", "--dump", str(dump)],
                        capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == dump_digest


# Full stdout and --dump sha256 of the benchmark's dump run, recorded while
# the straightening memo was keyed on monomial tuples and the Sugawara sum
# divided every entry by 2 scale kappa: the integer-keyed straightening and
# the pre-scaled comparison must reproduce them byte for byte.  They are
# pinned here too, so that a benchmark change that re-records
# perfbench/golden.json cannot move them.
def test_crossvalidate_dump_run_is_pinned(tmp_path, capsys):
    dump = tmp_path / "dump.json"
    code, out, _ = _run(["crossvalidate", "A", "2", "--hw", "0", "0",
                         "--kappa=-3/2", "--depth", "3", "--dump", str(dump)],
                        capsys)
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "251236f9e4950e82f64dd2ea5a0224d209a519f6b661a0f3aac2b46e212b0496")
    assert (hashlib.sha256(dump.read_bytes()).hexdigest()
            == "6349f7f964c152e02a2ed2e0e8938d4b6d639aba035403a1ef5d29d9f495665f")


# Full stdout sha256 of two runs whose layers carry singular vectors, and of
# one whose level has the filter prime p in a denominator, recorded while
# every weight block was still solved exactly with all dim g raising
# operators: the highest-weight path must reproduce them byte for byte.  The
# last row is the largest crossvalidate case, kept out of the benchmark's
# golden file as known-slow; it was recorded while the Virasoro check still
# multiplied by full L0 columns and every annihilator block was solved
# exactly.
@pytest.mark.parametrize("argv,digest", [
    ("A 1 --hw 2 --kappa=-2",
     "6f586b5918f757f5189352a1dad0783746b7af7d19fa56e83357cb8f02137149"),
    ("A 1 --hw 0 --kappa=2",
     "f223a8a0c5681a30e5af3c898b3394291e166e7b5e5f898c8f42ec8d474654a3"),
    ("A 1 --hw 2 --kappa=-1/1000000009",
     "ce7272197b77893fb01f95f7d116d6cb7b4b9da64f66ec805c594af5cd3be97d"),
    ("A 2 --hw 1 0 --kappa=-1",
     "3313e7dd9b429e1c712639d6f5f057f2ddd267bde811b71b7be42d1e306037a4"),
], ids=["A1-hw2-kernel", "A1-hw0-positive-kappa", "A1-hw2-denominator-p",
        "A2-hw10-depth4"])
def test_crossvalidate_kernel_output_is_pinned(argv, digest, capsys):
    code, out, _ = _run(["crossvalidate"] + argv.split()
                        + ["--depth", "4", "--format", "json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Full stdout sha256 of text runs well past the benchmark's grid, recorded
# while every Weyl reflection still walked the dense Cartan columns and
# orbit sizes were counted by walking the orbit: the sparse reflection
# kernel, the orbit-size formula and the int-keyed decompositions must
# reproduce them byte for byte.  The three JSON runs were recorded while
# S(ad) levels were still characters on dominant weights, decomposed by
# walking their orbits: the expansion in the representation ring must
# reproduce them too.  The five JSON runs of the exceptional types were
# recorded while each Weyl dimension was a product of full dot products with
# root_pairings and ad was built by Freudenthal: the root steps and the ad
# weights read off the positive roots must reproduce them.
@pytest.mark.parametrize("argv,code,digest", [
    ("symlevels D 4 --n 8", 0,
     "3030ac1aa28b5df6af0fff0f7fb657d6398f654d826a3a65713a9ba379d8c0de"),
    ("symlevels E 6 --n 4", 0,
     "12e852e8b40b01902e0c2da353e5814a46ece29ef3c46dc97c824b06f13a12bf"),
    ("symlevels F 4 --n 4", 0,
     "6db19cad20a41329ba94e675c2e9aa31df8ed66a20f36685a532c016818e01e8"),
    ("symlevels G 2 --n 10", 0,
     "3dbb8ddadb469e150a4bb5d0e571e71e36b0d79e15fc8630c22986dd752338ec"),
    ("symlevels B 4 --n 6", 0,
     "dc4604e2bd775a687b6ddb0eaa9c009fb9a6c075d952cebbfdd2011aced8c311"),
    ("symlevels E 8 --n 2", 0,
     "a4070a066933564d0c37a41abc8ae1acb21095dc7754bec8c77d390b8cf55b61"),
    ("certify A 3 --hw 1 1 1 --kappa=-1", 2,
     "90128fb5fdca4083230a7b7fc8b1b4be7870c54c6aa9e191f6769d193512e8c2"),
    ("symlevels E 6 --n 6 --format json", 0,
     "f7ba49ea6bd31155e0cc0c8040a57a870eb76d1c827cf07d45d7f34823102611"),
    ("symlevels D 4 --n 12 --format json", 0,
     "1285c1ce492a42538441ed3d48140edaaa391c402853c21a58d362587998930d"),
    ("certify D 4 --hw 1 0 0 0 --kappa=-1/2 --format json", 2,
     "4c192525c14f001fa3ee72853b68b31ed273b4c55f4c88db061cb9e2b121271a"),
    ("symlevels E 6 --n 10 --format json", 0,
     "1b3c3ba2eaf0f1e6b4c87d4e079a65175f023c904c3dfb81c2c6dad1650a5524"),
    ("symlevels E 7 --n 4 --format json", 0,
     "6dd13c05f9cc2936cc6b7d1424926287b9c38caffc0640dcc7a4ad9b4384237a"),
    ("symlevels E 8 --n 2 --format json", 0,
     "4f396acba50c8233179bf3adb187a891a0b68137d0ee0413a17911ea967027a1"),
    ("symlevels F 4 --n 6 --format json", 0,
     "c02d0ecf8e99492c14998b54a8c628a2640839fe61837ca73ee3c6b2af4b717b"),
    ("symlevels G 2 --n 12 --format json", 0,
     "b2670b2244538b2040b8c45f680f8d70eb3941f9c38e489fccee77ff22e9af7c"),
], ids=["D4-n8", "E6-n4", "F4-n4", "G2-n10", "B4-n6", "E8-n2", "A3-111",
        "E6-n6", "D4-n12", "D4-1000", "E6-n10-json", "E7-n4-json", "E8-n2-json",
        "F4-n6-json", "G2-n12-json"])
def test_character_engine_output_is_pinned(argv, code, digest, capsys):
    got, out, _ = _run(argv.split(), capsys)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_crossvalidate_rejects_algebras_over_64_dimensions(capsys):
    code, out, err = _run(["crossvalidate", "E", "6", "--hw"] + ["0"] * 6
                          + ["--kappa=-1", "--depth", "1"], capsys)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_golden_case_replays_in_process(tmp_path, capsys):
    # the benchmark's CI step runs one case per slot for two seeds; this runs
    # every case of its golden file against the recorded exit and hashes
    spec = importlib.util.spec_from_file_location(
        "perfbench_cases", _PERFBENCH / "cases.py")
    cases = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cases)
    with open(_PERFBENCH / "golden.json") as fh:
        golden = json.load(fh)
    dump = tmp_path / "dump.json"
    for case, gold in sorted(golden.items()):
        code, out, _ = _run(cases.argv_of(case, str(dump)), capsys)
        assert code == gold["exit"], case
        assert hashlib.sha256(out.encode()).hexdigest() == gold["stdout_sha256"], case
        if "dump_sha256" in gold:
            digest = hashlib.sha256(dump.read_bytes()).hexdigest()
            assert digest == gold["dump_sha256"], case
            dump.unlink()


def test_every_all_name_resolves():
    # a stale __all__ entry fails only under import *, which no test runs
    modules = [weylmod] + [importlib.import_module("weylmod." + info.name)
                           for info in pkgutil.iter_modules(weylmod.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)


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


def _written(obj):
    pieces = []
    cli._write_json(obj, pieces.append)
    return "".join(pieces)


def _reference(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# one report of each subcommand, and of each certify status and reason
@pytest.mark.parametrize("argv,code", [
    ("algebra A 2", 0),
    ("algebra G 2", 0),
    ("symlevels B 2 --n 3", 0),
    ("crossvalidate A 1 --hw 2 --kappa=-2 --depth 2", 0),
    ("crossvalidate A 1 --hw 0 --kappa=2 --depth 2", 0),
    ("certify A 1 --hw 1 --kappa=-200", 0),
    ("certify A 1 --hw 0 --kappa=-1+1i", 0),
    ("certify A 1 --hw 2 --kappa=-2", 2),
], ids=["algebra", "algebra-G2", "symlevels", "crossvalidate",
        "crossvalidate-positive-kappa", "certify-KostantBound",
        "certify-OutsideXLambda", "certify-Inconclusive"])
def test_json_writer_reproduces_json_dumps_on_every_report(argv, code, monkeypatch,
                                                           capsys):
    reports = []
    emit = cli._emit

    def recording_emit(report, lines, fmt, out):
        reports.append(report)
        emit(report, lines, fmt, out)

    monkeypatch.setattr(cli, "_emit", recording_emit)
    got, out, _ = _run(argv.split() + ["--format", "json"], capsys)
    assert got == code
    [report] = reports
    assert out == _written(report) == _reference(report)


@pytest.mark.parametrize("series,rank,hw,kappa", [
    ("B", 2, (1, 0), "-1/3"),
    ("G", 2, (0, 0), "-1+1i"),
    ("C", 2, (0, 1), "-5/2"),
    ("A", 2, (1, 0), "-1+1i"),
], ids=["B2", "G2", "C2", "A2-gaussian"])
def test_json_writer_reproduces_json_dumps_on_module_dumps(series, rank, hw, kappa):
    algebra = build_algebra(series, rank)
    module = em.build_truncated(algebra, algebra.weight(hw), parse_scalar(kappa), 2)
    data = em.module_json_dict(module)
    for obj in (data, em.module_dump(module)):
        pieces = []
        cli._write_json(obj, pieces.append)
        assert "".join(pieces) == _reference(data)
        # streamed: no piece holds more than one entry or basis vector's list
        assert max(map(len, pieces)) < 200


@pytest.mark.parametrize("items", [
    [], [1, "x", None], [[], [1, [2]], {"a": [3]}], [{"b": 1, "a": [{}]}, {}],
], ids=["empty", "flat", "nested", "dicts"])
def test_json_writer_writes_a_generator_as_its_list(items):
    # the dump streams its degrees and actions as generators
    assert _written(x for x in items) == _reference(items)
    assert _written({"k": (x for x in items)}) == _reference({"k": items})
    assert _written([(x for x in items)]) == _reference([items])


def test_crossvalidate_streams_the_dump(monkeypatch, tmp_path, capsys):
    # the dump reaches the writer as generators, not as a built tree
    handed = []
    write_json = cli._write_json

    def recording(obj, write):
        handed.append(obj)
        write_json(obj, write)

    monkeypatch.setattr(cli, "_write_json", recording)
    path = tmp_path / "m.json"
    code, _, _ = _run(["crossvalidate", "A", "1", "--hw", "2", "--kappa=-2",
                       "--depth", "2", "--dump", str(path)], capsys)
    assert code == 0
    [dump] = handed
    assert type(dump["degrees"]) is type(dump["actions"]) is types.GeneratorType
    algebra = build_algebra("A", 1)
    module = em.build_truncated(algebra, algebra.weight([2]), Fraction(-2), 2)
    assert path.read_text() == _reference(em.module_json_dict(module))


def test_dump_holds_one_action_at_a_time():
    # written from the store action by action, the dump's peak above the
    # module is a small share of what the module holds; the whole tree of
    # module_json_dict is about three quarters of it
    algebra = build_algebra("A", 2)
    args = (algebra, algebra.weight([0, 0]), Fraction(-3, 2), 3)
    em.build_truncated(*args)  # warm the caches the build reads
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        module = em.build_truncated(*args)
        held = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        cli._write_json(em.module_dump(module), lambda piece: None)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
        gc.enable()
    assert peak < held / 4, (peak, held)


@pytest.mark.parametrize("obj", [
    {}, [], [[]], [{}], {"a": []}, {"a": {}}, [[], [[]], {}], {"": {"": []}},
    "", 0, -1, 2 ** 64 + 1, -(2 ** 70), None,
    # a bool is an int to isinstance, yet prints as true or false
    True, False, [True, False, None, 1, 0], {"b": True, "a": [1, "x", None]},
    ["\"quoted\"", "back\\slash", "\x00\x1f\n\t", "\u00e9\u4e2d\U0001d504"],
    {"\u00e9": 1, "\n": 2, "\"": [3, [4, {"k": "v"}]]},
])
def test_json_writer_reproduces_json_dumps(obj):
    assert _written(obj) == _reference(obj)


def test_json_writer_streams_scalars_and_members():
    pieces = []
    cli._write_json({"a": [1, 2], "b": {"c": None}, "d": [[3], []]}, pieces.append)
    assert pieces == ['{\n  "a": [\n    1,\n    2\n  ]', ',\n  "b": {\n    "c": null',
                      "\n  }", ',\n  "d": [\n    [\n      3\n    ]', ",\n    []",
                      "\n  ]", "\n}", "\n"]


def test_json_writer_matches_json_dumps_on_random_trees():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    text = st.text()
    scalars = (st.none() | st.booleans() | st.integers() | text
               | st.integers(min_value=2 ** 64) | st.integers(max_value=-(2 ** 64)))
    trees = st.recursive(
        scalars,
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(text, children, max_size=4),
        max_leaves=30)

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(trees)
    def writes_the_bytes_of_json_dumps(obj):
        assert _written(obj) == _reference(obj)

    writes_the_bytes_of_json_dumps()


# the JSON writer refuses every value without an exact JSON form, where
# json.dumps would print a float or turn a tuple into a list
@pytest.mark.parametrize("obj", [
    1.5, float("nan"), [1, 2.0], {"a": [0.5]}, (1, 2), {"a": (1,)},
    Fraction(1, 2), [Fraction(3)], ComplexRational(-1, 1), {"a": ComplexRational(0, 1)},
    {1: "x"}, {"a": {(1, 2): "x"}}, {True: 1}, b"bytes", {1, 2},
    (x for x in [1, 0.5]), (x for x in [(2,)]), (x for x in [{1: "x"}]),
], ids=["float", "nan", "float-in-list", "nested-float", "tuple", "nested-tuple",
        "Fraction", "Fraction-in-list", "ComplexRational", "nested-ComplexRational",
        "int-key", "tuple-key", "bool-key", "bytes", "set", "float-in-generator",
        "tuple-in-generator", "int-key-in-generator"])
def test_json_writer_refuses_values_without_an_exact_form(obj):
    with pytest.raises(TypeError):
        _written(obj)


def _child_env():
    # the child finds the package where this process imported it from
    src = os.path.dirname(os.path.dirname(weylmod.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=_child_env())


def test_cli_loads_no_argparse():
    # building an argparse parser took longer than a lattice job's scan
    proc = _python("-c", "import sys, weylmod.cli\n"
                   "weylmod.cli.main(['algebra', 'A', '1', '--format', 'json'])\n"
                   "print(sorted({'argparse', 'gettext'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_console_script_installed():
    # python -m reads sys.argv in every environment; the script only when installed
    proc = _python("-m", "weylmod.cli", "algebra", "A", "1")
    assert proc.returncode == 0
    assert "dimension 3" in proc.stdout
    exe = shutil.which("weylmod")
    if exe is None:
        pytest.skip("console script not on PATH in this environment")
    proc = subprocess.run([exe, "algebra", "A", "1"], capture_output=True,
                          text=True)
    assert proc.returncode == 0
    assert "dimension 3" in proc.stdout


def test_closed_stdout_exits_141_silently():
    # the reader stops after one line; the output is larger than any pipe
    # buffer (1.2 MB), so the writer meets the closed pipe
    with subprocess.Popen(
            [sys.executable, "-m", "weylmod.cli", "symlevels", "A", "2", "--n",
             "40", "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env()) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 141
    assert err == b""


def test_invariant_failure_exits_one_without_traceback(monkeypatch, capsys):
    # a wrong Casimir scalar breaks the Sugawara invariant L0 = a/(2 kappa) + n
    monkeypatch.setattr(em, "casimir_on_irrep", lambda algebra, hw: Fraction(99))
    code, out, err = _run(["crossvalidate", "A", "1", "--hw", "0", "--kappa=-1",
                           "--depth", "1"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: Sugawara sum is not the expected scalar at degree 0\n"


def test_module_entry_point():
    proc = _python("-m", "weylmod.cli", "certify", "A", "1", "--hw", "2", "--kappa",
                   "-2")
    assert proc.returncode == 2
    assert "Inconclusive" in proc.stdout
