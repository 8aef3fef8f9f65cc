"""Tests for the command line interface."""

import hashlib
import importlib
import importlib.util
import json
import os
import pkgutil
import shutil
import subprocess
import sys
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
    # one scan per module, shared by every degree and the certificate
    scans, walks = [], []
    scan_class = em.ResonanceScan
    walk = affine_numerics.enumerate_root_lattice_ball

    def counted_scan(*args, **kwargs):
        scans.append(args)
        return scan_class(*args, **kwargs)

    def counted_walk(*args, **kwargs):
        walks.append(args)
        return walk(*args, **kwargs)

    monkeypatch.setattr(em, "ResonanceScan", counted_scan)
    monkeypatch.setattr(affine_numerics, "enumerate_root_lattice_ball", counted_walk)
    for argv in (
        ["A", "1", "--hw", "2", "--kappa=-2", "--depth", "4"],
        ["A", "2", "--hw", "1", "0", "--kappa=-3/2", "--depth", "2"],
        ["A", "1", "--hw", "0", "--kappa=-1+1i", "--depth", "2"],
    ):
        scans.clear()
        walks.clear()
        code, out, _ = _run(["crossvalidate"] + argv + ["--format", "json"], capsys)
        assert code == 0 and json.loads(out)["ok"] is True
        assert (len(scans), len(walks)) == (1, 1), argv


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


def _python(*args):
    # the child finds the package where this process imported it from
    src = os.path.dirname(os.path.dirname(weylmod.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


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
