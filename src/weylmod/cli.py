"""Command line surface.

Four subcommands drive the library: ``algebra`` prints root data,
``symlevels`` decomposes the symmetric-algebra levels S(ad)_n, ``certify``
runs the irreducibility certificate for Ind(M)_kappa, and ``crossvalidate``
builds the truncated module and checks the resonance bookkeeping against the
brute-force oracles.  All output is deterministic; ``--format json`` emits a
stable schema with every scalar as an exact string or an int.

``--format json`` and ``--dump`` go through one writer, ``_write_json``: its
bytes are those of ``json.dumps(obj, sort_keys=True, indent=2)`` plus a
newline, streamed in short pieces, and it refuses a float or any other value
without an exact JSON form.  The dump is written from the action store one
action at a time (``explicit_module.module_dump``), so no tree of the whole
module is built.

``parse_argv`` reads argv from one table, ``_COMMANDS``, which also gives the
``-h`` text; an option name never matches by prefix, and a value may start
with "-" (``--kappa -3/2``).  Every error is one ``error:`` line on stderr.

Exit codes: 0 success (or certified), 1 usage or precondition error,
2 mathematically valid but inconclusive certificate, 141 (128 + SIGPIPE, as
a shell reports it) when the reader closes stdout before the output ends.
"""

from __future__ import annotations

import os
import sys
from contextlib import nullcontext
from fractions import Fraction
from itertools import takewhile
from json.encoder import encode_basestring_ascii
from types import GeneratorType

from . import affine_numerics as an
from . import explicit_module as em
from .finite_rep import _require_dominant_integral, irrep_dimension
from .graded_sym import sym_ad_graded
from .invariant import InvariantError
from .rational import (format_fraction, format_scalar, parse_fraction, parse_int,
                       parse_scalar)
from .root_system import build_algebra, norm_sq

class JobConfig:
    """A fully parsed CLI job; round-trips through the JSON emitter."""

    __slots__ = ("command", "series", "rank", "weights", "kappa", "n_max", "fmt")

    def __init__(self, command, series, rank, weights=(), kappa=None, n_max=None,
                 fmt="text"):
        self.command = command
        self.series = series.upper()
        self.rank = rank
        self.weights = tuple(tuple(Fraction(c) for c in w) for w in weights)
        self.kappa = kappa
        self.n_max = n_max
        self.fmt = fmt

    def __eq__(self, other):
        if not isinstance(other, JobConfig):
            return NotImplemented
        return self.to_json_dict() == other.to_json_dict()

    def __repr__(self):
        return "JobConfig(%r)" % (self.to_json_dict(),)

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "algebra": {"series": self.series, "rank": self.rank},
            "weights": [[format_fraction(c) for c in w] for w in self.weights],
            "kappa": None if self.kappa is None else format_scalar(self.kappa),
            "n_max": self.n_max,
            "format": self.fmt,
        }


# the JSON text of each scalar type a result may hold; a type missing here,
# float among them, has no JSON form in a result
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _write_value(obj, head: str, nl: str, write) -> None:
    """Write head and then obj, whose lines break as nl says; a generator
    is written as a list, consumed once."""
    kind = type(obj)
    if kind is list and obj:
        try:
            text = [_SCALARS[type(x)](x) for x in obj]
        except KeyError:  # a container (or a refused type) among the elements
            pass
        else:
            inner = nl + "  "
            write(f"{head}[{inner}{(',' + inner).join(text)}{nl}]")
            return
    if kind is list or kind is GeneratorType:
        inner = nl + "  "
        first = item_head = f"{head}[{inner}"
        sep = "," + inner
        for item in obj:
            _write_value(item, item_head, inner, write)
            item_head = sep
        write(head + "[]" if item_head is first else nl + "]")
    elif kind is dict:
        if not obj:
            write(head + "{}")
            return
        inner = nl + "  "
        head = f"{head}{{{inner}"
        sep = "," + inner
        # encode_basestring_ascii refuses a key that is not a str
        for key in sorted(obj):
            _write_value(obj[key], f"{head}{encode_basestring_ascii(key)}: ",
                         inner, write)
            head = sep
        write(nl + "}")
    else:
        scalar = _SCALARS.get(kind)
        if scalar is None:
            raise TypeError("no JSON form for %s %r: a result holds exact "
                            "strings and ints" % (kind.__name__, obj))
        write(head + scalar(obj))


def _write_json(obj, write) -> None:
    """Write the bytes of json.dumps(obj, sort_keys=True, indent=2), then a
    newline, in short strings, each ending in one scalar, one list of
    scalars or one closing bracket: json runs its indented encoder in pure
    Python, and the module dump as one string would take more memory than
    its build frees.  Only dicts with str keys, lists, generators (read
    once, as lists), strs, ints, bools and None are accepted; anything
    else, a float among them, is a TypeError."""
    _write_value(obj, "", "\n", write)
    write("\n")


def _emit(report: dict, lines, fmt: str, out) -> None:
    if fmt == "json":
        _write_json(report, out.write)
    else:
        for line in lines:
            out.write(line + "\n")


def _hw_weight(algebra, config: JobConfig):
    coords = config.weights[0]
    if len(coords) != algebra.rank:
        raise ValueError(
            "highest weight needs %d coordinates, got %d"
            % (algebra.rank, len(coords))
        )
    return algebra.weight(coords)


def cmd_algebra(config: JobConfig, out) -> int:
    algebra = build_algebra(config.series, config.rank)
    rho = algebra.rho
    report = {
        "config": config.to_json_dict(),
        "algebra": {
            "series": algebra.series,
            "rank": algebra.rank,
            "dimension": algebra.dim,
            "dual_coxeter": format_fraction(algebra.dual_coxeter),
            "cartan_matrix": [[int(x) for x in row] for row in algebra.cartan],
            "symmetrizers": [format_fraction(x) for x in algebra.d],
            "gram_simple_roots": [
                [format_fraction(x) for x in row] for row in algebra.gram_root
            ],
            "rho": [format_fraction(c) for c in rho.coords],
            "rho_norm_sq": format_fraction(norm_sq(rho)),
            "positive_roots": [list(map(int, r)) for r in algebra.positive_roots],
            "highest_root": list(map(int, algebra.highest_root)),
        },
    }
    a = report["algebra"]
    lines = [
        "algebra %s%d: dimension %d" % (algebra.series, algebra.rank, algebra.dim),
        "dual Coxeter number: %s" % a["dual_coxeter"],
        "cartan matrix: %s" % (a["cartan_matrix"],),
        "symmetrizers d_i: %s" % ", ".join(a["symmetrizers"]),
        "gram (alpha_i, alpha_j): [%s]"
        % ", ".join("[%s]" % ", ".join(row) for row in a["gram_simple_roots"]),
        "rho: (%s)   |rho|^2 = %s" % (", ".join(a["rho"]), a["rho_norm_sq"]),
        "positive roots (root coordinates): %s"
        % "; ".join("(%s)" % ", ".join(map(str, r)) for r in a["positive_roots"]),
        "highest root: (%s)" % ", ".join(map(str, a["highest_root"])),
    ]
    _emit(report, lines, config.fmt, out)
    return 0


def _decomposition_json(dec) -> list:
    return [
        {
            "hw": list(map(str, c)),
            "multiplicity": m,
            "dimension": irrep_dimension(dec.algebra, c),
        }
        for c, m in dec.items()
    ]


def _decomposition_text(dec) -> str:
    parts = []
    for c, m in dec.items():
        label = "L(%s)" % ", ".join(map(str, c))
        parts.append(label if m == 1 else "%d %s" % (m, label))
    return " + ".join(parts) if parts else "0"


def cmd_symlevels(config: JobConfig, out) -> int:
    algebra = build_algebra(config.series, config.rank)
    n_max = config.n_max
    if n_max < 0:
        raise ValueError("--n must be >= 0")
    levels = []
    lines = ["S(ad) levels for %s%d" % (algebra.series, algebra.rank)]
    for n, dec in enumerate(sym_ad_graded(algebra, n_max)):
        constituents = _decomposition_json(dec)
        dim = sum(e["multiplicity"] * e["dimension"] for e in constituents)
        levels.append(
            {
                "degree": n,
                "dimension": dim,
                "length": dec.length(),
                "constituents": constituents,
            }
        )
        lines.append("level %d: dim %d = %s" % (n, dim, _decomposition_text(dec)))
    report = {"config": config.to_json_dict(), "levels": levels}
    _emit(report, lines, config.fmt, out)
    return 0


def _candidate_json(pair) -> dict:
    return {
        "mu": list(pair.mu),
        "n": pair.n,
        "xi": format_scalar(pair.xi),
    }


def cmd_certify(config: JobConfig, out) -> int:
    algebra = build_algebra(config.series, config.rank)
    hw = _hw_weight(algebra, config)
    kappa = config.kappa
    # validates hw and kappa before the scan, whose lattice walk can be long
    _require_dominant_integral(algebra, hw)
    an.check_kappa(kappa)
    scan = an.ResonanceScan(hw + algebra.rho, kappa)
    verdict = scan.certificate()
    bound = scan.level_bound
    delta = scan.delta(bound)
    report = {
        "config": config.to_json_dict(),
        "status": verdict.status,
        "reason": verdict.reason,
        "candidates": [_candidate_json(p) for p in verdict.candidates],
        "kostant_bound_C": format_fraction(scan.c),
        "exhaustive_level_bound": bound,
        "in_X_lambda": not verdict.certified,
        "in_Y_lambda": an.in_Y_lambda(kappa, scan.lam),
        "delta_upper_bound": {"value": delta.value, "complete": delta.complete},
        "top_l0_eigenvalue": format_scalar(scan.xi0),
    }
    lines = [
        "Ind(M)_kappa with M = L(%s), kappa = %s"
        % (", ".join(format_fraction(c) for c in hw.coords), format_scalar(kappa)),
        "status: %s%s"
        % (verdict.status, "" if verdict.reason is None else " (%s)" % verdict.reason),
        "Kostant bound C = %s, exhaustive level bound %d"
        % (report["kostant_bound_C"], bound),
        "kappa in X_lambda: %s; kappa in Y_lambda: %s"
        % (report["in_X_lambda"], report["in_Y_lambda"]),
        "delta length bound: %d (complete: %s)" % (delta.value, delta.complete),
    ]
    if verdict.candidates:
        lines.append("unexcluded candidates (mu root coords, degree, L0 eigenvalue):")
        for p in verdict.candidates:
            lines.append(
                "  mu=(%s) n=%d xi=%s"
                % (", ".join(map(str, p.mu)), p.n,
                   format_scalar(p.xi))
            )
    _emit(report, lines, config.fmt, out)
    return 0 if verdict.certified else 2


def cmd_crossvalidate(config: JobConfig, out, dump=None) -> int:
    algebra = build_algebra(config.series, config.rank)
    hw = _hw_weight(algebra, config)
    # the inputs are checked before the dump file is opened, so a rejected
    # input leaves no file, and the file is opened before the work, so a
    # bad path fails first
    kappa = em.check_truncation(algebra, hw, config.kappa, config.n_max)
    with open(dump, "w") if dump is not None else nullcontext() as fh:
        module = em.build_truncated(algebra, hw, kappa, config.n_max)
        ok_all = _crossvalidate_report(config, module, out)
        if fh is not None:
            _write_json(em.module_dump(module), fh.write)
    return 0 if ok_all else 1


def _crossvalidate_report(config: JobConfig, module, out) -> bool:
    """Run and report every check of crossvalidate; True when all pass."""
    algebra, hw, kappa, depth = module.algebra, module.m_hw, module.kappa, module.depth
    dims = [module.degree_dim(n) for n in range(depth + 1)]
    expected_dims = [
        c.dimension() * module.rep.dim for c in sym_ad_graded(algebra, depth)
    ]
    graded_ok = dims == expected_dims

    # sugawara_l0 raises (exit 1) unless L0 is scalar on every layer
    eigenvalues = [format_scalar(xi) for xi in module.l0]
    l0_ok = True

    virasoro_ok = em.virasoro_commutation_check(module)

    findings = []
    finding_degrees = set()
    for n in range(1, depth + 1):
        for weight, dim, matched in em.singular_dimensions(module, n):
            finding_degrees.add(n)
            findings.append(
                {
                    "degree": n,
                    "weight": [format_fraction(c) for c in weight.coords],
                    "dimension": dim,
                    "matched_candidate": None
                    if matched is None
                    else _candidate_json(matched),
                }
            )
    necessity = None
    candidates = []
    certificate_consistent = None
    if kappa.imag or kappa.real < 0:  # else no candidates apply
        scan = an.ResonanceScan(hw + algebra.rho, kappa)
        pairs = scan.pairs(depth)
        candidates = [_candidate_json(p) for p in pairs]
        candidate_degrees = {p.n for p in pairs}
        necessity = finding_degrees <= candidate_degrees
        verdict = scan.certificate()
        certificate_consistent = not (verdict.certified and findings)

    kl = []
    kl_ok = True
    for order in (1, 2):
        if depth >= order:
            ok, diag = em.check_kl_exact_sequence(module, order)
            kl_ok = kl_ok and ok
            kl.append({"order": order, "ok": ok, "diagnostics": diag})

    checks = {
        "graded_dims": graded_ok,
        "l0_scalar": l0_ok,
        "virasoro": virasoro_ok,
        "singular_necessity": necessity,
        "certificate_consistent": certificate_consistent,
        "kl_exact": kl_ok,
    }
    ok_all = all(v in (True, None) for v in checks.values())
    report = {
        "config": config.to_json_dict(),
        "dims": dims,
        "l0_eigenvalues": eigenvalues,
        "singular_findings": findings,
        "candidates": candidates,
        "kl": kl,
        "checks": checks,
        "ok": ok_all,
    }
    lines = [
        "crossvalidate %s%d, M = L(%s), kappa = %s, depth %d"
        % (algebra.series, algebra.rank,
           ", ".join(format_fraction(c) for c in hw.coords),
           format_scalar(kappa), depth),
        "graded dims: %s (match S(ad) (x) M: %s)" % (dims, graded_ok),
        "L0 eigenvalues by degree: %s (scalar blocks: %s)"
        % (", ".join(eigenvalues), l0_ok),
        "virasoro [L0, x eps^m] = -m x eps^m: %s" % virasoro_ok,
    ]
    if findings:
        lines.append("singular vectors found:")
        for fnd in findings:
            matched = fnd["matched_candidate"]
            lines.append(
                "  degree %d weight (%s) dim %d matched %s"
                % (fnd["degree"], ", ".join(fnd["weight"]), fnd["dimension"],
                   "none" if matched is None
                   else "mu=(%s) n=%d" % (
                       ", ".join(map(str, matched["mu"])), matched["n"]))
            )
    else:
        lines.append("singular vectors found: none")
    lines.append(
        "candidate degrees cover findings: %s"
        % ("not applicable" if necessity is None else necessity)
    )
    for entry in kl:
        lines.append(
            "KL exactness at order %d: %s" % (entry["order"], entry["ok"])
        )
    lines.append("all checks passed: %s" % ok_all)
    _emit(report, lines, config.fmt, out)
    return ok_all


def _format(tok: str) -> str:
    if tok not in ("text", "json"):
        raise ValueError("invalid format %r: choose text or json" % tok)
    return tok


# The one table parse_argv and the -h text read: for each command its function,
# help line and options as (flag, type, required, several values, help); a type
# turns one token into a value or raises ValueError.
_FORMAT = ("--format", _format, False, False, "output format: text (default) or json")
_HW = ("--hw", parse_fraction, True, True, "highest weight of M, fundamental coords")
_KAPPA = ("--kappa", parse_scalar, True, False, 'central parameter, e.g. "-3/2"')
_COMMANDS = {
    "algebra": (cmd_algebra, "print root data of a simple algebra", (_FORMAT,)),
    "symlevels": (cmd_symlevels, "decompose the levels of the symmetric algebra of g",
                  (("--n", parse_int, True, False, "largest level"), _FORMAT)),
    "certify": (cmd_certify, "irreducibility certificate for Ind(M)_kappa",
                (_HW, _KAPPA, _FORMAT)),
    "crossvalidate": (
        cmd_crossvalidate, "brute-force oracle checks on the truncated module",
        (_HW, _KAPPA, ("--depth", parse_int, True, False, "truncation depth"),
         ("--dump", str, False, False, "also write the module as JSON"), _FORMAT)),
}


def parse_argv(argv) -> tuple:
    """Read argv into (JobConfig, dump path or None); a usage error is a
    ValueError.  The command comes first; options come before or after
    SERIES RANK as --name value or --name=value, and the last of a repeated
    option counts.  A value is any token that does not start with "--", and
    --hw takes every such token up to the next option."""
    if not argv or argv[0] not in _COMMANDS:
        raise ValueError("expected a command (%s), got %r"
                         % (", ".join(_COMMANDS), " ".join(argv[:1])))
    command = argv[0]
    options = {opt[0]: opt for opt in _COMMANDS[command][2]}
    positionals, raw = [], {}
    k = 1
    while k < len(argv):
        tok = argv[k]
        k += 1
        if not tok.startswith("--"):
            positionals.append(tok)
            continue
        flag, eq, value = tok.partition("=")
        if flag not in options:
            raise ValueError("%s has no option %s" % (command, flag))
        if eq:
            values = [value]
        else:
            values = list(takewhile(lambda t: not t.startswith("--"), argv[k:]))
            values = values if options[flag][3] else values[:1]
            k += len(values)
        if not values:
            raise ValueError("%s expects a value" % flag)
        raw[flag] = values
    if len(positionals) != 2:
        raise ValueError("%s expects SERIES RANK, got %r"
                         % (command, " ".join(positionals)))
    for flag, _, required, _, _ in options.values():
        if required and flag not in raw:
            raise ValueError("%s requires %s" % (command, flag))
    got = {flag[2:]: [kind(t) for t in raw[flag]] if several else kind(raw[flag][0])
           for flag, kind, _, several, _ in options.values() if flag in raw}
    config = JobConfig(command, positionals[0], parse_int(positionals[1]),
                       weights=[got["hw"]] if "hw" in got else [],
                       kappa=got.get("kappa"), n_max=got.get("n", got.get("depth")),
                       fmt=got.get("format", "text"))
    return config, got.get("dump")


def _help(argv):
    """The text -h or --help asks for: the program's when it comes first, a
    command's when it comes anywhere after the command; None otherwise."""
    asks = {"-h", "--help"}
    command = argv[0] if argv else None
    if command in asks:
        lines = ["usage: weylmod COMMAND SERIES RANK [options]", "", "commands:"]
        lines += ["  %-14s %s" % (name, entry[1]) for name, entry in _COMMANDS.items()]
        lines += ["", "weylmod COMMAND -h lists the options of COMMAND."]
    elif command in _COMMANDS and asks.intersection(argv):
        _, text, options = _COMMANDS[command]
        rows = [("SERIES", "algebra series letter, e.g. A"), ("RANK", "algebra rank")]
        for flag, _, required, several, help_ in options:
            arg = "%s %s%s" % (flag, flag[2:].upper(), " ..." if several else "")
            rows.append((arg if required else "[%s]" % arg, help_))
        usage = "usage: weylmod %s %s" % (command, " ".join(row[0] for row in rows))
        rows.append(("-h, --help", "print this help"))
        lines = [usage, "", text, ""] + ["  %-18s %s" % row for row in rows]
    else:
        return None
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    text = _help(argv)
    if text is not None:
        sys.stdout.write(text)
        return 0
    try:
        config, dump = parse_argv(argv)
        if config.command == "crossvalidate":
            code = cmd_crossvalidate(config, sys.stdout, dump=dump)
        else:
            code = _COMMANDS[config.command][0](config, sys.stdout)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader stopped early; the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, ZeroDivisionError, InvariantError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
