"""Workloads, seeded job selection and the output checks.

Each workload is a list of slots.  A slot names one job of the workload and
lists interchangeable cases: the same subcommand doing the same counted work
(record_golden.py checks the span calls and counters), such as a
diagram-automorphism image of the highest weight, an isomorphic algebra, or
another kappa on a path that does not depend on kappa.  The first case of
every slot is the named grid (seed 0); any other seed draws one case per
slot.  Every case has its own golden exit code and stdout hash
in golden.json.
"""

from __future__ import annotations

import json
import random

DUMP = "{dump}"  # replaced by a scratch path when the job runs

WORKLOADS = {
    # certify at rank 2-4: the root-lattice ball scan dominates (>= 75 %);
    # complex kappa (OutsideXLambda) and B3 at -200 (KostantBound) run both
    # branches of candidate_pairs.
    "lattice": [
        ("d4_trivial", [
            "certify D 4 --hw 0 0 0 0 --kappa=-1+1i",
            "certify D 4 --hw 0 0 0 0 --kappa=-1-1i",
            "certify D 4 --hw 0 0 0 0 --kappa=-2+1i",
        ]),
        ("a4_vector", [
            "certify A 4 --hw 1 0 0 0 --kappa=-1+1i",
            "certify A 4 --hw 0 0 0 1 --kappa=-1+1i",
            "certify A 4 --hw 1 0 0 0 --kappa=-1-1i",
        ]),
        ("b3_kostant", [
            "certify B 3 --hw 1 0 0 --kappa=-200",
            "certify B 3 --hw 1 0 0 --kappa=-300",
            "certify B 3 --hw 1 0 0 --kappa=-1000",
        ]),
        ("a3_222", [
            "certify A 3 --hw 2 2 2 --kappa=-1+1i",
            "certify A 3 --hw 2 2 2 --kappa=-1-1i",
            "certify A 3 --hw 2 2 2 --kappa=-2+1i",
        ]),
        ("g2_55", [
            "certify G 2 --hw 5 5 --kappa=-1+1i",
            "certify G 2 --hw 5 5 --kappa=-1-1i",
            "certify G 2 --hw 5 5 --kappa=-2+1i",
        ]),
    ],
    # S(ad) expansion and Brauer-Klimyk: deep levels with trivial M
    # (symlevels) and many candidate degrees tensored with a non-trivial M
    # (inconclusive certify, where delta_upper_bound dominates).
    "characters": [
        ("sym_e6", ["symlevels E 6 --n 2"]),
        ("sym_b3", ["symlevels B 3 --n 4"]),
        ("sym_g2", ["symlevels G 2 --n 5"]),
        ("sym_a2", ["symlevels A 2 --n 6"]),
        ("cert_g2", ["certify G 2 --hw 0 1 --kappa=-1"]),
        ("cert_a2", ["certify A 2 --hw 2 0 --kappa=-1/2", "certify A 2 --hw 0 2 --kappa=-1/2"]),
        ("cert_b2", ["certify B 2 --hw 1 1 --kappa=-1", "certify C 2 --hw 1 1 --kappa=-1"]),
        ("cert_a3", ["certify A 3 --hw 1 0 0 --kappa=-1", "certify A 3 --hw 0 0 1 --kappa=-1"]),
    ],
    # the explicit PBW module: Sugawara/Virasoro, singular-vector
    # elimination, the annihilator filtration and the JSON dump, over
    # rational and Gaussian scalars.
    "explicit": [
        ("a1_hw2", ["crossvalidate A 1 --hw 2 --kappa=-2 --depth 4"]),
        ("a1_hw0", ["crossvalidate A 1 --hw 0 --kappa=-1 --depth 5"]),
        ("a2_rational", [
            "crossvalidate A 2 --hw 1 0 --kappa=-1 --depth 2",
            "crossvalidate A 2 --hw 0 1 --kappa=-1 --depth 2",
        ]),
        ("a2_gaussian", [
            "crossvalidate A 2 --hw 1 0 --kappa=-1+1i --depth 2",
            "crossvalidate A 2 --hw 0 1 --kappa=-1+1i --depth 2",
        ]),
        ("a2_dump", ["crossvalidate A 2 --hw 0 0 --kappa=-3/2 --depth 3 --dump " + DUMP]),
    ],
}

# The ROADMAP baseline cases that take tens of seconds or hang; run once
# each by ``run.py --known-slow``, never in the timed loop.
KNOWN_SLOW = [
    "certify G 2 --hw 1 1 --kappa=-1",
    "certify B 3 --hw 1 0 0 --kappa=-1",
    "certify A 2 --hw 3 3 --kappa=-1",
    "certify A 3 --hw 1 1 1 --kappa=-1",
    "certify D 4 --hw 1 0 0 0 --kappa=-1/2",
    "crossvalidate A 2 --hw 1 0 --kappa=-1 --depth 4",
]


def select_jobs(workload: str, seed: int):
    """[(slot, case)] for the workload; seed 0 is the named grid."""
    slots = WORKLOADS[workload]
    if seed == 0:
        return [(slot, cases[0]) for slot, cases in slots]
    rng = random.Random("%s/%d" % (workload, seed))
    return [(slot, rng.choice(cases)) for slot, cases in slots]


def argv_of(case: str, dump_path: str):
    """CLI argv of a case; the JSON format is what the checks parse."""
    return [dump_path if w == DUMP else w for w in case.split()] + ["--format", "json"]


def algebra_of(case: str):
    words = case.split()
    return words[1], int(words[2])


# -- checks that do not depend on recorded output ------------------------------

def algebra_dimension(series: str, rank: int) -> int:
    if series == "A":
        return rank * (rank + 2)
    if series in ("B", "C"):
        return rank * (2 * rank + 1)
    if series == "D":
        return rank * (2 * rank - 1)
    return {("E", 6): 78, ("E", 7): 133, ("E", 8): 248, ("F", 4): 52, ("G", 2): 14}[
        (series, rank)
    ]


def sym_level_dimensions(dim_g: int, n_max: int):
    """q^n coefficients, n <= n_max, of prod_{k>=1} (1 - q^k)^(-dim_g).

    Euler transform: n a(n) = sum_{k=1..n} dim_g sigma(k) a(n - k).
    """
    sigma = [0] + [sum(d for d in range(1, k + 1) if k % d == 0) for k in range(1, n_max + 1)]
    a = [1]
    for n in range(1, n_max + 1):
        a.append(sum(dim_g * sigma[k] * a[n - k] for k in range(1, n + 1)) // n)
    return a


def semantic_errors(case: str, exit_code: int, stdout: str):
    """Problems with a job's output found without the golden record."""
    try:
        report = json.loads(stdout)
        return _report_errors(case, exit_code, report)
    except ValueError:
        return ["stdout is not JSON"]
    except (KeyError, TypeError, AttributeError) as exc:
        return ["malformed report: %s %s" % (type(exc).__name__, exc)]


def _report_errors(case, exit_code, report):
    words = case.split()
    errors = []
    if words[0] == "symlevels":
        series, rank = algebra_of(case)
        n = int(words[words.index("--n") + 1])
        levels = report["levels"]
        expected = sym_level_dimensions(algebra_dimension(series, rank), n)
        got = [level["dimension"] for level in levels]
        if got != expected:
            errors.append("level dims %s, product formula gives %s" % (got, expected))
        for level in levels:
            total = sum(c["multiplicity"] * c["dimension"] for c in level["constituents"])
            if total != level["dimension"]:
                errors.append("level %d constituents sum to %d" % (level["degree"], total))
        if exit_code != 0:
            errors.append("exit %d" % exit_code)
    elif words[0] == "certify":
        certified = report["status"] == "CertifiedIrreducible"
        if (exit_code == 0) != certified or exit_code not in (0, 2):
            errors.append("exit %d with status %s" % (exit_code, report["status"]))
    elif words[0] == "crossvalidate":
        if report["ok"] is not True or exit_code != 0:
            errors.append("ok %r with exit %d" % (report["ok"], exit_code))
    return errors
