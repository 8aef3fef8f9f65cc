"""Tests for root data, the invariant form, and Weyl orbits."""

import hashlib
import itertools
import random
from fractions import Fraction
from math import gcd
from operator import mul

import pytest

from helpers import (
    ball_by_box, dense_dominant_coords, dominant_weight, floor_plus_sqrt, gram_is_positive_definite,
    reflect_simple, resonance_value, root_weight, weight_closure,
)
from weylmod import cli
from weylmod.finite_rep import Character, weyl_dimension
from weylmod.root_system import (
    build_algebra,
    dominant_below,
    dominant_coords,
    enumerate_root_lattice_ball,
    inner_product,
    norm_sq,
    orbit_coords,
    orbit_size,
)

# (series, rank) -> (#positive roots, dual Coxeter number, dimension)
_DATA = {
    ("A", 1): (1, 2, 3),
    ("A", 2): (3, 3, 8),
    ("A", 3): (6, 4, 15),
    ("B", 2): (4, 3, 10),
    ("B", 3): (9, 5, 21),
    ("C", 3): (9, 4, 21),
    ("D", 4): (12, 6, 28),
    ("G", 2): (6, 4, 14),
    ("F", 4): (24, 9, 52),
    ("A", 5): (15, 6, 35),
    ("E", 6): (36, 12, 78),
}


def test_root_counts_and_dual_coxeter():
    for (series, rank), (npos, h, dim) in _DATA.items():
        a = build_algebra(series, rank)
        assert len(a.positive_roots) == npos
        assert a.dual_coxeter == h
        assert a.dim == dim


def test_bad_input_rejected():
    with pytest.raises(ValueError):
        build_algebra("Z", 9)
    with pytest.raises(ValueError):
        build_algebra("E", 9)
    with pytest.raises(ValueError):
        build_algebra("B", 1)
    with pytest.raises(ValueError):
        build_algebra("A", 0)
    # the rank is an int, not a float, a string or a bool; the cache is
    # typed, so ("A", True) does not find the entry of ("A", 1)
    build_algebra("A", 1)
    for rank in (2.7, 2.0, "3", True, None):
        with pytest.raises(ValueError):
            build_algebra("A", rank)


def test_weight_coordinates_are_exact_scalars():
    a = build_algebra("A", 1)
    for coord in (0.1, 2.0, "1/2", "1", None):
        with pytest.raises(TypeError):
            a.weight([coord])
    with pytest.raises(TypeError):
        weyl_dimension(a, a.weight([2.0]))
    assert a.weight([Fraction(4, 2)]).coords == (Fraction(2),)
    assert a.weight([2]) == a.weight([Fraction(2)])
    assert all(type(c) is Fraction for c in a.weight([2]).coords)


# sha256 of every AlgebraData slot (as "name=repr" lines, in this order) and
# of `algebra --format json` stdout, for every type up to rank 8, recorded
# before AlgebraData computed its own fields.
_DATUM_SLOTS = (
    "series", "rank", "cartan", "d", "cartan_inv", "gram_root",
    "positive_roots", "highest_root", "dual_coxeter", "dim",
    "roots_fw", "weight_form", "form_scale", "root_pairings", "cartan_cols",
    "ldl",
)
_DATUM_DIGESTS = {
    ("A", 1): ("49cb6fd1bdd61159ce81ae24ef67efa8071e3857d5e0d98dffcc3f7874c4b28d",
             "5fef31e21b2b98b93de0f3667e90bc35bd7f79fdf2affbb5f9424131572cec0d"),
    ("A", 2): ("34143a80448b3a9cf94e832083edfe9baa582c424039e33059ef8c63bd4b5770",
             "2707b432d60713b5bbdb34a55a7b4a4fec2acc1e12ca95e1b859f46a7c8440f8"),
    ("A", 3): ("1394d4b14d6898c1fd4ed46b453e670fc1b93155ed1309d111414e3bd4691dd2",
             "2b7707d07b20b4b7883800946bbd64be6f2e7ee7b8f61e321efb3ef13350580b"),
    ("A", 4): ("07d7a43c0be66cebaaaa1d1880ab002ecede5e6e6380119f78906516e72f20ec",
             "4970375991c03fd4314680faa4b9ac0c40d4ecd587bd4fa502890e8f0b4b3fa0"),
    ("A", 5): ("2d6c24370e993a2bf12ce5af5532ec0a3f7d8d4690f82ba8549ef0740254e642",
             "946ffaca0bdc4bc0e80c5febeab1113eb79a4ec861e5b7a10b0885a9c1c7b308"),
    ("A", 6): ("1533bd86fc5aaea824e2a5b06932b0b6c80e3d3bf13016bb5b11398062c6184c",
             "8b0837e17a256ec90c7482d515e9ffe268661efe02648c2c8282427e734c3edc"),
    ("A", 7): ("20aeea82a6f5366291dffe12ada15bd0fdfd629e37b0f6780761f57b7a00bd9a",
             "257cd511ae6f8748d3d20551babcc8115e69721c77db30708dfce71fe73c6602"),
    ("A", 8): ("2e327c3de03d8053e19ab871b9a8a22b6a0ff40105fc1f72d063ff0296fea43d",
             "7cb5d59fc22dfba4fa5df508fb81862020363d0d8edefd8ef8362a9ca7eadef2"),
    ("B", 2): ("bdc4dcfe44b1f4dd8b7f6abc54b31abfcd6d3199135e1591b615ffff8646c3c6",
             "bdb1226b45b3b7c6d9ec94b37702acd8ea48c87bd5576f797773af2e2ca21cc1"),
    ("B", 3): ("b4e0d70bc95d931a3f84b231ea6c3da76082db5d24aa9ab73e663e5ad5f6be2e",
             "3891f2083229e771cb3e46442a91185ee2eea99c3da56c3f3bdceb4346248e33"),
    ("B", 4): ("ed77db3e81395a73397fa47f233ecb0a018587730b8349de371b857f78c8cfe0",
             "06183e22f075b459a694c928a031932a65b0a2558b3c5c00ee1de8c63ae6269b"),
    ("B", 5): ("005b16003647241bfaeab355f6120d39262b234728fc7684d221b834f535ea22",
             "971c6b90a0d54f08b284a875dd5f395a1214851c062db933f9e6c06fb34d669b"),
    ("B", 6): ("8a84716791ecd35ada5bd5ab2fa758eff866acbf4c879e7d40a166dc17b7c8a8",
             "601d5416a9240843613752a9551c10f1988da0cfe176b277e98d19b8f29e0860"),
    ("B", 7): ("2718e5e6a55593cccaa4d8ef95f17baed39283ab6f34a8b735d1bbc8958bb4b0",
             "6843eadf48a4391630174f7f4f18db0cf83e1471908c35723d371f65cdb92499"),
    ("B", 8): ("27bf9453f3330776a7b1b5977f72a9358493c73811b90c89bb4a4f056d167e6b",
             "304fd3a3a2227590451758909b892a7a6d69995c50f12b0a3836c6cfbf9247a1"),
    ("C", 2): ("92796eb9f6780c43ab6fc1205ed682a0e47e95805974e7b9f795cc9eef8d5107",
             "bbd884dabd59f687b96eb6a150f57060d41f764ad7c6d38009b60574d33cc224"),
    ("C", 3): ("fcad31faabe8fe3ee53a7e04e5d269f62a60bf27690a439c96b2e960c4d2c893",
             "28600956cec088462eebff04254b82a7b9125ed6bbc04d9d7c9acb25bca10e7d"),
    ("C", 4): ("c83c80352212759bdccde867e13d35e994a42f69a9cd09c0b6a45f8907ee64c2",
             "c9f6cde6ed7e1674077afe1186b63121245789145b58cf314d648327557a9b8b"),
    ("C", 5): ("eda1ef75b5d1a372c607b9ff74b654dc421aa5208fac000b571be582bfd29a13",
             "7e952317389e0031c72fff2d3623a5a8b48f3d045ecfcccaa4002c2ab5287e21"),
    ("C", 6): ("f1a101f156a883e35848beac42b89a5a2d668ed97bb21df8e67fe1854ff66816",
             "f30dcca49cb99c5f00724b11d848be390ac5f9800bcb66f4997fd2dbd2de5617"),
    ("C", 7): ("7e61d2a44504fdf5e62221d3dc77efedd97ffee830520ec7a640f8ad3a5c30ed",
             "9711d8d1e7c2b2c818435254ae686cac66c2593a82725c230bea0f88295d0727"),
    ("C", 8): ("aa9a271ec3210f272b32bd5ebaa0aff8d2a871a3dcc63f8117b6c7cd04180df7",
             "8a072a61d2074ab037d219a04cf4510e5c0281e2c76bc840ecaaca2b5f909bed"),
    ("D", 3): ("786d68cb61fcabb8d17b0fc93e92c295a34d6d97d1d7c44e750f73a938ff5627",
             "f7da38951a4a6a7749ec8735e3649bf6279e78b85175e48bada8a3bfa19c277a"),
    ("D", 4): ("044ef7a0c268f11f56b406dd14a46452ab8f479a451afb4fdb4881ec2cfcaeae",
             "32987f814c81cfc159e26a9dfcf45fb87cda6e07752155deb6c9aa9caf8f526e"),
    ("D", 5): ("34be6200aa64bb3543f9f2ca54c5fbbff8b0c85fed72e987ab11021a7cf7a0e7",
             "461dcfff5d9bdb9d1541322a9cf6a2c03707cb1390d3d45b20e1ecd5ec2bb33f"),
    ("D", 6): ("0b47e74224796bb9f4fceb76c67cefb6d9d976b7d0831f490a73dfade1d1933b",
             "91083390f41fb5fcba93dac0a49c7dfdafe010f9ad82ae39a04dabfc3793e321"),
    ("D", 7): ("de258c19b5c43437b81ee16a90c517cb065e89963456b32c16c44fa762f98acf",
             "3109f6c2df822bd0628bb3b8f8ccbbab2c5bf3273f5defb64bf4d9066e716e24"),
    ("D", 8): ("b8685cbe2229939915361fbc6fef7c9dfc406c146f547359ea589e382e002f6a",
             "4ebfadabe318521f2122acf9460b1453d4c196ea418e5ff305bade90b89074a7"),
    ("E", 6): ("d165bef218ddfb0a6eafecc385e3930d0a82603796569c0b5550e0fe76f25c92",
             "365922733c2aab4b5b27d81bdac5eaef200816f9d13089b546e11cde71bfe0d0"),
    ("E", 7): ("b9bbf20695da82c8d084cc5c3bd5f24fa452be247c4b3ec49bf9cad544f0c96c",
             "c744e63e629b991c83767bc653eeeb5d469b5853a065b67a63929c4b5bd640df"),
    ("E", 8): ("845058cff59c2f7a0ec370f0d80443c72fe40761015edab4e517c5e3afd1ff01",
             "40d4804d633352ce049ce30b456d390b6a9054d4b32e64c6ac97fd2cc0687e1a"),
    ("F", 4): ("f2c8b11c92bc3c9e094edd82d100581b9fc5ea9e94ce7ef40893042b2c652cae",
             "dbc91947dfaeb1f4f9c2e2692bc69738c88f9190b7fb6e6e0ab296cb1c0d7f97"),
    ("G", 2): ("8594ce330337e1d213ce971f0e6a39a42446e8d6852b86f71328464c983dc4e9",
             "3d3276fc3c8418b4e16aa4acffbecb82409add7303a6b6a1cf064f5b89e6cc01"),
}


@pytest.mark.parametrize("series,rank", list(_DATUM_DIGESTS))
def test_root_datum_is_pinned(series, rank, capsys):
    slots_digest, json_digest = _DATUM_DIGESTS[series, rank]
    a = build_algebra(series, rank)
    assert set(type(a).__slots__) == set(_DATUM_SLOTS)
    text = "\n".join("%s=%r" % (name, getattr(a, name)) for name in _DATUM_SLOTS)
    assert hashlib.sha256(text.encode()).hexdigest() == slots_digest
    assert cli.main(["algebra", series, str(rank), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == json_digest


def test_normalization_long_roots_norm_two():
    for series, rank in _DATA:
        a = build_algebra(series, rank)
        assert gram_is_positive_definite(a)
        assert norm_sq(root_weight(a, a.highest_root)) == 2
        # d_i = (alpha_i, alpha_i)/2 <= 1 with equality for long roots
        assert max(a.d) == 1


def test_g2_short_root_norm():
    g2 = build_algebra("G", 2)
    short = [d for d in g2.d if d != 1]
    assert short == [Fraction(1, 3)]
    i = g2.d.index(Fraction(1, 3))
    alpha = root_weight(g2, [1 if j == i else 0 for j in range(2)])
    assert norm_sq(alpha) == Fraction(2, 3)


def test_rho_and_form():
    sl2 = build_algebra("A", 1)
    assert norm_sq(sl2.rho) == Fraction(1, 2)
    sl3 = build_algebra("A", 2)
    assert norm_sq(sl3.rho) == 2
    # (rho, alpha_i-check) = 1 for all i
    for series, rank in _DATA:
        a = build_algebra(series, rank)
        rho = a.rho
        for i in range(rank):
            alpha = root_weight(a, [1 if j == i else 0 for j in range(rank)])
            assert 2 * inner_product(rho, alpha) == norm_sq(alpha)


_EVERY_TYPE = (
    [("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)] + [("D", n) for n in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("series,rank", _EVERY_TYPE)
def test_integer_root_data(series, rank):
    a = build_algebra(series, rank)
    form, scale = a.weight_form, a.form_scale

    def pair(x, y):
        return sum(xi * sum(map(mul, row, y)) for xi, row in zip(x, form))

    for k, root in enumerate(a.positive_roots):
        assert a.roots_fw[k] == tuple(map(int, root_weight(a, root).coords))
        assert all(type(c) is int for c in a.roots_fw[k] + a.root_pairings[k])
        assert a.root_pairings[k] == tuple(sum(map(mul, row, a.roots_fw[k])) for row in form)
    assert a.roots_fw[-1] == tuple(map(int, root_weight(a, a.highest_root).coords))
    # the simple roots in fundamental coordinates are the Cartan columns; the
    # form on them is the root Gram matrix, with no use of cartan_inv
    simple = [tuple(a.cartan[i][j] for i in range(rank)) for j in range(rank)]
    for i in range(rank):
        for j in range(rank):
            assert Fraction(pair(simple[i], simple[j]), scale) == a.gram_root[i][j]
    assert pair(a.roots_fw[-1], a.roots_fw[-1]) == 2 * scale
    assert gcd(scale, *(x for row in form for x in row)) == 1


# |Phi+| and the highest root theta (simple-root coordinates) of each
# classical series, in closed form; |Phi+| of each exceptional type
_CLASSICAL = {
    "A": (lambda r: r * (r + 1) // 2, lambda r: (1,) * r),
    "B": (lambda r: r * r, lambda r: (1,) + (2,) * (r - 1)),
    "C": (lambda r: r * r, lambda r: (2,) * (r - 1) + (1,)),
    "D": (lambda r: r * (r - 1), lambda r: (1,) + (2,) * (r - 3) + (1, 1)),
}
_EXCEPTIONAL_COUNT = {("E", 6): 36, ("E", 7): 63, ("E", 8): 120, ("F", 4): 24, ("G", 2): 6}


@pytest.mark.parametrize("series,rank", [
    (s, n) for s, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)) for n in range(lo, 31)
] + list(_EXCEPTIONAL_COUNT))
def test_positive_roots_match_closed_forms_and_dense_cartan(series, rank):
    a = build_algebra(series, rank)
    pos = a.positive_roots
    if series in _CLASSICAL:
        count, theta = _CLASSICAL[series]
        assert len(pos) == count(rank)
        assert a.highest_root == pos[-1] == theta(rank)
    else:
        assert len(pos) == _EXCEPTIONAL_COUNT[series, rank]
    # ht theta = h - 1 for the Coxeter number h = |Phi| / rank
    assert sum(pos[-1]) == 2 * len(pos) // rank - 1
    assert list(pos) == sorted(set(pos), key=lambda b: (sum(b), b))
    # each root in fundamental coordinates is the dense product C beta
    assert a.roots_fw == tuple(
        tuple(sum(map(mul, row, beta)) for row in a.cartan) for beta in pos
    )
    # a non-simple positive root minus some simple root is a positive root
    roots = set(pos)
    for beta in pos:
        if sum(beta) > 1:
            assert any(beta[:i] + (beta[i] - 1,) + beta[i + 1:] in roots
                       for i in range(rank)), beta


def test_inner_product_symmetry_and_integrality():
    a = build_algebra("B", 2)
    x = a.weight([1, 2])
    y = a.weight([-3, 1])
    assert inner_product(x, y) == inner_product(y, x)


def test_reflections_preserve_norm():
    a = build_algebra("G", 2)
    w = a.weight([2, -1])
    for i in range(2):
        r = reflect_simple(w, i)
        assert norm_sq(r) == norm_sq(w)
        assert reflect_simple(r, i) == w


def test_dominant_representative_and_orbit():
    a = build_algebra("A", 2)
    dom, count = dominant_coords(a, (-1, -1))
    assert dom == (1, 1) and count == 3
    assert a.weight(dom) == dominant_weight(a.weight([-1, -1]))
    assert orbit_coords(a, (1, 0)) == {(1, 0), (-1, 1), (0, -1)}
    assert dominant_coords(a, (-1, 1))[0] == (1, 0)
    assert dominant_coords(a, (0, 1))[0] != (1, 0)
    # |W| orbit of a regular weight: A2 has Weyl group of order 6
    assert len(orbit_coords(a, (1, 1))) == 6


def test_weyl_orbit_sizes_sl2():
    sl2 = build_algebra("A", 1)
    assert orbit_coords(sl2, (0,)) == {(0,)}
    assert orbit_coords(sl2, (3,)) == {(3,), (-3,)}


# |W| by type: (n+1)!, 2^n n!, 2^(n-1) n!, and the exceptional orders
_WEYL_ORDER = {
    ("A", 1): 2, ("A", 2): 6, ("A", 3): 24, ("A", 4): 120, ("B", 2): 8,
    ("B", 3): 48, ("C", 3): 48, ("D", 4): 192, ("G", 2): 12, ("F", 4): 1152,
}


def _parabolic_order(algebra, support):
    """|W_J| for the simple reflections J = support, by Macdonald's formula
    |W_J| = prod over positive roots alpha of Phi_J of (ht alpha + 1)/ht alpha."""
    order = Fraction(1)
    for root in algebra.positive_roots:
        if all(root[j] == 0 for j in range(algebra.rank) if j not in support):
            order *= Fraction(sum(root) + 1, sum(root))
    assert order.denominator == 1
    return int(order)


def _reflection_closure(w):
    """Brute force: close {w} under all simple reflections."""
    seen = {w.coords}
    stack = [w]
    while stack:
        v = stack.pop()
        for i in range(v.algebra.rank):
            u = reflect_simple(v, i)
            if u.coords not in seen:
                seen.add(u.coords)
                stack.append(u)
    return seen


def _test_weights(rank):
    yield (0,) * rank
    yield (1,) * rank
    for i in range(rank):
        yield tuple(int(i == j) for j in range(rank))
    yield tuple(j % 3 for j in range(rank))
    yield tuple(2 * (j % 2) for j in range(rank))


@pytest.mark.parametrize("series,rank", sorted(_WEYL_ORDER))
def test_integer_orbits_match_weyl_orbit_and_orbit_size(series, rank):
    a = build_algebra(series, rank)
    order = _WEYL_ORDER[series, rank]
    assert _parabolic_order(a, set(range(rank))) == order
    for coords in _test_weights(rank):
        w = a.weight(coords)
        stabilizer = _parabolic_order(a, {i for i in range(rank) if coords[i] == 0})
        full = Character(a, {coords: 1}).full_map()
        assert len(full) == order // stabilizer, coords
        assert all(type(c) is int for key in full for c in key)
        if order <= 192:
            assert set(full) == _reflection_closure(w)
        # the orbit of any of its points is the same orbit
        some = sorted(full)[len(full) // 2]
        assert orbit_coords(a, some) == set(full)
        assert dominant_coords(a, some)[0] == coords


# every type of rank <= 8
_ALL_UP_TO_RANK_8 = (
    [("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)] + [("D", n) for n in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("series,rank", _ALL_UP_TO_RANK_8)
def test_sparse_reflection_kernel_matches_dense_oracle(series, rank):
    a = build_algebra(series, rank)
    for i, col in enumerate(a.cartan_cols):
        assert col == tuple((j, a.cartan[j][i]) for j in range(rank) if a.cartan[j][i])
    rng = random.Random(rank)
    for _ in range(60):
        v = tuple(rng.randint(-5, 5) for _ in range(rank))
        dom, count = dense_dominant_coords(a.cartan, v)
        # each step removes one positive root pairing negatively with v, so
        # the count, not only its parity, is the same in any order of steps
        assert dominant_coords(a, v) == (dom, count), v
        # the regular walk stops on a wall, which a singular dominant point
        # lies on, and otherwise finishes the same walk
        regular = dominant_coords(a, v, regular=True)
        assert regular == (None if 0 in dom else (dom, count)), v


# every weight with coordinates <= 2 on these types, 426 in all
_ORBIT_SIZE_TYPES = [("A", 1), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
                     ("C", 3), ("D", 4), ("G", 2), ("F", 4)]


@pytest.mark.parametrize("series,rank", _ORBIT_SIZE_TYPES)
def test_orbit_size_formula_matches_orbit_walk(series, rank):
    a = build_algebra(series, rank)
    for c in itertools.product(range(3), repeat=rank):
        assert orbit_size(a, c) == len(orbit_coords(a, c)), c


def test_orbit_size_at_rho_is_weyl_group_order():
    orders = {("D", 5): 1920, ("E", 6): 51840, ("E", 7): 2903040,
              ("E", 8): 696729600, ("F", 4): 1152, ("G", 2): 12}
    for (series, rank), order in orders.items():
        a = build_algebra(series, rank)
        assert orbit_size(a, (1,) * rank) == order, series + str(rank)
        assert orbit_size(a, (0,) * rank) == 1


def test_ball_enumeration_exact():
    sl2 = build_algebra("A", 1)
    lam = sl2.weight([3])  # 3 omega = (3/2) alpha
    ball = enumerate_root_lattice_ball(sl2, lam, norm_sq(lam))
    # |m alpha + 3/2 alpha|^2 = 2 (m + 3/2)^2 <= 9/2 <=> -3 <= m <= 0
    assert ball == [(-3,), (-2,), (-1,), (0,)]
    for mu in ball:
        assert resonance_value(lam, mu) <= 0
    # a float bound stands for a value already rounded
    for bad in (0.1, 4.5):
        with pytest.raises(TypeError):
            enumerate_root_lattice_ball(sl2, lam, bad)


def test_ball_enumeration_sl3_membership():
    sl3 = build_algebra("A", 2)
    lam = sl3.rho
    ball = set(enumerate_root_lattice_ball(sl3, lam, norm_sq(lam)))
    # brute-force box check over a generous range
    expected = set()
    for m1 in range(-4, 5):
        for m2 in range(-4, 5):
            if resonance_value(lam, (m1, m2)) <= 0:
                expected.add((m1, m2))
    assert ball == expected
    assert (0, 0) in ball


def test_ball_is_sorted_deterministically():
    sl3 = build_algebra("A", 2)
    ball = enumerate_root_lattice_ball(sl3, sl3.rho, norm_sq(sl3.rho))
    assert ball == sorted(ball)


def test_floor_plus_sqrt_is_exact():
    values = [Fraction(p, q) for p in range(-13, 14) for q in (1, 2, 3, 7)]
    for x in values:
        for t in values:
            if t >= 0:
                c = floor_plus_sqrt(x, t)
                # c - x <= sqrt(t) < c + 1 - x
                assert c - x <= 0 or (c - x) ** 2 <= t, (x, t)
                assert c + 1 - x > 0 and (c + 1 - x) ** 2 > t, (x, t)


def _assert_walk_is_box(a, shift, bound):
    """The walk gives the box oracle's points, and at each one its norm over
    its scale is the exact |mu + shift|^2."""
    walk = enumerate_root_lattice_ball(a, shift, bound)
    box = ball_by_box(a, shift, bound)
    assert walk == box, (shift, bound)
    assert len(walk.norms) == len(box), (shift, bound)
    for mu, norm in zip(box, walk.norms):
        assert Fraction(norm, walk.scale) == norm_sq(root_weight(a, mu) + shift), (
            shift, bound, mu)


@pytest.mark.parametrize("series,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 3),
    ("D", 4), ("G", 2),
])
def test_ball_walk_matches_box_oracle(series, rank):
    a = build_algebra(series, rank)
    # coordinates with unequal denominators, and bounds whose denominator is
    # prime to the shift's, exercise each integer scale of the walk and the
    # floor of E bound that its norms must not carry
    mixed = a.weight([Fraction(1, 2), Fraction(1, 3), Fraction(2, 5),
                      Fraction(3, 7)][:rank])
    for shift in (a.rho, a.rho + a.weight([Fraction(1, 3)] * rank), mixed):
        r = norm_sq(shift)
        for bound in (r, r - Fraction(1, 2), r - Fraction(1, 7), 0, -1):
            _assert_walk_is_box(a, shift, bound)


def test_ball_walk_matches_box_oracle_on_random_shifts():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    algebras = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G", 2)]
    small = st.fractions(min_value=-3, max_value=3, max_denominator=11)

    @st.composite
    def shifted_ball(draw):
        a = build_algebra(*draw(st.sampled_from(algebras)))
        shift = a.weight([draw(small) for _ in range(a.rank)])
        bound = draw(st.fractions(min_value=-1, max_value=10, max_denominator=13))
        return a, shift, bound

    @hypothesis.settings(max_examples=80, deadline=None, database=None)
    @hypothesis.given(shifted_ball())
    def walk_is_box(case):
        _assert_walk_is_box(*case)

    walk_is_box()


def test_f4_rho_ball_size():
    f4 = build_algebra("F", 4)
    ball = enumerate_root_lattice_ball(f4, f4.rho, norm_sq(f4.rho))
    assert len(ball) == 15793
    assert ball == sorted(ball)


@pytest.mark.parametrize("series,rank", sorted(_WEYL_ORDER))
def test_dominant_below_is_dominant_part_of_weight_closure(series, rank):
    a = build_algebra(series, rank)
    theta = tuple(map(int, root_weight(a, a.highest_root).coords))
    tops = list(_test_weights(rank)) + [theta, tuple(2 * t for t in theta)]
    for top in tops:
        closure = weight_closure(a.cartan, top)
        below = dominant_below(a, top)
        assert below == {w for w in closure if min(w) >= 0}, top
        assert all(type(c) is int for w in below for c in w)
