"""Exact loop algebra and factorization tests."""

import math
import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from kstab import laurent, poly
from kstab.acceptance import random_admissible_loop, random_loop, structured_loop
from kstab.laurent import (
    DegenerateLoopError,
    FactorizationError,
    LaurentMatrix,
    LaurentPoly,
    ZeroLaurentError,
    factorize,
    loop_from_json,
    loop_to_json,
    multiply,
    normalize,
    pole_order_vector,
    section_degree,
)


def lp(d):
    return LaurentPoly(d)


def diag(*exps):
    return LaurentMatrix.exponent_diagonal(list(exps))


def ltdu_loop(rng, n, terms):
    """Dense L t^D U loop and its weights: L lower triangular with a rational
    unit diagonal, U upper unitriangular, off-diagonal entries with ``terms``
    monomials t^0 .. t^(terms-1)."""

    def entry():
        return lp({e: rng.choice([-3, -2, -1, 1, 2, 3]) for e in range(terms)})

    def unit():
        return lp({0: Fraction(rng.choice([1, -1, 2, -2]), rng.choice([1, 2]))})

    low = LaurentMatrix(
        [[unit() if i == j else (entry() if i > j else lp({})) for j in range(n)] for i in range(n)]
    )
    up = LaurentMatrix(
        [[lp({0: 1}) if i == j else (entry() if i < j else lp({})) for j in range(n)] for i in range(n)]
    )
    d = [rng.randint(-2, 2) for _ in range(n)]
    return multiply(multiply(low, diag(*d)), up), tuple(sorted(d, reverse=True))


def cofactor_det(g):
    """Reference determinant: cofactor expansion along the columns, memoized
    over the 2^n row subsets."""
    n = g.size
    cache = {}

    def minor(rows, start):
        if rows in cache:
            return cache[rows]
        idx = [i for i in range(n) if rows >> i & 1]
        if len(idx) == 1:
            res = g.entries[idx[0]][start]
        else:
            res = LaurentPoly.zero()
            for pos, i in enumerate(idx):
                a = g.entries[i][start]
                if not a.is_zero:
                    term = a * minor(rows & ~(1 << i), start + 1)
                    res = res + (term if pos % 2 == 0 else -term)
        cache[rows] = res
        return res

    return minor((1 << n) - 1, 0)


def fixed_window_factorize(g):
    """The echelon and its exact check at the fixed window span + 2 ord det + 8
    (at least 16) that factorize used before it doubled its window."""
    det = g.det()
    n = g.size
    nu = min(p.ord() for row in g.entries for p in row if not p.is_zero)
    shifted = g.shift(-nu)
    span = max(p.deg() for row in shifted.entries for p in row if not p.is_zero)
    K = max(span + 2 * (det.ord() - n * nu) + 8, 16)
    rows = [[p.truncate(K) for p in row] for row in shifted.entries]
    sigma, wts, basis = laurent._echelon(rows, n, K)
    return laurent._assemble(g, sigma, wts, basis, nu)


def shifted_and_cap(g):
    """nu, the polynomial loop t^(-nu) g, and factorize's window cap: the sum
    over its rows of their largest entry degree, plus one."""
    nu = min(p.ord() for row in g.entries for p in row if not p.is_zero)
    shifted = g.shift(-nu)
    return nu, shifted, sum(max(p.deg() for p in row if not p.is_zero) for row in shifted.entries) + 1


def probed_weights(g):
    """The weights of g that the Smith-exponent probe reads modulo the prime,
    or None where it gives up, as on a loop singular modulo the prime."""
    nu, shifted, _ = shifted_and_cap(g)
    exps = laurent._smith_exponents(shifted.entries)
    return None if exps is None else tuple(e + nu for e in exps)


@pytest.fixture
def windows(monkeypatch):
    """The windows K that factorize runs its echelon at, in order."""
    seen = []
    echelon = laurent._echelon

    def spy(rows, size, K):
        seen.append(K)
        return echelon(rows, size, K)

    monkeypatch.setattr(laurent, "_echelon", spy)
    return seen


def canonical(p):
    """p, after asserting its canonical form: integer numerators without zeros
    at either end, and a positive denominator sharing no factor with them."""
    assert p.den > 0 and all(type(v) is int for v in p.coef)
    assert math.gcd(p.den, *p.coef) == 1
    assert (p.coef[0] and p.coef[-1]) if p.coef else (p.low, p.den) == (0, 1)
    return p


def nonzero(d):
    return {e: v for e, v in d.items() if v}


_SPARSE = st.dictionaries(
    st.integers(-6, 6), st.integers(-9, 9) | st.fractions(min_value=-9, max_value=9, max_denominator=12), max_size=6
)


def fields(p):
    return p.low, p.coef, p.den


class TestLaurentPoly:
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(a=_SPARSE, b=_SPARSE, K=st.integers(-14, 14), e=st.integers(-5, 5))
    def test_matches_fraction_dict_reference(self, a, b, K, e):
        p, q = canonical(lp(a)), canonical(lp(b))
        a, b = nonzero(a), nonzero(b)
        # ints take their own path; they build the same fields as Fractions
        fracs = {k: Fraction(v) for k, v in a.items()}
        triples = [[k, v.numerator, v.denominator] for k, v in fracs.items()]
        assert fields(lp(fracs)) == fields(LaurentPoly.from_triples(triples)) == fields(p)
        assert all(fields(LaurentPoly.t_power(k, v)) == fields(lp({k: fracs[k]})) for k, v in a.items())
        assert fields(LaurentPoly.t_power(e, 0)) == fields(lp({}))
        prod = {}
        for i, x in a.items():
            for j, y in b.items():
                prod[i + j] = prod.get(i + j, 0) + x * y
        assert p.coeffs == a and q.coeffs == b
        assert canonical(p + q).coeffs == nonzero({k: a.get(k, 0) + b.get(k, 0) for k in a.keys() | b.keys()})
        assert canonical(p - q).coeffs == nonzero({k: a.get(k, 0) - b.get(k, 0) for k in a.keys() | b.keys()})
        assert canonical(p * q).coeffs == nonzero(prod)
        assert canonical(p.mul(q, K)).coeffs == nonzero({k: v for k, v in prod.items() if k < K})
        assert canonical(p.truncate(K)).coeffs == {k: v for k, v in a.items() if k < K}
        assert canonical(p.shift(e)).coeffs == {k + e: v for k, v in a.items()}
        twice = nonzero({k: 2 * v for k, v in prod.items() if k < K})
        assert canonical(LaurentPoly.dot([(p, q), (q, p)], K)).coeffs == twice
        assert canonical(LaurentPoly.dot([(p, q), (-p, q), (q, LaurentPoly.one())])) == q
        assert all(p.coefficient(k) == a.get(k, 0) for k in range(-8, 9))
        assert (p == q) == (a == b) and p == lp(a)

    def test_ord_deg(self):
        p = lp({-2: 1, 3: Fraction(1, 2)})
        assert p.ord() == -2 and p.deg() == 3

    def test_zero_has_no_order(self):
        with pytest.raises(ZeroLaurentError):
            lp({}).ord()

    def test_cancellation(self):
        p = lp({1: 1}) + lp({1: -1})
        assert p.is_zero

    def test_triple_roundtrip(self):
        p = lp({-1: Fraction(2, 3), 4: -5})
        assert LaurentPoly.from_triples(p.to_triples()) == p

    def test_triples_span_at_most_2_20(self):
        p = LaurentPoly.from_triples([[-5, 1, 1], [2**20 - 5, 3, 2], [2**30, 0, 1]])
        assert p.ord() == -5 and p.deg() == 2**20 - 5
        with pytest.raises(ValueError, match=r"exponents -5\.\.1048572 span more than 2\^20"):
            LaurentPoly.from_triples([[-5, 1, 1], [2**20 - 4, 3, 2]])

    def test_loop_span_at_most_2_20(self):
        def diag(lo, hi):
            return {"size": 2, "entries": [[[lo, 1, 1]], [], [[3, 0, 1]], [[hi, 1, 1]]]}

        g = laurent.loop_from_json(diag(-3, 2**20 - 3))
        assert g.entries[1][1].deg() == 2**20 - 3
        with pytest.raises(ValueError, match=r"loop exponents -3\.\.1048574 span more than 2\^20"):
            laurent.loop_from_json(diag(-3, 2**20 - 2))


def _random_entry(rng):
    if rng.random() < 0.25:
        return lp({})
    return lp(
        {
            rng.randint(-4, 4): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            for _ in range(rng.randint(1, 3))
        }
    )


def _det_cases():
    """Seeded (kind, loop) pairs, n = 1..7: random entries with negative
    exponents and rational coefficients; loops with a zero row, a zero column,
    or a row that is a combination of two others."""
    rng = random.Random(1968)
    cases = []
    for n in range(1, 8):
        for kind in ("random", "zero_row", "zero_col", "dependent"):
            entries = [[_random_entry(rng) for _ in range(n)] for _ in range(n)]
            k = rng.randrange(n)
            if kind == "zero_row":
                entries[k] = [lp({})] * n
            elif kind == "zero_col":
                for row in entries:
                    row[k] = lp({})
            elif kind == "dependent":
                if n == 1:
                    continue
                others = [r for r in range(n) if r != k]
                i, j = rng.choice(others), rng.choice(others)
                entries[k] = [
                    a.shift(-1) + b.mul(LaurentPoly({0: Fraction(-2, 3)})) for a, b in zip(entries[i], entries[j])
                ]
            cases.append((kind, LaurentMatrix(entries)))
    return cases


class TestDet:
    def test_matches_cofactor_expansion(self):
        for _, g in _det_cases():
            assert g.det() == cofactor_det(g)

    def test_matches_cofactor_expansion_over_denominators_3_5_7(self):
        rng = random.Random(357)
        for _ in range(40):
            n = rng.randint(1, 5)

            def entry():
                exps = range(rng.randint(-2, 0), rng.randint(0, 2) + 1)
                return lp({e: Fraction(rng.randint(-6, 6), rng.choice([1, 3, 5, 7, 15, 21])) for e in exps})

            g = LaurentMatrix([[entry() for _ in range(n)] for _ in range(n)])
            assert g.det() == cofactor_det(g)

    def test_bareiss_division_with_remainder_raises(self, monkeypatch):
        for a, b in (([1, 1], [2]), ([1, 0, 1], [1, 1]), ([1], [1, 1])):
            with pytest.raises(ArithmeticError, match="remainder"):
                poly.divide(a, b)
        assert poly.divide([-1, 0, 1], [1, 1]) == [-1, 1]
        # det = -1, and a wrong numerator makes the division by a_00 = 2 + t inexact
        one, zero = lp({0: 1}), lp({})
        g = LaurentMatrix([[lp({0: 2, 1: 1}), one, zero], [one, one, one], [zero, one, one]])
        assert g.det() == -one
        monkeypatch.setattr(laurent, "divide", lambda a, b: poly.divide(poly.add(a, [1]), b))
        with pytest.raises(FactorizationError, match="^determinant: a Bareiss division left a remainder$"):
            g.det()

    def test_check_at_one_point_catches_a_wrong_result(self, monkeypatch):
        bareiss = laurent._bareiss
        monkeypatch.setattr(laurent, "_bareiss", lambda rows: bareiss(rows) + lp({len(rows): Fraction(1, 3)}))
        g = LaurentMatrix([[lp({0: 1, 1: 2}), lp({-1: Fraction(1, 2)})], [lp({2: 3}), lp({0: Fraction(5, 7)})]])
        with pytest.raises(FactorizationError, match="failed its check modulo 2\\^61 - 1"):
            g.det()

    def test_matches_sympy(self):
        sp = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        t = sp.Symbol("t")
        ring = sp.QQ[t]
        for _, g in _det_cases():
            nu = min((p.ord() for row in g.entries for p in row if not p.is_zero), default=0)
            m = DomainMatrix(
                [[ring.from_sympy(sum((sp.Rational(v.numerator, v.denominator) * t ** (e - nu)
                                       for e, v in p.coeffs.items()), sp.Integer(0)))
                  for p in row] for row in g.entries],
                (g.size, g.size),
                ring,
            )
            want = sp.Poly(ring.to_sympy(m.det()), t)
            got = {e - g.size * nu: v for e, v in g.det().coeffs.items()}
            assert got == {e: Fraction(int(c.p), int(c.q)) for (e,), c in want.terms() if c}

    def test_degenerate_loops_vanish(self):
        for kind, g in _det_cases():
            if kind != "random":
                assert g.det().is_zero

    def test_pole_order_is_minus_weight_sum_dense_n12(self):
        g, weights = ltdu_loop(random.Random(12), 12, 2)
        f = factorize(g)
        assert f.weights == weights
        assert g.det().ord() == sum(f.weights)


class TestMultiply:
    def test_identity(self):
        g = LaurentMatrix([[lp({1: 1}), lp({-2: 3})], [lp({0: 1}), lp({5: -1})]])
        assert multiply(LaurentMatrix.identity(2), g) == g

    def test_inverse_pair(self):
        a = diag(1, -1)
        b = diag(-1, 1)
        assert multiply(a, b) == LaurentMatrix.identity(2)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            multiply(LaurentMatrix.identity(2), LaurentMatrix.identity(3))

    def test_associativity_random(self):
        rng = random.Random(11)
        for _ in range(20):
            a, b, c = (random_loop(rng, 3) for _ in range(3))
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    def test_triangular_factor_pays_only_for_nonzero_pairs(self, monkeypatch):
        # a dense loop times a unit-triangular factor: every product dot forms
        # pairs two nonzero entries, one per nonzero entry of the column
        n = 6
        g, _ = ltdu_loop(random.Random("pairs"), n, 2)
        up = LaurentMatrix(
            [[lp({0: 1}) if i == j else (lp({0: i - j, 1: 1}) if i < j else lp({})) for j in range(n)] for i in range(n)]
        )
        want = LaurentMatrix(zip(*(g.apply(col) for col in zip(*up.entries))))
        assert all(not p.is_zero for row in g.entries for p in row)
        pairs, real = [], LaurentPoly.dot

        def spy(ps, K=None):
            ps = list(ps)
            pairs.extend(ps)
            return real(ps, K)

        monkeypatch.setattr(LaurentPoly, "dot", staticmethod(spy))
        assert multiply(g, up) == want
        assert all(a.coef and b.coef for a, b in pairs)
        assert len(pairs) == n * n * (n + 1) // 2


class TestFactorize:
    def test_identity(self):
        f = factorize(LaurentMatrix.identity(3))
        assert f.weights == (0, 0, 0)
        assert f.left == LaurentMatrix.identity(3)
        assert f.right == LaurentMatrix.identity(3)
        assert f.order == (0, 1, 2)  # equal weights keep the original order

    def test_tie_order_within_equal_weights(self):
        g = LaurentMatrix.exponent_diagonal([0, 0, 1])
        f = factorize(g)
        assert f.weights == (1, 0, 0)
        assert f.order == (2, 0, 1)  # ties at weight 0 ascend by index
        assert f.exponent_vector() == [0, 0, 1]

    def test_already_normal(self):
        g = diag(2, -1)
        f = factorize(g)
        assert f.weights == (2, -1)
        assert f.left == LaurentMatrix.identity(2)
        assert f.right == LaurentMatrix.identity(2)

    def test_elementary_pole(self):
        g = LaurentMatrix([[lp({0: 1}), lp({})], [lp({-1: 1}), lp({0: 1})]])
        f = factorize(g)
        assert f.weights == (1, -1)
        assert f.reassemble() == g

    def test_one_parameter_weights(self):
        assert factorize(diag(1, -1)).weights == (1, -1)

    def test_degenerate(self):
        g = LaurentMatrix([[lp({0: 1}), lp({0: 1})], [lp({0: 1}), lp({0: 1})]])
        with pytest.raises(DegenerateLoopError):
            factorize(g)

    def test_right_inverse_is_built_once(self, monkeypatch):
        calls, real = [], laurent._invert_unitriangular
        monkeypatch.setattr(laurent, "_invert_unitriangular", lambda *a: calls.append(1) or real(*a))
        g, _ = ltdu_loop(random.Random(5), 4, 3)
        f = factorize(g)
        assert multiply(f.right, f.rinv) == LaurentMatrix.identity(4)
        assert len(calls) == 1

    def test_dot_calls_of_one_factorization(self, monkeypatch):
        # pins the products one factorization forms: 1215 when the echelon
        # still recomputed the zero it writes into the pivot column and
        # updated columns where the pivot row is zero, and the inverse of R
        # and the check still formed products with zero entries of R
        g, _ = ltdu_loop(random.Random("dots"), 10, 2)
        calls, real = [], LaurentPoly.dot
        monkeypatch.setattr(LaurentPoly, "dot", staticmethod(lambda pairs, K=None: calls.append(1) or real(pairs, K)))
        factorize(g)
        assert len(calls) == 798

    def test_left_unit_factor_changes_only_left(self):
        """factorize(U g), U polynomial with U(0) invertible, has the right
        factor, order and weights of g and the left factor U left(g): the
        echelon's result checked against a product, not against itself."""
        for seed in range(12):
            rng = random.Random(f"unit:{seed}")
            n = 2 + seed % 7
            g, _ = ltdu_loop(rng, n, 2)

            def entry():
                return lp({e: rng.choice([-2, -1, 1, 2]) for e in range(rng.randint(1, 3))})

            low = LaurentMatrix(
                [[lp({0: 1}) if i == j else (entry() if i > j else lp({})) for j in range(n)] for i in range(n)]
            )
            up = LaurentMatrix(
                [[lp({0: rng.choice([1, -1, Fraction(2, 3)]), 1: rng.choice([0, 1, -3])}) if i == j
                  else (entry() if i < j else lp({})) for j in range(n)] for i in range(n)]
            )
            u = multiply(low, up)
            f, fu = factorize(g), factorize(multiply(u, g))
            assert (fu.right, fu.order, fu.weights) == (f.right, f.order, f.weights)
            assert fu.left == multiply(u, f.left)

    def test_singular_left_at_zero_fails_the_check(self, monkeypatch):
        """g = g * t^0 * I reassembles with a holomorphic left, but left(0)
        is singular, so the weights (0, 0) do not sum to ord det g = 1."""
        one, zero = LaurentPoly.one(), LaurentPoly.zero()
        monkeypatch.setattr(laurent, "_echelon", lambda rows, size, K: ([0, 1], [0, 0], [[one, zero], [zero, one]]))
        g = LaurentMatrix([[lp({0: 1}), lp({0: 1})], [lp({0: 1}), lp({0: 1, 1: 1})]])
        with pytest.raises(FactorizationError, match="failed its exact check"):
            factorize(g)

    @pytest.mark.parametrize(
        "g",
        [
            LaurentMatrix([[lp({1: 1}), lp({2: 1})], [lp({-1: 1}), lp({0: 1})]]),
            LaurentMatrix([[lp({0: 2, 5: 1}), lp({})], [lp({-3: 1}), lp({})]]),
            LaurentMatrix([[lp({0: 1}), lp({1: 1})], [lp({}), lp({})]]),
            LaurentMatrix([[lp({}), lp({})], [lp({}), lp({})]]),
        ],
    )
    def test_degenerate_message(self, g):
        with pytest.raises(DegenerateLoopError, match=r"^degenerate loop: determinant vanishes identically$"):
            factorize(g)

    @pytest.mark.parametrize("terms", [1, 2])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_doubling_window_matches_fixed_window(self, windows, n, terms):
        g, weights = ltdu_loop(random.Random(f"window:{n}:{terms}"), n, terms)
        f = factorize(g)
        used = list(windows)
        ref = fixed_window_factorize(g)
        assert (f.left, f.right, f.weights, f.order) == (ref.left, ref.right, ref.weights, ref.order)
        assert f.weights == weights
        # one window, the largest weight of the shifted loop plus one, within
        # the cap: the degree bound of the shifted loop, at least its ord det + 1
        nu, _, cap = shifted_and_cap(g)
        assert cap >= g.det().ord() - n * nu + 1
        assert used == [min(weights[0] - nu + 1, cap)]

    @pytest.mark.parametrize("n", range(2, 11))
    def test_one_echelon_and_no_det(self, monkeypatch, windows, n):
        """A nonsingular dense loop costs one echelon window and no exact det."""
        dets, real = [], LaurentMatrix.det
        monkeypatch.setattr(LaurentMatrix, "det", lambda self: dets.append(1) or real(self))
        for terms in (1, 2, 3):
            g, weights = ltdu_loop(random.Random(f"spy:{n}:{terms}"), n, terms)
            windows.clear()
            assert factorize(g).weights == weights
            assert len(windows) == 1 and not dets

    def test_probe_matches_factorize(self):
        """The probe's weights are factorize's on seeded dense, random,
        structured and admissible loops."""
        loops = [ltdu_loop(random.Random(f"probe:{n}:{terms}"), n, terms)[0]
                 for n in range(2, 11) for terms in (1, 2, 3)]
        rng = random.Random(30)
        loops += [make(rng, rng.randint(1, 5)) for make in (random_loop, structured_loop) for _ in range(40)]
        loops += [random_admissible_loop(rng, rng.randint(2, 5))[0] for _ in range(40)]
        for g in loops:
            try:
                weights = factorize(g).weights
            except DegenerateLoopError:
                weights = None
            assert probed_weights(g) == weights

    @pytest.mark.parametrize(
        "entries, probed, weights, used",
        [
            ([[{0: 1}, {}], [{}, {0: laurent._PRIME}]], None, (0, 0), [1]),
            ([[{0: 1}, {}], [{}, {0: laurent._PRIME, 1: 1}]], (1, 0), (0, 0), [2]),
            ([[{1: 1}, {0: laurent._PRIME}], [{}, {1: 1}]], (1, 1), (2, 0), [2, 3]),
        ],
        ids=["singular mod p", "overshoot", "undershoot"],
    )
    def test_unlucky_prime_costs_only_windows(self, windows, entries, probed, weights, used):
        """Where the probe is wrong modulo p = 2^61 - 1, the exact det or the
        doubling windows still give the fixed window's answer."""
        g = LaurentMatrix([[lp(d) for d in row] for row in entries])
        assert probed_weights(g) == probed
        f = factorize(g)
        assert f.weights == weights and windows == used
        ref = fixed_window_factorize(g)
        assert (f.left, f.right, f.weights, f.order) == (ref.left, ref.right, ref.weights, ref.order)

    def test_window_independent_of_exponent_size(self, windows):
        """The window follows ord det, not the largest exponent of the loop."""
        g = LaurentMatrix([[lp({0: 1}), lp({8000: 1})], [lp({}), lp({0: 1})]])
        f = factorize(g)
        assert f.weights == (0, 0) and f.reassemble() == g
        assert windows == [1]

    @pytest.mark.parametrize("unit, top", [({0: 1}, 2**20), ({0: 1, 1: 1}, 2**16)],
                             ids=["diag(1, t^2^20)", "diag(1+t, t^65536)"])
    def test_pivot_inverse_follows_the_row(self, capped_python, unit, top):
        """A pivot row's unit is inverted only to the precision its other
        entries use, so a wide spread between one-term rows costs no time."""
        proc = capped_python(
            "import time\n"
            "from kstab.laurent import LaurentMatrix, LaurentPoly, factorize\n"
            f"g = LaurentMatrix([[LaurentPoly({unit!r}), LaurentPoly()], [LaurentPoly(), LaurentPoly.t_power({top})]])\n"
            "t0 = time.perf_counter()\n"
            "f = factorize(g)\n"
            "print(*f.weights, time.perf_counter() - t0)\n"
        )
        assert proc.returncode == 0, proc.stderr
        high, low, seconds = proc.stdout.split()
        assert (int(high), int(low)) == (top, 0)
        assert float(seconds) < 0.1

    @pytest.mark.parametrize(
        "rows, want",
        [
            ("[[P({0: 1, 1: 1}), P()], [P({1: 1}), P.t_power(N)]]", "(N, 0)"),
            ("[[P({0: 1, 1: 1}), P(), P()], [P({1: 1}), P(), P()], [P(), P(), P.t_power(N)]]", "'degenerate'"),
        ],
        ids=["[[1+t, 0], [t, t^N]]", "singular with t^N"],
    )
    def test_slow_descent_stops_the_probe(self, capped_python, rows, want):
        """Each probe step divides the row (t, t^N) by t only once, so the
        probe stops after 2n + 2 steps, not N, and the loop takes the
        determinant check and the doubling windows."""
        proc = capped_python(
            "import time\n"
            "from kstab.laurent import DegenerateLoopError, LaurentMatrix, LaurentPoly as P, factorize\n"
            "N = 2 ** 20 - 1\n"
            f"g = LaurentMatrix({rows})\n"
            "t0 = time.perf_counter()\n"
            "try:\n"
            "    out = factorize(g).weights\n"
            "except DegenerateLoopError:\n"
            "    out = 'degenerate'\n"
            f"print(out == {want}, time.perf_counter() - t0)\n"
        )
        assert proc.returncode == 0, proc.stderr
        ok, seconds = proc.stdout.split()
        assert ok == "True" and float(seconds) < 0.1

    def test_wide_singular_loop_is_degenerate(self, capped_python):
        """A singular loop is told by one exact determinant, not by echelon
        windows that double up to the degree cap t^(3 * 2^16 + 1)."""
        proc = capped_python(
            "import time\n"
            "from kstab.laurent import DegenerateLoopError, LaurentMatrix, LaurentPoly, factorize\n"
            "e = 65536\n"
            "row = [LaurentPoly({0: 1, 1: 2}), LaurentPoly.t_power(e), LaurentPoly.t_power(3)]\n"
            "g = LaurentMatrix([row, [p.mul(LaurentPoly({0: 2})) for p in row],\n"
            "                   [LaurentPoly.t_power(1), LaurentPoly.one(), LaurentPoly.t_power(e, -1)]])\n"
            "t0 = time.perf_counter()\n"
            "try:\n"
            "    factorize(g)\n"
            "except DegenerateLoopError:\n"
            "    print('degenerate', time.perf_counter() - t0)\n"
        )
        assert proc.returncode == 0, proc.stderr
        raised, seconds = proc.stdout.split()
        assert raised == "degenerate" and float(seconds) < 5.0

    def test_wide_non_monic_pivot(self, capped_python):
        """The pivot 2 + t is inverted modulo t^8193 on integer numerators,
        over the one denominator 2^8193, not as 8193 Fractions."""
        proc = capped_python(
            "import time\n"
            "from kstab.laurent import LaurentMatrix, LaurentPoly, factorize\n"
            "g = LaurentMatrix([[LaurentPoly({0: 1}), LaurentPoly({0: 2, 1: 1})], [LaurentPoly.t_power(8192), LaurentPoly()]])\n"
            "t0 = time.perf_counter()\n"
            "f = factorize(g)\n"
            "assert f.reassemble() == g\n"
            "print(*f.weights, time.perf_counter() - t0)\n"
        )
        assert proc.returncode == 0, proc.stderr
        high, low, seconds = proc.stdout.split()
        assert (int(high), int(low)) == (8192, 0)
        assert float(seconds) < 1.0

    def test_unit_diagonal_placement(self):
        # degeneration living on the second coordinate forces the order
        g = LaurentMatrix([[lp({0: 1}), lp({})], [lp({}), lp({2: 1, 3: 1})]])
        f = factorize(g)
        assert f.weights == (2, 0)
        assert f.order == (1, 0)
        assert f.reassemble() == g

    @pytest.mark.parametrize("seed", range(8))
    def test_roundtrip_random(self, seed):
        rng = random.Random(seed)
        for _ in range(10):
            g = random_loop(rng, rng.randint(1, 4))
            f = factorize(g)
            assert f.reassemble() == g

    def test_weights_match_smith_normal_form(self):
        """Independent oracle: valuations of the polynomial Smith form."""
        rng = random.Random(99)
        t = sp.Symbol("t")
        for _ in range(12):
            g = structured_loop(rng, rng.randint(2, 3))
            nu = min(p.ord() for row in g.entries for p in row if not p.is_zero)
            shifted = g.shift(-nu)
            m = sp.Matrix(
                [
                    [
                        sum(sp.Rational(v) * t ** e for e, v in p.coeffs.items())
                        for p in row
                    ]
                    for row in shifted.entries
                ]
            )
            from sympy.matrices.normalforms import smith_normal_form

            snf = smith_normal_form(m, domain=sp.QQ[t])
            vals = []
            for i in range(g.size):
                d = sp.Poly(snf[i, i], t)
                low = min(mono[0] for mono in d.monoms())
                vals.append(low + nu)
            assert sorted(vals, reverse=True) == list(factorize(g).weights)

    def test_weight_invariance_under_unit_multiplication(self):
        rng = random.Random(5)
        for _ in range(10):
            g = structured_loop(rng, 3)
            # unimodular holomorphic factor, invertible at 0
            u = LaurentMatrix(
                [
                    [lp({0: 1}), lp({1: 2}), lp({})],
                    [lp({}), lp({0: 1}), lp({2: -1})],
                    [lp({}), lp({}), lp({0: 1})],
                ]
            )
            assert factorize(multiply(u, g)).weights == factorize(g).weights
            assert factorize(multiply(g, u)).weights == factorize(g).weights

    def test_normal_form_fixed_point(self):
        """An admissible t^A R input is its own normal form."""
        a = [2, 0, -1]
        r = LaurentMatrix(
            [
                [lp({0: 1}), lp({}), lp({})],
                [lp({0: 3, 1: 1}), lp({0: 1}), lp({})],
                [lp({0: -1, 1: 2, 2: 1}), lp({0: 2}), lp({0: 1})],
            ]
        )
        g = multiply(diag(*a), r)
        f = factorize(g)
        assert f.weights == (2, 0, -1)
        assert f.order == (0, 1, 2)
        assert f.left == LaurentMatrix.identity(3)
        assert f.right == r

    def test_determinism(self):
        rng1, rng2 = random.Random(3), random.Random(3)
        for _ in range(5):
            g1 = random_loop(rng1, 3)
            g2 = random_loop(rng2, 3)
            f1, f2 = factorize(g1), factorize(g2)
            assert f1.weights == f2.weights and f1.order == f2.order
            assert f1.left == f2.left and f1.right == f2.right


class TestNormalize:
    def test_shift(self):
        g = diag(2, 1)
        assert normalize(g) == diag(0, -1)

    def test_idempotent(self):
        rng = random.Random(17)
        for _ in range(5):
            g = structured_loop(rng, 3)
            n = normalize(g)
            assert normalize(n) == n
            assert factorize(n).weights[0] == 0

    def test_commutes_with_factorize_up_to_shift(self):
        rng = random.Random(23)
        for _ in range(5):
            g = structured_loop(rng, 3)
            w = factorize(g).weights
            wn = factorize(normalize(g)).weights
            assert tuple(x - w[0] for x in w) == wn


class TestPoleOrders:
    def test_simple(self):
        assert pole_order_vector([lp({0: 1}), lp({1: 1})]) == 0
        assert pole_order_vector([lp({-3: 1}), lp({-1: 1})]) == 3

    def test_zero_vector(self):
        with pytest.raises(ZeroLaurentError):
            pole_order_vector([lp({}), lp({})])

    def test_matrix_action(self):
        g = diag(0, -2)
        gamma = [lp({1: 1}), lp({0: 1})]
        assert pole_order_vector(g.apply(gamma)) == 2

    def test_det_pole_order(self):
        assert LaurentMatrix.identity(2).det().ord() == 0
        assert diag(0, 1).det().ord() == 1

    def test_det_equals_minus_weight_sum(self):
        rng = random.Random(31)
        for _ in range(15):
            g = random_loop(rng, rng.randint(2, 4))
            assert g.det().ord() == sum(factorize(g).weights)


class TestSectionDegree:
    def test_identity(self):
        g = LaurentMatrix.identity(2)
        assert section_degree(g, [lp({0: 1}), lp({0: 2})]) == 0

    def test_extremes_on_diagonal(self):
        g = diag(0, -2)  # normalized: weights (0, -2)
        assert section_degree(g, [lp({0: 1}), lp({0: 1})]) == 2
        assert section_degree(g, [lp({0: 1}), lp({})]) == 0

    def test_common_power_cleared(self):
        g = diag(0, -2)
        assert section_degree(g, [lp({3: 1}), lp({3: 1})]) == 2

    def test_zero_gamma(self):
        with pytest.raises(ZeroLaurentError):
            section_degree(LaurentMatrix.identity(2), [lp({}), lp({})])

    def test_bounds_random(self):
        rng = random.Random(47)
        for _ in range(30):
            g = structured_loop(rng, 3)
            f = factorize(g)
            gamma = [
                lp({e: rng.randint(-2, 2) for e in range(2)}) for _ in range(3)
            ]
            if all(p.is_zero for p in gamma):
                gamma[0] = lp({0: 1})
            d = section_degree(g, gamma)
            assert -f.weights[0] <= d <= -f.weights[-1]


class TestJson:
    def test_roundtrip(self):
        g = LaurentMatrix(
            [[lp({-1: Fraction(1, 2)}), lp({})], [lp({2: 3}), lp({0: 1})]]
        )
        assert loop_from_json(loop_to_json(g)) == g

    def test_bad_entry_count(self):
        with pytest.raises(ValueError):
            loop_from_json({"size": 2, "entries": [[[0, 1, 1]]]})
