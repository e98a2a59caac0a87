"""Evaluation, dual representation, and representation-consistency tests."""

import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskmdp.distributions import expectation, make_distribution, pushforward, quantile
from riskmdp import risk_measures
from riskmdp.errors import InvalidSpec, NotCoherent, SumOverflow
from riskmdp.risk_measures import (
    Distortion,
    DistortionFunction,
    Entropic,
    Expectation,
    ExpectedShortfall,
    Mixture,
    Spectral,
    StepSpectrum,
    ValueAtRisk,
    _certified_sums,
    _fsum_rows,
    _running_sums,
    describe,
    dual_sup,
    evaluate,
    is_coherent,
    is_comonotonic_additive,
    is_positive_homogeneous,
    random_distribution,
)

from helpers import (
    EXACT_DIGITS,
    brute_expected_shortfall,
    brute_quantile,
    distortion_via_survival_integral,
    exact_difference,
    exact_stage_value,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
UNIFORM4 = make_distribution([1, 2, 3, 4], [0.25] * 4)
IDENTITY = DistortionFunction(form="identity")


def random_step_spectrum(rng):
    k = int(rng.integers(1, 5))
    cuts = sorted(float(u) for u in rng.uniform(0.02, 0.98, k - 1))
    us = [0.0] + cuts
    raw = np.cumsum(rng.uniform(0.05, 1.0, k))
    widths = np.diff(us + [1.0])
    total = float(np.dot(raw, widths))
    phis = [float(v) / total for v in raw]
    return StepSpectrum(breakpoints=tuple(zip(us, phis)))


class TestSpecValidation:
    def test_var_level_range(self):
        with pytest.raises(InvalidSpec):
            ValueAtRisk(1.0)
        with pytest.raises(InvalidSpec):
            ValueAtRisk(0.0)

    def test_es_level_range(self):
        ExpectedShortfall(0.0)
        with pytest.raises(InvalidSpec):
            ExpectedShortfall(1.0)

    def test_entropic_gamma(self):
        with pytest.raises(InvalidSpec):
            Entropic(0.0)

    def test_mixture_weight(self):
        with pytest.raises(InvalidSpec):
            Mixture(1.5, Expectation(), Expectation())

    def test_distortion_endpoints(self):
        with pytest.raises(InvalidSpec):
            DistortionFunction(form="piecewise_linear", knots=((0.0, 0.1), (1.0, 1.0)))
        with pytest.raises(InvalidSpec):
            DistortionFunction(form="piecewise_linear", knots=((0.0, 0.0), (0.9, 1.0)))

    def test_distortion_monotone(self):
        with pytest.raises(InvalidSpec):
            DistortionFunction(
                form="piecewise_linear", knots=((0.0, 0.0), (0.5, 0.8), (0.75, 0.4), (1.0, 1.0))
            )

    def test_spectrum_normalization(self):
        with pytest.raises(InvalidSpec):
            StepSpectrum(breakpoints=((0.0, 2.0),))

    def test_spectrum_monotone(self):
        with pytest.raises(InvalidSpec):
            StepSpectrum(breakpoints=((0.0, 2.0), (0.5, 0.1)))


class TestUnitValues:
    def test_es_half_uniform(self):
        assert evaluate(ExpectedShortfall(0.5), UNIFORM4) == 3.5

    def test_var_half_uniform(self):
        assert evaluate(ValueAtRisk(0.5), UNIFORM4) == 2.0

    def test_entropic_log_one_point_five(self):
        d = make_distribution([0.0, math.log(2.0)], [0.5, 0.5])
        assert evaluate(Entropic(1.0), d) == pytest.approx(math.log(1.5), abs=1e-12)

    def test_es_zero_is_mean(self):
        assert evaluate(ExpectedShortfall(0.0), UNIFORM4) == pytest.approx(2.5, abs=1e-15)

    def test_mixture(self):
        mix = Mixture(0.25, Expectation(), ExpectedShortfall(0.5))
        assert evaluate(mix, UNIFORM4) == pytest.approx(0.25 * 2.5 + 0.75 * 3.5, abs=1e-14)

    def test_entropic_past_exp_range_is_exact(self):
        # exp(1000) overflows; shifted by the top atom, exp(-1000) is 0.0
        d = make_distribution([0.0, 1000.0], [0.5, 0.5])
        assert evaluate(Entropic(1.0), d) == 1000.0 + math.log(0.5)

    def test_entropic_stage_law_with_an_infinite_top_atom_is_inf(self):
        # laws refuse infinite atoms; stage values reach them as raw pairs
        for atoms in ([0.0, math.inf], [-math.inf, math.inf], [math.inf, math.inf]):
            assert risk_measures._risk_value_of_pairs(Entropic(0.5), zip(atoms, [0.5, 0.5])) == math.inf

    def test_es_distortion_route(self):
        cap = Distortion(DistortionFunction(form="es_cap", level=0.5))
        assert evaluate(cap, UNIFORM4) == pytest.approx(3.5, abs=1e-14)


class TestRepresentationConsistency:
    def test_identity_distortion_is_expectation_1000_laws(self):
        rng = np.random.default_rng(123)
        ident = Distortion(IDENTITY)
        for _ in range(1000):
            d = random_distribution(rng)
            assert evaluate(ident, d) == pytest.approx(expectation(d), abs=1e-12)

    def test_var_indicator_distortion_matches_quantile(self):
        rng = np.random.default_rng(321)
        for _ in range(500):
            d = random_distribution(rng)
            alpha = float(rng.uniform(0.01, 0.99))
            ind = Distortion(DistortionFunction(form="var_indicator", level=alpha))
            assert evaluate(ind, d) == evaluate(ValueAtRisk(alpha), d)

    def test_spectral_matches_induced_distortion_1000_laws(self):
        rng = np.random.default_rng(777)
        for _ in range(1000):
            phi = random_step_spectrum(rng)
            d = random_distribution(rng)
            lhs = evaluate(Spectral(phi), d)
            rhs = evaluate(Distortion(phi.as_distortion()), d)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_flat_spectrum_is_expectation(self):
        flat = Spectral(StepSpectrum(breakpoints=((0.0, 1.0),)))
        rng = np.random.default_rng(5)
        for _ in range(100):
            d = random_distribution(rng)
            assert evaluate(flat, d) == pytest.approx(expectation(d), abs=1e-12)

    def test_es_spectrum_form(self):
        alpha = 0.4
        phi = StepSpectrum(breakpoints=((0.0, 0.0), (alpha, 1.0 / (1.0 - alpha))))
        rng = np.random.default_rng(6)
        for _ in range(200):
            d = random_distribution(rng)
            assert evaluate(Spectral(phi), d) == pytest.approx(
                evaluate(ExpectedShortfall(alpha), d), abs=1e-12
            )

    def test_entropic_small_gamma_near_mean(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            m = int(rng.integers(2, 8))
            atoms = rng.uniform(-1.0, 1.0, m).tolist()
            probs = rng.dirichlet(np.ones(m)).tolist()
            d = make_distribution(atoms, probs)
            assert evaluate(Entropic(1e-6), d) == pytest.approx(expectation(d), abs=1e-4)


class TestAgainstBruteForce:
    def test_es_against_mass_walk(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            d = random_distribution(rng)
            alpha = float(rng.uniform(0.0, 0.95))
            ours = evaluate(ExpectedShortfall(alpha), d)
            brute = brute_expected_shortfall(list(d.atoms), list(d.probs), alpha)
            assert ours == pytest.approx(brute, abs=1e-10)

    def test_var_against_scan(self):
        rng = np.random.default_rng(43)
        for _ in range(500):
            d = random_distribution(rng)
            alpha = float(rng.uniform(0.01, 0.99))
            assert evaluate(ValueAtRisk(alpha), d) == brute_quantile(
                list(d.atoms), list(d.probs), alpha
            )

    def test_distortion_against_survival_integral(self):
        rng = np.random.default_rng(44)
        gs = [
            IDENTITY,
            DistortionFunction(form="es_cap", level=0.6),
            DistortionFunction(form="var_indicator", level=0.4),
            DistortionFunction(
                form="piecewise_linear",
                knots=((0.0, 0.0), (0.2, 0.5), (0.7, 0.8), (1.0, 1.0)),
            ),
        ]
        for _ in range(300):
            d = random_distribution(rng)
            for g in gs:
                ours = evaluate(Distortion(g), d)
                oracle = distortion_via_survival_integral(g, d)
                assert ours == pytest.approx(oracle, abs=1e-12)


class TestDualSup:
    def test_es_half_uniform_density(self):
        value, density = dual_sup(ExpectedShortfall(0.5), UNIFORM4)
        assert value == pytest.approx(3.5, abs=1e-14)
        assert density == (0.0, 0.0, 0.5, 0.5)

    def test_es_zero_no_reweighting(self):
        value, density = dual_sup(ExpectedShortfall(0.0), UNIFORM4)
        assert density == UNIFORM4.probs
        assert value == pytest.approx(expectation(UNIFORM4), abs=1e-14)

    def test_flat_spectrum_no_reweighting(self):
        flat = Spectral(StepSpectrum(breakpoints=((0.0, 1.0),)))
        value, density = dual_sup(flat, UNIFORM4)
        assert density == pytest.approx((0.25,) * 4, abs=1e-15)
        assert value == pytest.approx(2.5, abs=1e-14)

    def test_value_matches_evaluate_coherent_kinds(self):
        rng = np.random.default_rng(1001)
        kinds = [
            Expectation(),
            ExpectedShortfall(0.5),
            ExpectedShortfall(0.9),
            Distortion(DistortionFunction(form="es_cap", level=0.7)),
            Mixture(0.3, Expectation(), ExpectedShortfall(0.8)),
        ]
        laws = 0
        for _ in range(1000):
            d = random_distribution(rng)
            spectral = Spectral(random_step_spectrum(rng))
            for risk in kinds + [spectral]:
                value, density = dual_sup(risk, d)
                assert value == pytest.approx(evaluate(risk, d), abs=1e-12)
                assert all(q >= -1e-15 for q in density)
                assert math.fsum(density) == pytest.approx(1.0, abs=1e-9)
            laws += 1
        assert laws >= 1000

    @pytest.mark.parametrize(
        "risk",
        [
            ValueAtRisk(0.5),
            Entropic(1.0),
            Distortion(DistortionFunction(form="var_indicator", level=0.5)),
            Mixture(0.5, Expectation(), ValueAtRisk(0.5)),
        ],
    )
    def test_not_coherent_rejected(self, risk):
        with pytest.raises(NotCoherent):
            dual_sup(risk, UNIFORM4)


class TestCoherentInequalities:
    COHERENT = [
        Expectation(),
        ExpectedShortfall(0.5),
        ExpectedShortfall(0.9),
        Distortion(DistortionFunction(form="es_cap", level=0.7)),
        Mixture(0.4, Expectation(), ExpectedShortfall(0.8)),
    ]

    def test_triangle_and_complement_on_random_couplings(self):
        from riskmdp.risk_measures import random_coupling

        rng = np.random.default_rng(808)
        riskset = self.COHERENT + [Spectral(random_step_spectrum(rng))]
        for _ in range(300):
            w, xs, ys = random_coupling(rng)
            law = lambda vals: make_distribution(vals, w)
            for risk in riskset:
                rho_x = evaluate(risk, law(xs))
                rho_y = evaluate(risk, law(ys))
                rho_absdiff = evaluate(risk, law([abs(a - b) for a, b in zip(xs, ys)]))
                assert abs(rho_x - rho_y) <= rho_absdiff + 1e-9
                rho_sum = evaluate(risk, law([a + b for a, b in zip(xs, ys)]))
                rho_neg_y = evaluate(risk, law([-b for b in ys]))
                assert rho_sum >= rho_x - rho_neg_y - 1e-9


class TestPredicates:
    def test_classification(self):
        assert is_coherent(ExpectedShortfall(0.9))
        assert not is_coherent(ValueAtRisk(0.9))
        assert not is_coherent(Entropic(1.0))
        assert is_comonotonic_additive(ValueAtRisk(0.9))
        assert not is_comonotonic_additive(Entropic(1.0))
        assert is_positive_homogeneous(ValueAtRisk(0.9))
        assert not is_positive_homogeneous(Entropic(1.0))
        assert is_coherent(Mixture(0.5, Expectation(), ExpectedShortfall(0.5)))
        assert not is_coherent(Mixture(0.5, Expectation(), ValueAtRisk(0.5)))

    def test_describe_strings(self):
        assert describe(ExpectedShortfall(0.9)) == "ES(0.9)"
        assert "VaR" in describe(ValueAtRisk(0.5))
        assert "mix" in describe(Mixture(0.5, Expectation(), ExpectedShortfall(0.5)))


@given(st.floats(min_value=-20, max_value=20, allow_nan=False))
def test_point_mass_invariance_all_kinds(x):
    d = make_distribution([x], [1.0])
    for risk in (
        Expectation(),
        ValueAtRisk(0.3),
        ExpectedShortfall(0.7),
        Distortion(IDENTITY),
        Entropic(0.5),
        Mixture(0.5, Expectation(), ExpectedShortfall(0.5)),
    ):
        assert evaluate(risk, d) == pytest.approx(x, abs=1e-12)


# ---------------------------------------------------------------------------
# Correctly rounded row sums: the certified numpy sum against math.fsum

ULP1 = 2.0**-52  # the gap above 1.0; the gap below it is half as wide
TINY = 2.0**-1074
BIG = 2.0**1015  # four of these stay clear of overflow; the certified path takes them

HARD_ROWS = [
    # cancellation
    [1e16, 1.0, -1e16, 1e-16],
    [1.0, 1e100, 1.0, -1e100],
    [0.1, 0.2, -0.3, 0.0],
    [3.0, -1e-17, -3.0, 1e-17 * 0.5],
    # subnormals
    [TINY, TINY, TINY, 0.0],
    [2.0**-1070, -(2.0**-1073), TINY, 3 * TINY],
    [2.0**-1022, -TINY, 0.0, 0.0],
    # signed zeros: fsum never returns -0.0
    [-0.0, -0.0, -0.0, -0.0],
    [0.0, -0.0, 0.0, -0.0],
    [1.5, -0.0, -1.5, -0.0],
    # exact halfway cases, which go to the even neighbour, and near ones
    [1.0, ULP1 / 2, 0.0, 0.0],
    [1.0 + ULP1, ULP1 / 2, 0.0, 0.0],
    [1.0, -ULP1 / 4, 0.0, 0.0],
    [1.0 - ULP1 / 2, -ULP1 / 4, 0.0, 0.0],
    [1.0, ULP1 / 2, 2.0**-80, 0.0],
    [1.0, ULP1 / 2, -(2.0**-80), 0.0],
    [1.0, -ULP1 / 4, 2.0**-90, -(2.0**-200)],
    # huge and tiny together
    [BIG, 1e-300, -BIG, TINY],
    [BIG, BIG, -BIG, 1.0],
    [1e300, 1e-300, 1.0, -1e300],
    [BIG, -BIG / 3, 1e-30, -1e-300],
]


def _tiled(rows):
    """``rows`` repeated into a table of at least ``CERTIFIED_MIN_CELLS`` entries."""
    reps = -(-risk_measures.CERTIFIED_MIN_CELLS // (len(rows) * len(rows[0])))
    return np.array(rows * reps, dtype=float)


def _fsum_hexes(table):
    return [math.fsum(row).hex() for row in table.tolist()]


def _exact_fallbacks(table):
    """Rows that must fall back: an exact sum of zero or exactly halfway between two floats."""
    out = []
    for row in table.tolist():
        exact = sum(map(Fraction, row))
        near = math.fsum(row)
        other = math.nextafter(near, math.inf if exact > Fraction(near) else -math.inf)
        out.append(exact == 0 or exact == (Fraction(near) + Fraction(other)) / 2)
    return np.array(out)


class TestCertifiedSums:
    def test_hard_rows_match_fsum_bit_for_bit(self):
        table = _tiled(HARD_ROWS)
        assert [v.hex() for v in _fsum_rows(table).tolist()] == _fsum_hexes(table)
        sums, certified = _certified_sums(table)
        assert certified.any()
        assert [v.hex() for v in sums[certified].tolist()] == _fsum_hexes(table[certified])

    def test_non_finite_rows_are_left_to_fsum(self):
        inf, nan = math.inf, math.nan
        table = _tiled([[inf, 1.0, 2.0, 3.0], [-inf, 1.0, 0.0, 0.0], [nan, 1.0, 2.0, 0.0], [inf, inf, 1.0, -1.0], [1.0, 2.0, 3.0, 4.0]])
        assert not _certified_sums(table)[1].any()
        assert [v.hex() for v in _fsum_rows(table).tolist()] == _fsum_hexes(table)

    def test_entries_near_the_float_range_are_left_to_fsum(self):
        # a pair of such entries could overflow on the way, so the guard
        # sends the whole table to fsum
        table = _tiled([[1e308, -1e308, 1e308, 1.0], [1.0, 2.0, 3.0, 0.5]])
        assert not _certified_sums(table)[1].any()
        assert [v.hex() for v in _fsum_rows(table).tolist()] == _fsum_hexes(table)

    @pytest.mark.parametrize(
        "row, message",
        [
            ([math.inf, -math.inf, 0.0, 1.0], "-inf \\+ inf in fsum"),
            ([1.7e308, 1.7e308, -1.7e308, 0.0], "intermediate overflow in fsum"),
        ],
    )
    def test_what_fsum_refuses_raises_sum_overflow(self, row, message):
        table = _tiled([[1.0, 2.0, 3.0, 4.0], row])
        with pytest.raises(SumOverflow, match=message):
            _fsum_rows(table)
        with pytest.raises(SumOverflow, match=message):
            _fsum_rows(table[:2])  # below the size gate, one fsum per row

    @pytest.mark.parametrize(
        "row, message",
        [([math.inf, -math.inf], "-inf \\+ inf in fsum"), ([1.7e308, 1.7e308], "intermediate overflow in fsum")],
    )
    def test_two_columns_raise_where_fsum_raises(self, row, message):
        # one IEEE addition gives NaN or inf for these; the rows beside them
        # keep the sums fsum gives, -0.0 made +0.0 included
        table = np.array([[1.0, 2.0], [math.inf, 1.0], [math.nan, -math.inf], row, [-0.0, -0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SumOverflow, match=message):
                _fsum_rows(table)
            rest = np.delete(table, 3, axis=0)
            assert [v.hex() for v in _fsum_rows(rest).tolist()] == _fsum_hexes(rest)

    @pytest.mark.parametrize("risk", [Expectation(), Distortion(IDENTITY)], ids=["expectation", "distortion"])
    def test_a_two_atom_law_that_fsum_refuses_raises_as_the_scalar_route_does(self, risk):
        row, probs = [math.inf, -math.inf], [0.5, 0.5]
        with pytest.raises(SumOverflow) as scalar:
            risk_measures._risk_value_of_pairs(risk, zip(row, probs))
        with np.errstate(invalid="ignore"), pytest.raises(SumOverflow) as batch:
            risk_measures._risk_values_of_rows(risk, np.array([row]), np.array(probs))
        assert str(batch.value) == str(scalar.value) == "sum out of float range (-inf + inf in fsum)"

    def test_the_rows_that_fall_back_are_exactly_the_ties_and_zeros(self):
        # sums placed at multiples of a quarter of the gap around random
        # floats, above and below powers of two: the half-gap points are
        # exact ties and must fall back; the quarter points lie a quarter
        # gap inside their interval and must be certified
        rng = np.random.default_rng(7)
        rows = []
        for base in [1.0, 2.0, 0.5] + rng.uniform(1.0, 1e6, 60).tolist():
            for j in range(-3, 4):
                gap = math.nextafter(base, math.inf) - base if j > 0 else base - math.nextafter(base, -math.inf)
                hi, lo = base * 3.0, -base * 2.0
                rows.append([hi, j * gap / 4, lo, 0.0])
        rows += [[2.0, -1.0, -1.0, 0.0], [-0.0, 0.0, -0.0, 0.0], [5.0, -5.0, 1e-300, -1e-300]]
        table = np.array(rows)
        assert table.size >= risk_measures.CERTIFIED_MIN_CELLS
        sums, certified = _certified_sums(table)
        expected = _exact_fallbacks(table)
        assert (~certified).sum() == expected.sum() == 2 * 63 + 3
        assert (~certified == expected).all()
        assert [v.hex() for v in _fsum_rows(table).tolist()] == _fsum_hexes(table)

    def test_sweep_tables_rarely_fall_back(self):
        rng = np.random.default_rng(3)
        table = rng.uniform(-10.0, 10.0, (900, 8)) * rng.dirichlet(np.ones(8), 900)
        sums, certified = _certified_sums(table)
        assert (~certified).sum() == _exact_fallbacks(table).sum() < 40
        assert [v.hex() for v in _fsum_rows(table).tolist()] == _fsum_hexes(table)


_binary = st.builds(math.ldexp, st.integers(-(2**53), 2**53), st.integers(-1126, 960))
_term = st.one_of(_binary, st.floats(allow_nan=False, allow_infinity=False, width=64), st.sampled_from([0.0, -0.0, TINY, ULP1, 1.0]))


@settings(max_examples=300)
@given(st.data())
def test_certified_sums_equal_fsum_on_random_rows(data):
    m = data.draw(st.integers(3, 12))
    rows = data.draw(st.lists(st.lists(_term, min_size=m, max_size=m), min_size=1, max_size=6))
    table = np.array(rows, dtype=float)
    sums, certified = _certified_sums(table)
    assert [v.hex() for v in sums[certified].tolist()] == _fsum_hexes(table[certified])
    try:
        expected = _fsum_hexes(_tiled(rows))
    except (ValueError, OverflowError):
        with pytest.raises(SumOverflow):
            _fsum_rows(_tiled(rows))
    else:
        assert [v.hex() for v in _fsum_rows(_tiled(rows)).tolist()] == expected


def _rounded(row):
    """The row's exact sum rounded to nearest, ties to even: the oracle that fsum must meet."""
    return float(sum(map(Fraction, row), Fraction(0)))


def _check_certified(table):
    """Every certified row is the exactly rounded sum; every exact zero or tie is left undecided."""
    sums, certified = _certified_sums(table)
    for row, total, ok, fallback in zip(table.tolist(), sums.tolist(), certified.tolist(), _exact_fallbacks(table)):
        if ok:
            assert not fallback, row
            assert total.hex() == _rounded(row).hex(), row
    return certified


@st.composite
def _spread_tables(draw):
    """Tables of 3 to 20 columns whose terms spread from subnormals to 2**+-1000, signed zeros included.

    Each row has its own top exponent; a row may end in the negated
    naive sum of the others moved by a few of its units in the last
    place, which cancels all but a few rounding errors.
    """
    m = draw(st.integers(3, 20))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        top = draw(st.integers(-1074, 1000))
        spread = draw(st.sampled_from([0, 1, 30, 60, 200, 2100]))
        term = st.one_of(
            st.builds(
                lambda k, e: math.ldexp(k, min(max(e, -1074), 1000 - 53)),
                st.integers(-(2**53), 2**53),
                st.integers(top - spread - 53, top - 53),
            ),
            st.sampled_from([0.0, -0.0]),
        )
        row = draw(st.lists(term, min_size=m, max_size=m))
        if draw(st.booleans()):
            naive = sum(row[:-1])
            row[-1] = -naive + draw(st.integers(-40, 40)) * math.ulp(naive)
        rows.append(row)
    return np.array(rows)


@settings(max_examples=400, deadline=None)
@given(table=_spread_tables())
def test_certified_sums_are_the_exactly_rounded_sums(table):
    _check_certified(table)
    assert [v.hex() for v in _fsum_rows(table).tolist()] == _fsum_hexes(table)


class TestExtraction:
    """Tables that a smaller ``sigma``, a ``delta`` without its m^2 term, or a looser range test get wrong."""

    @pytest.mark.parametrize("m", [5, 6, 9, 12, 17, 20])
    def test_rows_that_fill_the_extraction_range(self, m):
        # m same-sign terms just below the table's largest power of two: their
        # high parts sum past sigma / 2, so half that sigma would round them
        rng = np.random.default_rng(m)
        table = -(1.0 - rng.uniform(0.0, 2.0**-20, (200, m))) * 2.0**40
        table[:, -1] = rng.uniform(-1.0, 1.0, 200)  # off the ties of the high parts
        assert _check_certified(table).mean() > 0.9

    @pytest.mark.parametrize("m", [3, 4, 8, 10, 16, 20])
    def test_rows_of_low_parts_only(self, m):
        # 1.0 - 1.0 sets sigma and cancels; the other terms, below u * sigma
        # with full mantissas, are all low part, and their float sum is off
        # by several units in its last place, up to m^2 u^2 sigma
        rng = np.random.default_rng(m)
        unit = 2.0 ** ((m + 1).bit_length() - 52)  # u * sigma
        rows = [[1.0, -1.0] + (rng.uniform(-1.0, 1.0, m - 2) * unit).tolist() for _ in range(400)]
        _check_certified(np.array(rows))
        assert [v.hex() for v in _fsum_rows(_tiled(rows)).tolist()] == _fsum_hexes(_tiled(rows))

    @pytest.mark.parametrize("m", [3, 8, 20])
    def test_entries_from_the_overflow_limit_on_fall_back(self, m):
        # from 2**(1023 - M), 2**M >= m + 2, sigma would pass the float range
        limit = 2.0 ** (1023 - (m + 1).bit_length())
        rng = np.random.default_rng(m)
        table = rng.uniform(-1.0, 1.0, (50, m)) * limit
        table[0, 0] = limit
        assert not _certified_sums(table)[1].any()
        table[0, 0] = math.nextafter(limit, 0.0)
        assert _check_certified(table).any()


class TestSizeGate:
    """``_fsum_rows`` either side of ``CERTIFIED_MIN_CELLS``: the route changes, the bits do not."""

    @pytest.mark.parametrize("m", [3, 4, 8, 10, 16])
    def test_both_sides_of_the_gate_give_fsums_bits(self, monkeypatch, m):
        certified = []
        monkeypatch.setattr(risk_measures, "_certified_sums", lambda t: certified.append(t.shape) or _certified_sums(t))
        gate = risk_measures.CERTIFIED_MIN_CELLS
        rng = np.random.default_rng(m)
        for n in (-(-gate // m) - 1, -(-gate // m)):  # the last table below the gate, the first at it
            table = rng.uniform(-10.0, 10.0, (n, m)) * rng.dirichlet(np.ones(m), n)
            table[::7, 1] = -0.0
            table[1] = [0.0, -0.0] * (m // 2) + [-0.0] * (m % 2)  # a zero row, which fsum gives as +0.0
            assert [v.hex() for v in _fsum_rows(table).tolist()] == _fsum_hexes(table)
        assert certified == [(-(-gate // m), m)]


def _column_loop(terms):
    """The scalar route's ``acc += term``, from +0.0, one column at a time."""
    total = terms[:, 0] + 0.0
    for j in range(1, terms.shape[1]):
        total = total + terms[:, j]
    return total


class TestRunningSums:
    SPECIAL = (math.nan, math.inf, -math.inf, -0.0, 0.0, 1e308, -1e308, TINY)

    @pytest.mark.parametrize("n", [1, 2, 3, 2499])
    @pytest.mark.parametrize("m", [1, 2, 4, 9, 20])
    def test_one_pass_equals_the_column_loop_bit_for_bit(self, n, m):
        rng = np.random.default_rng(1000 * n + m)
        for share in (0.0, 0.05, 0.5, 1.0):
            terms = rng.standard_normal((n, m)) * 10.0 ** rng.integers(-30, 30, (n, m))
            special = rng.random((n, m)) < share
            terms[special] = rng.choice(self.SPECIAL, special.sum())
            with np.errstate(over="ignore", invalid="ignore"):
                expected = [v.hex() for v in _column_loop(terms).tolist()]
                assert [v.hex() for v in _running_sums(terms).tolist()] == expected

    def test_signed_zero_rows_sum_to_plus_zero(self):
        terms = np.array([[-0.0, -0.0, -0.0], [-0.0, 0.0, -0.0], [1.0, -1.0, -0.0], [-0.0, -0.0, 2.0]])
        for rows in (terms, terms[:1], terms[:2]):
            assert [v.hex() for v in _running_sums(rows).tolist()] == [v.hex() for v in _column_loop(rows).tolist()]
        assert [v.hex() for v in _running_sums(terms).tolist()] == ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+1"]


def _bound_risks():
    """Every kind with a finite bound, at the levels, spectra and risk aversions it must cover."""
    level = st.one_of(st.sampled_from([0.0, 0.5, 0.9, 0.95, 0.99]), st.floats(0.0, 0.99))
    gamma = st.one_of(st.sampled_from([1e-3, 0.5, 5.0]), st.floats(1e-3, 5.0))
    spectrum = st.integers(0, 2**32 - 1).map(lambda seed: Spectral(random_step_spectrum(np.random.default_rng(seed))))
    pwl = st.sampled_from([
        DistortionFunction(form="piecewise_linear", knots=((0.0, 0.0), (0.3, 0.6), (1.0, 1.0))),
        DistortionFunction(form="piecewise_linear", knots=((0.0, 0.0), (0.5, 0.1), (0.6, 0.9), (1.0, 1.0))),
    ])
    base = st.one_of(
        st.just(Expectation()),
        level.map(ExpectedShortfall),
        spectrum,
        gamma.map(Entropic),
        st.just(Distortion(IDENTITY)),
        level.map(lambda a: Distortion(DistortionFunction(form="es_cap", level=a))),
        pwl.map(Distortion),
    )
    weight = st.floats(0.0, 1.0)
    return st.one_of(
        base,
        st.builds(Mixture, weight, base, base),
        st.builds(Mixture, weight, gamma.map(Entropic), base),
    )


@st.composite
def _bound_rows(draw):
    """Rows over one ascending probability vector: K from 1 to 20, spreads up to 1e3, grids with ties."""
    k = draw(st.integers(1, 20))
    if draw(st.booleans()):
        raw = [1.0] * k  # a coarse grid: equal probabilities, exact ties of mass
    else:
        raw = draw(st.lists(st.floats(1e-3, 1.0), min_size=k, max_size=k))
    probs = np.sort(np.array(make_distribution(list(range(k)), [r / sum(raw) for r in raw]).probs))
    spread = draw(st.sampled_from([1.0, 10.0, 1e3]))
    if draw(st.booleans()):
        cell = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0]).map(lambda a: a * spread)
    else:
        cell = st.floats(-spread, spread)
    rows = draw(st.lists(st.lists(cell, min_size=k, max_size=k), min_size=1, max_size=4))
    return np.array(rows), probs


def _as_exact(x, like):
    return _decimal_of(x) if isinstance(like, Decimal) else Fraction(x)


def _decimal_of(x):
    with localcontext() as ctx:
        ctx.prec = EXACT_DIGITS
        return Decimal(x) if isinstance(x, float) else Decimal(x.numerator) / Decimal(x.denominator)


class TestRoundingBound:
    """The batched evaluation's per-kind rounding bound against exact arithmetic."""

    @settings(max_examples=400, deadline=None)
    @given(case=_bound_rows(), risk=_bound_risks())
    def test_the_computed_value_lies_within_the_bound_of_the_exact_one(self, case, risk):
        rows, probs = case
        slope, floor, lip = risk_measures._rounding_bound(risk, probs)
        computed = risk_measures._risk_values_of_rows(risk, rows.copy(), probs)
        for i, row in enumerate(rows.tolist()):
            scale = max(abs(a) for a in row)
            exact = exact_stage_value(risk, row, probs.tolist())
            bound = _as_exact(slope, exact) * _as_exact(scale, exact) + _as_exact(floor, exact)
            assert abs(exact_difference(float(computed[i]), exact)) <= bound, (row, risk)
            # the exact value moves by at most lip times the largest atom change
            moved = [a + 0.5 * abs(a) * ((j % 3) - 1) for j, a in enumerate(row)]
            change = max(abs(Fraction(b) - Fraction(a)) for a, b in zip(row, moved))
            after = exact_stage_value(risk, moved, probs.tolist())
            gap = abs(exact_difference(0.0, exact) - exact_difference(0.0, after))
            digits = _as_exact(10.0 ** (20 - EXACT_DIGITS) * (1.0 + scale), exact) if isinstance(exact, Decimal) else 0
            assert gap <= _as_exact(lip, exact) * _as_exact(float(change), exact) + digits, risk

    @pytest.mark.parametrize(
        "risk",
        [
            Distortion(DistortionFunction(form="var_indicator", level=0.9)),
            ValueAtRisk(0.9),
            Mixture(0.5, Entropic(0.5), ValueAtRisk(0.9)),
            Mixture(0.0, Entropic(0.5), ValueAtRisk(0.9)),
        ],
        ids=["step distortion", "VaR", "mixture", "mixture, weight 0"],
    )
    def test_quantile_kinds_have_no_finite_bound(self, risk):
        # a level's rounding may move the value by a whole gap between atoms
        assert not math.isfinite(risk_measures._rounding_bound(risk, np.array([0.5, 0.5]))[0])

    def test_the_level_term_is_needed_at_es_099(self):
        # without 2 delta / (1 - alpha) the bound misses the rounding of the
        # levels in the tail: at this seeded row the error is 2.8 times the rest
        rng = np.random.default_rng(938)
        raw = rng.uniform(1e-3, 1.0, 20)
        probs = np.sort(np.array(make_distribution(list(range(20)), (raw / raw.sum()).tolist()).probs))
        row = rng.uniform(-1e3, 1e3, 20)
        risk = ExpectedShortfall(0.99)
        computed = float(risk_measures._risk_values_of_rows(risk, row[None, :].copy(), probs)[0])
        error = abs(exact_difference(computed, exact_stage_value(risk, row.tolist(), probs.tolist())))
        slope, _, _ = risk_measures._rounding_bound(risk, probs)
        rest = Fraction(25 * 2.0**-53 * float(np.abs(row).max()))
        assert 2 * rest < error <= Fraction(slope) * Fraction(float(np.abs(row).max()))


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    k=st.integers(1, 20),
    gamma=st.sampled_from([1e-3, 0.5, 2.0, 5.0]),
)
def test_batched_entropic_rows_match_the_scalar_route(data, k, gamma):
    # the batch reads the top atom's term as its probability, without exp
    pool = st.one_of(st.floats(-100.0, 100.0), st.sampled_from([-1.0, 0.0, -0.0, 1.0, 3.5, math.nan]))
    rows = data.draw(st.lists(st.lists(pool, min_size=k, max_size=k), min_size=1, max_size=6))
    for row in rows[: data.draw(st.integers(0, len(rows)))]:
        if not any(map(math.isnan, row)):
            row[0] = row[-1] = max(row)  # tied top atoms
    raw = data.draw(st.lists(st.floats(1e-3, 1.0), min_size=k, max_size=k))
    probs = np.sort(np.array(make_distribution(list(range(k)), [r / sum(raw) for r in raw]).probs))
    risk = Entropic(gamma)
    batch = risk_measures._risk_values_of_rows(risk, np.array(rows), probs)
    scalar = [risk_measures._risk_value_of_pairs(risk, zip(row, probs.tolist())) for row in rows]
    assert [v.hex() for v in batch.tolist()] == [v.hex() for v in scalar]


@pytest.mark.parametrize(
    "risk",
    [
        Expectation(),
        ValueAtRisk(0.7),
        ExpectedShortfall(0.5),
        Distortion(IDENTITY),
        Distortion(DistortionFunction(form="es_cap", level=0.6)),
        Distortion(DistortionFunction(form="piecewise_linear", knots=((0.0, 0.0), (0.5, 0.8), (1.0, 1.0)))),
        Spectral(StepSpectrum(breakpoints=((0.0, 0.5), (0.5, 1.5)))),
        Entropic(0.5),
        Entropic(5.0),
        Mixture(0.3, Entropic(2.0), Distortion(IDENTITY)),
    ],
    ids=lambda risk: describe(risk),
)
@pytest.mark.parametrize("m", [1, 3, 8])
def test_tie_free_rows_give_the_masked_branchs_bits(risk, m):
    # without ties every column ends an atom; the masked branch, taken
    # here by naming a tied column that no row has, must give the same
    # bits. The last two rows' top atoms are infinite or 1e308, where
    # gamma times it overflows for gamma >= 2: the entropic value is then
    # that infinity
    rng = np.random.default_rng(m)
    values = rng.uniform(-50.0, 50.0, (80, m))
    values[-2, 0], values[-1, 0] = math.inf, 1e308
    raw = rng.uniform(0.1, 1.0, m)
    probs = np.sort(np.array(make_distribution(list(range(m)), (raw / raw.sum()).tolist()).probs))
    with np.errstate(over="ignore", invalid="ignore"):
        law, weights = risk_measures._row_laws(risk, values, probs)
        assert not law.ties
        plain = risk_measures._row_values(risk, law, iter(weights))
        law.ties = [0]
        masked = risk_measures._row_values(risk, law, iter(weights))
    assert [v.hex() for v in plain.tolist()] == [v.hex() for v in masked.tolist()]


# the platform check's edge values: both zeros, -2**k from the smallest
# subnormal up, the last shift whose exp is not 0.0 and the first that is,
# and the non-finite shifts of a row whose top atom is not finite
EXP_EDGES = np.concatenate(
    [
        [0.0, -0.0, np.nextafter(-745.1332191019412, 0.0), -745.1332191019412, math.inf, -math.inf, math.nan],
        -np.ldexp(1.0, np.arange(-1074, 10)),
    ]
)


def _exp_hexes(values):
    return ["nan" if math.isnan(v) else v.hex() for v in values]


class TestExpRoute:
    """``_exp``, the entropic batch's exp, against ``math.exp``, bit for bit."""

    def test_a_million_shifts_and_the_edges_give_libms_bits(self):
        rng = np.random.default_rng(2210)
        x = np.concatenate([rng.uniform(-745.2, 0.0, 10**6), EXP_EDGES])
        want = _exp_hexes(map(math.exp, x.tolist()))
        with np.errstate(all="ignore"):
            flat = risk_measures._exp(x)  # as the masked branch calls it
            table = risk_measures._exp(np.resize(x, (-(-len(x) // 7), 7)))  # as the tie-free branch calls it
        assert flat.shape == x.shape and table.shape[1] == 7
        assert _exp_hexes(flat.tolist()) == want
        assert _exp_hexes(table.ravel()[: len(x)].tolist()) == want

    def test_the_check_runs_once_and_not_at_import(self):
        code = (
            "import riskmdp.risk_measures as rm; n = rm._complex_exp_is_libm.cache_info().currsize; "
            "rm._exp(rm.np.zeros(3)); rm._exp(rm.np.zeros(3)); info = rm._complex_exp_is_libm.cache_info(); "
            "print(n, info.misses, info.hits)"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["0", "1", "1"]

    def test_a_failed_check_takes_math_exp_per_entry(self, monkeypatch):
        calls = []
        libm = risk_measures._libm
        monkeypatch.setattr(risk_measures, "_complex_exp_is_libm", lambda: False)
        monkeypatch.setattr(risk_measures, "_libm", lambda fn, x: calls.append((fn, x.shape)) or libm(fn, x))
        x = np.resize(EXP_EDGES, (40, 30))
        got = risk_measures._exp(x)
        assert calls == [(math.exp, (1200,))] and got.shape == x.shape
        assert _exp_hexes(got.ravel().tolist()) == _exp_hexes(map(math.exp, x.ravel().tolist()))
