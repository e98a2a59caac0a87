"""Axiom-report behavior on the canonical positive and negative controls."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from riskmdp.distributions import make_distribution
from riskmdp.errors import InvalidSpec
from riskmdp.risk_measures import (
    AXIOM_TOL,
    Entropic,
    Expectation,
    ExpectedShortfall,
    Mixture,
    ValueAtRisk,
    check_axioms,
    evaluate,
    random_coupling,
)

COHERENT_NAMES = (
    "normalization",
    "translation_invariance",
    "positive_homogeneity",
    "monotonicity",
    "comonotonic_additivity",
    "subadditivity",
    "triangle_inequality",
    "complementary_subadditivity",
)


class TestExpectedShortfall:
    def test_all_axioms_pass(self):
        report = check_axioms(ExpectedShortfall(0.9), 500, seed=2024)
        for name in COHERENT_NAMES:
            check = report.check(name)
            assert check.status == "PASS", (name, check.max_violation)
            assert check.max_violation <= AXIOM_TOL
        assert report.passed

    def test_triangle_and_complement_hold_on_all_trials(self):
        report = check_axioms(ExpectedShortfall(0.8), 500, seed=7)
        assert report.check("triangle_inequality").max_violation <= AXIOM_TOL
        assert report.check("complementary_subadditivity").max_violation <= AXIOM_TOL


class TestValueAtRisk:
    def test_subadditivity_witness_found(self):
        report = check_axioms(ValueAtRisk(0.95), 500, seed=2024)
        sub = report.check("subadditivity")
        assert sub.status == "NOT_ASSERTED"
        assert sub.witness is not None
        assert sub.max_violation > AXIOM_TOL
        # the witness really violates subadditivity
        w = sub.witness
        x_law = make_distribution(w["x"], w["weights"])
        y_law = make_distribution(w["y"], w["weights"])
        s_law = make_distribution([a + b for a, b in zip(w["x"], w["y"])], w["weights"])
        risk = ValueAtRisk(0.95)
        assert evaluate(risk, s_law) > evaluate(risk, x_law) + evaluate(risk, y_law) + AXIOM_TOL

    def test_comonotonic_additivity_passes(self):
        report = check_axioms(ValueAtRisk(0.95), 500, seed=2024)
        assert report.check("comonotonic_additivity").status == "PASS"
        assert report.passed  # NOT_ASSERTED entries never fail the report

    def test_monetary_axioms_pass(self):
        report = check_axioms(ValueAtRisk(0.6), 300, seed=5)
        for name in ("monotonicity", "translation_invariance", "normalization",
                     "positive_homogeneity"):
            assert report.check(name).status == "PASS"


class TestEntropic:
    def test_positive_homogeneity_witness_found(self):
        report = check_axioms(Entropic(1.0), 500, seed=2024)
        hom = report.check("positive_homogeneity")
        assert hom.status == "NOT_ASSERTED"
        assert hom.witness is not None
        assert hom.max_violation > AXIOM_TOL

    def test_translation_invariance_passes(self):
        report = check_axioms(Entropic(1.0), 500, seed=2024)
        assert report.check("translation_invariance").status == "PASS"
        assert report.check("monotonicity").status == "PASS"
        assert report.check("normalization").status == "PASS"


class TestMixture:
    def test_coherent_mixture_inherits_claims(self):
        risk = Mixture(0.5, Expectation(), ExpectedShortfall(0.7))
        report = check_axioms(risk, 300, seed=3)
        assert report.check("subadditivity").status == "PASS"
        assert report.passed

    def test_var_mixture_drops_subadditivity_claim(self):
        risk = Mixture(0.5, Expectation(), ValueAtRisk(0.9))
        report = check_axioms(risk, 300, seed=3)
        assert report.check("subadditivity").status == "NOT_ASSERTED"


class TestReportShape:
    def test_requires_trials(self):
        with pytest.raises(InvalidSpec):
            check_axioms(Expectation(), 0)

    def test_deterministic_given_seed(self):
        a = check_axioms(ExpectedShortfall(0.5), 50, seed=9)
        b = check_axioms(ExpectedShortfall(0.5), 50, seed=9)
        assert a == b

    def test_asdict_is_jsonable_with_passed_before_checks(self):
        report = check_axioms(ValueAtRisk(0.9), 50, seed=1)
        assert list(json.loads(json.dumps(asdict(report)))) == ["risk", "seed", "trials", "passed", "checks"]


def test_coupling_shapes():
    rng = np.random.default_rng(0)
    w, xs, ys = random_coupling(rng)
    assert len(w) == len(xs) == len(ys)
    assert abs(sum(w) - 1.0) < 1e-9
