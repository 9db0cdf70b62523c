import numpy as np
import pytest

from liecheck import chars, checks, models, quadrature
from liecheck.checks import (
    chamber_integral,
    det_row,
    energy_positivity,
    invariant_test_functions,
    random_series,
    series_deviation,
    stat_row,
    tridiagonal_integrals,
    worst,
)
from liecheck.cli import RunConfig, run_verification_suite
from liecheck.quadrature import tridiagonal_rule


def test_random_series_draws_the_inline_dicts_of_the_criteria():
    # the acceptance criteria drew their series inline, in this form; the
    # shared helper must give the same arrays and leave the stream in the
    # same state, since later draws of a criterion follow on the same rng
    cases = (([(n,) for n in range(5)], "L2K", 1.0),   # criteria 06 and 09
             ([(0,), (1,)], "L2K", 1.0),               # criterion 07, a
             ([(1,), (2,)], "L2K", 1.0),               # criterion 07, b
             ([(n,) for n in range(4)], "HL2", 0.5))   # criterion 08
    ref, rng = np.random.default_rng(606), np.random.default_rng(606)
    for dynkins, space, t in cases:
        terms = {(n,): ref.normal(size=(n + 1, n + 1)) + 1j * ref.normal(size=(n + 1, n + 1))
                 for (n,) in dynkins}
        series = random_series("A1", space, t, dynkins, rng)
        assert (series.rs_kind, series.space, series.t) == ("A1", space, t)
        assert list(series.terms) == list(terms)
        for k, v in terms.items():
            assert series.terms[k].dtype == v.dtype
            assert series.terms[k].tobytes() == v.tobytes()
    assert ref.random() == rng.random()


def test_series_deviation_floors_a_zero_scale_coefficient():
    a = {(0,): np.array([[4.0]]), (1,): np.zeros((2, 2))}
    b = {(0,): np.array([[3.0]]), (1,): np.full((2, 2), 0.5)}
    assert series_deviation(a, b) == 1.0
    with np.errstate(all="raise"):
        # the zero coefficient of a divides by 1e-300, not by zero
        assert series_deviation(a, b, a) == 0.5 / 1e-300
    assert series_deviation(a, b, b) == 1.0
    assert series_deviation(b, a, b) == 1.0


def test_worst_case_reductions_keep_a_nan():
    nan = float("nan")
    assert worst([0.5, 2.0, 1.0]) == 2.0
    # Python's max([0.0, nan, 1.0]) is 1.0
    assert np.isnan(worst([0.0, nan, 1.0]))
    assert np.isnan(worst(iter([1.0, nan])))
    a = {(0,): np.array([[1.0]]), (1,): np.array([[nan]])}
    b = {(0,): np.array([[0.0]]), (1,): np.array([[0.0]])}
    assert np.isnan(series_deviation(a, b))
    assert np.isnan(series_deviation(a, b, b))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_rows_refuse_a_non_finite_side(bad):
    for lhs, rhs in ((bad, 0.0), (1.0, bad)):
        with pytest.raises(ArithmeticError, match="x/y"):
            det_row("x/y", lhs, rhs, 1e-8)
        with pytest.raises(ArithmeticError, match="x/y"):
            stat_row("x/y", lhs, rhs, 1.0)
    with pytest.raises(ArithmeticError):
        stat_row("x/y", complex(1.0, bad), 1.0, 1.0)
    with pytest.raises(ArithmeticError):
        stat_row("x/y", 1.0, 1.0, bad)


def test_unitarity_ratio_row_fails_on_a_nan_defect_at_any_label(monkeypatch, a1):
    # a NaN defect behind a finite one used to vanish in Python's max
    def defect(rs, lam, t):
        return float("nan") if lam.dynkin == (2,) else 1e-16

    monkeypatch.setattr(checks.hilbert, "ratio_defect", defect)
    with pytest.raises(ArithmeticError, match="unitarity/ratio-identity"):
        checks.suite_unitarity(RunConfig(group="A1", max_level=3), a1, None)


def test_chamber_integral_is_the_written_out_integrand(a1, a2):
    # chamber_integral calls hilbert._character_integral; its value is that
    # of the integrand eta(Y)^p char(2Y) e^{-|Y|^2/t_g} summed alone over the
    # Cartan nodes, written as the character's mantissa times one exponential
    # of the summed logs: within 1e-13, the route summing in the chamber's
    # simple-root coordinates (the largest moves here are 5.7e-16 on A1 and
    # 1.0e-15 on A2)
    for rs in (a1, a2):
        order = quadrature.default_order(rs.rank)
        for case in invariant_test_functions(rs, 1.0):
            tg, p, lam, mu_eff = case

            def f(Y):
                log_scale, mantissa = chars._char_holo_parts(rs, lam, 2.0 * Y)
                exponent = log_scale - np.sum(Y**2, axis=-1) / tg
                if p:
                    exponent = exponent + p * chars.log_eta(chars.root_pairings(rs, Y))
                return mantissa * np.exp(exponent)

            q = quadrature.build_chamber_quadrature(rs, tg, order, mu_eff)
            want = quadrature.integrate_invariant(q, f)
            assert abs(chamber_integral(rs, case, order) - want) <= 1e-13 * want, case


def test_energy_positivity_fails_a_zero_at_a_non_trivial_weight():
    assert not energy_positivity([0.0, 0.0, 2.0])
    assert energy_positivity([0.0, 0.5, 2.0])
    # the trivial weight comes first and its energy is exactly 0
    assert not energy_positivity([0.5, 1.0, 2.0])
    assert not energy_positivity([0.0, -0.5, 2.0])
    assert type(energy_positivity(np.array([0.0, 0.5]))) is bool


def test_weylint_maps_each_width_and_order_to_the_chamber_once(monkeypatch, a2):
    # A2 at t = 1: 20 cases at 3 Gaussian widths, each width's rules of
    # orders 16 and 8 mapped to the chamber in one block pass, and the
    # Monte-Carlo row's samples once; one pass per case would map
    # 20 * (16^4 + 8^4) nodes
    points = []

    def counted(model, coords):
        points.append(len(coords))
        return models.chamber_coordinates(model, coords)

    monkeypatch.setattr(checks, "chamber_coordinates", counted)
    monkeypatch.setattr(quadrature, "chamber_coordinates", counted)
    cfg = RunConfig(group="A2", t=1.0)
    report = run_verification_suite(cfg, "weylint")
    cases = invariant_test_functions(a2, 1.0)
    widths = {case[0] for case in cases}
    assert len(cases) == 20 and len(widths) == 3
    assert report["summary"]["failed"] == 0
    assert sum(points) == len(widths) * (16**4 + 8**4) + cfg.mc_samples

    def blocks(n):
        return -(-n // models._BLOCK)

    assert len(points) == len(widths) * (blocks(16**4) + blocks(8**4)) + blocks(cfg.mc_samples)


def test_shared_tridiagonal_values_equal_the_rule_case_by_case(a2, su3):
    cases = invariant_test_functions(a2, 1.0)
    width = [case for case in cases if case[0] == cases[1][0]][:5]
    shared = tridiagonal_integrals(a2, su3, width, 16)
    nodes, weights, norm = tridiagonal_rule(su3, width[0][0], 16)
    for (_, p, lam, _), value in zip(width, shared):
        def f(Y):
            return chars.eta(a2, Y) ** p * chars.weyl_char_holo(a2, lam, 2.0 * Y)

        assert value == norm * float(models.haar_mean(f, nodes, weights)[0])
