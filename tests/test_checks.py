import numpy as np
import pytest

from liecheck import chars, checks, models, quadrature
from liecheck.checks import (
    chamber_integral,
    det_row,
    energy_positivity,
    invariant_test_functions,
    pointwise_transform_deviation,
    random_series,
    series_deviation,
    stat_row,
    tridiagonal_integrals,
    worst,
)
from liecheck.cli import RunConfig, run_verification_suite
from liecheck.quadrature import tridiagonal_rule
from liecheck.rootdata import enumerate_dominant


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
                log_scale, mantissa = chars._char_holo_parts(rs, [lam], 2.0 * Y)[0]
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


def test_pointwise_transform_scale_survives_a_zero_of_the_character(a1, su2):
    # chi_2 = sin(3 phi) / sin(phi) vanishes at phi = pi/3: a deviation
    # scaled by |D chi_2| at each point reads 1.40 here on a correct transform
    zero = np.diag([np.exp(1j * np.pi / 3.0), np.exp(-1j * np.pi / 3.0)])
    assert abs(models.su2_character(2, zero)) <= 1e-15
    xs = models.haar_sample(su2, np.random.default_rng(202), 19)
    with_zero = pointwise_transform_deviation(a1, su2, 1.0, np.concatenate([xs, zero[None]]))
    assert with_zero <= 1e-13
    assert pointwise_transform_deviation(a1, su2, 1.0, xs) <= 1e-13


def test_a_scaled_su2_character_fails_the_plancherel_rule_row(monkeypatch):
    # ||chi_1||^2 off by 2e-6: the Monte-Carlo row's standard error, near
    # 2e-3 at the default samples, hides it; the rule row does not
    def rows():
        report = run_verification_suite(RunConfig(group="A1"), "plancherel")
        return {c["check_id"]: c for c in report["checks"]}

    assert rows()["plancherel/l2k-chi-norm-rule"]["pass"]
    monkeypatch.setattr(checks, "su2_character",
                        lambda n, xs: (1.0 + 1e-6) * models.su2_character(n, xs))
    scaled = rows()
    assert scaled["plancherel/l2k-chi-norm"]["pass"]
    rule = scaled["plancherel/l2k-chi-norm-rule"]
    assert not rule["pass"] and abs(rule["rel_err"] - 2e-6) <= 1e-9


def test_weylint_maps_each_width_and_order_to_the_chamber_once(monkeypatch, a2):
    # A2 at t = 1: 20 cases at 3 Gaussian widths, the unit-width rules of
    # 16^2 x 10^2 and 8^2 x 5^2 nodes mapped to the chamber in one block
    # pass each, from their nodes' invariants (models._su3_chamber), and
    # scaled to every width, and the Monte-Carlo row's samples once; one
    # pass per width would map 3 * (16^2 10^2 + 8^2 5^2) nodes
    points = []

    def counted(model, coords):
        points.append(len(coords))
        return models.chamber_coordinates(model, coords)

    def counted_images(tr2, det):
        points.append(len(tr2))
        return models._su3_chamber(tr2, det)

    monkeypatch.setattr(checks, "chamber_coordinates", counted)
    monkeypatch.setattr(quadrature, "_su3_chamber", counted_images)
    cfg = RunConfig(group="A2", t=1.0)
    report = run_verification_suite(cfg, "weylint")
    cases = invariant_test_functions(a2, 1.0)
    widths = {case[0] for case in cases}
    assert len(cases) == 20 and len(widths) == 3
    assert report["summary"]["failed"] == 0
    assert sum(points) == 16**2 * 10**2 + 8**2 * 5**2 + cfg.mc_samples

    def blocks(n):
        return -(-n // models._BLOCK)

    assert len(points) == (blocks(16**2 * 10**2) + blocks(8**2 * 5**2)
                           + blocks(cfg.mc_samples))


@pytest.mark.parametrize("t", [1e-6, 0.05, 0.35, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0])
def test_weylint_tridiagonal_rule_matches_the_order_192_chamber_route(a2, su3, t):
    # weylint's su(3) rule, 16 Gauss-Hermite points per diagonal axis and
    # 10 Gauss-Laguerre points per modulus, against the chamber route at
    # twice the default order, case by case; the worst case, 1.51e-14,
    # is at t = 0.75, where 16^4 nodes read 1.45e-14
    assert checks._TRIDIAGONAL_ORDER["SU3"] == (16, 10)
    cases = invariant_test_functions(a2, t)
    values = tridiagonal_integrals(a2, su3, cases, 16, 10)
    for case, value in zip(cases, values):
        ref = chamber_integral(a2, case, 192)
        assert abs(value - ref) <= 5e-14 * abs(ref), (case, value, ref)


def test_shared_tridiagonal_values_equal_the_rule_case_by_case(a2, su3):
    # cases of two widths, each integrated alone over the unit-width
    # rule's images scaled by sqrt(t_g), its norm scaled by t_g^4
    cases = invariant_test_functions(a2, 1.0)
    picked = cases[:3] + [case for case in cases if case[0] != cases[0][0]][:3]
    shared = tridiagonal_integrals(a2, su3, picked, 16)
    nodes, weights, norm = tridiagonal_rule(su3, 16)
    for (tg, p, lam, _), value in zip(picked, shared):
        def f(Y):
            return chars.eta(a2, Y) ** p * chars.weyl_char_holo(a2, lam, 2.0 * Y)

        mean = models.haar_mean(f, np.sqrt(tg) * nodes, weights)[0]
        assert value == norm * tg**4.0 * float(mean)


def test_closed_form_a1_residuals_equal_a_per_draw_loop(a1, su2):
    # the loop the batched residuals replaced: one draw, one weight and one
    # pair of scalar kirillov_sides calls at a time
    def per_draw(rng, draws):
        residuals = {False: [], True: []}
        lams = enumerate_dominant(a1, 6)
        for k in range(draws):
            lam = lams[k % len(lams)]
            Y = rng.normal(0.0, 0.7, size=1)
            for half in (False, True):
                lhs, rhs = chars.kirillov_sides(su2, lam, Y, chars.ClosedFormA1(), half_angle=half)
                residuals[half].append(abs(lhs - rhs.value) / max(1.0, rhs.value))
        return worst(residuals[False]), worst(residuals[True])

    for draws in (100, 7, 3):
        ref, rng = np.random.default_rng(303), np.random.default_rng(303)
        assert checks.closed_form_a1_residuals(a1, su2, rng, draws) == per_draw(ref, draws)
        # criterion 03 draws its A2 points from the same generator next
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.normal(0.0, 0.5, size=2).tobytes() == ref.normal(0.0, 0.5, size=2).tobytes()
