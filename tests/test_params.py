import math

import pytest
from scipy.special import digamma

from indepcount import (ParamSet, Strategy, beta_k, mu_k, p_k, params_for,
                        theta_k)
from indepcount.params import (ALPHA_TABLE, BETA_TABLE, pruned_ell_coeff,
                               thurley_ell_coeff)


def test_mu_2_is_exactly_one():
    # 1/(j(j+1)) telescopes to 1
    assert mu_k(2) == pytest.approx(1.0, abs=1e-12)


def test_mu_matches_digamma_closed_form():
    # sum_j 1/(j(j+c)) = (psi(1+c) + gamma) / c with c = 1/(k-1)
    gamma = 0.5772156649015329
    for k in range(2, 12):
        c = 1.0 / (k - 1)
        want = (digamma(1.0 + c) + gamma) / c
        assert mu_k(k) == pytest.approx(want, abs=1e-10)


def test_mu_approaches_basel_sum():
    # c -> 0 turns the series into sum 1/j^2 = pi^2/6
    assert mu_k(10 ** 6) == pytest.approx(math.pi ** 2 / 6.0, abs=1e-5)


def test_mu_increases_with_k():
    values = [mu_k(k) for k in range(2, 9)]
    assert values == sorted(values)


def test_beta_published_values():
    assert beta_k(3) == 0.3864
    assert beta_k(4) == 0.5548
    with pytest.raises(ValueError):
        beta_k(2)


def test_beta_series_values_are_increasing_toward_one():
    values = [beta_k(k) for k in range(5, 12)]
    assert values == sorted(values)
    assert 0.6 < values[0] < 1.0 and values[-1] < 1.0
    # the k=5 series value has a closed form via mu_5 = 16 - 12 ln 2 - 2 pi
    want = 1.0 - (16.0 - 12.0 * math.log(2.0) - 2.0 * math.pi) / 4.0
    assert beta_k(5) == pytest.approx(want, abs=1e-10)


def test_theta_pinned_values():
    assert theta_k(3) == pytest.approx(1.5365900, abs=1e-6)
    assert theta_k(4) == pytest.approx(1.6154608, abs=1e-6)


def test_clause_exponent_pinned_values():
    assert 2.0 ** p_k(3) == pytest.approx(1.5298383, abs=1e-6)
    assert 2.0 ** p_k(4) == pytest.approx(1.6122789, abs=1e-6)


def test_tuned_alphas_beat_the_untuned_base():
    assert ALPHA_TABLE[3] < theta_k(3)
    assert ALPHA_TABLE[4] < theta_k(4)
    # clause-guided branching also improves on the balanced base
    assert p_k(3) < 1.0 / (2.0 - BETA_TABLE[3])
    assert p_k(4) < 1.0 / (2.0 - BETA_TABLE[4])


def test_ell_coefficients():
    b3 = BETA_TABLE[3]
    assert thurley_ell_coeff(3) == pytest.approx((1 - b3) / (2 - b3))
    r = 3.0 / math.log2(7.0)
    assert pruned_ell_coeff(3) == pytest.approx((1 - b3) / (2 - b3 * r))
    # the tuned clause thresholds undercut the generic clause-guided ones
    assert math.log2(1.2903) < pruned_ell_coeff(3)
    assert math.log2(1.2372) < pruned_ell_coeff(4)


def test_params_materialise_ell_and_m_hat():
    ps = params_for(3, 20, Strategy.INDEP_STRUCTS)
    assert ps.ell == math.ceil(1.28794 ** 20)
    assert ps.m_hat is None

    pc = params_for(3, 20, Strategy.INDEP_CLAUSES)
    assert pc.ell == math.ceil(1.2903 ** 20)
    assert pc.m_hat == math.ceil(0.1563 * 20)

    p4 = params_for(4, 15, Strategy.INDEP_CLAUSES)
    assert p4.m_hat == math.ceil(0.0587 * 15)

    assert params_for(3, 0, Strategy.THURLEY).ell == 1


def test_params_alpha_lookup():
    ps = params_for(4, 10, Strategy.INDEP_STRUCTS)
    assert ps.alpha(2) == 1.2377
    assert ps.alpha(3) == 1.51426
    with pytest.raises(ValueError):
        ps.alpha(7)


def test_params_untuned_widths():
    # width 5: no tuned threshold, the balanced coefficient steps in and
    # the width-5 counting base defaults to theta_5
    ps = params_for(5, 10, Strategy.INDEP_STRUCTS)
    assert ps.ell_log2 == pytest.approx(thurley_ell_coeff(5))
    assert ps.alpha(5) == pytest.approx(theta_k(5))
    with pytest.raises(ValueError):
        params_for(5, 10, Strategy.INDEP_CLAUSES)


def test_params_validation_and_trivial_cases():
    with pytest.raises(ValueError):
        params_for(1, 10, Strategy.THURLEY)
    with pytest.raises(ValueError):
        params_for(3, -1, Strategy.THURLEY)
    two = params_for(2, 10, Strategy.INDEP_STRUCTS)
    assert two.beta_k is None and two.ell == 1
    brute = params_for(3, 10, Strategy.BRUTE_FORCE)
    assert brute.theta_k is None


def test_param_set_is_frozen():
    ps = params_for(3, 10, Strategy.THURLEY)
    with pytest.raises(Exception):
        ps.n = 11  # type: ignore[misc]
    assert isinstance(ps, ParamSet)
