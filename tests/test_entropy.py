import math

import numpy as np
import pytest

from bernshift import (
    LOG2,
    OutOfRange,
    bit_alphabet,
    boost_step,
    run_recursion,
    shannon,
    solve_p,
    star,
    star_base,
    star_base_entropy,
    uniform,
)

from oracles import plain_alphabet, point_mass, solve_p_oracle, three_symbol_entropy


def test_shannon_point_mass_is_zero():
    assert shannon(point_mass(bit_alphabet(1), 0)) == 0.0


def test_shannon_uniform_laws():
    assert abs(shannon(uniform(bit_alphabet(1))) - LOG2) < 1e-15
    for n in (3, 5, 8):
        alpha = plain_alphabet(f"n{n}", [str(i) for i in range(n)])
        assert abs(shannon(uniform(alpha)) - math.log(n)) < 1e-12


def test_shannon_three_symbol_uniform():
    assert abs(shannon((1 / 3, 1 / 3, 1 / 3)) - math.log(3)) < 1e-12
    assert abs(star_base_entropy(1 / 3) - math.log(3)) < 1e-12


def test_shannon_rejects_negative():
    with pytest.raises(ValueError):
        shannon((-0.1, 1.1))


@pytest.mark.parametrize("weights", [(math.nan,), (math.inf, 1.0), (0.5, -math.inf)])
def test_shannon_rejects_non_finite_weights(weights):
    with pytest.raises(ValueError, match="not finite"):
        shannon(weights)


def test_half_weight_entropy_is_exactly_log2():
    # (1/2, 1/2, 0): the zero term drops out by convention
    assert star_base_entropy(0.5) == LOG2


def test_solve_p_matches_brentq_oracle():
    rng = np.random.default_rng(41)
    for H in rng.uniform(0.01, 0.69, 100):
        p = solve_p(float(H))
        assert abs(p - solve_p_oracle(float(H))) < 1e-12
        assert abs(three_symbol_entropy(p) - H) < 1e-10
        assert 0 < p < 1 / 3


def test_solve_p_frozen_value():
    # pinned against the independent brentq oracle
    assert abs(solve_p(0.5) - 0.06960105790174297) < 1e-12


def test_solve_p_monotone_on_grid():
    ps = [solve_p(float(h)) for h in np.linspace(0.01, 0.69, 100)]
    assert all(b > a for a, b in zip(ps, ps[1:]))


@pytest.mark.parametrize("H", [0.0, -1.0, LOG2, 0.7, 5.0])
def test_solve_p_out_of_range(H):
    with pytest.raises(OutOfRange):
        solve_p(H)


def test_boost_step():
    p, H1 = boost_step(0.5)
    assert abs(p - 0.06960105790174297) < 1e-12
    assert abs(H1 - 0.5964875540971653) < 1e-12
    assert H1 > 0.5
    assert abs((H1 - 0.5) - 2 * p * LOG2) < 1e-15


def test_boost_step_matches_star_distribution_entropy():
    for H in np.linspace(0.05, 0.68, 20):
        p, H_next = boost_step(float(H))
        out = star(p).pushforward(star_base(p))
        assert abs(shannon(out) - H_next) < 1e-12


def test_recursion_terminates_immediately_at_log2():
    rec = run_recursion(LOG2)
    assert rec.terminated and rec.steps == 0
    assert rec.H_sequence == (LOG2,)
    rec = run_recursion(1.5)
    assert rec.terminated and rec.steps == 0


def test_recursion_from_half():
    rec = run_recursion(0.5)
    assert rec.terminated and rec.steps == 2
    # hand-iterated oracle: H1 = 0.5 + 2 p1 log 2, H2 = H1 + 2 p2 log 2
    H, hs, ps = 0.5, [0.5], []
    while H < LOG2:
        p = solve_p_oracle(H)
        H = H + 2 * p * LOG2
        ps.append(p)
        hs.append(H)
    assert np.allclose(rec.H_sequence, hs, atol=1e-12)
    assert np.allclose(rec.p_sequence, ps, atol=1e-12)
    # the coarse pinned trace
    assert np.allclose(rec.H_sequence, (0.5, 0.5966, 0.7214), atol=1e-3)


def test_recursion_monotone_sequences():
    for h0 in np.linspace(0.02, 0.69, 25):
        rec = run_recursion(float(h0))
        assert rec.terminated
        assert all(b > a for a, b in zip(rec.H_sequence, rec.H_sequence[1:]))
        assert all(b >= a for a, b in zip(rec.p_sequence, rec.p_sequence[1:]))
        assert rec.H_sequence[-1] >= LOG2


def test_recursion_step_limit_returns_partial_trace():
    rec = run_recursion(0.05, max_steps=1)
    assert not rec.terminated and rec.steps == 1
    assert rec.H_sequence[-1] < LOG2


def test_recursion_rejects_nonpositive():
    with pytest.raises(OutOfRange):
        run_recursion(0.0)


@pytest.mark.parametrize("H0", [math.nan, math.inf])
def test_recursion_rejects_a_non_finite_start(H0):
    with pytest.raises(OutOfRange, match="finite"):
        run_recursion(H0)


def test_recursion_rejects_a_negative_step_budget():
    with pytest.raises(ValueError, match="max_steps"):
        run_recursion(0.5, max_steps=-1)
    assert run_recursion(0.5, max_steps=0).steps == 0


def test_recursion_json_shape():
    data = run_recursion(0.5).to_json()
    assert list(data) == ["H", "p", "terminated", "steps"]
    assert data["steps"] == 2 and data["terminated"] is True


def test_entropy_gain_identity_on_grid():
    # shannon(star output) - shannon(star input) = 2 p log 2, exactly
    for p in np.linspace(0.01, 0.49, 50):
        p = float(p)
        d_in = star_base(p)
        d_out = star(p).pushforward(d_in)
        assert abs((shannon(d_out) - shannon(d_in)) - 2 * p * LOG2) <= 1e-12
