import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotforge.errors import ConfigError
from cotforge.recipe import Recipe, cot_flags, expected_cot_examples, expected_tokens, r_cot, r_cot_vector, strip_flags
from cotforge.rng import ItemStream, derive_seed


def test_alpha_zero_is_always_one():
    assert r_cot(Recipe(alpha=0.0), 17, 100) == 1.0
    assert r_cot(Recipe(alpha=0.0), 0, 100) == 1.0  # 0**0 = 1


def test_linear_schedule():
    assert r_cot(Recipe(alpha=1.0), 50, 100) == 0.5


def test_alpha_inf_is_always_zero():
    r = Recipe(alpha=math.inf)
    for j in (0, 1, 50, 99):
        assert r_cot(r, j, 100) == 0.0


def test_quadratic_schedule():
    assert r_cot(Recipe(alpha=2.0), 50, 100) == 0.25


def test_index_out_of_range():
    with pytest.raises(ConfigError):
        r_cot(Recipe(alpha=1.0), 100, 100)
    with pytest.raises(ConfigError):
        r_cot(Recipe(alpha=1.0), -1, 100)


def test_clamping_general_a_b():
    assert r_cot(Recipe(alpha=1.0, a=5.0, b=0.0), 50, 100) == 1.0
    assert r_cot(Recipe(alpha=1.0, a=1.0, b=-2.0), 50, 100) == 0.0
    assert r_cot(Recipe(alpha=math.inf, a=1.0, b=0.3), 10, 100) == pytest.approx(0.3)


def test_negative_alpha_rejected():
    with pytest.raises(ConfigError):
        Recipe(alpha=-0.5)


def test_parse_alpha():
    assert Recipe.from_json({"alpha": "inf"}).alpha == math.inf
    assert Recipe.from_json({"alpha": "2"}).alpha == 2.0
    assert Recipe.from_json({"alpha": 0.5}).alpha == 0.5


@settings(max_examples=100, deadline=None)
@given(
    alpha=st.floats(0.0, 8.0, allow_nan=False),
    a=st.floats(0.01, 3.0, allow_nan=False),
    b=st.floats(-0.5, 0.5, allow_nan=False),
    t=st.integers(2, 500),
)
def test_nondecreasing_in_j_for_positive_a(alpha, a, b, t):
    recipe = Recipe(alpha=alpha, a=a, b=b)
    values = [r_cot(recipe, j, t) for j in range(t)]
    assert all(x <= y + 1e-12 for x, y in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)


def test_vector_matches_scalar():
    recipe = Recipe(alpha=0.5, a=0.9, b=0.05)
    vec = r_cot_vector(recipe, 257)
    for j in (0, 1, 128, 256):
        assert vec[j] == pytest.approx(r_cot(recipe, j, 257), abs=0)


def test_expected_counts_alpha_zero():
    exact, approx = expected_cot_examples(Recipe(alpha=0.0), k=40, t=100)
    assert exact == 4000.0  # K*T
    assert approx is not None


def test_expected_counts_alpha_one():
    # direct sum oracle: 40 * sum(j/100) = 40 * 49.5 = 1980
    oracle = 40 * sum(j / 100 for j in range(100))
    exact, _ = expected_cot_examples(Recipe(alpha=1.0), k=40, t=100)
    assert exact == pytest.approx(oracle, rel=1e-12)
    assert exact == pytest.approx(1980.0, abs=1e-9)


def test_expected_counts_alpha_inf():
    exact, approx = expected_cot_examples(Recipe(alpha=math.inf), k=40, t=100)
    assert exact == 0.0 and approx == 0.0


def test_exact_plus_standard_is_kt():
    for alpha in (0.0, 0.5, 1.0, 2.0, math.inf):
        report = expected_tokens(Recipe(alpha=alpha), n=4, c=4, k=40, t=1000)
        total = report.expected_cot_examples_exact + report.expected_standard_examples
        assert total == pytest.approx(40 * 1000, rel=1e-12)


def test_token_ratio_all_cot_vs_none():
    all_cot = expected_tokens(Recipe(alpha=0.0), 4, 4, 40, 6_400_000)
    none = expected_tokens(Recipe(alpha=math.inf), 4, 4, 40, 6_400_000)
    ratio = all_cot.expected_tokens / none.expected_tokens
    assert 1.498 <= ratio <= 1.500
    # analytically (1 + 15K) / (1 + 10K): independent of T
    assert ratio == pytest.approx(601 / 401, rel=1e-12)


def test_token_ratio_quadratic_vs_none():
    quad = expected_tokens(Recipe(alpha=2.0), 4, 4, 40, 6_400_000)
    none = expected_tokens(Recipe(alpha=math.inf), 4, 4, 40, 6_400_000)
    assert quad.expected_tokens / none.expected_tokens == pytest.approx(1.16, abs=0.01)


def test_chain_length_irrelevant_when_never_thinking():
    a = expected_tokens(Recipe(alpha=math.inf), n=4, c=1, k=40, t=500)
    b = expected_tokens(Recipe(alpha=math.inf), n=4, c=99, k=40, t=500)
    assert a.expected_tokens == b.expected_tokens == 500 + 40 * 500 * 10


def test_euler_maclaurin_quality_sweep():
    for alpha in (0.25, 0.5, 1.0, 2.0, 3.0, 4.0):
        exact, approx = expected_cot_examples(Recipe(alpha=alpha), k=40, t=1000)
        assert abs(exact - approx) / exact <= 1e-3, alpha


def test_approx_none_outside_derivation_domain():
    exact, approx = expected_cot_examples(Recipe(alpha=1.0, a=0.5, b=0.1), k=4, t=100)
    assert approx is None
    assert exact == pytest.approx(4 * sum(min(1.0, max(0.0, 0.5 * j / 100 + 0.1)) for j in range(100)))


def test_budget_report_json_and_table():
    report = expected_tokens(Recipe(alpha=math.inf), 4, 4, 40, 100)
    obj = report.to_json()
    assert obj["params"]["recipe"]["alpha"] == "inf"
    assert "expected tokens" in report.table()


def test_small_t_rejected():
    with pytest.raises(ConfigError):
        expected_cot_examples(Recipe(alpha=1.0), k=1, t=1)


@pytest.mark.parametrize("r, variates, want", [
    (0.0, [0.0, 2**-53, 0.5], [1, 0, 0]),  # variates lie in [0, 1): r = 0 thinks only at exactly 0
    (0.375, [0.375, np.nextafter(0.375, 0.0), np.nextafter(0.375, 1.0)], [1, 1, 0]),
    (1.0, [1.0, 1 - 2**-53, 0.0], [1, 1, 1]),
])
def test_a_variate_equal_to_r_is_a_thinking_example(r, variates, want):
    # both dataset kinds take their flags from cot_flags
    flags = cot_flags(r, np.array(variates), 0, ())
    assert flags == want and all(type(f) is int for f in flags)


def test_cot_flags_apply_each_strip_in_turn():
    transforms = [{"kind": "strip-cot", "k_prime": 2, "seed": 3}, {"kind": "strip-cot", "k_prime": 1, "seed": 2**64 - 1}]
    want = [1] * 6
    for tf in transforms:
        want = strip_flags(want, tf["k_prime"], ItemStream(derive_seed(tf["seed"], 5)))
    assert cot_flags(0.5, np.zeros(6), 5, transforms) == want
    assert sum(want) == 3 and want[-1] == 1
