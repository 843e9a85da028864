import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotforge.dag import Dag, sample_dag, validate_dag
from cotforge.errors import ConfigError
from cotforge.rng import make_rng

from helpers import all_paths_reach, chi_square_critical, chi_square_uniform


def test_shape_class_from_overview():
    dag = sample_dag(3, 2, 3, make_rng(0))
    assert dag.n_inputs == 3 and dag.n_chain == 3 and dag.fan_in == 2
    assert len(dag.parents) == 3
    for c, plist in enumerate(dag.parents, start=1):
        assert len(plist) == 2
        assert all(0 <= p < 3 + c - 1 for p in plist)


def test_fan_in_clamped_to_inputs():
    # N=1, M=5: fan-in clamps to 1; chain node 2 may pick node 0 or node 1
    seen = set()
    for seed in range(200):
        dag = sample_dag(1, 5, 2, make_rng(seed))
        assert dag.fan_in == 1
        assert dag.parents[0] == (0,)
        seen.add(dag.parents[1][0])
    assert seen == {0, 1}


def test_forced_full_parent_set():
    for seed in range(20):
        dag = sample_dag(4, 4, 1, make_rng(seed))
        assert sorted(dag.parents[0]) == [0, 1, 2, 3]


def test_zero_arguments_rejected():
    rng = make_rng(0)
    for bad in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
        with pytest.raises(ConfigError):
            sample_dag(*bad, rng)


def test_determinism_same_seed_same_dag():
    assert sample_dag(5, 3, 4, make_rng(42)) == sample_dag(5, 3, 4, make_rng(42))


def test_validate_ok():
    assert validate_dag(sample_dag(4, 2, 3, make_rng(1))) is None


def test_validate_detects_self_reference():
    # chain node 1 is node index N; listing N as its own parent is out of range
    dag = Dag(n_inputs=3, n_chain=2, fan_in=1, parents=((3,), (0,)))
    msg = validate_dag(dag)
    assert msg is not None and "outside" in msg


def test_validate_detects_duplicates():
    good = sample_dag(4, 2, 3, make_rng(2))
    plist = list(good.parents)
    plist[1] = (plist[1][0], plist[1][0])
    mutated = Dag(n_inputs=good.n_inputs, n_chain=good.n_chain, fan_in=good.fan_in, parents=tuple(plist))
    msg = validate_dag(mutated)
    assert msg is not None and "duplicate" in msg


def test_validate_detects_wrong_counts():
    good = sample_dag(4, 2, 3, make_rng(3))
    short = Dag(good.n_inputs, good.n_chain, good.fan_in, good.parents[:-1])
    assert "parent lists" in validate_dag(short)
    thin = Dag(good.n_inputs, good.n_chain, good.fan_in, (good.parents[0][:1],) + good.parents[1:])
    assert "expected 2 parents" in validate_dag(thin)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 16),
    m=st.integers(1, 16),
    c=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
)
def test_sampled_dags_always_validate(n, m, c, seed):
    assert validate_dag(sample_dag(n, m, c, make_rng(seed))) is None


def test_parent_marginals_chi_square():
    # eligible parent i of chain node c appears with probability fan_in/(N+c-1)
    n, m, c_len, draws = 3, 2, 3, 10_000
    rng = make_rng(2024)
    counts = [np.zeros(n + c - 1) for c in range(1, c_len + 1)]
    for _ in range(draws):
        dag = sample_dag(n, m, c_len, rng)
        for c, plist in enumerate(dag.parents, start=1):
            for p in plist:
                counts[c - 1][p] += 1
    for c in range(1, c_len + 1):
        pool = n + c - 1
        eff = min(m, n)
        expected = np.full(pool, draws * eff / pool)
        stat = chi_square_uniform(counts[c - 1], expected)
        # without-replacement draws are slightly under-dispersed vs the
        # multinomial reference, so the chi-square bound is conservative
        assert stat < chi_square_critical(pool - 1, 0.01), f"chain node {c}: stat {stat}"


def test_serialization_round_trip():
    dag = sample_dag(4, 3, 5, make_rng(7))
    assert Dag.from_json(dag.to_json()) == dag
    obj = dag.to_json()
    assert set(obj) == {"n_inputs", "n_chain", "fan_in", "parents"}


def test_parents_stored_sorted():
    for seed in range(50):
        dag = sample_dag(6, 3, 4, make_rng(seed))
        for plist in dag.parents:
            assert list(plist) == sorted(plist)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), m=st.integers(1, 6), c=st.integers(1, 6), seed=st.integers(0, 10_000))
def test_reachability_matches_path_enumeration(n, m, c, seed):
    dag = sample_dag(n, m, c, make_rng(seed))
    for node in range(n + c):
        assert dag.reaches_answer(node) == all_paths_reach(dag, node, dag.answer_node())


def test_reaches_answer_on_arbitrary_parent_sets():
    # any parent subset of the earlier nodes, empty and full ones included,
    # not only the fixed fan-in that sample_dag draws
    rng = make_rng(2024)
    for _ in range(300):
        n, c = int(rng.integers(1, 7)), int(rng.integers(1, 9))
        parents = []
        for node in range(n, n + c):
            size = int(rng.integers(0, node + 1))
            parents.append(tuple(sorted(int(p) for p in rng.choice(node, size=size, replace=False))))
        dag = Dag(n_inputs=n, n_chain=c, fan_in=1, parents=tuple(parents))
        for node in range(n + c):
            assert dag.reaches_answer(node) == all_paths_reach(dag, node, dag.answer_node()), (dag, node)
