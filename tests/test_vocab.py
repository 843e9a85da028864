import numpy as np
import pytest

from cotforge import ConfigError, Vocabulary, sample_embedding_matrix
from cotforge.vocab import N_SPECIAL, SPECIAL_ROLES

from helpers import ks_critical, ks_statistic_vs_normal


def test_vocab_1024_partition():
    v = Vocabulary(1024)
    assert len(v.special_ids) == 9
    assert len(v.normal_ids) == 1015
    assert sorted(v.special_ids.values()) == list(range(9))
    assert set(v.special_ids.values()) | set(v.normal_ids) == set(range(1024))
    assert set(v.special_ids.values()) & set(v.normal_ids) == set()


def test_vocab_minimal_size():
    v = Vocabulary(10)
    assert list(v.normal_ids) == [9]


def test_vocab_too_small_rejected():
    with pytest.raises(ConfigError):
        Vocabulary(9)


def test_special_role_order_is_fixed():
    v = Vocabulary(64)
    assert SPECIAL_ROLES == (
        "pad", "bos", "eos", "inp_start", "inp_end",
        "think_start", "think_end", "ans_start", "ans_end",
    )
    assert (v.pad, v.bos, v.eos) == (0, 1, 2)
    assert (v.inp_start, v.inp_end) == (3, 4)
    assert (v.think_start, v.think_end) == (5, 6)
    assert (v.ans_start, v.ans_end) == (7, 8)
    assert [getattr(v, role) for role in SPECIAL_ROLES] == list(range(N_SPECIAL))
    assert v.is_special(8) and v.is_normal(9)


def test_embedding_deterministic_per_seed():
    v = Vocabulary(1024)
    a = sample_embedding_matrix(v, 10, seed=12345)
    b = sample_embedding_matrix(v, 10, seed=12345)
    assert a.data.tobytes() == b.data.tobytes()
    c = sample_embedding_matrix(v, 10, seed=12346)
    assert a.data.tobytes() != c.data.tobytes()


def test_embedding_shape_and_dtype():
    v = Vocabulary(1024)
    e = sample_embedding_matrix(v, 10, seed=1)
    assert e.data.shape == (1024, 10)
    assert e.data.dtype == np.float32
    assert e.f64.dtype == np.float64


def test_embedding_zero_dim_rejected():
    v = Vocabulary(16)
    with pytest.raises(ConfigError):
        sample_embedding_matrix(v, 0, seed=1)


def test_embedding_moment_checks():
    # column means within 5*sigma/sqrt(rows) of 0, variance inside [0.8, 1.2]
    v = Vocabulary(1024)
    e = sample_embedding_matrix(v, 10, seed=777)
    data = e.f64
    bound = 5.0 / np.sqrt(1024)
    assert np.all(np.abs(data.mean(axis=0)) < bound)
    assert np.all((data.var(axis=0) > 0.8) & (data.var(axis=0) < 1.2))


def test_embedding_ks_against_standard_normal():
    v = Vocabulary(1024)
    e = sample_embedding_matrix(v, 10, seed=31337)
    flat = e.f64.ravel()
    assert flat.size >= 1000
    assert ks_statistic_vs_normal(flat) < ks_critical(flat.size, 0.01)


def test_n_special_constant():
    assert N_SPECIAL == 9
