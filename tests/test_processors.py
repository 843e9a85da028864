import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotforge import ConfigError, Vocabulary, new_cache, sample_embedding_matrix, sample_processors
from cotforge.processors import chain_tokens_batch, Mlp
from cotforge.rng import make_rng
from cotforge.vocab import EmbeddingMatrix, N_SPECIAL

from helpers import chi_square_critical, chi_square_uniform, oracle_chain_token


def chain_token(mlp, emb, parent_ids):
    """The generation kernel on a one-row batch whose single chain node reads every input."""
    inputs = np.array([parent_ids], dtype=np.int64)
    return int(chain_tokens_batch((tuple(range(len(parent_ids))),), [mlp], emb, inputs)[0, 0])


def test_cache_deterministic_per_seed():
    a = new_cache(64, 10, 1, 0.01, seed=5)
    b = new_cache(64, 10, 1, 0.01, seed=5)
    assert all(
        wa.tobytes() == wb.tobytes()
        for pa, pb in zip(a, b)
        for wa, wb in zip(pa.weights, pb.weights)
    )


def test_cache_defaults_and_validation():
    cache = new_cache(4, 10, 1, 0.01, seed=0)
    assert len(cache) == 4
    assert all(len(mlp.weights) == 1 and mlp.weights[0].shape == (10, 10) and mlp.slope == 0.01 for mlp in cache)
    with pytest.raises(ConfigError):
        new_cache(0, 10, 1, 0.01, seed=0)
    with pytest.raises(ConfigError):
        new_cache(4, 10, 1, 0.0, seed=0)
    with pytest.raises(ConfigError):
        new_cache(4, 10, 1, 1.5, seed=0)


def test_single_entry_cache_always_sampled():
    cache = new_cache(1, 4, 1, 0.01, seed=0)
    assert sample_processors(cache, 5, make_rng(3)) == [0, 0, 0, 0, 0]


def test_sample_processors_uniform():
    cache = new_cache(8, 4, 1, 0.01, seed=0)
    rng = make_rng(99)
    draws = 10_000
    counts = np.zeros(8)
    for idx in sample_processors(cache, draws, rng):
        counts[idx] += 1
    stat = chi_square_uniform(counts, np.full(8, draws / 8))
    assert stat < chi_square_critical(7, 0.01)


def _orthonormal_embedding(size: int) -> EmbeddingMatrix:
    return EmbeddingMatrix(seed=0, data=np.eye(size, dtype=np.float32))


def test_identity_weights_orthonormal_rows_returns_parent():
    size = 16
    vocab = Vocabulary(size)
    emb = _orthonormal_embedding(size)
    mlp = Mlp(weights=(np.eye(size, dtype=np.float32),), slope=0.01)
    for parent in vocab.normal_ids:
        assert chain_token(mlp, emb, [parent]) == parent


def test_tie_breaks_to_smallest_id():
    size = 12
    vocab = Vocabulary(size)
    data = np.eye(size, dtype=np.float32)
    data[11] = data[10]  # rows 10 and 11 identical -> tied scores
    emb = EmbeddingMatrix(seed=0, data=data)
    mlp = Mlp(weights=(np.eye(size, dtype=np.float32),), slope=0.01)
    assert chain_token(mlp, emb, [10]) == 10


def test_output_always_normal():
    vocab = Vocabulary(64)
    emb = sample_embedding_matrix(vocab, 8, seed=3)
    cache = new_cache(8, 8, 1, 0.01, seed=4)
    rng = make_rng(5)
    for _ in range(200):
        mlp = cache[int(rng.integers(8))]
        parents = [int(p) for p in rng.integers(0, 64, size=3)]
        assert vocab.is_normal(chain_token(mlp, emb, parents))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_parents=st.integers(1, 5))
def test_permutation_invariance(seed, n_parents):
    vocab = Vocabulary(128)
    emb = sample_embedding_matrix(vocab, 10, seed=11)
    mlp = new_cache(4, 10, 1, 0.01, seed=12)[seed % 4]
    rng = make_rng(seed)
    parents = [int(p) for p in rng.integers(9, 128, size=n_parents)]
    base = chain_token(mlp, emb, parents)
    assert chain_token(mlp, emb, parents[::-1]) == base


def test_oracle_equivalence_quick():
    # the full 1000-instance run lives in the acceptance suite
    vocab = Vocabulary(256)
    emb = sample_embedding_matrix(vocab, 10, seed=21)
    cache = new_cache(16, 10, 1, 0.01, seed=22)
    rng = make_rng(23)
    for _ in range(100):
        mlp = cache[int(rng.integers(16))]
        parents = [int(p) for p in rng.integers(9, 256, size=2)]
        expected = oracle_chain_token(mlp.weights, mlp.slope, emb.data, parents, N_SPECIAL)
        assert chain_token(mlp, emb, parents) == expected


def test_depth_two_matches_oracle():
    vocab = Vocabulary(64)
    emb = sample_embedding_matrix(vocab, 6, seed=31)
    cache = new_cache(4, 6, 2, 0.05, seed=32)
    rng = make_rng(33)
    for _ in range(50):
        mlp = cache[int(rng.integers(4))]
        parents = [int(p) for p in rng.integers(9, 64, size=3)]
        expected = oracle_chain_token(mlp.weights, mlp.slope, emb.data, parents, N_SPECIAL)
        assert chain_token(mlp, emb, parents) == expected


def test_batch_matches_single_calls():
    vocab = Vocabulary(128)
    emb = sample_embedding_matrix(vocab, 10, seed=41)
    cache = new_cache(8, 10, 1, 0.01, seed=42)
    rng = make_rng(43)
    from cotforge import sample_dag

    dag = sample_dag(4, 2, 3, rng)
    procs = [cache[i] for i in sample_processors(cache, 3, rng)]
    inputs = rng.integers(9, 128, size=(20, 4))
    batch = chain_tokens_batch(dag.parents, procs, emb, inputs)
    for k in range(20):
        pool = [int(v) for v in inputs[k]]
        for c in range(3):
            parent_ids = [pool[p] for p in dag.parents[c]]
            tok = oracle_chain_token(procs[c].weights, procs[c].slope, emb.data, parent_ids, N_SPECIAL)
            assert tok == batch[k][c]
            pool.append(tok)


def test_converted_arrays_are_read_only_and_exact():
    emb = sample_embedding_matrix(Vocabulary(64), 6, seed=3)
    mlp = new_cache(2, 6, 2, 0.01, seed=4)[1]
    assert emb.f64 is emb.f64 and mlp.weights_f64_t is mlp.weights_f64_t  # converted once
    assert np.array_equal(emb.f64, emb.data) and np.array_equal(emb.f64_t, emb.data.T)
    assert all(np.array_equal(w_t, w.T) for w_t, w in zip(mlp.weights_f64_t, mlp.weights))
    for arr in (emb.f64, emb.f64_t, *mlp.weights_f64_t):
        assert arr.dtype == np.float64
        assert arr.flags.c_contiguous
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
