"""Abstract token vocabulary and the hidden data-embedding matrix.

The vocabulary is a contiguous id space [0, size). The first nine ids are
delimiter tokens in a fixed order; everything from id 9 up is a "normal"
token usable as an input or chain token. Embeddings are standard-normal
draws from a seeded Philox stream, stored as float32 and promoted to
float64 wherever arithmetic happens.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .rng import make_rng

#: Delimiter roles in id order: role SPECIAL_ROLES[i] gets id i.
SPECIAL_ROLES = (
    "pad",
    "bos",
    "eos",
    "inp_start",
    "inp_end",
    "think_start",
    "think_end",
    "ans_start",
    "ans_end",
)

N_SPECIAL = len(SPECIAL_ROLES)


@dataclass(frozen=True)
class Vocabulary:
    """Token id space partitioned into nine delimiters plus normal tokens."""

    size: int

    def __post_init__(self) -> None:
        if self.size < N_SPECIAL + 1:
            raise ConfigError(f"vocabulary size must be >= {N_SPECIAL + 1}, got {self.size}")

    # Delimiter ids, named in SPECIAL_ROLES order: role SPECIAL_ROLES[i] is id i.
    pad, bos, eos, inp_start, inp_end, think_start, think_end, ans_start, ans_end = range(N_SPECIAL)

    @property
    def normal_ids(self) -> range:
        return range(N_SPECIAL, self.size)

    @property
    def n_normal(self) -> int:
        return self.size - N_SPECIAL

    @staticmethod
    def is_special(token_id: int) -> bool:
        return 0 <= token_id < N_SPECIAL

    def is_normal(self, token_id: int) -> bool:
        return N_SPECIAL <= token_id < self.size

    @staticmethod
    def token_name(token_id: int) -> str:
        """Role name for delimiters, "tok<i>" for any other id; needs no instance."""
        if Vocabulary.is_special(token_id):
            return SPECIAL_ROLES[token_id]
        return f"tok{token_id}"


@dataclass(frozen=True)
class EmbeddingMatrix:
    """size x dim matrix of N(0,1) draws, sampled bit-exactly by sample_embedding_matrix.

    `data` is float32 (the storage dtype). Arithmetic reads `f64` and its
    C-contiguous transpose `f64_t`, each converted once per matrix and
    read-only, so every caller sees the same values.
    """

    data: np.ndarray

    @cached_property
    def f64(self) -> np.ndarray:
        return read_only(self.data.astype(np.float64))

    @cached_property
    def f64_t(self) -> np.ndarray:
        return read_only(np.ascontiguousarray(self.f64.T))


def read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def sample_embedding_matrix(vocab: Vocabulary, dim: int, seed: int) -> EmbeddingMatrix:
    """Seeded standard-normal embedding matrix, filled row-major.

    Draws float64 normals from Philox(seed) in C order, then casts to the
    float32 storage dtype. Same seed, same bytes.
    """
    if dim < 1:
        raise ConfigError(f"embedding dim must be >= 1, got {dim}")
    rng = make_rng(seed)
    data = rng.standard_normal((vocab.size, dim)).astype(np.float32)
    return EmbeddingMatrix(data=data)
