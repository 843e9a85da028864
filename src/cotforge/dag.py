"""Topologically sorted causal DAGs over input and chain nodes.

Node indexing: inputs occupy 0..N-1 and chain node c (1-indexed) is N+c-1.
Chain node c may depend only on inputs and strictly earlier chain nodes,
i.e. its parents live in [0, N+c-1). Fan-in is clamped to min(M, N) and
parents are drawn uniformly without replacement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .rng import choose_distinct


@dataclass(frozen=True)
class Dag:
    n_inputs: int
    n_chain: int
    fan_in: int
    #: parents[c-1] lists the parent indices of chain node c, sorted ascending.
    parents: tuple[tuple[int, ...], ...]

    def to_json(self) -> dict:
        return {
            "n_inputs": self.n_inputs,
            "n_chain": self.n_chain,
            "fan_in": self.fan_in,
            "parents": [list(p) for p in self.parents],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Dag":
        return cls(
            n_inputs=obj["n_inputs"],
            n_chain=obj["n_chain"],
            fan_in=obj["fan_in"],
            parents=tuple(tuple(p) for p in obj["parents"]),
        )

    def answer_node(self) -> int:
        return self.n_inputs + self.n_chain - 1

    @cached_property
    def _answer_ancestors(self) -> tuple[bool, ...]:
        """Per node: whether it reaches the answer node, the node itself included.

        One reverse pass over the chain nodes: parents precede their child
        (a parent of chain node c is below N+c-1), so a node's flag is final
        before any of its parents is visited.
        """
        reach = [False] * (self.n_inputs + self.n_chain)
        reach[self.answer_node()] = True
        for node in range(self.answer_node(), self.n_inputs - 1, -1):
            if reach[node]:
                for p in self.parents[node - self.n_inputs]:
                    reach[p] = True
        return tuple(reach)

    def reaches_answer(self, node: int) -> bool:
        """True when a directed path node -> answer node exists."""
        return self._answer_ancestors[node]


def sample_dag(n_inputs: int, fan_in: int, n_chain: int, rng: np.random.Generator) -> Dag:
    """Uniform DAG from the (N, M, C) structure class.

    Chain node c picks min(M, N) distinct parents uniformly from the N + c - 1
    earlier nodes. Draws come from `rng` in chain-node order, so the result is
    a pure function of the generator state.
    """
    if n_inputs < 1 or fan_in < 1 or n_chain < 1:
        raise ConfigError(
            f"n_inputs, fan_in, n_chain must all be >= 1, got ({n_inputs}, {fan_in}, {n_chain})"
        )
    eff = min(fan_in, n_inputs)
    parents = []
    for c in range(1, n_chain + 1):
        pool = n_inputs + c - 1
        parents.append(tuple(sorted(choose_distinct(rng, pool, eff))))
    return Dag(n_inputs=n_inputs, n_chain=n_chain, fan_in=eff, parents=tuple(parents))


def validate_dag(dag: Dag) -> str | None:
    """First violated structural invariant, or None when well-formed."""
    if len(dag.parents) != dag.n_chain:
        return f"expected {dag.n_chain} parent lists, found {len(dag.parents)}"
    for c, plist in enumerate(dag.parents, start=1):
        if len(plist) != dag.fan_in:
            return f"chain node {c}: expected {dag.fan_in} parents, found {len(plist)}"
        bound = dag.n_inputs + c - 1
        for p in plist:
            if not 0 <= p < bound:
                return f"chain node {c}: parent {p} outside [0, {bound})"
        if len(set(plist)) != len(plist):
            return f"chain node {c}: duplicate parent indices {list(plist)}"
    return None


def check_record_dag(meta: dict) -> None:
    """Reject a record meta whose DAG is malformed or does not span its n and c.

    Scoring reads the DAG, so both dataset kinds check it while building a
    prompt, before any backend call; it also bounds the c of an abstract
    record whose examples are all plain, where c never enters the stream
    length. KeyError or TypeError for a missing or mistyped field,
    ValueError for a violated invariant.
    """
    dag = Dag.from_json(meta["dag"])
    problem = validate_dag(dag)
    if not problem and (dag.n_inputs, dag.n_chain) != (meta["n"], meta["c"]):
        problem = f"dag over {dag.n_inputs} inputs and {dag.n_chain} chain nodes, meta has n={meta['n']} c={meta['c']}"
    if problem:
        raise ValueError(problem)
