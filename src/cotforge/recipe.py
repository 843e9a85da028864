"""Power-law CoT probability schedules and dataset token-budget analytics.

A recipe assigns dataset item j (of T) the probability
r(j) = clamp(a * (j/T)**alpha + b, 0, 1) of rendering each of its examples
with the thinking segment. Python's ** and numpy's power both give
0**0 = 1 and u**inf = 0 for u in [0, 1), so alpha=0 means "always think"
and alpha=inf (pass math.inf) means "never think" when a=1, b=0. An
example thinks when its uniform variate in [0, 1) is <= r(j) (cot_flags),
so r(j) = 0 still thinks on a variate of exactly 0.0: "never" holds up to
a probability of 2**-53 per example.

The budget analytics compute the expected number of thinking-rendered
examples both by direct summation (authoritative) and by the closed-form
Euler-Maclaurin approximation, and turn those into expected token totals
using the fixed per-example sizes: N+6 tokens for a plain example,
N+C+7 for a thinking one, plus one bos per item.

Both dataset kinds run one pipeline over this schedule, and the parts they
share live here too: the config base (TaskConfig), the per-item start
(seed, Philox stream, r(j), the (N, M, C) draw and the DAG), the output
order, the rule that flags an example as thinking, and the rule that picks
which thinking examples strip-cot rewrites.
"""

from __future__ import annotations

import array
import math
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .dag import Dag, sample_dag
from .errors import ConfigError
from .rng import MAX_ITEM_STREAM, SEED_BOUND, ItemStream, choose_distinct, derive_seed, pick

_SUM_CHUNK = 1 << 22


@dataclass(frozen=True)
class Recipe:
    """Schedule parameters. alpha >= 0, or math.inf for the all-plain extreme;
    a and b finite."""

    alpha: float
    a: float = 1.0
    b: float = 0.0

    def __post_init__(self) -> None:
        if math.isnan(self.alpha) or self.alpha < 0:
            raise ConfigError(f"alpha must be >= 0 or inf, got {self.alpha}")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ConfigError(f"a and b must be finite, got a={self.a} b={self.b}")

    def to_json(self) -> dict:
        return {"alpha": "inf" if math.isinf(self.alpha) else self.alpha, "a": self.a, "b": self.b}

    @classmethod
    def from_json(cls, obj: dict) -> "Recipe":
        """Each number is read by float, so alpha may be "inf"; a bool or a key but alpha, a, b is a ConfigError."""
        if not isinstance(obj, dict) or "alpha" not in obj:
            raise ConfigError("recipe config missing required key: alpha")
        check_keys("recipe keys", obj, cls)
        numbers = (obj["alpha"], obj.get("a", 1.0), obj.get("b", 0.0))
        if any(isinstance(v, bool) for v in numbers):
            raise ConfigError(f"recipe alpha, a and b must be numbers, got {obj!r}")
        try:
            return cls(*(float(v) for v in numbers))
        except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: a JSON int past float range
            raise ConfigError(f"bad recipe {obj!r}: {exc}") from exc


def r_cot(recipe: Recipe, j: int, t: int) -> float:
    """Thinking probability for item j of a T-item dataset, clamped to [0, 1]."""
    if not 0 <= j < t:
        raise ConfigError(f"item index {j} outside [0, {t})")
    return min(1.0, max(0.0, recipe.a * (j / t) ** recipe.alpha + recipe.b))


def r_cot_vector(recipe: Recipe, t: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """r_cot for every j in [start, stop) of [0, T) as a float64 vector (same values as r_cot)."""
    if t < 1:
        raise ConfigError(f"dataset size must be >= 1, got {t}")
    stop = t if stop is None else stop
    u = np.arange(start, stop, dtype=np.float64) / t
    return np.clip(recipe.a * u**recipe.alpha + recipe.b, 0.0, 1.0)


def expected_cot_examples(recipe: Recipe, k: int, t: int) -> tuple[float, float | None]:
    """(exact, approx) expected count of thinking-rendered examples.

    exact = K * sum_j r(j) by direct summation; works for any (a, b).
    approx is the closed-form Euler-Maclaurin estimate
        (K / T**alpha) * (((T-1)**(alpha+1) - 1) / (alpha+1)
                          + ((T-1)**alpha + 1) / 2)
    which is derived for a=1, b=0; for other (a, b) it is returned as None.
    alpha=inf yields (0.0, 0.0).
    """
    if t < 2:
        raise ConfigError(f"dataset size must be >= 2, got {t}")
    if k < 1:
        raise ConfigError(f"examples per item must be >= 1, got {k}")

    exact = 0.0
    for start in range(0, t, _SUM_CHUNK):
        exact += float(np.sum(r_cot_vector(recipe, t, start, min(start + _SUM_CHUNK, t))))
    exact *= k

    if recipe.a != 1.0 or recipe.b != 0.0:
        return exact, None
    if math.isinf(recipe.alpha):
        return exact, 0.0
    al = recipe.alpha
    approx = (k / t**al) * (((t - 1) ** (al + 1) - 1) / (al + 1) + ((t - 1) ** al + 1) / 2)
    return exact, approx


@dataclass(frozen=True)
class BudgetReport:
    """Expected example and token counts for a dataset configuration; to_json
    writes the fields as they are, in this order."""

    expected_cot_examples_exact: float
    expected_cot_examples_approx: float | None
    expected_standard_examples: float
    expected_tokens: float
    params: dict = field(compare=False)

    def to_json(self) -> dict:
        return dict(vars(self))

    def table(self) -> str:
        rows = [
            ("expected CoT examples (exact)", f"{self.expected_cot_examples_exact:.4f}"),
            (
                "expected CoT examples (approx)",
                "n/a" if self.expected_cot_examples_approx is None else f"{self.expected_cot_examples_approx:.4f}",
            ),
            ("expected standard examples", f"{self.expected_standard_examples:.4f}"),
            ("expected tokens", f"{self.expected_tokens:.4f}"),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


def expected_tokens(recipe: Recipe, n: int, c: int, k: int, t: int) -> BudgetReport:
    """Expected-token budget: T bos tokens + per-example rendered sizes.

    Thinking examples cost N+C+7 tokens, plain ones N+6; the exact-sum
    expected thinking count is the value plugged into the total.
    """
    if n < 1 or c < 1 or k < 1:
        raise ConfigError(f"n, c, k must all be >= 1, got ({n}, {c}, {k})")
    exact, approx = expected_cot_examples(recipe, k, t)
    standard = k * t - exact
    total = t + exact * (n + c + 7) + standard * (n + 6)
    return BudgetReport(
        expected_cot_examples_exact=exact,
        expected_cot_examples_approx=approx,
        expected_standard_examples=standard,
        expected_tokens=total,
        params={"n": n, "c": c, "k": k, "t": t, "recipe": recipe.to_json()},
    )


_CHOICES = ("n_choices", "m_choices", "c_choices")


def check_int(name: str, value, minimum: int = 1) -> None:
    """ConfigError unless `value` is an int (not a bool) and at least `minimum`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")


def check_keys(what: str, obj: dict, cls) -> None:
    """ConfigError naming the keys of `obj` that no field of the dataclass `cls` reads."""
    unknown = set(obj) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {what}: {sorted(unknown)}")


@dataclass(frozen=True)
class TaskConfig:
    """Fields, checks and JSON form shared by both dataset kinds.

    Subclasses add fields, all with defaults, and extend __post_init__,
    which checks each member of a choice list with check_int and stores
    the list as a sorted tuple. In from_json each choice list must be a
    JSON list (its members are left to __post_init__), bool fields must be
    JSON booleans, a field whose default comes from a class is parsed by
    that class's from_json, and a key that names no field is a ConfigError.
    """

    n_choices: tuple[int, ...]
    m_choices: tuple[int, ...]
    c_choices: tuple[int, ...]
    k: int
    t: int
    recipe: Recipe
    master_seed: int
    shuffle: bool = False

    def __post_init__(self) -> None:
        for name in _CHOICES:
            choices = getattr(self, name)
            if not choices:
                raise ConfigError(f"{name} must be non-empty")
            for v in choices:
                check_int(f"{name} member", v)
            object.__setattr__(self, name, tuple(sorted(choices)))
        check_int("k", self.k)
        check_int("t", self.t)
        # item streams must stay below the reserved artifact streams
        if self.t >= MAX_ITEM_STREAM:
            raise ConfigError(f"t must be < 2**62, got {self.t}")
        check_int("master_seed", self.master_seed, minimum=0)
        if self.master_seed >= SEED_BOUND:
            raise ConfigError(f"master_seed must be < 2**64, got {self.master_seed}")

    def to_json(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if hasattr(value, "to_json"):
                value = value.to_json()
            elif isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out

    @classmethod
    def from_json(cls, obj: dict):
        if not isinstance(obj, dict):
            raise ConfigError(f"config must be a JSON object, got {type(obj).__name__}")
        missing = {f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING} - set(obj)
        if missing:
            raise ConfigError(f"config missing required keys: {sorted(missing)}")
        check_keys("config keys", obj, cls)
        kwargs = {f.name: obj[f.name] for f in fields(cls) if f.name in obj}
        for name in _CHOICES:
            if not isinstance(obj[name], list):
                raise ConfigError(f"{name} must be a list, got {obj[name]!r}")
        for f in fields(cls):
            if isinstance(f.default, bool) and f.name in kwargs and not isinstance(kwargs[f.name], bool):
                raise ConfigError(f"{f.name} must be true or false, got {kwargs[f.name]!r}")
            elif f.default_factory is not MISSING and f.name in kwargs:
                kwargs[f.name] = f.default_factory.from_json(kwargs[f.name])
        kwargs["recipe"] = Recipe.from_json(obj["recipe"])
        return cls(**kwargs)

    def start_item(self, j: int) -> tuple[int, ItemStream, float, int, int, int, Dag]:
        """(seed, rng, r(j), N, M, C, DAG) of item j.

        The seed keys the item's own Philox stream, read through an
        ItemStream; N, M, C and the DAG are drawn from it in this order.
        r_cot raises the ConfigError of a j outside [0, t).
        """
        r = r_cot(self.recipe, j, self.t)
        seed = derive_seed(self.master_seed, j)
        rng = ItemStream(seed)
        n = pick(rng, self.n_choices)
        m = pick(rng, self.m_choices)
        c = pick(rng, self.c_choices)
        return seed, rng, r, n, m, c, sample_dag(n, m, c, rng)

    def output_order(self) -> range | array.array:
        """Order in which item ids are emitted: range(t) unless shuffling, else choose_distinct's array (~4t bytes)."""
        if not self.shuffle:
            return range(self.t)
        return choose_distinct(ItemStream(self.master_seed + 1), self.t, self.t)


def strip_flags(cot_flags: list[int], k_prime: int, rng: ItemStream) -> list[int]:
    """cot_flags with k_prime thinking context examples set plain, the rule of strip-cot.

    They are drawn uniformly without replacement among the thinking
    examples but the last, the future query, which keeps its flag;
    k_prime=0 draws nothing and is the identity.
    """
    positions = [i for i, flag in enumerate(cot_flags[:-1]) if flag]
    if not 0 <= k_prime <= len(positions):
        raise ConfigError(f"k_prime {k_prime} outside [0, {len(positions)}] thinking context examples")
    chosen = {positions[i] for i in choose_distinct(rng, len(positions), k_prime)}
    return [int(bool(f) and i not in chosen) for i, f in enumerate(cot_flags)]


def cot_flags(r: float, variates: np.ndarray, j: int, transforms) -> list[int]:
    """0/1 per example of item j: 1 where its variate is <= r(j), then each strip-cot transform in turn.

    The strip of item j draws from ItemStream(derive_seed(seed, j)) with
    the transform's seed.
    """
    flags = (variates <= r).view(np.int8).tolist()
    for tf in transforms:
        flags = strip_flags(flags, tf["k_prime"], ItemStream(derive_seed(tf["seed"], j)))
    return flags
