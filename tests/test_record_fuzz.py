"""Fuzz of the eval-prompt functions and of config and manifest parsing
with one-field mutations of valid inputs.

Each example takes a valid shard record and changes one field anywhere in
it: deletes a dict key, shortens a list, or swaps the value for None, an
int, a str or a nested list. Building a prompt from the result may only
raise the exceptions `cli._record` maps to exit 3 (or ConfigError, exit
2); anything else, an IndexError say, would be a traceback in `eval`.
Configs and manifests, nested dicts included, get the same mutations with
a float, a bool, a list and a dict among the swaps; parsing them may only
raise what the CLI maps to exit 2.
"""

import functools
import json
import math
import operator
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cotforge import ConfigError, DatasetConfig, FormatError, LangSymConfig, Recipe, generate_langsym_prompt
from cotforge.harness import make_eval_prompt, strip_sequence_record
from cotforge.langsym import make_langsym_eval_prompt
from cotforge.rng import make_rng
from cotforge.sequences import generate_sequence
from cotforge.storage import KIND_ABSTRACT, KIND_LANGSYM, Manifest, parse_config

ALLOWED = (ConfigError, FormatError, KeyError, TypeError, ValueError)

SWAPS = {
    "none": st.none(),
    "int": st.integers(),
    "str": st.text(max_size=6),
    "nested": st.lists(st.lists(st.integers(0, 3), max_size=2), max_size=3),
}
CONFIG_SWAPS = {
    **SWAPS,
    "float": st.floats(),
    "bool": st.booleans(),
    "list": st.lists(st.none() | st.integers() | st.text(max_size=3), max_size=3),
    "dict": st.dictionaries(st.text(max_size=6), st.integers(), max_size=2),
}


def _slots(obj, path=()):
    """(path, held by a dict?, value) of the values below the root, depth first.

    Of a list only the first and the last item are visited, so a long token
    list weighs no more than any other field.
    """
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = {0: obj[0], len(obj) - 1: obj[-1]}.items() if obj else ()
    else:
        return
    for key, value in items:
        yield (*path, key), isinstance(obj, dict), value
        yield from _slots(value, (*path, key))


@st.composite
def mutated(draw, records, swaps=SWAPS):
    """One of `records` with one field deleted, shortened or swapped for a draw of `swaps`."""
    record = draw(st.sampled_from(records))
    kind = draw(st.sampled_from(("delete", "shorten", *swaps)))
    if kind == "delete":
        paths = [path for path, in_dict, _ in _slots(record) if in_dict]
    elif kind == "shorten":
        paths = [path for path, _, value in _slots(record) if isinstance(value, list) and value]
    else:
        paths = [path for path, _, _ in _slots(record)]
    *head, key = draw(st.sampled_from(paths))
    rec = json.loads(json.dumps(record))
    parent = functools.reduce(operator.getitem, head, rec)
    if kind == "delete":
        del parent[key]
    elif kind == "shorten":
        parent[key] = parent[key][: draw(st.integers(0, len(parent[key]) - 1))]
    else:
        parent[key] = draw(swaps[kind])
    return rec


_ABSTRACT = DatasetConfig(n_choices=(2, 3), m_choices=(2,), c_choices=(2, 3), k=4, t=4, recipe=Recipe(alpha=0.0),
                          master_seed=5, vocab_size=64, dim=4, cache_size=4)
_VOCAB = _ABSTRACT.artifacts[0]
# all-CoT records and ones with a stripped context example, so both layouts are mutated
_ABSTRACT_RECORDS = [generate_sequence(_ABSTRACT, j) for j in range(2)]
_ABSTRACT_RECORDS += [strip_sequence_record(rec, 1, make_rng(0), _VOCAB) for rec in _ABSTRACT_RECORDS]
# and an all-plain one, whose c does not enter the stream length
_ALL_PLAIN = generate_sequence(replace(_ABSTRACT, recipe=Recipe(alpha=math.inf)), 0)

_LANGSYM = LangSymConfig(n_choices=(2, 3), m_choices=(2,), c_choices=(2, 3), k=3, t=4, recipe=Recipe(alpha=1.0),
                         master_seed=6, w=3)
_LANGSYM_RECORDS = [generate_langsym_prompt(_LANGSYM, j) for j in range(3)]

_FUZZ = settings(max_examples=700, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def test_the_unmutated_records_build_prompts():
    for rec in _ABSTRACT_RECORDS:
        assert make_eval_prompt(rec, _VOCAB).ground_truth_chain
    for rec in _LANGSYM_RECORDS:
        assert make_langsym_eval_prompt(rec).ground_truth_chain


@_FUZZ
@given(mutated([*_ABSTRACT_RECORDS, _ALL_PLAIN]))
def test_abstract_eval_prompt_of_a_mutated_record_raises_only_record_errors(rec):
    try:
        make_eval_prompt(rec, _VOCAB)
    except ALLOWED:
        pass


@_FUZZ
@given(mutated(_LANGSYM_RECORDS))
def test_langsym_eval_prompt_of_a_mutated_record_raises_only_record_errors(rec):
    try:
        make_langsym_eval_prompt(rec)
    except ALLOWED:
        pass


_CONFIGS = {KIND_ABSTRACT: _ABSTRACT.to_json(), KIND_LANGSYM: _LANGSYM.to_json()}
_MANIFESTS = [
    Manifest(kind=kind, config=config, transforms=[{"kind": "strip-cot", "k_prime": 1, "seed": 3}],
             outputs=[{"path": "part-0000.jsonl", "sha256": "0" * 64, "count": 4}], stats={"items": 4}).to_json()
    for kind, config in _CONFIGS.items()
]
_CONFIG_FUZZ = settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def test_the_unmutated_configs_and_manifests_parse():
    for kind, config in _CONFIGS.items():
        assert parse_config(kind, config).to_json() == config
    for doc in _MANIFESTS:
        assert Manifest.from_json(doc).to_json() == doc


@pytest.mark.parametrize("kind", sorted(_CONFIGS))
@_CONFIG_FUZZ
@given(data=st.data())
def test_parse_config_of_a_mutated_config_raises_only_config_errors(kind, data):
    config = data.draw(mutated([_CONFIGS[kind]], CONFIG_SWAPS))
    try:
        parse_config(kind, config)
    except ConfigError:
        pass


@_CONFIG_FUZZ
@given(mutated(_MANIFESTS, CONFIG_SWAPS))
def test_manifest_from_a_mutated_document_raises_only_what_load_maps_to_exit_2(doc):
    try:
        Manifest.from_json(doc)
    except (KeyError, TypeError, ValueError):
        pass
