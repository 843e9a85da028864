"""Fuzz of the eval-prompt functions with one-field mutations of valid records.

Each example takes a valid shard record and changes one field anywhere in
it: deletes a dict key, shortens a list, or swaps the value for None, an
int, a str or a nested list. Building a prompt from the result may only
raise the exceptions `cli._record` maps to exit 3 (or ConfigError, exit
2); anything else, an IndexError say, would be a traceback in `eval`.
"""

import functools
import json
import operator

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cotforge import ConfigError, DatasetConfig, FormatError, LangSymConfig, Recipe, generate_langsym_prompt
from cotforge.harness import make_eval_prompt, strip_sequence_record
from cotforge.langsym import make_langsym_eval_prompt
from cotforge.rng import make_rng
from cotforge.sequences import build_artifacts, generate_sequence

ALLOWED = (ConfigError, FormatError, KeyError, TypeError, ValueError)

SWAPS = {
    "none": st.none(),
    "int": st.integers(),
    "str": st.text(max_size=6),
    "nested": st.lists(st.lists(st.integers(0, 3), max_size=2), max_size=3),
}
MUTATIONS = ("delete", "shorten", *SWAPS)


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
def mutated(draw, records):
    """One of `records` with one field deleted, shortened or swapped."""
    record = draw(st.sampled_from(records))
    kind = draw(st.sampled_from(MUTATIONS))
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
        parent[key] = draw(SWAPS[kind])
    return rec


_ABSTRACT = DatasetConfig(n_choices=(2, 3), m_choices=(2,), c_choices=(2, 3), k=4, t=4, recipe=Recipe(alpha=0.0),
                          master_seed=5, vocab_size=64, dim=4, cache_size=4)
_VOCAB, _EMB, _CACHE = build_artifacts(_ABSTRACT)
# all-CoT records and ones with a stripped context example, so both layouts are mutated
_ABSTRACT_RECORDS = [generate_sequence(_ABSTRACT, j, _VOCAB, _EMB, _CACHE).to_record() for j in range(2)]
_ABSTRACT_RECORDS += [strip_sequence_record(rec, 1, make_rng(0), _VOCAB) for rec in _ABSTRACT_RECORDS]

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
@given(mutated(_ABSTRACT_RECORDS))
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
