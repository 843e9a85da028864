"""Fuzz of the eval-prompt functions and of config and manifest parsing
with one-field mutations of valid inputs.

Each example takes a valid shard record and changes one field anywhere in
it: deletes a dict key, shortens a list, or swaps the value for None, an
int, a str or a nested list. Building a prompt from the result may only
raise the exceptions `cli._record` maps to exit 3 (or ConfigError, exit
2); anything else, an IndexError say, would be a traceback in `eval`.
Configs and manifests, nested dicts included, get the same mutations with
a float, a bool, a list and a dict among the swaps; parsing them may only
raise what the CLI maps to exit 2. Shard files of both kinds get byte
faults: a cut line, bytes that are not UTF-8, a line that is JSON but no
object, or a listed shard that is gone; reading them may only raise
FormatError or OSError, which every command that reads records maps to
exit 3.
"""

import functools
import json
import math
import operator
import os
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cotforge.cli import main
from cotforge.errors import ConfigError, FormatError
from cotforge.harness import make_eval_prompt, strip_sequence_record
from cotforge.langsym import LangSymConfig, generate_langsym_prompt, make_langsym_eval_prompt
from cotforge.recipe import Recipe
from cotforge.rng import make_rng
from cotforge.sequences import DatasetConfig, generate_sequence
from cotforge.storage import KIND_ABSTRACT, KIND_LANGSYM, Manifest, parse_config, read_records, write_dataset

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


# Byte faults of a shard file. Each fault takes the shard's lines (with
# their newlines) and returns the faulty file's bytes, or None for a shard
# that is gone.
NOT_OBJECTS = {"list": b"[1,2]", "number": b"3", "null": b"null", "string": b'"seq"'}
# a stray byte, a bad continuation byte, an encoded surrogate, a cut 4-byte sequence
INVALID_UTF8 = (b"\xff", b"\xc3(", b"\xed\xa0\x80", b"\xf0\x9f\x98")


@st.composite
def shard_fault(draw):
    kind = draw(st.sampled_from(("truncated", "utf-8", *NOT_OBJECTS, "missing")))
    if kind == "missing":
        return kind, lambda lines: None
    line = draw(st.integers(0, 99))
    at = draw(st.floats(0, 1, exclude_max=True))
    bad = draw(st.sampled_from(INVALID_UTF8))

    def fault(lines):
        i = line % len(lines)
        text = lines[i]
        cut = 1 + int(at * (len(text) - 2))  # inside the line, past its first byte
        if kind == "truncated":  # the file ends mid-line, or a line lost its tail
            return b"".join(lines[:i]) + text[:cut] + (b"" if i == len(lines) - 1 else b"\n" + b"".join(lines[i + 1:]))
        if kind == "utf-8":
            new = text[:cut] + bad + text[cut:]
        else:
            new = NOT_OBJECTS[kind] + b"\n"
        return b"".join([*lines[:i], new, *lines[i + 1:]])

    return kind, fault


@pytest.fixture(scope="module")
def shard_datasets(tmp_path_factory):
    """A two-shard dataset of each kind, all of whose records make prompts."""
    out = {}
    for kind, config in _CONFIGS.items():
        path = str(tmp_path_factory.mktemp(kind))
        write_dataset(path, kind, config, shards=2)
        out[kind] = path
    return out


def _with_fault(path, fault, shard_index):
    """Apply `fault` to shard `shard_index` of the dataset at `path`; returns a function that undoes it."""
    shard = os.path.join(path, Manifest.load(path).outputs[shard_index]["path"])
    with open(shard, "rb") as fh:
        pristine = fh.read()
    faulty = fault(pristine.splitlines(keepends=True))
    if faulty is None:
        os.remove(shard)
    else:
        with open(shard, "wb") as fh:
            fh.write(faulty)

    def undo():
        with open(shard, "wb") as fh:
            fh.write(pristine)

    return undo


@pytest.mark.parametrize("kind", sorted(_CONFIGS))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fault=shard_fault(), shard_index=st.integers(0, 1))
def test_read_records_of_a_faulty_shard_raises_only_format_or_os_errors(shard_datasets, kind, fault, shard_index):
    path = shard_datasets[kind]
    undo = _with_fault(path, fault[1], shard_index)
    try:
        with pytest.raises((FormatError, OSError)):
            list(read_records(path))
    finally:
        undo()
    assert len(list(read_records(path))) == _CONFIGS[kind]["t"]


@pytest.mark.parametrize("fault", ["truncated", "utf-8", *NOT_OBJECTS, "missing"])
@pytest.mark.parametrize("kind", sorted(_CONFIGS))
def test_commands_that_read_a_faulty_shard_exit_3(shard_datasets, tmp_path, capsys, kind, fault):
    faults = {
        "truncated": lambda lines: b"".join(lines)[:-5],
        "utf-8": lambda lines: b"".join([lines[0][:9] + b"\xff" + lines[0][9:], *lines[1:]]),
        **{name: (lambda text: lambda lines: b"".join([*lines[:-1], text + b"\n"]))(text)
           for name, text in NOT_OBJECTS.items()},
        "missing": lambda lines: None,
    }
    path = shard_datasets[kind]
    undo = _with_fault(path, faults[fault], 1)
    evaluate = "eval" if kind == KIND_ABSTRACT else "eval-langsym"
    try:
        for argv in ([evaluate, "--prompts", path, "--backend", "oracle", "--strategy", "think",
                      "--report", str(tmp_path / "report.json")], ["inspect", "--in", path, "--index", "-1"]):
            capsys.readouterr()
            assert main(argv) == 3, argv
            assert "error: " in capsys.readouterr().err
    finally:
        undo()
    assert not (tmp_path / "report.json").exists()
