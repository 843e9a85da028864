"""In-process span tracing of cotforge's layers, with no change to cotforge.

`Tracer.install` wraps each function named in LAYERS at every place a
caller reaches it: the defining module, every cotforge module that imported
the name, and the class for methods. Each call records a span (name, start,
end, parent span, item id) and bumps a call count; `uninstall` puts the
originals back. A name that no longer exists is listed in `absent` and
skipped, so a later refactor that renames a function does not break the run.

Item ids come from the calls that start work on one dataset item or prompt
(ITEM_ROOTS). The id sticks until the next such call, so the encode and
write that follow an item's generation carry its id.
"""

from __future__ import annotations

import inspect
import sys
import time

# (layer name, module, attribute). Several functions may share a layer name;
# their spans then add up under that name.
LAYERS = [
    ("cli.write_report", "cotforge.cli", "_write_report"),
    ("rng.make_rng", "cotforge.rng", "make_rng"),
    ("rng.choose_distinct", "cotforge.rng", "choose_distinct"),
    ("dag.sample_dag", "cotforge.dag", "sample_dag"),
    ("dag.reaches_answer", "cotforge.dag", "Dag.reaches_answer"),
    ("vocab.sample_embedding_matrix", "cotforge.vocab", "sample_embedding_matrix"),
    ("processors.new_cache", "cotforge.processors", "new_cache"),
    ("processors.sample_processors", "cotforge.processors", "sample_processors"),
    ("processors.chain_tokens_batch", "cotforge.processors", "chain_tokens_batch"),
    ("recipe.r_cot", "cotforge.recipe", "r_cot"),
    ("sequences.build_artifacts", "cotforge.sequences", "build_artifacts"),
    ("sequences.generate_sequence", "cotforge.sequences", "generate_sequence"),
    ("sequences.render", "cotforge.sequences", "render_standard_example"),
    ("sequences.render", "cotforge.sequences", "render_cot_example"),
    ("sequences.render", "cotforge.sequences", "render_example_tokens"),
    ("sequences.to_record", "cotforge.sequences", "Sequence.to_record"),
    ("sequences.from_record", "cotforge.sequences", "Sequence.from_record"),
    ("sequences.parse", "cotforge.sequences", "parse_sequence"),
    ("sequences.parse", "cotforge.sequences", "parse_examples"),
    ("langsym.generate_langsym_prompt", "cotforge.langsym", "generate_langsym_prompt"),
    ("langsym.random_word", "cotforge.langsym", "random_word"),
    ("langsym.string_transform", "cotforge.langsym", "string_transform"),
    ("langsym.render_assistant", "cotforge.langsym", "render_assistant"),
    ("langsym.make_langsym_eval_prompt", "cotforge.langsym", "make_langsym_eval_prompt"),
    ("langsym.force_generate_text", "cotforge.langsym", "force_generate_text"),
    ("langsym.evaluate_langsym", "cotforge.langsym", "evaluate_langsym"),
    ("langsym.TextOracleBackend.complete", "cotforge.langsym", "TextOracleBackend.complete"),
    ("storage.encode_record", "cotforge.storage", "encode_record"),
    ("storage.write_dataset", "cotforge.storage", "write_dataset"),
    ("storage.verify_dataset", "cotforge.storage", "verify_dataset"),
    ("storage.sha256_file", "cotforge.storage", "sha256_file"),
    ("storage.read_records", "cotforge.storage", "read_records"),
    ("harness.strip_sequence_record", "cotforge.harness", "strip_sequence_record"),
    ("harness.make_eval_prompt", "cotforge.harness", "make_eval_prompt"),
    ("harness.force_generate", "cotforge.harness", "force_generate"),
    ("harness.evaluate", "cotforge.harness", "evaluate"),
    ("harness.report", "cotforge.harness", "EvalReport.to_json"),
    ("harness.report", "cotforge.harness", "step_correctness_grid"),
    ("harness.report", "cotforge.harness", "step_dag_breakdown"),
    ("harness.StdioBackend.next_token", "cotforge.harness", "StdioBackend.next_token"),
]

BACKENDS = (
    "harness.StdioBackend.next_token",
    "langsym.TextOracleBackend.complete",
)


_INHERITED = object()


def _lookup(owner, name: str):
    """The raw attribute (function or classmethod) behind owner.name, or None.

    A method a class inherits is found on its base and patched on the
    named class, so sibling classes stay untraced.
    """
    if owner is None:
        return None
    for scope in getattr(owner, "__mro__", (owner,)):
        if name in vars(scope):
            return vars(scope)[name]
    return None


# Layer name -> function of the call's arguments giving the item id.
ITEM_ROOTS = {
    "sequences.generate_sequence": lambda args: args[1],
    "langsym.generate_langsym_prompt": lambda args: args[1],
    "harness.strip_sequence_record": lambda args: args[0]["seq_id"],
    "harness.make_eval_prompt": lambda args: args[0].seq_id,
    "langsym.make_langsym_eval_prompt": lambda args: args[0].prompt_id,
    "harness.force_generate": lambda args: args[1].meta["seq_id"],
    "langsym.force_generate_text": lambda args: args[1].meta["seq_id"],
}


class Tracer:
    """Spans and counts for one traced run, kept in memory until written."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, item id]
        self.bytes_encoded = 0
        self.errors: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._item = None
        self._patches: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def _open(self, name: str, args) -> list:
        root = ITEM_ROOTS.get(name)
        if root is not None:
            try:
                self._item = root(args)
            except (AttributeError, IndexError, KeyError, TypeError):
                self._item = None
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._item]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list, failed: bool) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()
        if failed:
            self.errors[span[0]] = self.errors.get(span[0], 0) + 1

    def _wrap(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # One span per item the generator yields, so the consumer's own
            # work between items is not charged to the generator. The step
            # that finds the generator exhausted is a span (and a call) too.
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    span = tracer._open(name, args)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._close(span, False)
                        return
                    except BaseException:
                        tracer._close(span, True)
                        raise
                    tracer._close(span, False)
                    yield item

        else:

            def wrapper(*args, **kwargs):
                span = tracer._open(name, args)
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    tracer._close(span, True)
                    raise
                tracer._close(span, False)
                if name == "storage.encode_record":  # the bytes every record costs on disk
                    tracer.bytes_encoded += len(result)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # --- patching ------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer function at each name its callers use."""
        self.absent = []
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "cotforge" and m]
        for name, module_name, attr in LAYERS:
            module = sys.modules.get(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = _lookup(owner, fn_name)
            if raw is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            if owner_name:
                if isinstance(raw, classmethod):
                    self._set(owner, fn_name, classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._set(owner, fn_name, self._wrap(name, raw))
                continue
            wrapper = self._wrap(name, raw)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._set(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # --- summaries -----------------------------------------------------------

    def _self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, total seconds and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _, _), own in zip(self.spans, self._self_times()):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += own
        return out

    def split(self, scope: str) -> dict[str, float]:
        """Share of the time inside `scope` spans that each layer spends itself.

        Parents are recorded before their children, so one forward pass
        finds, for every span, the `scope` span it runs under (if any).
        """
        under: list[int] = []
        time_in: dict[str, float] = {}
        total = 0.0
        for i, ((name, start, end, parent, _), own) in enumerate(zip(self.spans, self._self_times())):
            if name == scope:
                under.append(i)
                total += end - start
            else:
                under.append(under[parent] if parent >= 0 else -1)
            if under[i] >= 0:
                time_in[name] = time_in.get(name, 0.0) + own
        return {name: t / total for name, t in time_in.items()} if total else {}

    def reset(self) -> None:
        self.spans.clear()
        self.bytes_encoded = 0
        self.errors.clear()
        self._item = None
