"""cotforge: seeded chain-of-thought dataset synthesis and evaluation.

Generates abstract-token reasoning datasets (causal DAGs driving MLP-based
chain tokens, rendered with delimiter tokens and loss masks) and their
string-symbolic chat-formatted counterpart, schedules the mix of
thinking/plain examples with a power-law recipe, and evaluates any greedy
next-token backend under think/answer forcing with stripping of in-context
thinking segments.
"""

__version__ = "0.1.0"

from .dag import Dag, sample_dag, validate_dag
from .errors import BackendError, ConfigError, FormatError
from .harness import (
    FORCE_ANSWER,
    FORCE_THINK,
    FORMAT_FAILURE,
    NO_FORCING,
    EvalPrompt,
    EvalReport,
    ForcingConfig,
    OracleBackend,
    RandomBackend,
    StdioBackend,
    evaluate,
    extract_answer,
    force_generate,
    make_eval_prompt,
    step_correctness_grid,
    step_dag_breakdown,
)
from .langsym import (
    LangSymConfig,
    Templates,
    extract_langsym_answer,
    extract_steps,
    generate_langsym_dataset,
    generate_langsym_prompt,
    random_word,
    string_transform,
)
from .processors import Mlp, new_cache, sample_processors
from .recipe import BudgetReport, Recipe, expected_cot_examples, expected_tokens, r_cot
from .sequences import (
    DatasetConfig,
    Sequence,
    generate_dataset,
    generate_sequence,
    parse_sequence,
    render_cot_example,
    render_standard_example,
)
from .vocab import EmbeddingMatrix, Vocabulary, sample_embedding_matrix

__all__ = [
    "__version__",
    "BackendError",
    "BudgetReport",
    "ConfigError",
    "Dag",
    "DatasetConfig",
    "EmbeddingMatrix",
    "EvalPrompt",
    "EvalReport",
    "FORCE_ANSWER",
    "FORCE_THINK",
    "FORMAT_FAILURE",
    "ForcingConfig",
    "FormatError",
    "LangSymConfig",
    "Mlp",
    "NO_FORCING",
    "OracleBackend",
    "RandomBackend",
    "Recipe",
    "Sequence",
    "StdioBackend",
    "Templates",
    "Vocabulary",
    "evaluate",
    "expected_cot_examples",
    "expected_tokens",
    "extract_answer",
    "extract_langsym_answer",
    "extract_steps",
    "force_generate",
    "generate_dataset",
    "generate_langsym_dataset",
    "generate_langsym_prompt",
    "generate_sequence",
    "make_eval_prompt",
    "new_cache",
    "parse_sequence",
    "r_cot",
    "random_word",
    "render_cot_example",
    "render_standard_example",
    "sample_dag",
    "sample_embedding_matrix",
    "sample_processors",
    "step_correctness_grid",
    "step_dag_breakdown",
    "string_transform",
    "validate_dag",
]
