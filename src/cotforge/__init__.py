"""cotforge: seeded chain-of-thought dataset synthesis and evaluation.

Generates abstract-token reasoning datasets (causal DAGs driving MLP-based
chain tokens, rendered with delimiter tokens and loss masks) and their
string-symbolic chat-formatted counterpart, schedules the mix of
thinking/plain examples with a power-law recipe, and evaluates any greedy
next-token backend under think/answer forcing with stripping of in-context
thinking segments.
"""

__version__ = "0.1.0"
