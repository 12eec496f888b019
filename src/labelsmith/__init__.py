"""labelsmith: turn model-written labeling rules into training data.

The pieces, in pipeline order: task packs and prompt assembly
(``packs``, ``prompting``), the labeling-rule DSL (``dsl``), file
formats (``data``), record files as columns and vote assembly
(``records``), label models (``models``), program diagnostics
(``diagnostics``), concept scores for non-text records (``concepts``),
and the distilled classifier (``distill``).
``cli`` wires them into subcommands. Importing the package imports none
of them, so each command loads only the modules it runs.
"""

__version__ = "0.1.0"
