"""labelsmith: turn model-written labeling rules into training data.

The pieces, in pipeline order: task packs and prompt assembly
(``packs``, ``prompting``), the labeling-rule DSL (``dsl``), vote
assembly and file formats (``data``), label models (``models``),
program diagnostics (``diagnostics``), concept scores for non-text
records (``concepts``), and the distilled classifier (``distill``).
``cli`` wires them into subcommands.
"""

from .data import (
    ABSTAIN,
    ClassSpace,
    DatasetError,
    LabelsmithError,
    Pseudolabels,
    Record,
    VoteMatrix,
    assemble_votes,
    load_dataset,
    load_pseudolabels,
    load_votes,
    save_pseudolabels,
    save_votes,
    serialize_records,
)
from .dsl import (
    DslError,
    DslEvaluationError,
    DslParseError,
    DslValidationError,
    ExtractionError,
    RuleProgram,
    evaluate,
    extract_program,
    format_program,
    parse_program,
)
from .models import (
    FITTERS,
    FitReport,
    LabelModelParams,
    ModelError,
    fit_dawid_skene,
    fit_snorkel_lite,
    fit_triplet,
    load_params,
    make_counting_params,
    predict,
    save_params,
)
from .diagnostics import (
    DiagnosticsError,
    GroupReport,
    ProgramStats,
    analyze,
    coverage_of_label_model,
    group_metrics,
)
from .prompting import (
    GenerationJob,
    HttpTransport,
    MockTransport,
    Pricing,
    PromptError,
    PromptSpec,
    SupplementBlock,
    TransportError,
    build_prompt,
    estimate_cost,
    generate_programs,
)
from .concepts import (
    ConceptError,
    ConceptSet,
    EmbeddingTable,
    elicit_concepts,
    load_embeddings,
    reject_spurious,
    save_embeddings,
    scores_from_embeddings,
)
from .distill import (
    DistillError,
    Features,
    Hyper,
    MLPModel,
    export_training_set,
    featurize,
    load_training_set,
    train_mlp,
)
from .packs import PackError, TaskPack, available_packs, load_pack

__version__ = "0.1.0"
