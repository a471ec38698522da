"""Continuous multi-dimensional cognitive steering of flow-matching
velocity fields, with closed-form desk-scale semantics, a counterbalanced
prompt-polarization pipeline, and a verification harness."""

from .blend import AnchorFields, BlendedField, BlendSpec
from .cogspace import (
    CognitiveAnchor,
    CognitiveSpace,
    DimensionSpec,
    ScoreVector,
    anchor_weight,
    enumerate_anchors,
    weight_vector,
)
from .errors import (
    BackendError,
    BindingError,
    CogflowError,
    ConfigError,
    ContractViolation,
    DivergenceError,
    SpaceMismatchError,
)
from .flow import (
    AffineDecoder,
    GenerationRequest,
    IdentityDecoder,
    IntegrationConfig,
    SampleBatch,
    build_blend_spec,
    generate,
    integrate,
    moment_reference,
    write_sample_batch,
)
from .harness import (
    Criterion,
    ExperimentConfig,
    MetricsReport,
    continuity_sweep,
    cost_accounting,
    emit_report,
    order_bias_experiment,
    run_experiment,
    stochastic_equivalence,
    vertex_recovery,
)
from .polarize import (
    LlmBackend,
    PolarizationCache,
    PolarizedPromptSet,
    PolarizerBackend,
    PromptChain,
    TemplateBackend,
    build_all_sets,
    build_chain_orders,
    build_prompt_set,
    polarize_once,
)
from .semantics import (
    GaussianTargetField,
    MixtureTargetField,
    SemanticModel,
    TargetDistribution,
    VelocityField,
    bind,
    gaussian_field,
    monte_carlo_velocity,
)

__version__ = "0.1.0"
