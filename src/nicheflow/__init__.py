"""nicheflow: niching multi-objective evolution of heterogeneous agentic
workflow DAGs, with a deterministic simulated model pool for offline runs."""

from .bench import (
    DomainSpec,
    SyntheticSuite,
    generate_suite,
    hypervolume,
    pareto_front,
    population_hypervolume,
)
from .embedding import HashingEmbedder, cosine, similarity_score
from .errors import (
    BudgetExceeded,
    ConfigError,
    GenomeParseError,
    InvalidInput,
    InvalidState,
    NicheflowError,
    ProviderError,
    StorageError,
    StructureError,
    TemplateError,
    UnknownModel,
)
from .evolution import (
    EvolutionConfig,
    EvolveDeps,
    NichingPool,
    ObjectivePoint,
    Population,
    StepReport,
    crossover,
    dominates,
    environmental_selection,
    epsilon_indicator,
    evolve_step,
    fitness,
    infer,
    init_population,
    make_evolver,
    mutate_llm,
    mutate_operator,
    mutate_prompt,
    niching_area,
    select_parents,
    update_stats,
)
from .executor import ExecutionTrace, TaskQuery, evaluate, execute, run_operator
from .genome import (
    InvokingNode,
    ModelPool,
    ModelSpec,
    OperatorNode,
    RunStats,
    WorkflowGenome,
    content_hash,
    deserialize,
    serialize,
    validate,
)
from .memory import LlmExperiencePool, WorkflowExperiencePool
from .provider import (
    ChatRequest,
    ChatResponse,
    Evolver,
    HttpProvider,
    SimModelProfile,
    SimulatedProvider,
    call_cost,
)

__version__ = "0.1.0"
