"""rankforge: a desk-scale toolkit for fine-tuning point-wise re-rankers.

BM25 retrieval feeds a small differentiable scorer that is fine-tuned with
contrastive learning over sampled negatives, ranking distillation from
teacher orderings, or both in sequence. Evaluation covers AP, nDCG@10, and
MRR@10 with paired significance testing and marker-annotated comparison
tables. Everything is deterministic given explicit seeds.
"""

from .data import (
    ContrastiveInstance,
    Corpus,
    Document,
    Qrels,
    Query,
    Ranking,
    RunEntry,
    TeacherRanking,
    parse_corpus,
    parse_path,
    parse_qrels,
    parse_queries,
    parse_run,
    parse_teacher,
    write_run,
)
from .errors import DataError, ParseError, RankforgeError
from .evaluation import (
    ComparisonTable,
    MetricReport,
    MetricSpec,
    SignificanceResult,
    SystemResult,
    build_table,
    compute_metric,
    evaluate_all,
    evaluate_run,
    paired_ttest,
    rerank,
    report_csv,
)
from .experiment import (
    ExperimentConfig,
    NamedPlan,
    choose_positive,
    default_plan_specs,
    load_config,
    prepare,
    run_experiment,
)
from .losses import LossOutput, bce, lce, ranknet
from .retrieval import (
    Bm25Params,
    InvertedIndex,
    bm25_score,
    build_index,
    retrieve_topk,
    tokenize,
)
from .rng import SplitMix64, substream
from .sampling import SamplerConfig, sample_hard, sample_instance, sample_random
from .scorer import (
    ScorerConfig,
    ScorerParams,
    ScoringContext,
    extract_features,
    init_params,
    load_params,
    save_params,
)
from .synth import SynthDataset, SynthSpec, generate, write_dataset
from .training import (
    OptimizerState,
    QueryExample,
    StageConfig,
    TrainLog,
    TrainPlan,
    adamw_step,
    preset_plan,
    run_plan,
    run_stage,
    split_train_val,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "RankforgeError", "ParseError", "DataError",
    # data
    "Query", "Document", "Corpus", "RunEntry", "Ranking", "Qrels",
    "TeacherRanking", "ContrastiveInstance", "parse_corpus", "parse_queries",
    "parse_qrels", "parse_run", "write_run", "parse_teacher", "parse_path",
    # retrieval
    "Bm25Params", "InvertedIndex", "tokenize", "build_index", "bm25_score",
    "retrieve_topk",
    # scorer
    "ScorerConfig", "ScorerParams", "ScoringContext", "extract_features",
    "init_params", "save_params", "load_params",
    # losses
    "LossOutput", "lce", "ranknet", "bce",
    # sampling
    "SamplerConfig", "sample_hard", "sample_random", "sample_instance",
    # training
    "OptimizerState", "StageConfig", "TrainPlan", "TrainLog", "QueryExample",
    "adamw_step", "run_stage", "run_plan", "split_train_val", "preset_plan",
    # evaluation
    "MetricSpec", "MetricReport", "SignificanceResult", "SystemResult",
    "ComparisonTable", "rerank", "compute_metric", "evaluate_run",
    "evaluate_all", "paired_ttest", "build_table", "report_csv",
    # synth
    "SynthSpec", "SynthDataset", "generate", "write_dataset",
    # experiment
    "ExperimentConfig", "NamedPlan", "load_config", "default_plan_specs",
    "run_experiment", "prepare", "choose_positive",
    # rng
    "SplitMix64", "substream",
]
