"""domusfm: self-supervised representation learning for smart-home event streams.

The pipeline runs in five stages: ingest binary-sensor event streams (or
synthesize them), segment into windows, encode each event from its semantic /
status / temporal attributes, contextualize windows with a transformer, and
pretrain both stages contrastively before fine-tuning lightweight task heads
for activity recognition and next-k event forecasting.
"""

from .allocator import pin_malloc_thresholds
from .context_encoder import contextualize, pool_sequence
from .downstream import (
    AdlHead,
    EventMultiset,
    FinetuneSettings,
    FinetuneStrategy,
    NextKHead,
    TrainItem,
    adl_predict,
    finetune,
    nextk_predict,
    nextk_target,
)
from .embeddings import AttributeEmbeddingTable, fallback_embedding, load_table_tsv
from .evaluation import (
    EvalProtocol,
    LodoConfig,
    MetricReport,
    kfold_splits,
    lodo_run,
    multiset_prf,
    subsample_training,
    weighted_f1,
)
from .event_encoder import ModelConfig
from .events import (
    Event,
    EventStream,
    SemanticState,
    Sensor,
    binarize_continuous,
    clean_alternation,
    extract_time_features,
    merge_streams,
)
from .ingest import (
    Dataset,
    SyntheticHomeSpec,
    build_sampling_plan,
    generate_synthetic_corpus,
    parse_event_csv,
    write_event_csv,
)
from .model import Model
from .pretraining import PretrainConfig, augment_mask_attribute, augment_mask_event, infonce, pretrain
from .segmentation import Window, segment_events, segment_time

__version__ = "0.1.0"

pin_malloc_thresholds()

__all__ = [
    "AdlHead", "AttributeEmbeddingTable", "Dataset", "EvalProtocol", "Event",
    "EventMultiset", "EventStream", "FinetuneSettings", "FinetuneStrategy",
    "LodoConfig", "MetricReport", "Model", "ModelConfig", "NextKHead",
    "PretrainConfig", "SemanticState", "Sensor", "SyntheticHomeSpec", "TrainItem",
    "Window", "adl_predict", "augment_mask_attribute", "augment_mask_event",
    "binarize_continuous", "build_sampling_plan", "clean_alternation",
    "contextualize", "extract_time_features", "fallback_embedding", "finetune",
    "generate_synthetic_corpus", "infonce", "kfold_splits", "load_table_tsv",
    "lodo_run", "merge_streams", "multiset_prf", "nextk_predict", "nextk_target",
    "parse_event_csv", "pool_sequence", "pretrain", "segment_events",
    "segment_time", "subsample_training", "weighted_f1", "write_event_csv",
]
