"""Zero-shot object detection head over precomputed region features.

The package covers the full desk-scale pipeline: semantic embedding
ingestion, a trainable semantic-alignment projection with a box-regression
head, margin/clustering losses with analytic gradients, Adam training with
repetition rebalancing, direct and ConSE-style zero-shot inference, and the
four-task mAP evaluation protocol (detection, meta-class detection, tagging,
meta-class tagging).  A synthetic generator with a known semantic-to-feature
map stands in for the convolutional backbone.
"""

__version__ = "0.1.0"

from .data import (
    Dataset,
    SynthConfig,
    generate_synthetic,
    load_dataset,
    propose_split,
    save_dataset,
)
from .evaluation import (
    DetectionReport,
    GroundTruth,
    average_precision,
    evaluate,
    iou_matrix,
    nms,
    top1_accuracy,
)
from .infer import (
    Detection,
    conse_detect,
    conse_project,
    detect,
    recognize_top1,
    tag_image,
)
from .loss import (
    Gradients,
    LossBreakdown,
    classification_loss,
    clustering_loss,
    loss_gradients,
    max_margin_loss,
)
from .model import (
    Model,
    RegionBatch,
    forward_boxes,
    forward_scores,
    init_model,
    load_checkpoint,
    normalized_scores,
    save_checkpoint,
)
from .semantics import (
    EmbeddingTable,
    LabelSpace,
    build_label_space,
    finalize_embeddings,
    load_word_vectors,
)
from .train import (
    AdamState,
    TrainConfig,
    adam_step,
    compose_batch,
    label_proposals,
    rebalance_dataset,
    train,
)
