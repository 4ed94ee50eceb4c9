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
