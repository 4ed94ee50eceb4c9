"""Finite-difference audit of the analytic loss gradients.

Builds random small instances (embeddings, label space, model, labeled
batch) and compares every analytic parameter gradient against central
finite differences of the batch loss that :func:`loss_gradients` reports.
Cycles through both training modes and the mixing weights {0, 0.6, 1} so
all loss paths get exercised.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, check_seed
from .loss import loss_gradients
from .model import Model, RegionBatch, encode_boxes, init_model
from .semantics import LabelSpace, build_label_space, finalize_embeddings

REL_TOL = 1e-4
ZERO_GUARD = 1e-7
# Finite-difference step: each audited parameter is moved by +-H.
H = 1e-5


def random_batch(
    rng: np.random.Generator, space: LabelSpace, d_f: int, size: int = 4
) -> RegionBatch:
    """Random labeled rows over the seen classes and background.

    Foreground rows get the target of a random proposal box against a
    random gt box; background rows a NaN target.
    """
    ids = list(space.seen_ids) + [space.bg_id]
    features = np.empty((size, d_f))
    ys = np.empty(size, dtype=np.intp)
    boxes = np.empty((size, 4))
    gt_boxes = np.empty((size, 4))
    for i in range(size):
        ys[i] = ids[rng.integers(len(ids))]
        x1, y1 = rng.uniform(0, 50, size=2)
        w, h = rng.uniform(10, 40, size=2)
        boxes[i] = (x1, y1, x1 + w, y1 + h)
        if space.is_seen(int(ys[i])):
            gx1, gy1 = rng.uniform(0, 50, size=2)
            gw, gh = rng.uniform(10, 40, size=2)
            gt_boxes[i] = (gx1, gy1, gx1 + gw, gy1 + gh)
        features[i] = rng.standard_normal(d_f)
    fg = ys <= space.S
    targets = np.full((size, 4), np.nan)
    targets[fg] = encode_boxes(gt_boxes[fg], boxes[fg])
    return RegionBatch(features, ys, targets)


def random_instance(
    rng: np.random.Generator,
    d_f: int = 8,
    d: int = 8,
    n_classes: int = 7,
    n_meta: int = 3,
    batch_size: int = 4,
    mode: str = "full",
) -> tuple[Model, RegionBatch, LabelSpace]:
    """One random model, in training ``mode``, + labeled batch for gradient auditing."""
    labels = [f"c{i}" for i in range(1, n_classes + 1)]
    n_seen = n_classes - max(1, n_classes // 4)
    space = build_label_space(
        labels[:n_seen], labels[n_seen:],
        {label: f"m{i % n_meta + 1}" for i, label in enumerate(labels)},
    )
    table = finalize_embeddings(space.labels, rng.standard_normal((d, n_classes)))
    model = replace(
        init_model(table.w2(space.labels), space, d_f, mode=mode),
        w1=rng.standard_normal((d_f, d)) * 0.5,
        box_w=rng.standard_normal((d_f, 4 * space.S)) * 0.1,
        box_b=rng.standard_normal(4 * space.S) * 0.1,
    )
    return model, random_batch(rng, space, d_f, batch_size), space


def _rel_err(a: float, n: float) -> float:
    scale = max(abs(a), abs(n))
    if scale < ZERO_GUARD:
        return 0.0
    return abs(a - n) / scale


@dataclass(frozen=True)
class AuditResult:
    max_rel_err: float
    trials: int

    @property
    def passed(self) -> bool:
        return self.max_rel_err < REL_TOL


def gradient_audit(trials: int = 100, seed: int = 0) -> AuditResult:
    """Compare analytic gradients to central finite differences.

    Every W1, box-weight, and box-bias entry is perturbed by +-:data:`H`.
    Returns the worst relative error over all trials; the audit passes when
    it is below 1e-4.  ``trials`` must be at least 1, else
    :class:`ConfigError`.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    combos = [(m, l) for m in ("full", "seen_only") for l in (0.0, 0.6, 1.0)]
    worst = 0.0
    for trial in range(trials):
        mode, lam = combos[trial % len(combos)]
        model, batch, space = random_instance(rng, mode=mode)
        _, analytic = loss_gradients(model, batch, space, lam)
        params = {"w1": model.w1, "box_w": model.box_w, "box_b": model.box_b}
        # Every trial sweeps W1; the (cheaper to get wrong, costlier to sweep)
        # box head is audited on every tenth trial.
        keys = ("w1", "box_w", "box_b") if trial % 10 == 0 else ("w1",)
        for key in keys:
            flat = params[key].reshape(-1)
            a_flat = analytic[key].reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + H
                up = loss_gradients(model, batch, space, lam)[0].total
                flat[idx] = orig - H
                down = loss_gradients(model, batch, space, lam)[0].total
                flat[idx] = orig
                numeric = (up - down) / (2.0 * H)
                worst = max(worst, _rel_err(float(a_flat[idx]), numeric))
    return AuditResult(max_rel_err=worst, trials=trials)
