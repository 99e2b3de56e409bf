"""Desk-scale federated learning: synthetic blobs, prox-regularized local SGD,
inverse-probability-weighted aggregation and global evaluation.

The task is 10-class multinomial logistic regression on Gaussian clusters whose
means sit on scaled coordinate axes.  Model weights travel as one flat float64
vector laid out as [W.ravel(), b] for W of shape (num_classes, feature_dim).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import ConfigError


class Partition:
    """One vehicle's local dataset.

    Made from its arrays, or from its labels and a function that draws the
    features: those are drawn on first read and then kept.
    """

    def __init__(self, features=None, labels=None, draw_features=None):
        if (features is None) == (draw_features is None):
            raise ValueError("a partition takes exactly one of features and draw_features")
        if features is not None:
            self.features = features
        self.labels = labels  # (n,) int64 in [0, num_classes)
        self._draw_features = draw_features

    @functools.cached_property
    def features(self):
        """(n, d) float64."""
        feats = self._draw_features()
        self._draw_features = None
        return feats

    @property
    def size(self):
        return len(self.labels)


@dataclass
class ClientUpdate:
    """One successfully received local model plus its reweighting statistics."""

    vehicle_id: int
    weights: np.ndarray
    data_size: int
    inclusion_prob: float  # u in (0, 1]
    success_prob: float  # P(success | estimate) in (0, 1]


def init_weights(num_classes, feature_dim):
    return np.zeros(num_classes * feature_dim + num_classes)


def _unpack(w, num_classes, feature_dim):
    mat = w[: num_classes * feature_dim].reshape(num_classes, feature_dim)
    bias = w[num_classes * feature_dim:]
    return mat, bias


def class_means(num_classes, feature_dim, separation):
    """Cluster centers: separation * e_c on the first num_classes axes."""
    means = np.zeros((num_classes, feature_dim))
    means[np.arange(num_classes), np.arange(num_classes)] = separation
    return means


def sample_blob(rng, labels, num_classes, feature_dim, separation):
    """Unit-covariance Gaussian samples around the class means."""
    means = class_means(num_classes, feature_dim, separation)
    return means[labels] + rng.standard_normal((len(labels), feature_dim))


def make_partition(rng, cfg):
    """One vehicle's partition under the configured iid/non-iid scheme.

    `rng` is the vehicle's own generator, or a function of no arguments that
    makes it.  The labels, and so the size, are drawn here; the features are
    drawn from the same generator when first read, so a partition that is
    never trained on draws none.  Iid labels take no draw, so the generator is
    only made then.
    """
    c, d, sep = cfg.num_classes, cfg.feature_dim, cfg.class_separation
    if cfg.partitioning == "iid":
        labels = _iid_labels(c, cfg.samples_per_class)
    else:
        rng = _generator(rng)
        k = int(rng.integers(1, cfg.noniid_max_classes + 1))
        classes = rng.choice(c, size=k, replace=False)
        count = int(rng.integers(cfg.noniid_min_samples, cfg.noniid_max_samples + 1))
        if count < k:
            raise ConfigError("non-iid sample count below number of drawn classes")
        # spread samples as evenly as possible so every drawn class appears
        per = [count // k + (1 if i < count % k else 0) for i in range(k)]
        labels = np.concatenate([np.full(n, cls, dtype=np.int64) for cls, n in zip(classes, per)])
    return Partition(labels=labels,
                     draw_features=lambda: sample_blob(_generator(rng), labels, c, d, sep))


@functools.lru_cache(maxsize=None)
def _iid_labels(num_classes, samples_per_class):
    """The labels all iid partitions share, read-only: samples_per_class of each class in turn."""
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), samples_per_class)
    labels.flags.writeable = False
    return labels


def _generator(rng):
    return rng if isinstance(rng, np.random.Generator) else rng()


def make_test_set(rng, cfg):
    labels = np.repeat(np.arange(cfg.num_classes), cfg.test_samples_per_class).astype(np.int64)
    feats = sample_blob(rng, labels, cfg.num_classes, cfg.feature_dim, cfg.class_separation)
    return feats, labels


def loss_and_grad(w, features, labels, num_classes, ref=None, mu=0.0):
    """Mean cross-entropy of the softmax model plus (mu/2)|w - ref|^2, with gradient."""
    n, d = features.shape
    mat, bias = _unpack(w, num_classes, d)
    logits = features @ mat.T + bias
    logits -= logits.max(axis=1, keepdims=True)
    expl = np.exp(logits)
    probs = expl / expl.sum(axis=1, keepdims=True)
    idx = np.arange(n)
    # the same bits as np.mean, in a third of the time on a mini-batch
    loss = -(np.log(probs[idx, labels] + 1e-300).sum() / n)
    delta = probs
    delta[idx, labels] -= 1.0
    delta /= n
    grad = np.concatenate([(delta.T @ features).ravel(), delta.sum(axis=0)])
    if mu != 0.0:
        if ref is None:
            raise ValueError("prox term requires a reference weight vector")
        diff = w - ref
        loss += 0.5 * mu * float(diff @ diff)
        grad += mu * diff
    return loss, grad


def lr_schedule(round_idx, base, decay_rounds):
    """Step-decayed learning rate: base / (1 + floor(t / decay_rounds))."""
    return base / (1.0 + round_idx // decay_rounds)


def local_train(weights_in, partition: Partition, global_ref, cfg, rng, lr,
                epochs=None, batch_size=None, momentum=None, mu=None):
    """Mini-batch momentum SGD on the local loss plus proximal pull toward global_ref.

    Deterministic given the rng stream; batches are reshuffled every epoch from
    that stream.  Returns the trained flat weights.
    """
    epochs = cfg.local_epochs if epochs is None else epochs
    batch_size = cfg.batch_size if batch_size is None else batch_size
    momentum = cfg.momentum if momentum is None else momentum
    mu = cfg.prox_mu if mu is None else mu
    w = np.array(weights_in, dtype=float, copy=True)
    vel = np.zeros_like(w)
    n = partition.size
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            sel = order[start:start + batch_size]
            loss, grad = loss_and_grad(w, partition.features[sel], partition.labels[sel],
                                       cfg.num_classes, ref=global_ref, mu=mu)
            if not math.isfinite(loss):
                raise RuntimeError(
                    f"non-finite local loss ({loss}) at lr={lr}, batch of {len(sel)} samples")
            vel = momentum * vel + grad
            w -= lr * vel
    return w


def aggregate(updates, total_data, global_prev, anchored=False):
    """Combine received models, amplifying rarely-included or outage-prone senders.

    Default: w' = sum_v (D_v / D) * w_v / (u_v * p_v) over the received set.
    Anchored: the same correction applied to deltas from the previous global,
    w' = w_prev + sum_v (D_v / D) * (w_v - w_prev) / (u_v * p_v), which keeps
    the update unbiased around the full-participation average while staying
    anchored at w_prev in unlucky rounds.  Empty input returns global_prev.
    """
    if not updates:
        return np.array(global_prev, copy=True)
    if total_data <= 0:
        raise ValueError(f"total_data must be > 0, got {total_data}")
    out = np.array(global_prev, copy=True) if anchored else np.zeros_like(np.asarray(global_prev, dtype=float))
    for upd in sorted(updates, key=lambda u: u.vehicle_id):
        if upd.inclusion_prob <= 0 or upd.success_prob <= 0:
            raise ValueError(
                f"vehicle {upd.vehicle_id}: inclusion/success probabilities must be > 0 "
                f"(got u={upd.inclusion_prob}, p={upd.success_prob})")
        scale = upd.data_size / (total_data * upd.inclusion_prob * upd.success_prob)
        if anchored:
            out += scale * (upd.weights - global_prev)
        else:
            out += scale * upd.weights
    return out


def evaluate(weights, features, labels, num_classes):
    """Top-1 accuracy and mean cross-entropy on a held-out set."""
    if len(labels) == 0:
        raise ValueError("empty test set")
    loss, _ = loss_and_grad(weights, features, labels, num_classes)
    mat, bias = _unpack(weights, num_classes, features.shape[1])
    pred = np.argmax(features @ mat.T + bias, axis=1)
    return float(np.mean(pred == labels)), float(loss)


def convergence_proxy(stats):
    """Scheduling-quality score sum_v (D_v/D) (1/(u_v p_v) - 1); 0 iff every u*p = 1.

    stats: iterable of (data_size, inclusion_prob, success_prob).
    """
    stats = list(stats)
    total = sum(s[0] for s in stats)
    if total <= 0:
        return 0.0
    acc = 0.0
    for d, u, p in stats:
        if u <= 0 or p <= 0:
            return math.inf
        acc += (d / total) * (1.0 / (u * p) - 1.0)
    return float(acc)

