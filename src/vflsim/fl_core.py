"""Desk-scale federated learning: synthetic blobs, prox-regularized local SGD,
inverse-probability-weighted aggregation and global evaluation.

The task is 10-class multinomial logistic regression on Gaussian clusters whose
means sit on scaled coordinate axes.  Model weights travel as one flat float64
vector laid out as [W.ravel(), b] for W of shape (num_classes, feature_dim).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class Partition:
    """One vehicle's local dataset."""

    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64 in [0, num_classes)

    @property
    def size(self):
        return len(self.labels)


def init_weights(num_classes, feature_dim):
    return np.zeros(num_classes * feature_dim + num_classes)


def _logits(w, features, num_classes, one=()):
    """features @ W^T + b, for any leading dimensions shared by w and features.

    `one` indexes the problems, along the first leading dimension, whose batch
    has one valid sample at the head of a wider padded one.  numpy runs a
    one-row slice as a gemv, whose bits differ from the gemm's, so their first
    row gets its logits from its own one-row product: that keeps an unpadded
    batch's bits, which determinism alone would not need.
    """
    cd = num_classes * features.shape[-1]
    mat = w[..., :cd].reshape(w.shape[:-1] + (num_classes, features.shape[-1]))
    logits = features @ mat.swapaxes(-1, -2)
    logits += w[..., None, cd:]
    if len(one):
        logits[one, :1] = _logits(w[one], features[one, :1], num_classes)
    return logits


def _softmax(logits):
    """Softmax probabilities along the last axis, computed in place of the logits."""
    # the row max as a running maximum down the columns of a transposed copy:
    # numpy reduces a short last axis one row at a time.  It can differ from
    # .max only in the sign of a zero maximum, and subtracting either zero
    # gives every logit's exp the same bits
    c = logits.shape[-1]
    top = np.maximum.reduce(logits.reshape(-1, c).T.copy(), axis=0)
    logits -= top.reshape(logits.shape[:-1] + (1,))
    probs = np.exp(logits, out=logits)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def _softmax_loss(logits, labels, rows=None):
    """Softmax probabilities, computed in place of the logits, and the mean cross-entropy.

    Also returns the flat index of each sample's own class in the
    probabilities, and the padding mask.  With rows (one leading dimension),
    problem k's mean runs over its first rows[k] samples and the mask marks the
    samples past them; without, it is None.
    """
    probs = _softmax(logits)
    hit = np.arange(labels.size) * probs.shape[-1] + labels.ravel()
    logp = np.log(probs.reshape(-1)[hit].reshape(labels.shape) + 1e-300)
    if rows is None:
        # the same bits as np.mean, in a third of the time on a mini-batch
        return probs, -(logp.sum(axis=-1) / labels.shape[-1]), hit, None
    pad = np.arange(labels.shape[-1]) >= rows[:, None]
    logp[pad] = 0.0  # assigned, not multiplied: nan * 0 is nan
    return probs, -(logp.sum(axis=-1) / rows), hit, pad


def _gradient(delta, features, hit, pad, rows, out, diff, w, ref, mu):
    """Write into `out` the gradient of the mean cross-entropy plus (mu/2)|w - ref|^2.

    `delta` holds the softmax probabilities and becomes, in place, the loss's
    derivative in the logits: 1 comes off at each sample's own class (`hit`,
    flat indices), the padded samples (`pad`, or None) are zeroed, and each
    problem is divided by its count of samples (`rows`, broadcast against
    delta).  With mu, `diff` (shaped like out) receives w - ref.  This is the
    one backward pass: loss_and_grad and each lockstep step of local_train
    run it.
    """
    delta.reshape(-1)[hit] -= 1.0
    if pad is not None:
        delta[pad] = 0.0  # assigned, not multiplied: nan * 0 is nan
    delta /= rows
    c, d = delta.shape[-1], features.shape[-1]
    np.matmul(delta.swapaxes(-1, -2), features,
              out=out[..., :c * d].reshape(out.shape[:-1] + (c, d)))
    # the sum over samples, accumulated in sample order as delta.sum(axis=-2)
    # does, but down the rows of a copy with the samples first: numpy would
    # run one short inner loop per sample and problem
    np.add.reduce(np.moveaxis(delta, -2, 0).copy(), axis=0, out=out[..., c * d:])
    if mu != 0.0:
        if ref is None:
            raise ValueError("prox term requires a reference weight vector")
        np.subtract(w, ref, out=diff)
        out += mu * diff
    return out


@functools.lru_cache(maxsize=None)
def class_means(num_classes, feature_dim, separation):
    """Cluster centers, read-only: separation * e_c on the first num_classes axes."""
    means = np.zeros((num_classes, feature_dim))
    means[np.arange(num_classes), np.arange(num_classes)] = separation
    means.flags.writeable = False
    return means


def sample_blob(rng, labels, num_classes, feature_dim, separation):
    """Unit-covariance Gaussian samples around the class means."""
    means = class_means(num_classes, feature_dim, separation)
    return means[labels] + rng.standard_normal((len(labels), feature_dim))


def make_partition(rng, cfg, drawn=None):
    """One vehicle's partition under the configured iid/non-iid scheme, drawn from
    `rng`, the vehicle's own generator: its labels, then its features.

    `drawn`, when given, is the non-iid label draw `(classes, count)` that
    partition_sizes already took from `rng`, which continues after it.
    """
    c = cfg.num_classes
    if cfg.partitioning == "iid":
        labels = _iid_labels(c, cfg.samples_per_class)
    else:
        classes, count = _noniid_draw(rng, cfg) if drawn is None else drawn
        # spread samples as evenly as possible so every drawn class appears
        k = len(classes)
        per = [count // k + (1 if i < count % k else 0) for i in range(k)]
        labels = np.concatenate([np.full(n, cls, dtype=np.int64) for cls, n in zip(classes, per)])
    return Partition(sample_blob(rng, labels, c, cfg.feature_dim, cfg.class_separation), labels)


def partition_sizes(ids, rng_of, cfg):
    """Dataset size of each vehicle in `ids`, as make_partition(rng_of(vid), cfg) draws it,
    and the label draws made for them.

    Iid sizes are all equal and take no draw, and the draws are {}.  A non-iid
    size is fixed by the vehicle's label draw, made here: the draws map each
    id to its generator, positioned after the draw, and the draw, which
    make_partition takes as `drawn` when the vehicle first trains.
    """
    if cfg.partitioning == "iid":
        return np.full(len(ids), cfg.num_classes * cfg.samples_per_class, dtype=np.int64), {}
    draws = {}
    for vid in ids:
        rng = rng_of(vid)
        draws[vid] = rng, _noniid_draw(rng, cfg)
    return np.array([count for _, (_, count) in draws.values()], dtype=np.int64), draws


def _noniid_draw(rng, cfg):
    """The classes a non-iid partition holds and its sample count."""
    k = int(rng.integers(1, cfg.noniid_max_classes + 1))
    classes = rng.choice(cfg.num_classes, size=k, replace=False)
    count = int(rng.integers(cfg.noniid_min_samples, cfg.noniid_max_samples + 1))
    return classes, count


@functools.lru_cache(maxsize=None)
def _iid_labels(num_classes, samples_per_class):
    """The labels all iid partitions share, read-only: samples_per_class of each class in turn."""
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), samples_per_class)
    labels.flags.writeable = False
    return labels


def make_test_set(rng, cfg):
    labels = np.repeat(np.arange(cfg.num_classes), cfg.test_samples_per_class).astype(np.int64)
    feats = sample_blob(rng, labels, cfg.num_classes, cfg.feature_dim, cfg.class_separation)
    return feats, labels


def loss_and_grad(w, features, labels, num_classes, ref=None, mu=0.0, rows=None):
    """Mean cross-entropy of the softmax model plus (mu/2)|w - ref|^2, with gradient.

    Leading dimensions of w (..., p), features (..., n, d) and labels (..., n)
    index independent problems, and the loss and gradient keep them.  Each
    problem gets the same bits as its own call: the matmuls run one BLAS call
    per 2-D slice, and every other step is elementwise or reduces along the
    same axis.

    rows, given with one leading dimension, holds each problem's count of
    valid samples; the samples past it are padding, which must be finite.
    Their delta rows are set to 0 and the loss sums the valid samples only: it
    is finite exactly when the unpadded loss is, though its last bits may
    differ.  A problem with one valid row among wider ones gets its logits
    from its own one-row product, as an unpadded call would (see _logits).
    A padded problem's gradient has the unpadded one's bits only where a gemm
    row keeps its bits for every row count of 2 or more and zero delta rows add
    nothing to `delta^T @ X`: not under OpenBLAS's Haswell or Prescott kernels.
    """
    n = labels.shape[-1]
    one = np.flatnonzero(rows == 1) if rows is not None and n > 1 else ()
    delta, loss, hit, pad = _softmax_loss(_logits(w, features, num_classes, one), labels, rows)
    grad, diff = np.empty(w.shape), np.empty(w.shape)
    _gradient(delta, features, hit, pad, n if rows is None else rows[:, None, None],
              grad, diff, w, ref, mu)
    if mu != 0.0:
        loss += 0.5 * mu * (diff[..., None, :] @ diff[..., :, None])[..., 0, 0]
    return loss, grad


def lr_schedule(round_idx, base, decay_rounds):
    """Step-decayed learning rate: base / (1 + floor(t / decay_rounds))."""
    return base / (1.0 + round_idx // decay_rounds)


def local_train(weights_in, partitions, global_ref, cfg, rngs, lr):
    """Momentum SGD of each partition from weights_in, with a proximal pull toward global_ref.

    Vehicle k trains on partitions[k] and reshuffles its batches every epoch
    from rngs[k]; the trained flat weights come back in the same order.  All
    vehicles take their SGD steps in lockstep: each step runs one forward and
    backward pass over every vehicle still training, each batch padded by
    repeating its last sample to one width, min(batch_size, the largest
    partition the config can draw).  A vehicle's bits depend only on its
    partition, its stream and the config: no operation mixes the rows of
    different vehicles, and its gemms have the same shapes whoever trains
    beside it.  That they also equal an unpadded loop's bits, and so the
    stored goldens', rests on row-stable gemms (see loss_and_grad).

    A step computes no loss: it checks that each gradient's bias part is
    finite, which fails exactly when a vehicle's mean cross-entropy does, and
    that every entry of w - global_ref lies where the pull's square cannot
    overflow.  Only when a check fails does the step compute the loss, and it
    raises if the loss is not finite.
    """
    if not partitions:
        return []
    c, epochs, batch_size, mu = cfg.num_classes, cfg.local_epochs, cfg.batch_size, cfg.prox_mu
    n = np.array([part.size for part in partitions], dtype=np.int64)
    per_epoch = -(-n // batch_size)  # batches per epoch
    # most batches first: the vehicles still training at a step are then the
    # first rows of the stack, and their weights are a view
    rank = np.argsort(-per_epoch, kind="stable")
    n, per_epoch = n[rank], per_epoch[rank]
    # the features are copied once per round and gathered once per step: a
    # copy of every step's batch up front would raise peak memory
    features = np.concatenate([partitions[k].features for k in rank.tolist()]) if epochs else None
    labels = np.concatenate([partitions[k].labels for k in rank.tolist()])
    first = np.cumsum(n) - n  # each vehicle's first row in the round's arrays
    # every epoch's sample order, drawn up front from each vehicle's own
    # stream: row i of the stack has its epochs one after another from
    # epochs * first[i]
    orders = np.empty(epochs * len(labels), dtype=np.int64)
    for k, f, size in zip(rank.tolist(), first.tolist(), n.tolist()):
        for epoch in range(epochs):
            at = epochs * f + epoch * size
            np.add(rngs[k].permutation(size), f, out=orders[at:at + size])

    # the step plan, made once per round over dense (step, vehicle, slot)
    # arrays: vehicle v trains at step s < steps[v] on length[s, v] samples,
    # padded by repeating the last; a finished vehicle repeats its last step
    steps = epochs * per_epoch
    s = np.arange(steps[0])[:, None]
    live = s < steps
    m = np.count_nonzero(live, axis=1)  # vehicles still training
    epoch, batch = np.divmod(np.minimum(s, steps - 1), np.maximum(per_epoch, 1))
    length = np.minimum(n - batch * batch_size, batch_size)
    # one width, whoever trains: the longest batch the config draws, or a larger partition's
    largest = c * cfg.samples_per_class if cfg.partitioning == "iid" else cfg.noniid_max_samples
    width = min(batch_size, max(largest, int(n.max())))
    slot = np.arange(width)
    rows = orders[(epochs * first + epoch * n + batch * batch_size)[..., None]
                  + np.minimum(slot, length[..., None] - 1)]
    row_labels = labels[rows]
    # the flat index of each slot's own class in its step's (k, width, c) probabilities
    hit = (np.arange(len(n))[:, None] * width + slot) * c + row_labels
    pad = slot >= length[..., None]
    padded = ((length < width) & live).any(axis=1).tolist()
    one = live & (length == 1) & (width > 1)
    ones = one.any(axis=1).tolist()
    divisor = length.astype(float)[..., None, None]

    w = np.tile(np.asarray(weights_in, dtype=float), (len(partitions), 1))
    vel = np.zeros_like(w)
    grad, diff = np.empty_like(w), np.empty_like(w)
    # with every |w_i - ref_i| within reach, (mu/2)|w - ref|^2 stays below 1/8 of the float range
    reach = math.sqrt(sys.float_info.max / (4.0 * w.shape[1] * max(1.0, mu)))
    for step, k in enumerate(m.tolist()):
        x = np.take(features, rows[step, :k], axis=0)
        w_k, vel_k, grad_k, diff_k = w[:k], vel[:k], grad[:k], diff[:k]
        delta = _softmax(_logits(w_k, x, c, np.flatnonzero(one[step]) if ones[step] else ()))
        _gradient(delta, x, hit[step, :k], pad[step, :k] if padded[step] else None,
                  divisor[step, :k], grad_k, diff_k, w_k, global_ref, mu)
        if not (np.isfinite(grad_k[:, -c:]).all()
                and (mu == 0.0 or -reach <= diff_k.min() and diff_k.max() <= reach)):
            loss, _ = loss_and_grad(w_k, x, row_labels[step, :k], c,
                                    ref=global_ref, mu=mu, rows=length[step, :k])
            bad = ~np.isfinite(loss)
            if bad.any():
                raise RuntimeError(f"non-finite local loss ({loss[bad][0]}) "
                                   f"at lr={lr}, batch of {length[step, :k][bad][0]} samples")
        # vel = momentum * vel + grad; w -= lr * vel
        vel_k *= cfg.momentum
        vel_k += grad_k
        w_k -= lr * vel_k
    return list(w[np.argsort(rank)])


def aggregate(weights, data_sizes, inclusion_probs, success_probs, total_data, global_prev,
              anchored=False):
    """Combine received models, amplifying rarely-included or outage-prone senders.

    `weights` are the received models and `data_sizes`, `inclusion_probs` and
    `success_probs` their D_v, u_v and p_v, aligned with them; the models are
    added in the order given.
    Default: w' = sum_v (D_v / D) * w_v / (u_v * p_v) over the received set.
    Anchored: the same correction applied to deltas from the previous global,
    w' = w_prev + sum_v (D_v / D) * (w_v - w_prev) / (u_v * p_v), which keeps
    the update unbiased around the full-participation average while staying
    anchored at w_prev in unlucky rounds.  Empty input returns global_prev.
    """
    if not len(weights):
        return np.array(global_prev, copy=True)
    if total_data <= 0:
        raise ValueError(f"total_data must be > 0, got {total_data}")
    out = np.array(global_prev, copy=True) if anchored else np.zeros_like(np.asarray(global_prev, dtype=float))
    for k, (w, d, u, p) in enumerate(zip(weights, data_sizes, inclusion_probs, success_probs,
                                         strict=True)):
        if u <= 0 or p <= 0:
            raise ValueError(f"model {k}: inclusion/success probabilities must be > 0 "
                             f"(got u={u}, p={p})")
        scale = d / (total_data * u * p)
        if anchored:
            out += scale * (w - global_prev)
        else:
            out += scale * w
    return out


def evaluate(weights, features, labels, num_classes):
    """Top-1 accuracy and mean cross-entropy on a held-out set."""
    if len(labels) == 0:
        raise ValueError("empty test set")
    logits = _logits(weights, features, num_classes)
    pred = np.argmax(logits, axis=1)
    _, loss, _, _ = _softmax_loss(logits, labels)
    return float(np.mean(pred == labels)), float(loss)


def convergence_proxy(data_sizes, inclusion_probs, success_probs):
    """Scheduling-quality score sum_v (D_v/D) (1/(u_v p_v) - 1) over aligned arrays;
    0 iff every u*p = 1, 0.0 when the sizes sum to no more than 0, and inf when
    any u or p is at most 0."""
    d = np.asarray(data_sizes, dtype=float)
    if not len(d):
        return 0.0
    # cumsum adds left to right, as a running sum does
    total = np.cumsum(d)[-1]
    if total <= 0:
        return 0.0
    u = np.asarray(inclusion_probs, dtype=float)
    p = np.asarray(success_probs, dtype=float)
    if np.any(u <= 0) or np.any(p <= 0):
        return math.inf
    return float(np.cumsum((d / total) * (1.0 / (u * p) - 1.0))[-1])
