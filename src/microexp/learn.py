"""Probabilistic classification, decision-level probability fusion, metrics,
and LOSO / repeated stratified k-fold cross-validation.

The built-in classifier is an L2-regularized multinomial logistic regression
trained to its exact optimum (see ``train``), so every per-class probability
needed by the fusion rule P = (1-a)*p1 + a*p2 is available without external
dependencies. Class probabilities have one form, an ``(n, C)`` float array
whose columns are named by a ``classes`` tuple; ``fuse`` is the fusion rule on
two such arrays and ``select_fusion_weight`` scores it over a weight grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lbptop import FeatureVector

# The paper's sweep of the fusion weight a.
FUSION_WEIGHTS = (0.1, 0.2, 0.3, 0.4, 0.5)

# Columns per block of the training matrix: ``train`` standardizes one block
# at a time, so no ``(n_train, d)`` array is made.
_COLUMN_BLOCK = 2048


def _check_simplex(probs: np.ndarray) -> None:
    """Raise ValueError unless every vector along the last axis has no entry
    below -1e-12 or NaN and sums to 1 within 1e-9."""
    if not np.all(probs >= -1e-12):
        raise ValueError("probabilities must be non-negative and not NaN")
    sums = np.atleast_1d(probs.sum(axis=-1))
    bad = np.abs(sums - 1.0) > 1e-9
    if bad.any():
        raise ValueError("probabilities must sum to 1 within 1e-9, "
                         f"got {float(sums[bad][0])!r}")


@dataclass
class EvalResult:
    accuracy: float
    f1: float
    confusion: np.ndarray          # rows = truth, cols = prediction
    classes: tuple[str, ...]
    per_fold: list[float] = field(default_factory=list)


def _as_matrix(features) -> np.ndarray:
    if isinstance(features, np.ndarray) and features.ndim == 2:
        return features.astype(np.float64, copy=False)
    rows = [f.values if isinstance(f, FeatureVector) else np.asarray(f, dtype=np.float64).ravel()
            for f in features]
    lengths = {r.shape[0] for r in rows}
    if len(lengths) > 1:
        raise ValueError(f"inconsistent feature lengths: {sorted(lengths)}")
    return np.vstack(rows)


@dataclass
class LogisticModel:
    """Multinomial logistic regression with standardized inputs."""

    classes: tuple[str, ...]
    weights: np.ndarray   # (d, C)
    bias: np.ndarray      # (C,)
    mean: np.ndarray      # (d,)
    scale: np.ndarray     # (d,)

    @property
    def n_features(self) -> int:
        return self.weights.shape[0]

    def predict_proba_matrix(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise ValueError(f"feature length {x.shape[-1]} of the (n, d) matrix does not "
                             f"match the model ({self.n_features})")
        xs = x - self.mean  # divided in place: one (n, d) temporary fewer
        xs /= self.scale
        return _softmax(xs @ self.weights + self.bias)


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _column_blocks(d: int) -> list[slice]:
    """Slices of at most ``_COLUMN_BLOCK`` columns covering ``range(d)``, a
    trailing one-column block merged into the one before it.

    numpy reduces a C-ordered block of two or more columns along axis 0 row
    by row, as it does the whole matrix, so a block's mean and std carry the
    bits of the whole matrix's; a one-column block is summed pairwise instead.
    """
    starts = list(range(0, d, _COLUMN_BLOCK))
    if len(starts) > 1 and d - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [d])]


def train(features, labels, l2: float = 1e-3, max_iter: int = 500,
          rows=None) -> LogisticModel:
    """Fit the multinomial logistic classifier to rows ``rows`` of ``features``
    (default: all; ``labels`` has one entry per row of ``features``) at the
    exact optimum of the mean cross-entropy plus ``0.5 * l2 * ||W||^2`` (bias
    unpenalized).

    The penalized optimum has ``W = Xs^T A`` for the standardized training
    matrix ``Xs``, so the fit is solved in the r <= min(n, d) coordinates
    ``Phi = U sqrt(lam)`` of the Gram matrix ``Xs Xs^T = U lam U^T``, where
    ``Xs W = Phi beta`` and ``||W|| = ||beta||``. Damped Newton from zero over
    ``(r + 1) * C`` parameters, then ``W = Xs^T U lam^(-1/2) beta``. ``Xs`` is
    never formed whole: each block of columns is copied, standardized and
    added to the Gram matrix, and standardized again for its rows of ``W``.
    The mean-loss form makes it insensitive to duplicating every training
    point; ``max_iter`` caps the Newton iterations.
    """
    x = _as_matrix(features)
    labels = [str(l) for l in labels]
    if len(labels) != x.shape[0]:
        raise ValueError("one label per feature row required")
    rows = np.arange(x.shape[0]) if rows is None else np.asarray(rows, dtype=np.intp)
    labels = [labels[i] for i in rows]
    classes = tuple(sorted(set(labels)))
    if len(classes) < 2:
        raise ValueError(f"training needs at least 2 classes, got {classes}")

    class_index = {c: i for i, c in enumerate(classes)}
    y = np.array([class_index[l] for l in labels])
    n, d = len(rows), x.shape[1]
    c = len(classes)

    col_blocks = _column_blocks(d)
    mean, scale = np.empty(d), np.empty(d)
    gram = np.zeros((n, n))
    for cols in col_blocks:
        xb = x[rows, cols]
        mean[cols] = xb.mean(axis=0)
        std = xb.std(axis=0)
        std[std == 0.0] = 1.0
        scale[cols] = std
        xb -= mean[cols]
        xb /= scale[cols]
        gram += xb @ xb.T

    # Row-space coordinates; eigenvalues at round-off level of the largest
    # carry no direction (duplicated rows, the centred ones vector).
    lam, u = np.linalg.eigh(gram)
    keep = lam > lam[-1] * max(n, d) * np.finfo(float).eps
    lam, u = lam[keep], u[:, keep]
    r = lam.shape[0]
    z = np.hstack([u * np.sqrt(lam), np.ones((n, 1))])   # (n, r+1): Phi and the bias column
    penalized = np.repeat(np.arange(r + 1) < r, c)        # per entry of theta.ravel()
    # The penalty's Hessian plus the projector onto the one null direction of
    # the objective: shifting every class's bias by the same amount changes
    # neither the softmax nor the penalty. The gradient has no component along
    # it, so with the projector added the Newton system is nonsingular and its
    # solution is the minimum-norm step.
    shift = np.where(penalized, 0.0, 1.0 / np.sqrt(c))
    ridge = np.diag(l2 * penalized) + np.outer(shift, shift)
    one_hot = np.zeros((n, c))
    one_hot[np.arange(n), y] = 1.0

    def objective(theta):
        logits = z @ theta
        logits -= logits.max(axis=1, keepdims=True)
        nll = np.mean(np.log(np.exp(logits).sum(axis=1)) - logits[np.arange(n), y])
        return nll + 0.5 * l2 * np.sum(theta[:r] ** 2)

    theta = np.zeros((r + 1, c))
    loss = objective(theta)
    gtol = None
    for _ in range(max_iter):
        p = _softmax(z @ theta)
        grad = (z.T @ (p - one_hot) / n).ravel() + l2 * penalized * theta.ravel()
        gnorm = np.linalg.norm(grad)
        if gtol is None:
            gtol = 1e-10 * gnorm  # relative to the gradient at the zero start
        if gnorm <= gtol:
            break
        # Hessian of the mean cross-entropy: entry (j, a), (k, b) is
        # mean_i z_ij z_ik (p_ia [a == b] - p_ia p_ib).
        zp = (z[:, :, None] * p[:, None, :]).reshape(n, -1)
        hess = -(zp.T @ zp)
        blocks = hess.reshape(r + 1, c, r + 1, c)
        for k in range(c):
            blocks[:, k, :, k] += (z * p[:, k:k + 1]).T @ z
        step = np.linalg.solve(hess / n + ridge, -grad).reshape(r + 1, c)
        slope = grad @ step.ravel()
        t = 1.0
        while True:
            trial = objective(theta + t * step)
            if trial <= loss + 1e-4 * t * slope or t < 1e-10:
                break
            t *= 0.5
        if not trial < loss:
            break  # no further decrease representable
        theta, loss = theta + t * step, trial

    coef = (u / np.sqrt(lam)) @ theta[:r]
    weights = np.empty((d, c))
    for cols in col_blocks:
        xb = x[rows, cols]
        xb -= mean[cols]
        xb /= scale[cols]
        weights[cols] = xb.T @ coef
    return LogisticModel(classes=classes, weights=weights, bias=theta[r],
                         mean=mean, scale=scale)


def fuse(p1: np.ndarray, p2: np.ndarray, a: float) -> np.ndarray:
    """Decision-level fusion P = (1 - a) * p1 + a * p2 of two probability
    arrays of one shape, columns named by one ``classes`` tuple.

    a = 0 reproduces p1 (first modality only), a = 1 reproduces p2. Raises
    ValueError for a weight outside [0, 1] (NaN included) or for arrays of
    different shapes; it never broadcasts.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"fusion weight must lie in [0, 1], got {a!r}")
    if np.shape(p1) != np.shape(p2):
        raise ValueError(f"fused arrays must have one shape, got {np.shape(p1)} and {np.shape(p2)}")
    return (1.0 - a) * p1 + a * p2


def metrics(predictions, truths) -> EvalResult:
    """Accuracy, macro-averaged F1, and the confusion matrix.

    F1 is averaged over the classes present in the truths; a class with no
    predictions and no true positives contributes 0.
    """
    predictions = [str(p) for p in predictions]
    truths = [str(t) for t in truths]
    if not truths:
        raise ValueError("cannot compute metrics on empty inputs")
    if len(predictions) != len(truths):
        raise ValueError("predictions and truths must have equal length")

    classes = tuple(sorted(set(truths) | set(predictions)))
    index = {label: i for i, label in enumerate(classes)}
    codes = np.array([index[label] for label in truths + predictions])
    n, c = len(truths), len(classes)
    confusion = np.bincount(codes[:n] * c + codes[n:], minlength=c * c).reshape(c, c)

    accuracy = float(np.trace(confusion)) / n

    tp = np.diag(confusion)
    predicted = confusion.sum(axis=0)
    support = confusion.sum(axis=1)
    present = support > 0  # classes absent from the truths are left out
    precision = np.divide(tp, predicted, out=np.zeros(c), where=predicted > 0)
    recall = np.divide(tp, support, out=np.zeros(c), where=present)
    total = precision + recall
    f1 = np.divide(2 * precision * recall, total, out=np.zeros(c), where=total > 0)

    return EvalResult(accuracy=accuracy, f1=float(np.mean(f1[present])),
                      confusion=confusion, classes=classes)


def loso_split(records) -> list[tuple[list[int], list[int]]]:
    """Leave-one-subject-out folds: one fold per subject, that subject's
    samples as the test set. Accepts SampleRecords or raw subject ids."""
    subjects = [getattr(r, "subject_id", r) for r in records]
    unique = sorted(set(subjects))
    if len(unique) < 2:
        raise ValueError(f"LOSO needs at least 2 distinct subjects, got {len(unique)}")
    folds = []
    for subject in unique:
        test = [i for i, s in enumerate(subjects) if s == subject]
        train_idx = [i for i, s in enumerate(subjects) if s != subject]
        folds.append((train_idx, test))
    return folds


def stratified_kfold_indices(labels, k: int, rng: np.random.Generator) -> list[list[int]]:
    """Random stratified assignment of sample indices to k folds; global
    fold sizes differ by at most 1."""
    labels = [str(l) for l in labels]
    fold_members: list[list[int]] = [[] for _ in range(k)]
    counter = int(rng.integers(k))  # rotate the starting fold
    for c in sorted(set(labels)):
        idx = [i for i, l in enumerate(labels) if l == c]
        order = rng.permutation(len(idx))
        for j in order:
            fold_members[counter % k].append(idx[j])
            counter += 1
    return fold_members


def _label_classes(labels) -> tuple[str, ...]:
    """The column labels of a probability array: the sorted label set."""
    return tuple(sorted({str(l) for l in labels}))


def cross_val_proba(features, labels, folds, fitted=None):
    """Out-of-fold class probabilities for every sample.

    ``folds`` is a list of (train indices, test indices) covering each
    sample exactly once on the test side; each fold's model is
    ``train(x, labels, rows=train_idx)`` for the whole ``(n, d)`` matrix
    ``x`` and all labels, which fits rows ``train_idx``; replacing
    ``learn.train`` replaces every fold's trainer.
    Returns (proba, per_fold_accuracies): ``proba`` is an ``(n, C)`` array
    whose columns are the sorted label set (zero for classes a fold's model
    never saw).

    ``fitted`` (a fresh dict by default) maps a fold's ``(tuple(train),
    tuple(test))`` to its read-only probability block and fold accuracy. A
    fold found there is not trained again, and every new fold is added, so
    the caller keeps one dict per feature matrix and label list.
    """
    x = _as_matrix(features)
    labels = [str(l) for l in labels]
    classes = _label_classes(labels)
    y = np.array([classes.index(l) for l in labels])
    fitted = {} if fitted is None else fitted

    proba = np.full((len(labels), len(classes)), np.nan)  # NaN: no fold has tested the row
    per_fold = []
    for train_idx, test_idx in folds:
        key = (tuple(map(int, train_idx)), tuple(map(int, test_idx)))
        if key not in fitted:
            model = train(x, labels, rows=train_idx)
            block = np.array(model.predict_proba_matrix(x[test_idx]), dtype=np.float64)
            _check_simplex(block)
            model_classes = tuple(model.classes)
            if model_classes != classes:
                unknown = sorted(set(model_classes) - set(classes))
                if unknown:
                    raise ValueError(f"model classes {unknown} are not in the label set {classes}")
                widened = np.zeros((len(test_idx), len(classes)))
                widened[:, [classes.index(c) for c in model_classes]] = block
                block = widened / widened.sum(axis=1, keepdims=True)
            block.flags.writeable = False
            correct = int(np.count_nonzero(block.argmax(axis=1) == y[test_idx]))
            fitted[key] = block, correct / len(test_idx) if len(test_idx) else 0.0
        block, accuracy = fitted[key]
        proba[test_idx] = block
        per_fold.append(accuracy)

    missing = np.flatnonzero(np.isnan(proba).any(axis=1))
    if missing.size:
        raise ValueError(f"folds do not cover samples {missing.tolist()}")
    return proba, per_fold


def kfold_splits(labels, k: int, repeats: int,
                 seed: int) -> list[list[tuple[list[int], list[int]]]]:
    """Repeated stratified k-fold: one list of k (train, test) folds per repeat.

    Folds are reshuffled each repeat with seeds spawned from ``seed``.
    """
    n = len(labels)
    if k > n:
        raise ValueError(f"k={k} exceeds the sample count {n}")
    if k < 2:
        raise ValueError("k must be at least 2")
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    runs = []
    for child in np.random.SeedSequence(seed).spawn(repeats):
        members = stratified_kfold_indices(labels, k, np.random.default_rng(child))
        runs.append([(sorted(i for g in range(k) if g != f for i in members[g]),
                      sorted(members[f])) for f in range(k)])
    return runs


def _run_mean(results, per_fold=()) -> EvalResult:
    """Accuracy and F1 averaged over runs, confusion summed over runs."""
    return EvalResult(accuracy=float(np.mean([r.accuracy for r in results])),
                      f1=float(np.mean([r.f1 for r in results])),
                      confusion=sum(r.confusion for r in results),
                      classes=results[-1].classes, per_fold=list(per_fold))


def cross_val_runs(features, labels, fold_runs, fitted=None):
    """Out-of-fold probabilities for each run of folds (one run for LOSO, one
    per repeat for k-fold), each from ``cross_val_proba``.

    ``fitted`` is ``cross_val_proba``'s dict of fitted folds, shared by every
    run (a fresh one by default), so a fold that recurs across repeats is
    trained once; keep one per feature matrix and label list.
    Returns (per-run ``(n, C)`` probability arrays, EvalResult): accuracy and
    F1 are means over the runs, the confusion matrix accumulates over all
    runs, and per_fold lists every individual fold accuracy.
    """
    x = _as_matrix(features)
    classes = _label_classes(labels)
    fitted = {} if fitted is None else fitted
    proba_runs, results, per_fold = [], [], []
    for folds in fold_runs:
        proba, fold_accs = cross_val_proba(x, labels, folds, fitted)
        proba_runs.append(proba)
        results.append(metrics([classes[i] for i in proba.argmax(axis=1)], labels))
        per_fold.extend(fold_accs)
    return proba_runs, _run_mean(results, per_fold)


def select_fusion_weight(p1_runs, p2_runs, truths, weights=FUSION_WEIGHTS,
                         classes=None) -> tuple[float, EvalResult]:
    """Pick the fusion weight with the best run-mean fused accuracy.

    ``p1_runs`` and ``p2_runs`` hold one ``(n, C)`` array per run, rows
    aligned with ``truths``, columns labelled by ``classes`` (default: the
    sorted set of ``truths``); weight ``a`` scores ``fuse(p1, p2, a)``, which
    rejects a weight outside [0, 1]. Ties go to the smaller weight, i.e. the
    first in ``weights``. Returns the weight and its run-averaged EvalResult.
    """
    truths = [str(t) for t in truths]
    names = np.array(_label_classes(truths) if classes is None else list(classes), dtype=object)
    shapes = {np.shape(p) for p in (*p1_runs, *p2_runs)}
    if not len(p1_runs) or len(p1_runs) != len(p2_runs) or \
            shapes != {(len(truths), len(names))}:
        raise ValueError(f"need at least one run, as many in both streams, each of shape "
                         f"{(len(truths), len(names))} (rows aligned with the truths, columns "
                         f"{tuple(names)}); got {len(p1_runs)}, {len(p2_runs)} of {sorted(shapes)}")
    p1, p2 = stacked = np.asarray([p1_runs, p2_runs], dtype=np.float64)
    _check_simplex(stacked)
    best_a, best_result = None, None
    for a in weights:
        predicted = names[fuse(p1, p2, a).argmax(axis=2)].tolist()
        result = _run_mean([metrics(run, truths) for run in predicted])
        if best_result is None or result.accuracy > best_result.accuracy:
            best_a, best_result = a, result
    return best_a, best_result

