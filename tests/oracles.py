"""Independent brute-force reference implementations used as test oracles.

The LBP-TOP reference below recomputes everything with plain Python loops:
per-center, per-plane, per-neighbor sampling into per-block histograms. It
shares only the documented conventions with the library (neighbor angles,
the 1e-9 integer snap, the canonical bilinear expression, block spans), so a
bin-for-bin comparison checks the vectorized path exactly.

The landmark-histogram reference at the end fits one vertex at a time: its
own KD-tree query, np.linalg.lstsq cubic fit and scalar shape-index / HK
binning. It shares only the documented curvature conventions with the
library's batched path.

The text-file readers and writers at the end are the library's original
per-value PLY, landmark and feature-CSV code: one Python ``format``/``repr``
per number when writing and one ``float``/``int`` per field when reading.
The library's whole-array versions must write the same bytes and read the
same bits.

``train_reference`` is the classifier's original trainer: L-BFGS-B on the
full primal weights ``(d + 1) * C`` with the same objective (mean
cross-entropy plus ``0.5 * l2 * ||W||^2``, bias unpenalized) and the same
standardization, started from zero and run to a gradient tolerance of 1e-12.
It knows nothing of the row-space reduction or the Newton solve.

``metrics_reference`` is the original per-sample, per-class loop form of
``learn.metrics``: the confusion matrix one increment at a time and F1 one
class at a time.

``fusion_reference`` is the paper's fusion rule one sample and one class at
a time, in Python floats, with the first maximum as the fused label.

The point-cloud preprocessing references take every neighbour from the full
pairwise distance matrix instead of a KD-tree: ``denoise_reference`` sorts
each point's row for its k nearest, ``nose_tip_reference`` counts each row's
entries within the density radius, and ``icp_reference`` runs ICP as an
explicit loop whose correspondences are each row's argmin and whose rigid
fit is its own Kabsch SVD of the target-by-source covariance. They share
only the documented rules and constants with ``preprocess3d``.

``mean_difference_weights_reference`` builds the mean frame-difference
image one pixel at a time and averages it over each landmark's disc by
testing every pixel, with correctly rounded sums. ``warp_volume_reference``
maps each output pixel back through the inverse similarity, worked out
here from scale, rotation and translation, samples the input bilinearly
(zero outside the frame) and rounds half to even. They know nothing of the
library's mesh grids or masks.
"""

import math
from pathlib import Path

import numpy as np
from scipy.optimize import minimize
from scipy.spatial import cKDTree

from microexp.lbptop import FeatureVector
from microexp.learn import EvalResult, LogisticModel
from microexp.preprocess3d import (NOSE_DENSITY_RADIUS, NOSE_MIN_NEIGHBORS, NOSE_SLAB,
                                   PointCloudFrame)


def _snap(value):
    rounded = round(value)
    return float(rounded) if abs(value - rounded) < 1e-9 else value


def _block_spans(extent, n_blocks, overlap):
    size = math.ceil((extent + (n_blocks - 1) * overlap) / n_blocks)
    size = min(size, extent)
    step = size - overlap
    assert step > 0, "overlap must be smaller than the block size"
    return [(min(i * step, extent - size), min(i * step, extent - size) + size)
            for i in range(n_blocks)]


def _neighbor_offsets(ru, rv, p_count):
    """Per neighbor: integer parts and fractional parts of the (u, v) offset."""
    out = []
    for p in range(p_count):
        theta = 2.0 * math.pi * p / p_count
        du = _snap(ru * math.cos(theta))
        dv = _snap(rv * math.sin(theta))
        iu, iv = math.floor(du), math.floor(dv)
        out.append((iu, du - iu, iv, dv - iv))
    return out


def _bilinear(g00, g01, g10, g11, fu, fv):
    return g00 + fu * (g01 - g00) + fv * (g10 - g00) + fu * fv * (((g00 - g01) - g10) + g11)


def lbp_top_reference(volume, radii, neighbors=(8, 8, 8), blocks=(5, 5), overlap=0):
    """Triple-loop LBP-TOP feature vector over a T x H x W uint8 array.

    Returns a plain list of floats in the library's concatenation order:
    row-major blocks x (XY, XT, YT) x bins.
    """
    t_len = len(volume)
    h = len(volume[0])
    w = len(volume[0][0])
    vol = [[[float(v) for v in row] for row in frame] for frame in volume]

    rx, ry, rt = radii
    p_xy, p_xt, p_yt = neighbors
    bx, by = blocks

    off_xy = _neighbor_offsets(rx, ry, p_xy)
    off_xt = _neighbor_offsets(rx, rt, p_xt)
    off_yt = _neighbor_offsets(ry, rt, p_yt)

    x_spans = _block_spans(w, bx, overlap)
    y_spans = _block_spans(h, by, overlap)

    out = []
    for (y0, y1) in y_spans:
        ya, yb = max(y0, ry), min(y1, h - ry)
        for (x0, x1) in x_spans:
            xa, xb = max(x0, rx), min(x1, w - rx)
            assert yb > ya and xb > xa, "empty block"
            h_xy = [0] * (1 << p_xy)
            h_xt = [0] * (1 << p_xt)
            h_yt = [0] * (1 << p_yt)
            count = 0
            for t in range(rt, t_len - rt):
                frame = vol[t]
                for y in range(ya, yb):
                    row = frame[y]
                    for x in range(xa, xb):
                        center = row[x]
                        count += 1

                        code = 0
                        for p, (iu, fu, iv, fv) in enumerate(off_xy):
                            u0, v0 = x + iu, y + iv
                            u1 = u0 + 1 if u0 + 1 < w else w - 1
                            v1 = v0 + 1 if v0 + 1 < h else h - 1
                            g = _bilinear(frame[v0][u0], frame[v0][u1],
                                          frame[v1][u0], frame[v1][u1], fu, fv)
                            if g - center >= 0:
                                code += 1 << p
                        h_xy[code] += 1

                        code = 0
                        for p, (iu, fu, iv, fv) in enumerate(off_xt):
                            u0, v0 = x + iu, t + iv
                            u1 = u0 + 1 if u0 + 1 < w else w - 1
                            v1 = v0 + 1 if v0 + 1 < t_len else t_len - 1
                            g = _bilinear(vol[v0][y][u0], vol[v0][y][u1],
                                          vol[v1][y][u0], vol[v1][y][u1], fu, fv)
                            if g - center >= 0:
                                code += 1 << p
                        h_xt[code] += 1

                        code = 0
                        for p, (iu, fu, iv, fv) in enumerate(off_yt):
                            u0, v0 = y + iu, t + iv
                            u1 = u0 + 1 if u0 + 1 < h else h - 1
                            v1 = v0 + 1 if v0 + 1 < t_len else t_len - 1
                            g = _bilinear(vol[v0][u0][x], vol[v0][u1][x],
                                          vol[v1][u0][x], vol[v1][u1][x], fu, fv)
                            if g - center >= 0:
                                code += 1 << p
                        h_yt[code] += 1

            for hist in (h_xy, h_xt, h_yt):
                out.extend(v / count for v in hist)
    return out


# --- landmark-local curvature histograms ----------------------------------

# HK bin of each (sign K, sign H), in the library's SurfaceType order:
# peak, ridge, saddle ridge, flat, minimal surface, pit, valley,
# saddle valley, undefined.
_HK_BIN = {(1, 1): 0, (0, 1): 1, (-1, 1): 2, (0, 0): 3, (-1, 0): 4,
           (1, -1): 5, (0, -1): 6, (-1, -1): 7, (1, 0): 8}


def curvature_reference(points, tree, i, radius, toward):
    """(p_min, p_max) at vertex ``i`` from the points within ``radius``, or
    None when there are fewer than 10 of them or the cubic fit is
    rank-deficient.

    Conventions: local frame from the eigenvectors of the neighborhood
    scatter about its mean (normal = smallest axis, turned toward
    ``toward``; u = largest axis, v = middle); coordinates relative to the
    vertex divided by the farthest neighbor's distance; full cubic height
    field z(u, v) by least squares; curvatures of the Weingarten map at the
    origin.
    """
    vertex = points[i]
    neighbors = points[tree.query_ball_point(vertex, r=radius)]
    if len(neighbors) < 10:
        return None
    centered = neighbors - neighbors.mean(axis=0)
    _, axes = np.linalg.eigh(centered.T @ centered)
    normal = axes[:, 0] if axes[:, 0] @ toward >= 0 else -axes[:, 0]
    rel = neighbors - vertex
    scale = max(max(math.sqrt(float(r @ r)) for r in rel), 1e-12)
    rows, heights = [], []
    for r in rel:
        u, v = (r @ axes[:, 2]) / scale, (r @ axes[:, 1]) / scale
        rows.append([1.0, u, v, u * u, u * v, v * v, u ** 3, u * u * v, u * v * v, v ** 3])
        heights.append((r @ normal) / scale)
    coeffs, _, rank, _ = np.linalg.lstsq(np.array(rows), np.array(heights), rcond=None)
    if rank < 10:
        return None

    hu, hv = float(coeffs[1]), float(coeffs[2])
    huu, huv, hvv = 2.0 * coeffs[3] / scale, coeffs[4] / scale, 2.0 * coeffs[5] / scale
    e, f, g = 1.0 + hu * hu, hu * hv, 1.0 + hv * hv
    w = math.sqrt(1.0 + hu * hu + hv * hv)
    l, m, n = huu / w, huv / w, hvv / w
    k = (l * n - m * m) / (e * g - f * f)
    h = (e * n - 2.0 * f * m + g * l) / (2.0 * (e * g - f * f))
    root = math.sqrt(max(h * h - k, 0.0))
    p_min, p_max = float(h - root), float(h + root)
    if not (math.isfinite(p_min) and math.isfinite(p_max)):
        return None
    return p_min, p_max


def shape_index_reference(p_min, p_max):
    """The shape index 1/2 - atan((p_max+p_min)/(p_max-p_min))/pi, clipped
    to [0, 1]; umbilics: 0 for a positive pair, 1 for a negative pair, 1/2
    when flat."""
    total, spread = p_max + p_min, p_max - p_min
    if spread == 0.0:
        return 0.0 if total > 0 else 1.0 if total < 0 else 0.5
    return min(max(0.5 - math.atan(total / spread) / math.pi, 0.0), 1.0)


def si_quantize_reference(si):
    """Nearest of the centers b/8; ties go to the center nearer the saddle
    (1/2)."""
    return min(range(9), key=lambda b: (abs(si - b / 8), abs(b / 8 - 0.5)))


def si_bin_reference(p_min, p_max):
    return si_quantize_reference(shape_index_reference(p_min, p_max))


def hk_sign_reference(k, h, zero_eps):
    """HK bin from the signs of K and H, with |value| <= zero_eps counting
    as zero."""
    def sign(x):
        return 0 if abs(x) <= zero_eps else 1 if x > 0 else -1
    return _HK_BIN[sign(k), sign(h)]


def hk_bin_reference(p_min, p_max, zero_eps):
    """HK bin of K = p_min * p_max and H = (p_min + p_max) / 2."""
    return hk_sign_reference(p_min * p_max, 0.5 * (p_min + p_max), zero_eps)


def landmark_histogram_reference(points, landmark, region_radius, neighborhood_radius,
                                 kind, zero_eps, toward=(0.0, 0.0, -1.0)):
    """(frequencies, dropped): the nine-bin "si" or "hk" histogram over the
    region vertices (within ``region_radius`` of ``landmark``) that have a
    curvature estimate, divided by their number; and the sorted indices of
    the region vertices without one."""
    points = np.asarray(points, dtype=np.float64)
    toward = np.asarray(toward, dtype=np.float64)
    tree = cKDTree(points)
    counts = [0] * 9
    dropped = []
    for i in sorted(tree.query_ball_point(landmark, r=region_radius)):
        pc = curvature_reference(points, tree, i, neighborhood_radius, toward)
        if pc is None:
            dropped.append(i)
        elif kind == "si":
            counts[si_bin_reference(*pc)] += 1
        else:
            counts[hk_bin_reference(*pc, zero_eps)] += 1
    n_ok = sum(counts)
    return [c / n_ok for c in counts], dropped


def _format_float(value: float) -> str:
    # 9 significant digits round-trip float32 exactly.
    return format(np.float32(value), ".9g")


def write_ply_reference(path, cloud: PointCloudFrame) -> None:
    """Write a cloud as ASCII PLY with float32 x, y, z vertex properties."""
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(cloud)}",
        "property float x",
        "property float y",
        "property float z",
        "end_header",
    ]
    for p in cloud.points:
        lines.append(f"{_format_float(p[0])} {_format_float(p[1])} {_format_float(p[2])}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_ply_reference(path) -> PointCloudFrame:
    """Read an ASCII PLY with x, y, z float vertex properties."""
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if not lines or lines[0].strip() != "ply":
        raise ValueError(f"{path}: not a PLY file")
    n_vertex = None
    body_at = None
    for i, line in enumerate(lines[1:], start=1):
        parts = line.split()
        if parts[:2] == ["element", "vertex"]:
            n_vertex = int(parts[2])
        elif parts and parts[0] == "format" and parts[1] != "ascii":
            raise ValueError(f"{path}: only ASCII PLY supported")
        elif parts == ["end_header"]:
            body_at = i + 1
            break
    if n_vertex is None or body_at is None:
        raise ValueError(f"{path}: missing vertex element or end_header")
    rows = lines[body_at : body_at + n_vertex]
    if len(rows) != n_vertex:
        raise ValueError(f"{path}: expected {n_vertex} vertex rows, found {len(rows)}")
    # parse through the declared float32 property type, then widen
    points = np.array([[float(v) for v in row.split()[:3]] for row in rows],
                      dtype=np.float32).astype(np.float64)
    return PointCloudFrame(points if points.size else np.empty((0, 3)))


def write_landmarks_reference(path, per_frame, dims: int) -> None:
    """Write per-frame landmark arrays as CSV rows frame,idx,x,y[,z]."""
    header = {2: "frame,idx,x,y", 3: "frame,idx,x,y,z"}[dims]
    lines = [header]
    for t, marks in enumerate(per_frame):
        marks = np.asarray(marks, dtype=np.float64)
        for j in range(marks.shape[0]):
            coords = ",".join(repr(float(c)) for c in marks[j, :dims])
            lines.append(f"{t},{j},{coords}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_landmarks_reference(path, dims: int) -> list:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    expected = {2: "frame,idx,x,y", 3: "frame,idx,x,y,z"}[dims]
    if not lines or lines[0].strip() != expected:
        raise ValueError(f"{path}: expected header {expected!r}")
    frames: dict[int, dict[int, list[float]]] = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        parts = line.split(",")
        t, j = int(parts[0]), int(parts[1])
        frames.setdefault(t, {})[j] = [float(v) for v in parts[2 : 2 + dims]]
    out = []
    for t in sorted(frames):
        marks = frames[t]
        arr = np.array([marks[j] for j in sorted(marks)])
        out.append(arr)
    return out


def write_feature_csv_reference(path, feature: FeatureVector) -> None:
    """One CSV row: tag,config_fingerprint,v0,v1,..."""
    values = ",".join(repr(float(v)) for v in feature.values)
    Path(path).write_text(f"{feature.tag},{feature.fingerprint},{values}\n", encoding="utf-8")


def read_feature_csv_reference(path) -> FeatureVector:
    text = Path(path).read_text(encoding="utf-8").strip()
    parts = text.split(",")
    if len(parts) < 3:
        raise ValueError(f"{path}: not a feature CSV row")
    return FeatureVector(np.array([float(v) for v in parts[2:]]),
                         tag=parts[0], fingerprint=parts[1])


def train_reference(x, labels, l2=1e-3):
    """Primal multinomial logistic fit to a 1e-12 gradient tolerance."""
    x = np.asarray(x, dtype=np.float64)
    labels = [str(l) for l in labels]
    classes = tuple(sorted(set(labels)))
    y = np.array([classes.index(l) for l in labels])
    n, d = x.shape
    c = len(classes)
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale[scale == 0.0] = 1.0
    xs = (x - mean) / scale
    one_hot = np.zeros((n, c))
    one_hot[np.arange(n), y] = 1.0

    def loss_grad(theta):
        w = theta[: d * c].reshape(d, c)
        b = theta[d * c:]
        z = xs @ w + b
        z -= z.max(axis=1, keepdims=True)
        e = np.exp(z)
        p = e / e.sum(axis=1, keepdims=True)
        loss = -np.log(p[np.arange(n), y]).mean() + 0.5 * l2 * np.sum(w * w)
        g = (p - one_hot) / n
        return loss, np.concatenate([(xs.T @ g + l2 * w).ravel(), g.sum(axis=0)])

    theta = minimize(loss_grad, np.zeros(d * c + c), jac=True, method="L-BFGS-B",
                     options={"maxiter": 100000, "maxfun": 100000, "ftol": 0.0,
                              "gtol": 1e-12}).x
    return LogisticModel(classes=classes, weights=theta[: d * c].reshape(d, c),
                         bias=theta[d * c:], mean=mean, scale=scale)


def primal_gradient(model, x, labels, l2=1e-3):
    """Gradient of the training objective at a model's (W, b), flattened."""
    x = np.asarray(x, dtype=np.float64)
    y = np.array([model.classes.index(str(l)) for l in labels])
    g = model.predict_proba_matrix(x)
    g[np.arange(len(y)), y] -= 1.0
    g /= len(y)
    xs = (x - model.mean) / model.scale
    return np.concatenate([(xs.T @ g + l2 * model.weights).ravel(), g.sum(axis=0)])


def metrics_reference(predictions, truths) -> EvalResult:
    """Accuracy, macro F1 over the classes present in the truths, and the
    confusion matrix (rows = truth, columns = prediction, sorted classes)."""
    predictions = [str(p) for p in predictions]
    truths = [str(t) for t in truths]
    classes = tuple(sorted(set(truths) | set(predictions)))
    index = {c: i for i, c in enumerate(classes)}
    confusion = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for t, p in zip(truths, predictions):
        confusion[index[t], index[p]] += 1

    accuracy = float(np.trace(confusion)) / len(truths)

    f1_scores = []
    for c in classes:
        i = index[c]
        tp = confusion[i, i]
        fp = confusion[:, i].sum() - tp
        fn = confusion[i, :].sum() - tp
        if tp + fn == 0:
            continue  # class absent from the truths
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn)
        f1_scores.append(2 * precision * recall / (precision + recall)
                         if precision + recall > 0 else 0.0)
    f1 = float(np.mean(f1_scores)) if f1_scores else 0.0
    return EvalResult(accuracy=accuracy, f1=f1, confusion=confusion, classes=classes)


def fusion_reference(p1, p2, a, classes) -> list:
    """Fused label of each row: the class maximizing (1 - a) * p1 + a * p2,
    ties to the lowest class index."""
    labels = []
    for row1, row2 in zip(p1, p2):
        best, best_value = 0, None
        for j in range(len(classes)):
            value = (1.0 - a) * float(row1[j]) + a * float(row2[j])
            if best_value is None or value > best_value:
                best, best_value = j, value
        labels.append(classes[best])
    return labels


def _distances(a, b):
    """The (len(a), len(b)) Euclidean distances between the rows of a and b."""
    return np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))


def denoise_reference(points, k, sigma_mult):
    """The points whose mean distance to their k nearest others is at most
    the mean of that statistic plus sigma_mult standard deviations."""
    knn = np.sort(_distances(points, points), axis=1)[:, 1:k + 1]  # column 0: the point
    mean_dist = knn.mean(axis=1)
    threshold = mean_dist.mean() + sigma_mult * mean_dist.std()
    return points[mean_dist <= threshold]


def nose_tip_reference(points, tip_at):
    """Among the points with NOSE_MIN_NEIGHBORS others within
    NOSE_DENSITY_RADIUS, those within NOSE_SLAB of the extremal depth; of
    them, the first nearest their centroid."""
    counts = (_distances(points, points) <= NOSE_DENSITY_RADIUS).sum(axis=1)
    dense = points[counts >= NOSE_MIN_NEIGHBORS + 1]  # each point counts itself
    z = dense[:, 2]
    slab = dense[z <= z.min() + NOSE_SLAB] if tip_at == "min" else dense[z >= z.max() - NOSE_SLAB]
    centroid = slab.mean(axis=0)
    best, best_dist = None, math.inf
    for point in slab:
        dist = math.sqrt(sum((float(p) - float(c)) ** 2 for p, c in zip(point, centroid)))
        if dist < best_dist:
            best, best_dist = point, dist
    return best


def _kabsch(source, target):
    """Rotation r and translation t minimizing sum ||r @ s + t - g||^2 over
    the paired rows s of source and g of target."""
    cs, ct = source.mean(axis=0), target.mean(axis=0)
    u, _, vt = np.linalg.svd((target - ct).T @ (source - cs))
    r = u @ np.diag([1.0, 1.0, np.sign(np.linalg.det(u @ vt))]) @ vt
    return r, ct - r @ cs


def icp_reference(moving, fixed, max_iter=50, tol=1e-6):
    """Point-to-point ICP of moving onto fixed: ``(rotation, translation,
    residual, converged, n_iter)``. Each iteration fits the transform of the
    moving points onto their current nearest fixed points; a fit that raises
    the mean nearest distance is rejected and ends the loop, as does an
    improvement below tol."""
    def nearest(points):
        dist = _distances(points, fixed)
        idx = dist.argmin(axis=1)
        return dist[np.arange(len(points)), idx].mean(), idx

    rotation, translation = np.eye(3), np.zeros(3)
    residual, idx = nearest(moving)
    converged, n_iter = False, 0
    for n_iter in range(1, max_iter + 1):
        r, t = _kabsch(moving, fixed[idx])
        new_residual, new_idx = nearest(moving @ r.T + t)
        if new_residual > residual:
            converged = True
            break
        improvement = residual - new_residual
        rotation, translation, residual, idx = r, t, new_residual, new_idx
        if improvement < tol:
            converged = True
            break
    return rotation, translation, float(residual), converged, n_iter


def mean_difference_weights_reference(frames, landmarks, radius_px):
    """Per-landmark motion weights of a (T, H, W) volume: D(x, y) is the
    mean over t > 0 of |I_t - I_0|, a landmark's weight is the mean of D
    over the pixels within radius_px of it, and the weights are divided by
    their mean (all 1 when that mean is 0). A disc holding no pixel raises
    ValueError."""
    t_len, h, w = len(frames), len(frames[0]), len(frames[0][0])
    diff = [[sum(abs(int(frames[t][y][x]) - int(frames[0][y][x])) for t in range(1, t_len))
             / (t_len - 1) for x in range(w)] for y in range(h)]
    weights = []
    for j, (lx, ly) in enumerate(landmarks):
        disc = [diff[y][x] for y in range(h) for x in range(w)
                if (x - lx) * (x - lx) + (y - ly) * (y - ly) <= radius_px * radius_px]
        if not disc:
            raise ValueError(f"landmark {j} disc lies outside the frame")
        weights.append(math.fsum(disc) / len(disc))
    mean = math.fsum(weights) / len(weights)
    return [1.0] * len(weights) if mean == 0.0 else [wt / mean for wt in weights]


def warp_volume_reference(frames, scale, rotation, translation):
    """Each frame of a (T, H, W) volume resampled under p -> scale * R(rotation)
    @ p + translation: output pixel p takes the input at the transform's
    inverse of p, bilinearly sampled where that lies within [0, W-1] x [0, H-1]
    and 0 elsewhere, rounded half to even and clipped to 0..255."""
    t_len, h, w = len(frames), len(frames[0]), len(frames[0][0])
    c, s = math.cos(rotation), math.sin(rotation)
    tx, ty = translation
    out = [[[0] * w for _ in range(h)] for _ in range(t_len)]
    for y in range(h):
        for x in range(w):
            # R^T (p - t) / scale
            src_x = (c * (x - tx) + s * (y - ty)) / scale
            src_y = (-s * (x - tx) + c * (y - ty)) / scale
            if not (0 <= src_x <= w - 1 and 0 <= src_y <= h - 1):
                continue
            x0, y0 = math.floor(src_x), math.floor(src_y)
            x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
            for t in range(t_len):
                f = frames[t]
                value = _bilinear(float(f[y0][x0]), float(f[y0][x1]), float(f[y1][x0]),
                                  float(f[y1][x1]), src_x - x0, src_y - y0)
                out[t][y][x] = min(max(round(value), 0), 255)
    return out
