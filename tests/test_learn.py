import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microexp import learn
from microexp.learn import (FUSION_WEIGHTS, cross_val_proba, cross_val_runs, fuse,
                            kfold_splits, loso_split, metrics, select_fusion_weight,
                            stratified_kfold_indices, train)

from .oracles import fusion_reference, metrics_reference, primal_gradient, train_reference


def _blobs(n_per=20, d=5, sep=6.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_per, d)) + sep / 2
    b = rng.standard_normal((n_per, d)) - sep / 2
    x = np.vstack([a, b])
    y = ["pos"] * n_per + ["neg"] * n_per
    return x, y


class TestTrainPredict:
    def test_separable_blobs_high_train_accuracy(self):
        x, y = _blobs()
        model = train(x, y)
        preds = [model.classes[i] for i in model.predict_proba_matrix(x).argmax(axis=1)]
        acc = np.mean([p == t for p, t in zip(preds, y)])
        assert acc >= 0.95

    def test_duplicated_training_set_same_predictions(self):
        # the mean-loss objective is unchanged by duplicating every point, so
        # the fit agrees up to optimizer round-off and predictions match
        x, y = _blobs(n_per=15)
        m1 = train(x, y)
        m2 = train(np.vstack([x, x]), y + y)
        p1 = m1.predict_proba_matrix(x)
        p2 = m2.predict_proba_matrix(x)
        assert np.array_equal(np.argmax(p1, axis=1), np.argmax(p2, axis=1))
        assert np.allclose(p1, p2, atol=1e-6)

    def test_single_class_rejected(self):
        x = np.zeros((5, 3))
        with pytest.raises(ValueError, match="classes"):
            train(x, ["same"] * 5)

    def test_inconsistent_lengths_rejected(self):
        with pytest.raises(ValueError, match="length"):
            train([np.zeros(3), np.zeros(4)], ["a", "b"])

    def test_predict_sums_to_one(self):
        x, y = _blobs(n_per=10)
        model = train(x, y)
        row = model.predict_proba_matrix(x[:1])[0]
        assert row.sum() == pytest.approx(1.0, abs=1e-9)

    def test_deep_inside_blob_confident(self):
        x, y = _blobs(sep=8.0)
        model = train(x, y)
        deep = np.full((1, 5), 4.0)
        row = model.predict_proba_matrix(deep)[0]
        assert row[model.classes.index("pos")] >= 0.9

    def test_zero_vector_total(self):
        x, y = _blobs(n_per=10)
        model = train(x, y)
        row = model.predict_proba_matrix(np.zeros((1, 5)))[0]
        assert row.sum() == pytest.approx(1.0, abs=1e-9)

    def test_feature_length_mismatch(self):
        x, y = _blobs(n_per=10)
        model = train(x, y)
        with pytest.raises(ValueError, match="length"):
            model.predict_proba_matrix(np.zeros((1, 7)))
        with pytest.raises(ValueError, match="length"):
            model.predict_proba_matrix(np.zeros(5))  # a row, not an (n, d) matrix

    def test_deterministic_given_seed(self):
        x, y = _blobs(n_per=12, seed=4)
        p1 = train(x, y).predict_proba_matrix(x)
        p2 = train(x, y).predict_proba_matrix(x)
        assert np.array_equal(p1, p2)


def _classes(n_per, d, n_classes, seed, sep=1.5):
    rng = np.random.default_rng(seed)
    centres = sep * rng.standard_normal((n_classes, d))
    x = np.vstack([c + rng.standard_normal((n_per, d)) for c in centres])
    y = [f"k{i}" for i in range(n_classes) for _ in range(n_per)]
    return x, y


def _duplicated_rows():
    x, y = _classes(6, 30, 3, seed=5)
    return np.vstack([x, x[:4], x[:2]]), y + y[:4] + y[:2]


# d >> n (the 2-d features), d <= n (acceptance c08), 2, 4 and 5 classes, and
# a rank-deficient training matrix.
TRAIN_CASES = {
    "wide_2_classes": lambda: _classes(4, 3000, 2, seed=1),
    "wide_4_classes": lambda: _classes(3, 1500, 4, seed=2),
    "tall_2_classes": lambda: _blobs(n_per=20, d=6, sep=3.0, seed=3),
    "tall_5_classes": lambda: _classes(10, 8, 5, seed=4),
    "duplicated_rows": _duplicated_rows,
}


class TestTrainRows:
    # One column block (2049: the trailing column is merged into it), two
    # blocks (4097: the second is 2049 wide) and the LBP-TOP length (10).
    @pytest.mark.parametrize("d", [5, 2048, 2049, 4097, 19_200])
    def test_rows_fit_is_bit_identical_to_fit_of_row_copy(self, d):
        rng = np.random.default_rng(d)
        x = rng.standard_normal((40, d))
        x[:, [0, d // 2]] = 2.5  # constant columns, scaled by 1
        y = [f"k{i % 3}" for i in range(40)]
        rows = rng.permutation(40)[:33]
        fit = train(x, y, rows=rows)
        ref = train(x[rows], [y[i] for i in rows])
        for name in ("weights", "bias", "mean", "scale"):
            assert np.array_equal(getattr(fit, name), getattr(ref, name)), name
        std = x[rows].std(axis=0)
        std[std == 0.0] = 1.0
        assert np.array_equal(fit.mean, x[rows].mean(axis=0))
        assert np.array_equal(fit.scale, std)

    def test_cross_val_peak_memory_bounded(self):
        # No (n_train, d) copy per fold: what is held beyond the matrix is
        # one column block, the test rows and the model.
        tracemalloc.start()
        try:
            x = np.random.default_rng(0).standard_normal((40, 20_000))
            y = [f"k{i % 4}" for i in range(40)]
            cross_val_proba(x, y, loso_split([i // 5 for i in range(40)]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * x.nbytes


class TestTrainOptimum:
    @pytest.mark.parametrize("case", sorted(TRAIN_CASES))
    def test_matches_primal_oracle(self, case):
        x, y = TRAIN_CASES[case]()
        probe = np.vstack([x, 0.5 * (x + x[::-1]), x.mean(axis=0) + 2 * x.std(axis=0)])
        fast = train(x, y).predict_proba_matrix(probe)
        ref = train_reference(x, y).predict_proba_matrix(probe)
        assert np.abs(fast - ref).max() <= 1e-6

    @pytest.mark.parametrize("case", sorted(TRAIN_CASES))
    def test_stationary(self, case):
        x, y = TRAIN_CASES[case]()
        assert np.linalg.norm(primal_gradient(train(x, y), x, y)) < 1e-6


class TestFuse:
    def test_endpoints_exact(self):
        p1 = np.array([[0.6, 0.4], [0.3, 0.7]])
        p2 = np.array([[0.2, 0.8], [0.9, 0.1]])
        assert np.array_equal(fuse(p1, p2, 0.0), p1)
        assert np.array_equal(fuse(p1, p2, 1.0), p2)

    def test_mixture_value(self):
        classes = ("c1", "c2")
        p1 = np.array([[0.6, 0.4]])
        p2 = np.array([[0.2, 0.8]])
        fused = fuse(p1, p2, 0.4)
        assert np.allclose(fused, [[0.44, 0.56]])
        assert classes[int(fused[0].argmax())] == "c2"

    def test_shape_mismatch_rejected(self):
        # an (n, C) array never broadcasts against a (1, C) row
        p = np.array([[0.5, 0.5]])
        with pytest.raises(ValueError, match="shape"):
            fuse(np.vstack([p, p]), p, 0.5)
        with pytest.raises(ValueError, match="shape"):
            fuse(p, np.array([[0.2, 0.3, 0.5]]), 0.5)

    def test_weight_out_of_range(self):
        p = np.array([[0.5, 0.5]])
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            fuse(p, p, 1.5)

    @given(st.lists(st.floats(0.001, 1.0), min_size=2, max_size=5),
           st.lists(st.floats(0.001, 1.0), min_size=2, max_size=5),
           st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 1.0]))
    @settings(max_examples=100)
    def test_simplex_preserved(self, raw1, raw2, a):
        n = min(len(raw1), len(raw2))
        v1 = np.array([raw1[:n]]) / np.sum(raw1[:n])
        v2 = np.array([raw2[:n]]) / np.sum(raw2[:n])
        fused = fuse(v1, v2, a)
        assert abs(fused.sum() - 1.0) <= 1e-9
        assert np.all(fused >= -1e-12)


class TestMetrics:
    def test_all_correct(self):
        r = metrics(["a", "b"], ["a", "b"])
        assert r.accuracy == 1.0 and r.f1 == 1.0

    def test_all_wrong_two_class(self):
        r = metrics(["b", "a"], ["a", "b"])
        assert r.accuracy == 0.0 and r.f1 == 0.0

    def test_hand_computed_example(self):
        r = metrics(["A", "B", "B", "B"], ["A", "A", "B", "B"])
        assert r.accuracy == pytest.approx(0.75)
        assert r.f1 == pytest.approx(0.7333, abs=1e-4)

    def test_confusion_consistency(self):
        truths = ["a", "a", "b", "c", "c", "c"]
        preds = ["a", "b", "b", "c", "a", "c"]
        r = metrics(preds, truths)
        assert np.trace(r.confusion) / len(truths) == r.accuracy
        for i, c in enumerate(r.classes):
            assert r.confusion[i].sum() == truths.count(c)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            metrics(["a"], ["a", "b"])

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=40))
    @settings(max_examples=200)
    def test_matches_loop_oracle(self, pairs):
        # predictions range over the same six classes as the truths, so they
        # often name a class absent from the truths
        truths = [f"c{t}" for t, _ in pairs]
        preds = [f"c{p}" for _, p in pairs]
        fast, ref = metrics(preds, truths), metrics_reference(preds, truths)
        assert fast.accuracy == ref.accuracy
        assert fast.f1 == ref.f1
        assert np.array_equal(fast.confusion, ref.confusion)
        assert fast.classes == ref.classes


class TestLoso:
    def test_grouping_example(self):
        folds = loso_split(["A", "A", "B"])
        assert len(folds) == 2
        assert folds[0] == ([2], [0, 1])  # fold A: test = A's samples
        assert folds[1] == ([0, 1], [2])

    def test_subject_disjointness_and_partition(self):
        subjects = ["s1", "s2", "s1", "s3", "s2", "s3", "s3"]
        folds = loso_split(subjects)
        seen = []
        for train_idx, test_idx in folds:
            train_subjects = {subjects[i] for i in train_idx}
            test_subjects = {subjects[i] for i in test_idx}
            assert not train_subjects & test_subjects
            seen.extend(test_idx)
        assert sorted(seen) == list(range(len(subjects)))

    def test_single_subject_rejected(self):
        with pytest.raises(ValueError):
            loso_split(["only", "only"])

    def test_loso_cross_val_runs(self):
        x, y = _blobs(n_per=12, seed=2)
        subjects = [f"s{i % 4}" for i in range(len(y))]
        result = cross_val_runs(x, y, [loso_split(subjects)])[1]
        assert len(result.per_fold) == 4
        assert 0.0 <= result.accuracy <= 1.0


class _PerfectModel:
    def __init__(self, features, labels):
        self.classes = tuple(sorted(set(labels)))
        self._known = {tuple(np.asarray(f).ravel()): l for f, l in zip(features, labels)}

    @property
    def n_features(self):
        return len(next(iter(self._known)))

    def predict_proba_matrix(self, x):
        out = np.zeros((x.shape[0], len(self.classes)))
        for i, row in enumerate(x):
            label = self._known.get(tuple(row))
            if label is None:
                out[i] = 1.0 / len(self.classes)
            else:
                out[i, self.classes.index(label)] = 1.0
        return out


class _FixedModel:
    """Returns the same probability row for every input."""

    def __init__(self, classes, row):
        self.classes = tuple(classes)
        self._row = np.asarray(row, dtype=np.float64)

    def predict_proba_matrix(self, x):
        return np.tile(self._row, (x.shape[0], 1))


class TestCrossValProba:
    def test_class_missing_from_a_fold_gets_a_zero_column(self, monkeypatch):
        # fold 0 trains on a and c only; fold 1 on every class
        x = np.arange(8.0)[:, None]
        y = ["a", "b", "c", "a", "b", "c", "a", "c"]
        folds = [([0, 2, 3, 5, 6, 7], [1, 4]), ([1, 2, 3, 4, 5, 6, 7], [0])] + \
            [([i for i in range(8) if i != j], [j]) for j in (2, 3, 5, 6, 7)]

        def fake_train(features, labels, rows):
            classes = sorted({labels[i] for i in rows})
            row = [0.6, 0.4] if classes == ["a", "c"] else [0.2, 0.3, 0.5]
            return _FixedModel(classes, row)

        monkeypatch.setattr(learn, "train", fake_train)
        proba, per_fold = cross_val_proba(x, y, folds)
        assert proba.shape == (8, 3)
        assert np.array_equal(proba[[1, 4]], [[0.6, 0.0, 0.4]] * 2)
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-12)
        assert per_fold[0] == 0.0  # the true class b is never predicted there

    @pytest.mark.parametrize("row", [[0.7, 0.7], [1.2, -0.2], [np.nan, 0.5],
                                     [0.5, 0.5 + 3e-9], [-3e-12, 1.0 + 3e-12]])
    def test_non_simplex_rows_rejected(self, row, monkeypatch):
        x, y = _blobs(n_per=4)
        folds = loso_split([i % 2 for i in range(len(y))])
        monkeypatch.setattr(learn, "train", lambda f, l, rows: _FixedModel(("neg", "pos"), row))
        with pytest.raises(ValueError, match="probabilities"):
            cross_val_proba(x, y, folds)

    def test_uncovered_samples_rejected(self):
        x, y = _blobs(n_per=4)
        folds = loso_split([i % 2 for i in range(len(y))])
        folds[1] = (folds[1][0], folds[1][1][1:])  # sample 1 is never tested
        with pytest.raises(ValueError, match=r"cover samples \[1\]$"):
            cross_val_proba(x, y, folds)

    def test_unknown_model_class_rejected(self, monkeypatch):
        x, y = _blobs(n_per=4)
        folds = loso_split([i % 2 for i in range(len(y))])
        monkeypatch.setattr(learn, "train",
                            lambda f, l, rows: _FixedModel(("neg", "zzz"), [0.5, 0.5]))
        with pytest.raises(ValueError, match="label set"):
            cross_val_proba(x, y, folds)

    def test_array_folds_scored_like_list_folds(self):
        x, y = _blobs(n_per=4, seed=1)
        one_out = [([i for i in range(8) if i != j], [j]) for j in range(8)]
        halves = [([0, 1, 4, 5], [2, 3, 6, 7]), ([2, 3, 6, 7], [0, 1, 4, 5])]
        for folds in (one_out, halves):
            proba, per_fold = cross_val_proba(x, y, folds)
            assert per_fold == [1.0] * len(folds)
            arrays = [(np.array(train_idx), np.array(test_idx)) for train_idx, test_idx in folds]
            got_proba, got_per_fold = cross_val_proba(x, y, arrays)
            assert np.array_equal(got_proba, proba)
            assert got_per_fold == per_fold

    def test_batched_rows_match_one_row_predictions(self):
        x, y = _blobs(n_per=6, seed=3)
        folds = loso_split([i % 3 for i in range(len(y))])
        proba, _ = cross_val_proba(x, y, folds)
        for train_idx, test_idx in folds:
            model = train(x[train_idx], [y[i] for i in train_idx])
            for i in test_idx:
                assert np.allclose(proba[i], model.predict_proba_matrix(x[i:i + 1])[0],
                                   rtol=0, atol=1e-15)


def _perfect_train(all_features, all_labels):
    lookup = _PerfectModel(all_features, all_labels)

    def fn(features, labels, rows):
        return lookup

    return fn


def _kfold_result(x, y, k, repeats, seed):
    return cross_val_runs(x, y, kfold_splits(y, k, repeats, seed))[1]


class TestKfold:
    def test_same_seed_bit_reproducible(self):
        x, y = _blobs(n_per=15, seed=6)
        r1 = _kfold_result(x, y, k=5, repeats=3, seed=11)
        r2 = _kfold_result(x, y, k=5, repeats=3, seed=11)
        assert r1.accuracy == r2.accuracy
        assert r1.f1 == r2.f1
        assert r1.per_fold == r2.per_fold
        assert np.array_equal(r1.confusion, r2.confusion)

    def test_fold_sizes_balanced(self):
        labels = ["a"] * 13 + ["b"] * 9
        rng = np.random.default_rng(0)
        folds = stratified_kfold_indices(labels, 5, rng)
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1
        assert sorted(i for f in folds for i in f) == list(range(22))

    def test_perfect_stub_scores_one(self, monkeypatch):
        x, y = _blobs(n_per=10, seed=1)
        monkeypatch.setattr(learn, "train", _perfect_train(x, y))
        result = _kfold_result(x, y, k=4, repeats=2, seed=0)
        assert result.accuracy == 1.0

    def test_splits_partition_each_repeat(self):
        labels = ["a"] * 7 + ["b"] * 5
        runs = kfold_splits(labels, k=3, repeats=4, seed=5)
        assert len(runs) == 4
        for folds in runs:
            assert len(folds) == 3
            for train_idx, test_idx in folds:
                assert not set(train_idx) & set(test_idx)
                assert sorted(train_idx + test_idx) == list(range(12))
            assert sorted(i for _, test_idx in folds for i in test_idx) == list(range(12))
        assert kfold_splits(labels, k=3, repeats=4, seed=5) == runs

    def test_each_distinct_fold_fitted_once(self, monkeypatch):
        # Six samples in three folds: ten repeats can draw few distinct folds.
        x, y = _blobs(n_per=3, seed=4)
        fold_runs = kfold_splits(y, 3, 10, seed=7)
        trained = []

        def counted(features, labels, rows):
            trained.append(tuple(rows))
            return train(features, labels, rows=rows)

        monkeypatch.setattr(learn, "train", counted)
        fitted = {}
        runs, result = cross_val_runs(x, y, fold_runs, fitted)
        distinct = {(tuple(tr), tuple(te)) for folds in fold_runs for tr, te in folds}
        assert len(distinct) < 3 * 10
        assert len(trained) == len(set(trained)) == len(distinct)
        assert set(fitted) == distinct

        # Bit-identical to one cross_val_proba per run with no shared dict.
        alone = [cross_val_proba(x, y, folds) for folds in fold_runs]
        for got, (want, _) in zip(runs, alone):
            assert np.array_equal(got, want)
        assert result.per_fold == [acc for _, accs in alone for acc in accs]
        classes = sorted(set(y))
        confusion = sum(metrics([classes[i] for i in p.argmax(axis=1)], y).confusion
                        for p, _ in alone)
        assert np.array_equal(result.confusion, confusion)

        # A second call with the same dict trains nothing; integer-array folds
        # hit the entries that list folds made.
        trained.clear()
        arrays = [[(np.array(tr), np.array(te)) for tr, te in folds] for folds in fold_runs]
        again, repeat = cross_val_runs(x, y, arrays, fitted)
        assert trained == []
        assert set(fitted) == distinct
        assert all(np.array_equal(a, b) for a, b in zip(again, runs))
        assert repeat.per_fold == result.per_fold

    def test_k_exceeds_samples_rejected(self):
        _, y = _blobs(n_per=2)
        with pytest.raises(ValueError, match="exceeds"):
            kfold_splits(y, k=10, repeats=1, seed=0)

    def test_k_below_two_or_no_repeats_rejected(self):
        _, y = _blobs(n_per=2)
        with pytest.raises(ValueError, match="k must be at least 2"):
            kfold_splits(y, k=1, repeats=1, seed=0)
        with pytest.raises(ValueError, match="repeats"):
            kfold_splits(y, k=2, repeats=0, seed=0)


class TestFusionSweep:
    def test_identical_streams_tie_returns_smallest(self):
        p = np.tile([0.7, 0.3], (4, 1))
        best_a, result = select_fusion_weight([p], [p], ["a"] * 4, classes=("a", "b"))
        assert best_a == 0.1
        assert result.accuracy == 1.0

    def test_perfect_second_stream_needs_half(self):
        # p1 puts 0.9 on the wrong class; the fused argmax flips only for
        # a/(1-a) > 0.8, i.e. a > 4/9, so 0.5 is the only winning grid point.
        p1 = np.tile([0.1, 0.9], (6, 1))
        p2 = np.tile([1.0, 0.0], (6, 1))
        best_a, result = select_fusion_weight([p1], [p2], ["a"] * 6, classes=("a", "b"))
        assert best_a == 0.5
        assert result.accuracy == 1.0

    def test_best_equals_max_over_grid(self):
        rng = np.random.default_rng(3)
        labels = ("a", "b", "c")
        truths = [labels[i % 3] for i in range(12)]
        def rand_rows():
            v = rng.uniform(0.05, 1.0, (len(truths), 3))
            return v / v.sum(axis=1, keepdims=True)
        p1 = rand_rows()
        p2 = rand_rows()
        best_a, result = select_fusion_weight([p1], [p2], truths)
        per_a = []
        for a in (0.1, 0.2, 0.3, 0.4, 0.5):
            predicted = fusion_reference(p1, p2, a, labels)
            per_a.append(sum(p == t for p, t in zip(predicted, truths)) / len(truths))
        assert result.accuracy == max(per_a)
        assert best_a == (0.1, 0.2, 0.3, 0.4, 0.5)[per_a.index(max(per_a))]

    def test_fusion_goes_through_learn_fuse(self, monkeypatch):
        # the benchmark tracer times fusion by wrapping learn.fuse
        rng = np.random.default_rng(8)
        truths = ["a", "b", "c"] * 4
        p1, p2 = rng.dirichlet(np.ones(3), (2, len(truths)))
        expected = select_fusion_weight([p1], [p2], truths)
        calls = []
        real = learn.fuse

        def counted(q1, q2, a):
            calls.append(a)
            return real(q1, q2, a)

        monkeypatch.setattr(learn, "fuse", counted)
        best_a, result = select_fusion_weight([p1], [p2], truths)
        assert calls == list(FUSION_WEIGHTS)
        assert best_a == expected[0]
        assert (result.accuracy, result.f1) == (expected[1].accuracy, expected[1].f1)
        assert np.array_equal(result.confusion, expected[1].confusion)

    def test_run_mean_argmax_beats_each_runs_own_best(self):
        # Every truth is "a"; each sample is (p1("a"), p2("a")) and is fused
        # correctly on a fixed range of the grid (0.1 .. 0.5):
        only_low = (0.55, 0.2)    # a = 0.1
        only_high = (0.1, 0.98)   # a = 0.5
        from_03 = (0.3, 1.0)      # a >= 0.3
        to_03 = (0.8, 0.0)        # a <= 0.3
        bumps = [from_03, to_03] * 2
        run1 = [only_low] * 3 + bumps    # correct counts 5, 2, 4, 2, 2
        run2 = [only_high] * 3 + bumps   # correct counts 2, 2, 4, 2, 5

        def streams(run):
            return (np.array([[u, 1 - u] for u, _ in run]),
                    np.array([[v, 1 - v] for _, v in run]))

        truths = ["a"] * 7
        classes = ("a", "b")
        (p1_r1, p2_r1), (p1_r2, p2_r2) = streams(run1), streams(run2)
        assert select_fusion_weight([p1_r1], [p2_r1], truths, classes=classes)[0] == 0.1
        assert select_fusion_weight([p1_r2], [p2_r2], truths, classes=classes)[0] == 0.5
        best_a, result = select_fusion_weight([p1_r1, p1_r2], [p2_r1, p2_r2], truths,
                                              classes=classes)
        assert best_a == 0.3
        assert result.accuracy == pytest.approx(4 / 7)
        assert result.confusion.sum() == 14

    def test_misaligned_inputs_rejected(self):
        p = np.array([[0.5, 0.5]])
        pp = np.vstack([p, p])
        classes = ("a", "b")
        with pytest.raises(ValueError, match="aligned"):
            select_fusion_weight([p], [pp], ["a"], classes=classes)
        with pytest.raises(ValueError, match="aligned"):
            select_fusion_weight([p, p], [p], ["a"], classes=classes)
        with pytest.raises(ValueError, match="aligned"):
            select_fusion_weight([p, p], [p, pp], ["a"], classes=classes)
        with pytest.raises(ValueError, match="aligned"):
            select_fusion_weight([], [], ["a"], classes=classes)

    @pytest.mark.parametrize("weight", [1.5, -0.1, float("nan")])
    def test_weight_outside_unit_interval_rejected(self, weight):
        p = np.array([[0.5, 0.5]])
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            fuse(p, p, weight)
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            select_fusion_weight([p], [p], ["a"], weights=(weight,), classes=("a", "b"))
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            select_fusion_weight([p], [p], ["a"], weights=(0.1, weight), classes=("a", "b"))

    def test_column_count_must_match_classes(self):
        p = np.array([[0.2, 0.3, 0.5]])
        with pytest.raises(ValueError, match="column"):
            select_fusion_weight([p], [p], ["a"], classes=("a", "b"))
        with pytest.raises(ValueError, match="column"):
            select_fusion_weight([p], [p], ["a"])  # default classes: the one truth label

