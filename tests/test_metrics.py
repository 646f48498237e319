import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from temporal_augmenter.metrics import (
    Report,
    accuracy_ci95,
    auc_ovr,
    classification_report,
    confusion,
    format_class_table,
    format_overall_table,
    format_report,
    kappa_ci95,
    kappa_se,
    overall_stats,
    per_class_stats,
    report_to_dict,
)
from temporal_augmenter.tensor_core import Rng


# ---------------------------------------------------------------------------
# independent brute-force oracles (definitional formulas, no shared code)
# ---------------------------------------------------------------------------

def expected_agreement_from_kappa(p_o: float, kappa: float) -> float:
    """Invert kappa = (p_o - p_e)/(1 - p_e) to recover p_e."""
    return (p_o - kappa) / (1.0 - kappa)


def brute_per_class(counts):
    n = counts.sum()
    k = counts.shape[0]
    out = []
    for j in range(k):
        tp = counts[j, j]
        fn = sum(counts[j, c] for c in range(k)) - tp
        fp = sum(counts[r, j] for r in range(k)) - tp
        tn = n - tp - fn - fp
        div = lambda a, b: a / b if b else 0.0
        out.append({
            "sensitivity": div(tp, tp + fn),
            "specificity": div(tn, tn + fp),
            "fpr": div(fp, fp + tn),
            "fnr": div(fn, fn + tp),
            "accuracy": (tp + tn) / n,
            "f1": div(2 * tp, 2 * tp + fp + fn),
        })
    return out


def brute_overall(counts):
    n = counts.sum()
    k = counts.shape[0]
    p_o = sum(counts[j, j] for j in range(k)) / n
    p_e = sum(counts[j].sum() * counts[:, j].sum() for j in range(k)) / n ** 2
    z = 1.96
    half = z * math.sqrt(p_o * (1 - p_o) / n)
    out = {
        "accuracy": p_o,
        "ci_lo": max(0.0, p_o - half),
        "ci_hi": min(1.0, p_o + half),
    }
    if p_e < 1.0:
        kappa = (p_o - p_e) / (1 - p_e)
        se = math.sqrt(p_o * (1 - p_o) / (n * (1 - p_e) ** 2))
        out.update(kappa=kappa, se=se,
                   k_lo=max(-1.0, kappa - z * se), k_hi=min(1.0, kappa + z * se))
    return out


def brute_auc(scores_j, y_binary):
    """Exhaustive pairwise concordance with half credit for ties."""
    pos = [s for s, y in zip(scores_j, y_binary) if y]
    neg = [s for s, y in zip(scores_j, y_binary) if not y]
    if not pos or not neg:
        return None
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestConfusion:
    def test_perfect_two_class(self):
        counts = confusion([0, 0, 1, 1], [0, 0, 1, 1], 2)
        npt.assert_array_equal(counts, [[2, 0], [0, 2]])
        assert counts.sum() == 4

    def test_all_predicted_class_zero(self):
        counts = confusion([0, 1, 2], [0, 0, 0], 3)
        assert counts[:, 0].sum() == 3
        assert counts[:, 1:].sum() == 0

    def test_matches_brute_force_tally(self):
        rng = Rng(201)
        t = (rng.uniform((1000,)) * 4).astype(np.int64)
        p = (rng.uniform((1000,)) * 4).astype(np.int64)
        counts = confusion(t, p, 4)
        tally = np.zeros((4, 4), dtype=np.int64)
        for a, b in zip(t, p):
            tally[a, b] += 1
        npt.assert_array_equal(counts, tally)


class TestPerClassStats:
    def test_perfect_diagonal(self):
        stats = per_class_stats(np.array([[2, 0], [0, 2]]))
        for st in stats:
            assert st.sensitivity == 1.0
            assert st.specificity == 1.0
            assert st.f1 == 1.0
            assert not st.degenerate

    def test_hand_tally(self):
        stats = per_class_stats(np.array([[4, 1], [2, 3]]))
        st = stats[0]
        assert abs(st.sensitivity - 0.8) < 1e-15
        assert abs(st.specificity - 0.6) < 1e-15
        assert abs(st.f1 - 8 / 11) < 1e-15
        assert abs(st.f1 - 0.72727) < 1e-5

    def test_zero_support_flagged(self):
        stats = per_class_stats(np.array([[3, 0, 0], [1, 2, 0], [0, 0, 0]]))
        assert stats[2].degenerate
        assert stats[2].sensitivity == 0.0
        assert stats[2].f1 == 0.0

    def test_internal_identities(self):
        rng = Rng(202)
        counts = (rng.uniform((5, 5)) * 30).astype(np.int64)
        for st in per_class_stats(counts):
            assert abs(st.sensitivity - (1.0 - st.fnr)) < 1e-12
            assert abs(st.specificity - (1.0 - st.fpr)) < 1e-12
            assert abs(st.error_rate - (1.0 - st.accuracy)) < 1e-12


class TestOverallStats:
    def test_hand_calculation(self):
        ov = overall_stats(np.array([[4, 1], [2, 3]]))
        assert abs(ov.accuracy - 0.7) < 1e-15
        assert abs(ov.kappa - 0.4) < 1e-15
        assert abs(ov.kappa_se - math.sqrt(0.084)) < 1e-15
        assert abs(ov.kappa_se - 0.28983) < 1e-5
        npt.assert_allclose(ov.kappa_ci95, (-0.16807, 0.96807), atol=1e-5)

    def test_kappa_ci_clips_to_pm1(self):
        ov = overall_stats(np.array([[3, 0], [0, 2]]))
        assert ov.kappa == 1.0
        assert ov.kappa_ci95 == (1.0, 1.0)

    def test_perfect_diagonal_kappa_one(self):
        ov = overall_stats(np.array([[2, 0], [0, 2]]))
        assert ov.kappa == 1.0

    def test_degenerate_single_cell(self):
        ov = overall_stats(np.array([[5, 0], [0, 0]]))
        assert ov.degenerate
        assert ov.kappa == 0.0

    def test_radar_table_reproduction(self):
        """Pinned regression: the published radar test split is [[44,0],[3,24]]."""
        ov = overall_stats(np.array([[44, 0], [3, 24]]))
        assert ov.n == 71
        assert abs(ov.accuracy - 0.95775) < 5e-5
        assert abs(ov.f1 - 0.95775) < 5e-5
        assert abs(ov.fnr - 0.04225) < 5e-5
        assert abs(ov.fpr - 0.04225) < 5e-5
        assert abs(ov.tnr - 0.95775) < 5e-5
        assert abs(ov.tpr - 0.95775) < 5e-5
        assert abs(ov.kappa - 0.90839) < 5e-5
        assert abs(ov.kappa_se - 0.05176) < 5e-5
        npt.assert_allclose(ov.accuracy_ci95, (0.91095, 1.0), atol=5e-5)
        npt.assert_allclose(ov.kappa_ci95, (0.80693, 1.0), atol=5e-5)

    def test_radar_arithmetic_from_summary_quantities(self):
        p_o, n, kappa = 0.95775, 71, 0.90839
        p_e = expected_agreement_from_kappa(p_o, kappa)
        lo, hi = accuracy_ci95(p_o, n)
        assert abs(lo - 0.91095) < 5e-5 and abs(hi - 1.0) < 5e-5
        se = kappa_se(p_o, p_e, n)
        assert abs(se - 0.05176) < 5e-5
        klo, khi = kappa_ci95(kappa, se)
        assert abs(klo - 0.80693) < 5e-5 and abs(khi - 1.0) < 5e-5


def random_confusion(rng, k, scale=40):
    counts = (rng.uniform((k, k)) * scale).astype(np.int64)
    if counts.sum() == 0:
        counts[0, 0] = 1
    return counts


class TestBruteForceEquivalence:
    def test_thousand_random_matrices(self):
        rng = Rng(203)
        for trial in range(1000):
            k = 2 + trial % 6
            counts = random_confusion(rng, k)
            mine = per_class_stats(counts)
            ref = brute_per_class(counts)
            for st, expected in zip(mine, ref):
                for key, value in expected.items():
                    assert abs(getattr(st, key) - value) < 1e-12, (trial, key)
            ov = overall_stats(counts)
            ref_ov = brute_overall(counts)
            assert abs(ov.accuracy - ref_ov["accuracy"]) < 1e-12
            assert abs(ov.accuracy_ci95[0] - ref_ov["ci_lo"]) < 1e-12
            assert abs(ov.accuracy_ci95[1] - ref_ov["ci_hi"]) < 1e-12
            if "kappa" in ref_ov:
                assert abs(ov.kappa - ref_ov["kappa"]) < 1e-12
                assert abs(ov.kappa_se - ref_ov["se"]) < 1e-12
                assert abs(ov.kappa_ci95[0] - ref_ov["k_lo"]) < 1e-12
                assert abs(ov.kappa_ci95[1] - ref_ov["k_hi"]) < 1e-12

    def test_permuting_classes_permutes_reports(self):
        rng = Rng(204)
        counts = random_confusion(rng, 4, scale=25)
        perm = [2, 0, 3, 1]
        permuted = counts[np.ix_(perm, perm)]
        base = per_class_stats(counts)
        shuffled = per_class_stats(permuted)
        for new_idx, old_idx in enumerate(perm):
            assert shuffled[new_idx] == base[old_idx]
        a, b = overall_stats(counts), overall_stats(permuted)
        assert a == b


class TestAUC:
    def test_perfect_separation(self):
        scores = np.array([[0.9], [0.8], [0.1], [0.2]])
        scores = np.hstack([1 - scores, scores])
        assert auc_ovr(scores, [1, 1, 0, 0])[1] == 1.0

    def test_three_of_four_concordant(self):
        col = np.array([0.8, 0.4, 0.6, 0.2])
        scores = np.column_stack([1 - col, col])
        assert abs(auc_ovr(scores, [1, 1, 0, 0])[1] - 0.75) < 1e-15

    def test_all_equal_scores_give_half(self):
        scores = np.full((6, 2), 0.5)
        out = auc_ovr(scores, [0, 0, 0, 1, 1, 1])
        assert out[0] == 0.5 and out[1] == 0.5

    def test_single_class_flagged(self):
        # with only one class present, every one-vs-rest AUC is undefined:
        # the absent class has no positives and the present one no negatives
        scores = Rng(205).uniform((5, 2))
        out = auc_ovr(scores, [1, 1, 1, 1, 1])
        assert out == [None, None]
        out = auc_ovr(scores, [0, 0, 0, 1, 1])
        assert out[0] is not None and out[1] is not None

    def test_matches_exhaustive_pairwise_with_ties(self):
        rng = Rng(206)
        for trial in range(20):
            n = 20 + int(rng.uniform(()) * 180)
            k = 2 + trial % 3
            # quantize to force plenty of ties
            scores = np.round(rng.uniform((n, k)) * 10) / 10
            y = (rng.uniform((n,)) * k).astype(np.int64)
            mine = auc_ovr(scores, y)
            for j in range(k):
                ref = brute_auc(scores[:, j].tolist(), (y == j).tolist())
                if ref is None:
                    assert mine[j] is None
                else:
                    assert abs(mine[j] - ref) < 1e-12


class TestReports:
    def make_report(self):
        rng = Rng(207)
        probs = rng.uniform((60, 3))
        probs /= probs.sum(axis=1, keepdims=True)
        y = (rng.uniform((60,)) * 3).astype(np.int64)
        return classification_report(y, probs, ["ant", "bee", "cat"], split="test",
                                     total_params=1234)

    def test_dict_keys_stable(self):
        d = report_to_dict(self.make_report())
        assert set(d["overall"]) >= {
            "accuracy", "mean_class_accuracy", "accuracy_ci95", "f1", "fnr", "fpr",
            "tnr", "tpr", "kappa", "kappa_ci95", "kappa_standard_error"
            .replace("kappa_standard_error", "kappa_se"), "n"}
        assert [e["class"] for e in d["per_class"]] == ["ant", "bee", "cat"]
        for entry in d["per_class"]:
            assert {"accuracy", "f1", "auc", "error_rate", "fnr", "fpr",
                    "specificity", "sensitivity"} <= set(entry)
        json.dumps(d)  # must be serializable

    def test_table_rows_match_published_names(self):
        report = self.make_report()
        text = format_overall_table(report)
        for row in ("95% CI", "Accuracy", "F1 Score", "False Negative Rate",
                    "False Positive Rate", "True Negative Rate", "True Positive Rate",
                    "Kappa", "Kappa 95% CI", "Kappa Standard Error", "Total params"):
            assert row in text, row
        class_text = format_class_table(report)
        for row in ("Accuracy", "F1 Score", "AUC", "Error rate", "False Negative Rate",
                    "False Positive Rate", "Specificity", "Sensitivity"):
            assert row in class_text, row
        assert "ant" in class_text and "cat" in class_text

    def test_format_report_includes_split(self):
        text = format_report(self.make_report())
        assert "test split" in text

    def test_mean_class_accuracy_identity(self):
        # mean one-vs-rest accuracy == 1 - 2*(1-p_o)/k for single-label data
        report = self.make_report()
        mean_acc = np.mean([st.accuracy for st in report.per_class])
        assert abs(report.overall.mean_class_accuracy - mean_acc) < 1e-12

