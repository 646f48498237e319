"""Confusion-matrix statistics: per-class and overall reports, Cohen's kappa
with standard error and confidence intervals, and one-vs-rest ROC AUC.

Conventions:
  * overall F1 is micro-averaged, which for single-label multiclass equals
    the observed accuracy;
  * overall TPR equals accuracy, FNR = 1 - accuracy, and FPR is the
    micro-averaged one-vs-rest false positive rate (1 - accuracy)/(k - 1);
  * both the observed accuracy and the mean per-class one-vs-rest accuracy
    are reported, since headline "accuracy" is defined either way in the
    wild;
  * confidence intervals use the normal approximation, with the accuracy CI
    clipped to [0, 1] and the kappa CI clipped to [-1, 1];
  * zero-denominator statistics are reported as 0.0 with ``degenerate`` set
    instead of NaN, so reports stay serializable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

_Z95 = 1.96  # conventional two-sided 95% normal quantile


@dataclass
class ConfusionMatrix:
    """k x k counts; rows are true classes, columns predicted classes."""
    counts: np.ndarray

    @property
    def k(self) -> int:
        return self.counts.shape[0]

    @property
    def n(self) -> int:
        return int(self.counts.sum())


def confusion(true_labels, predicted_labels, k: int) -> ConfusionMatrix:
    t = np.asarray(true_labels, dtype=np.int64)
    p = np.asarray(predicted_labels, dtype=np.int64)
    if t.shape != p.shape:
        raise ValueError(f"label arrays disagree: {t.shape} vs {p.shape}")
    for name, arr in (("true", t), ("predicted", p)):
        if arr.size and (arr.min() < 0 or arr.max() >= k):
            raise ValueError(f"{name} label out of range [0, {k})")
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, (t, p), 1)
    return ConfusionMatrix(counts=counts)


@dataclass
class ClassStats:
    accuracy: float
    f1: float
    error_rate: float
    fnr: float
    fpr: float
    specificity: float
    sensitivity: float
    support: int
    degenerate: bool = False
    auc: float | None = None
    auc_defined: bool = True


@dataclass
class OverallStats:
    accuracy: float
    mean_class_accuracy: float
    accuracy_ci95: tuple
    f1: float
    fnr: float
    fpr: float
    tnr: float
    tpr: float
    kappa: float
    kappa_se: float
    kappa_ci95: tuple
    n: int
    degenerate: bool = False


def _ratio(num: float, den: float):
    """num/den, or (0.0, flagged) when the denominator is zero."""
    if den == 0:
        return 0.0, True
    return num / den, False


def per_class_stats(cm: ConfusionMatrix) -> list:
    """One-vs-rest statistics for every class."""
    counts = cm.counts
    n = cm.n
    if n == 0:
        raise ValueError("empty confusion matrix")
    out = []
    for j in range(cm.k):
        tp = float(counts[j, j])
        fn = float(counts[j].sum() - tp)
        fp = float(counts[:, j].sum() - tp)
        tn = float(n - tp - fn - fp)
        sens, d1 = _ratio(tp, tp + fn)
        spec, d2 = _ratio(tn, tn + fp)
        fpr, d3 = _ratio(fp, fp + tn)
        fnr, d4 = _ratio(fn, fn + tp)
        f1, d5 = _ratio(2 * tp, 2 * tp + fp + fn)
        acc = (tp + tn) / n
        out.append(ClassStats(accuracy=acc, f1=f1, error_rate=1.0 - acc,
                              fnr=fnr, fpr=fpr, specificity=spec, sensitivity=sens,
                              support=int(tp + fn),
                              degenerate=d1 or d2 or d3 or d4 or d5))
    return out


def accuracy_ci95(p_o: float, n: int) -> tuple:
    """Normal-approximation 95% CI for a proportion, clipped to [0, 1]."""
    half = _Z95 * np.sqrt(p_o * (1.0 - p_o) / n)
    return (max(0.0, p_o - half), min(1.0, p_o + half))


def kappa_se(p_o: float, p_e: float, n: int) -> float:
    """Standard error of Cohen's kappa: sqrt(p_o(1-p_o) / (n(1-p_e)^2))."""
    return float(np.sqrt(p_o * (1.0 - p_o) / (n * (1.0 - p_e) ** 2)))


def kappa_ci95(kappa: float, se: float) -> tuple:
    """Normal-approximation 95% CI for kappa, clipped to [-1, 1]."""
    return (max(-1.0, kappa - _Z95 * se), min(1.0, kappa + _Z95 * se))


def overall_stats(cm: ConfusionMatrix) -> OverallStats:
    counts = cm.counts
    n = cm.n
    if n == 0:
        raise ValueError("empty confusion matrix")
    k = cm.k
    p_o = float(counts.trace()) / n
    rows = counts.sum(axis=1).astype(np.float64)
    cols = counts.sum(axis=0).astype(np.float64)
    p_e = float(rows @ cols) / (n * n)
    fnr = 1.0 - p_o
    fpr = fnr / (k - 1)
    mean_class_acc = 1.0 - 2.0 * fnr / k
    degenerate = p_e == 1.0
    if degenerate:
        kappa, se, ci = 0.0, 0.0, (0.0, 0.0)
    else:
        kappa = (p_o - p_e) / (1.0 - p_e)
        se = kappa_se(p_o, p_e, n)
        ci = kappa_ci95(kappa, se)
    return OverallStats(accuracy=p_o,
                        mean_class_accuracy=mean_class_acc,
                        accuracy_ci95=accuracy_ci95(p_o, n),
                        f1=p_o, fnr=fnr, fpr=fpr, tnr=1.0 - fpr, tpr=p_o,
                        kappa=kappa, kappa_se=se, kappa_ci95=ci,
                        n=n, degenerate=degenerate)


# ---------------------------------------------------------------------------
# one-vs-rest ROC AUC via the rank statistic
# ---------------------------------------------------------------------------

def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the group average."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.shape[0], dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < len(sorted_vals):
        j = i
        while j + 1 < len(sorted_vals) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def auc_ovr(scores: np.ndarray, true_labels) -> list:
    """Per-class one-vs-rest AUC from class scores [n, k].

    AUC_j = (sum of positive midranks - P(P+1)/2) / (P*N); classes without
    both a positive and a negative sample come back as None.
    """
    y = np.asarray(true_labels, dtype=np.int64)
    if scores.ndim != 2 or scores.shape[0] != y.shape[0]:
        raise ValueError(f"scores {scores.shape} incompatible with {y.shape[0]} labels")
    n, k = scores.shape
    out = []
    for j in range(k):
        pos = y == j
        p = int(pos.sum())
        q = n - p
        if p == 0 or q == 0:
            out.append(None)
            continue
        ranks = _midranks(scores[:, j])
        auc = (ranks[pos].sum() - p * (p + 1) / 2.0) / (p * q)
        out.append(float(auc))
    return out


# ---------------------------------------------------------------------------
# consolidated report
# ---------------------------------------------------------------------------

@dataclass
class Report:
    class_names: list
    overall: OverallStats
    per_class: list
    split: str = "test"
    total_params: int | None = None


def classification_report(true_labels, probs: np.ndarray, class_names,
                          split: str = "test", total_params: int | None = None) -> Report:
    k = len(class_names)
    cm = confusion(true_labels, probs.argmax(axis=1), k)
    per_class = per_class_stats(cm)
    for stats, auc in zip(per_class, auc_ovr(probs, true_labels)):
        stats.auc = auc
        stats.auc_defined = auc is not None
    return Report(class_names=list(class_names), overall=overall_stats(cm),
                  per_class=per_class, split=split, total_params=total_params)


_OVERALL_KEYS = (
    ("accuracy", "Accuracy"),
    ("mean_class_accuracy", "Mean per-class accuracy"),
    ("accuracy_ci95", "95% CI"),
    ("f1", "F1 Score"),
    ("fnr", "False Negative Rate"),
    ("fpr", "False Positive Rate"),
    ("tnr", "True Negative Rate"),
    ("tpr", "True Positive Rate"),
    ("kappa", "Kappa"),
    ("kappa_ci95", "Kappa 95% CI"),
    ("kappa_se", "Kappa Standard Error"),
)

_CLASS_KEYS = (
    ("accuracy", "Accuracy"),
    ("f1", "F1 Score"),
    ("auc", "AUC"),
    ("error_rate", "Error rate"),
    ("fnr", "False Negative Rate"),
    ("fpr", "False Positive Rate"),
    ("specificity", "Specificity"),
    ("sensitivity", "Sensitivity"),
)


def report_to_dict(report: Report) -> dict:
    """Stable machine-readable form: every field of the overall and of each
    class's stats."""
    per_class = [{**asdict(st), "class": name}
                 for name, st in zip(report.class_names, report.per_class)]
    out = {"split": report.split, "overall": asdict(report.overall), "per_class": per_class,
           "class_names": list(report.class_names)}
    if report.total_params is not None:
        out["total_params"] = report.total_params
    return out


def _fmt(value) -> str:
    if value is None:
        return "undefined"
    if isinstance(value, tuple) or isinstance(value, list):
        return "(" + ", ".join(_fmt(v) for v in value) + ")"
    if isinstance(value, float):
        return f"{value:.5f}"
    return str(value)


def format_overall_table(report: Report) -> str:
    rows = [("Merits", "Value")]
    for key, label in _OVERALL_KEYS:
        rows.append((label, _fmt(getattr(report.overall, key))))
    if report.total_params is not None:
        rows.append(("Total params", f"{report.total_params:,}"))
    width = max(len(r[0]) for r in rows) + 2
    lines = [f"{label:<{width}}{value}" for label, value in rows]
    return "\n".join(lines)


def format_class_table(report: Report) -> str:
    header = ["Statistic"] + list(report.class_names)
    table = [header]
    for key, label in _CLASS_KEYS:
        row = [label]
        for st in report.per_class:
            row.append(_fmt(getattr(st, key)))
        table.append(row)
    widths = [max(len(row[c]) for row in table) + 2 for c in range(len(header))]
    lines = ["".join(f"{cell:<{w}}" for cell, w in zip(row, widths)).rstrip() for row in table]
    return "\n".join(lines)


def format_report(report: Report) -> str:
    return (f"Overall statistics ({report.split} split, n={report.overall.n})\n"
            f"{format_overall_table(report)}\n\n"
            f"Per-class statistics\n{format_class_table(report)}\n")
