"""Pluggable judge back-ends scoring generated samples.

Two trainable toy judges stand in for the real vision-language models: a
generative term classifier scored against the answer rubric, and a bi-encoder
contrastive judge trained with the symmetric InfoNCE loss over cosine
similarities, with both hard negatives extending the text pool. Either can be
replaced by an external process speaking the newline-delimited JSON protocol.

Both judges consume world-frame coordinates plus the camera pose, so the
camera-relative frame has to be learned; that is the manufactured initial
weakness the loop exploits.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import prompts
from .datasets import SampleRecord, record_to_dict
from .nets import Mlp, NetOptimizer, load_net, save_net

RUBRIC_MIN = 1
RUBRIC_MAX = 5

GENERATIVE_FEATURE_DIM = 28
IMAGE_FEATURE_DIM = 40
TEXT_FEATURE_DIM = 20
DEFAULT_EMBED_DIM = 32
DEFAULT_TEMPERATURE = 0.07

_TEXT_FUNCTION_WORDS = ("the", "is", "of", "and", "to")


class JudgeError(RuntimeError):
    pass


@dataclass(frozen=True)
class JudgeVerdict:
    sample_id: int
    predicted_terms: frozenset[str] | None = None
    rubric: int | None = None
    similarities: tuple[float, float, float] | None = None  # positive, neg_term, neg_object
    ranked_correct: bool | None = None
    flagged: bool = False


@dataclass
class FineTuneReport:
    losses: list[float] = field(default_factory=list)


# --- rubric --------------------------------------------------------------------


def rubric_score(predicted: frozenset[str] | set[str], truth: frozenset[str] | set[str]) -> int:
    """Score a predicted primitive set against the truth terms.

    Base: 5 all correct, 4 for 2-of-3, 3 for 1-of-2, 2 for 1-of-3, 1 for none.
    Stacking -1 penalties (floored at 1) for using the opposite of a truth term
    and for predicting more terms than the truth has.
    """
    truth = frozenset(truth)
    predicted = frozenset(predicted)
    if len(truth) not in (1, 2, 3):
        raise ValueError("truth must contain 1 to 3 terms")
    correct = len(truth & predicted)
    if correct == len(truth):
        score = 5
    elif len(truth) == 3 and correct == 2:
        score = 4
    elif len(truth) == 2 and correct == 1:
        score = 3
    elif len(truth) == 3 and correct == 1:
        score = 2
    else:
        score = 1
    if any(prompts.OPPOSITES[t] in predicted for t in truth):
        score -= 1
    if len(predicted) > len(truth):
        score -= 1
    return max(score, RUBRIC_MIN)


def _mean_rubric(verdicts: list[JudgeVerdict]) -> np.floating:
    scores = [v.rubric for v in verdicts if v.rubric is not None]
    if not scores:
        raise JudgeError("no scored verdicts")
    return np.mean(scores)


# --- contrastive loss ------------------------------------------------------------


def _normalize_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("zero-norm embedding row")
    return x / norms, norms


def contrastive_loss_components(
    image_embeddings: np.ndarray,
    text_embeddings: np.ndarray,
    temperature: float,
    positive_index: np.ndarray | None = None,
) -> tuple[float, float, float]:
    """(total, image-to-text, text-to-image) symmetric InfoNCE over cosine
    similarities. The first N texts are the positives unless positive_index
    maps image i to its positive text; texts beyond N only widen the
    image-to-text denominator.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    z = np.asarray(image_embeddings, dtype=float)
    w = np.asarray(text_embeddings, dtype=float)
    n, m = z.shape[0], w.shape[0]
    if m < n:
        raise ValueError("text pool must be at least as large as the image batch")
    pos = np.arange(n) if positive_index is None else np.asarray(positive_index)
    zn, _ = _normalize_rows(z)
    wn, _ = _normalize_rows(w)
    sims = zn @ wn.T / temperature  # (n, m)

    row_lse = _logsumexp(sims, axis=1)
    l_i2t = float(np.mean(row_lse - sims[np.arange(n), pos]))

    cols = sims[:, pos]  # (n images, n positive texts)
    col_lse = _logsumexp(cols, axis=0)
    l_t2i = float(np.mean(col_lse - cols[np.arange(n), np.arange(n)]))
    return (l_i2t + l_t2i) / 2.0, l_i2t, l_t2i


def contrastive_loss(
    image_embeddings, text_embeddings, temperature, positive_index=None
) -> float:
    return contrastive_loss_components(
        image_embeddings, text_embeddings, temperature, positive_index
    )[0]


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    hi = np.max(x, axis=axis, keepdims=True)
    return (hi + np.log(np.sum(np.exp(x - hi), axis=axis, keepdims=True))).squeeze(axis)


def contrastive_loss_and_grads(
    image_embeddings: np.ndarray, text_embeddings: np.ndarray, temperature: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss plus gradients w.r.t. the raw (unnormalized) embeddings, with the
    identity positive map. Used to backpropagate into the two encoders.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    z = np.asarray(image_embeddings, dtype=float)
    w = np.asarray(text_embeddings, dtype=float)
    n, m = z.shape[0], w.shape[0]
    zn, z_norms = _normalize_rows(z)
    wn, w_norms = _normalize_rows(w)
    sims = zn @ wn.T / temperature

    row_lse = _logsumexp(sims, axis=1)
    cols = sims[:, :n]
    col_lse = _logsumexp(cols, axis=0)
    diag = sims[np.arange(n), np.arange(n)]
    loss = float(np.mean(row_lse - diag) + np.mean(col_lse - diag)) / 2.0

    p_row = np.exp(sims - row_lse[:, None])  # (n, m) row softmax
    p_col = np.exp(cols - col_lse[None, :])  # (n, n) column softmax
    grad_s = p_row / (2.0 * n)
    grad_s[:, :n] += p_col / (2.0 * n)
    grad_s[np.arange(n), np.arange(n)] -= 2.0 / (2.0 * n)

    grad_zn = grad_s @ wn / temperature
    grad_wn = grad_s.T @ zn / temperature
    grad_z = (grad_zn - (np.sum(grad_zn * zn, axis=1, keepdims=True)) * zn) / z_norms
    grad_w = (grad_wn - (np.sum(grad_wn * wn, axis=1, keepdims=True)) * wn) / w_norms
    return loss, grad_z, grad_w


# --- feature builders ---------------------------------------------------------------


def generative_features(rec: SampleRecord, catalog_names: tuple[str, ...]) -> np.ndarray:
    """One-hot subject and reference types, their world positions, camera
    position and yaw; 28 values.
    """
    idx = {name: i for i, name in enumerate(catalog_names)}
    out = np.zeros(GENERATIVE_FEATURE_DIM)
    out[idx[rec.subject]] = 1.0
    out[9 + idx[rec.reference]] = 1.0
    out[18:21] = rec.position_of(rec.subject)
    out[21:24] = rec.position_of(rec.reference)
    out[24:27] = rec.camera.position
    out[27] = rec.camera.yaw
    return out


def image_features(rec: SampleRecord, catalog_names: tuple[str, ...]) -> np.ndarray:
    """Full scene metadata: per active slot a type one-hot plus position, then
    camera position and yaw; 40 values.
    """
    idx = {name: i for i, name in enumerate(catalog_names)}
    out = np.zeros(IMAGE_FEATURE_DIM)
    for slot, (name, pos, _yaw) in enumerate(rec.objects):
        base = slot * 12
        out[base + idx[name]] = 1.0
        out[base + 9 : base + 12] = pos
    out[36:39] = rec.camera.position
    out[39] = rec.camera.yaw
    return out


def text_features(caption: str, catalog_names: tuple[str, ...]) -> np.ndarray:
    """Position-weighted token bag over a 20-word vocabulary: the 9 object
    names, the 6 spatial primitives, and 5 function words. Weighting a token
    by 1/(1+word index) keeps subject/reference order distinguishable.
    """
    cleaned = "".join(c.lower() if c.isalnum() else " " for c in caption)
    words = cleaned.split()
    name_words = [tuple(name.split()) for name in catalog_names]
    out = np.zeros(TEXT_FEATURE_DIM)
    i = 0
    while i < len(words):
        weight = 1.0 / (1.0 + i)
        matched = False
        for slot, parts in enumerate(name_words):
            if tuple(words[i : i + len(parts)]) == parts:
                out[slot] += weight
                i += len(parts)
                matched = True
                break
        if matched:
            continue
        w = words[i]
        if w in ("front", "behind", "left", "right", "above", "below"):
            out[9 + prompts.PRIMITIVES.index(w)] += weight
        elif w in _TEXT_FUNCTION_WORDS:
            out[15 + _TEXT_FUNCTION_WORDS.index(w)] += weight
        i += 1
    return out


# --- generative judge -----------------------------------------------------------------


class GenerativeJudge:
    """Multi-label term classifier on scene-pair features, scored by the rubric."""

    kind = "generative"

    def __init__(
        self,
        catalog_names: tuple[str, ...],
        hidden: tuple[int, ...] = (64, 64),
        seed: int | np.random.SeedSequence = 0,
        lr: float = 1e-3,
        threshold: float = 0.5,
        minibatch: int = 64,
    ):
        seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        net_seed, rng_seed = seq.spawn(2)
        self.catalog_names = tuple(catalog_names)
        sizes = [GENERATIVE_FEATURE_DIM, *hidden, len(prompts.PRIMITIVES)]
        self.net = Mlp(sizes, seed=net_seed)
        self.optimizer = NetOptimizer(self.net, lr=lr)
        self.threshold = threshold
        self.minibatch = minibatch
        self._rng = np.random.default_rng(rng_seed)

    def features(self, samples: list[SampleRecord]) -> np.ndarray:
        return np.stack([generative_features(r, self.catalog_names) for r in samples])

    def targets(self, samples: list[SampleRecord]) -> np.ndarray:
        t = np.zeros((len(samples), len(prompts.PRIMITIVES)))
        for i, rec in enumerate(samples):
            for term in rec.truth_terms():
                t[i, prompts.PRIMITIVES.index(term)] = 1.0
        return t

    def predict_terms(self, samples: list[SampleRecord]) -> list[frozenset[str]]:
        logits = self.net.forward(self.features(samples))
        self.net.invalidate_cache()
        probs = 1.0 / (1.0 + np.exp(-logits))
        out = []
        for row in probs:
            out.append(
                frozenset(
                    term
                    for term, p in zip(prompts.PRIMITIVES, row)
                    if p > self.threshold
                )
            )
        return out

    def infer(self, samples: list[SampleRecord]) -> list[JudgeVerdict]:
        return [
            JudgeVerdict(rec.id, predicted_terms=predicted,
                         rubric=rubric_score(predicted, rec.truth_terms()))
            for rec, predicted in zip(samples, self.predict_terms(samples))
        ]

    def validation_metric(self, samples: list[SampleRecord]) -> float:
        return float(_mean_rubric(self.infer(samples)))

    def batch_reward(self, verdicts: list[JudgeVerdict]) -> float:
        return float((6.0 - _mean_rubric(verdicts)) ** 2)

    def finetune(self, samples: list[SampleRecord], steps: int) -> FineTuneReport:
        """Optimizer steps of multi-label cross-entropy on seeded minibatches;
        weights resume from wherever the previous call left them.
        """
        if not samples:
            raise JudgeError("empty fine-tuning batch")
        x = self.features(samples)
        t = self.targets(samples)
        report = FineTuneReport()
        for _ in range(steps):
            take = min(self.minibatch, len(samples))
            idx = self._rng.choice(len(samples), size=take, replace=False)
            logits = self.net.forward(x[idx])
            probs = 1.0 / (1.0 + np.exp(-logits))
            eps = 1e-12
            loss = float(
                -np.mean(
                    np.sum(
                        t[idx] * np.log(probs + eps)
                        + (1.0 - t[idx]) * np.log(1.0 - probs + eps),
                        axis=1,
                    )
                )
            )
            if not np.isfinite(loss):
                raise JudgeError("non-finite fine-tuning loss")
            grads, _ = self.net.backward((probs - t[idx]) / take)
            self.optimizer.step(grads)
            report.losses.append(loss)
        return report

    def digest(self) -> str:
        return self.net.digest()

    def save(self, directory) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        save_net(self.net, directory / "classifier.net")

    def load(self, directory) -> None:
        self.net = load_net(Path(directory) / "classifier.net")
        self.optimizer = NetOptimizer(self.net, lr=self.optimizer.adam.lr)


# --- contrastive judge ------------------------------------------------------------------


class ContrastiveJudge:
    """Bi-encoder over scene metadata and caption token bags; both hard
    negatives extend the text pool during training and inference.
    """

    kind = "contrastive"

    def __init__(
        self,
        catalog_names: tuple[str, ...],
        hidden: tuple[int, ...] = (64, 64),
        embed_dim: int = DEFAULT_EMBED_DIM,
        temperature: float = DEFAULT_TEMPERATURE,
        seed: int | np.random.SeedSequence = 0,
        lr: float = 1e-3,
        minibatch: int = 256,
        pool_negatives: str = "both",
    ):
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        if pool_negatives not in ("both", "term", "object"):
            raise ValueError(f"bad negative pool mode {pool_negatives!r}")
        seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        img_seed, txt_seed, rng_seed = seq.spawn(3)
        self.catalog_names = tuple(catalog_names)
        self.image_encoder = Mlp([IMAGE_FEATURE_DIM, *hidden, embed_dim], seed=img_seed)
        self.text_encoder = Mlp([TEXT_FEATURE_DIM, *hidden, embed_dim], seed=txt_seed)
        self.image_optimizer = NetOptimizer(self.image_encoder, lr=lr)
        self.text_optimizer = NetOptimizer(self.text_encoder, lr=lr)
        self.temperature = float(temperature)
        self.minibatch = minibatch
        self.pool_negatives = pool_negatives
        self._rng = np.random.default_rng(rng_seed)

    def _image_batch(self, samples) -> np.ndarray:
        return np.stack([image_features(r, self.catalog_names) for r in samples])

    def _text_pool(self, samples, negatives: str | None = None) -> np.ndarray:
        """Positive captions plus hard negatives: a 3N pool with both kinds,
        2N with just one ('term' or 'object').
        """
        negatives = negatives or self.pool_negatives
        rows = [text_features(r.caption, self.catalog_names) for r in samples]
        if negatives in ("both", "term"):
            rows += [text_features(r.neg_term, self.catalog_names) for r in samples]
        if negatives in ("both", "object"):
            rows += [text_features(r.neg_object, self.catalog_names) for r in samples]
        return np.stack(rows)

    def _embed(self, net: Mlp, x: np.ndarray) -> np.ndarray:
        out = net.forward(x)
        net.invalidate_cache()
        return out

    def infer(self, samples: list[SampleRecord]) -> tuple[list[JudgeVerdict], float]:
        """Per-sample positive-vs-negative similarities plus the batch loss over
        the 3N text pool; no weight updates.
        """
        n = len(samples)
        z = self._embed(self.image_encoder, self._image_batch(samples))
        w = self._embed(self.text_encoder, self._text_pool(samples, negatives="both"))
        loss = contrastive_loss(z, w, self.temperature)
        zn, _ = _normalize_rows(z)
        wn, _ = _normalize_rows(w)
        sims = zn @ wn.T
        verdicts = []
        for i, rec in enumerate(samples):
            pos, neg_t, neg_o = sims[i, i], sims[i, n + i], sims[i, 2 * n + i]
            verdicts.append(
                JudgeVerdict(
                    rec.id,
                    similarities=(float(pos), float(neg_t), float(neg_o)),
                    ranked_correct=bool(pos > neg_t and pos > neg_o),
                )
            )
        return verdicts, loss

    def validation_metric(self, samples: list[SampleRecord]) -> float:
        verdicts, _ = self.infer(samples)
        return float(np.mean([v.ranked_correct for v in verdicts]))

    def batch_reward_from_loss(self, loss: float) -> float:
        return float(loss) ** 2

    def finetune(self, samples: list[SampleRecord], epochs: int) -> FineTuneReport:
        if not samples:
            raise JudgeError("empty fine-tuning batch")
        report = FineTuneReport()
        for _ in range(epochs):
            order = self._rng.permutation(len(samples))
            epoch_losses = []
            for start in range(0, len(order), self.minibatch):
                chunk = [samples[i] for i in order[start : start + self.minibatch]]
                if len(chunk) < 2:
                    continue
                x_img = self._image_batch(chunk)
                x_txt = self._text_pool(chunk)
                z = self.image_encoder.forward(x_img)
                w = self.text_encoder.forward(x_txt)
                loss, grad_z, grad_w = contrastive_loss_and_grads(
                    z, w, self.temperature
                )
                if not np.isfinite(loss):
                    raise JudgeError("non-finite fine-tuning loss")
                img_grads, _ = self.image_encoder.backward(grad_z)
                txt_grads, _ = self.text_encoder.backward(grad_w)
                self.image_optimizer.step(img_grads)
                self.text_optimizer.step(txt_grads)
                epoch_losses.append(loss)
            report.losses.append(float(np.mean(epoch_losses)))
        return report

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(self.image_encoder.digest().encode())
        h.update(self.text_encoder.digest().encode())
        return h.hexdigest()

    def save(self, directory) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        save_net(self.image_encoder, directory / "image.net")
        save_net(self.text_encoder, directory / "text.net")

    def load(self, directory) -> None:
        directory = Path(directory)
        self.image_encoder = load_net(directory / "image.net")
        self.text_encoder = load_net(directory / "text.net")
        self.image_optimizer = NetOptimizer(self.image_encoder, lr=self.image_optimizer.adam.lr)
        self.text_optimizer = NetOptimizer(self.text_encoder, lr=self.text_optimizer.adam.lr)


# --- external judge -----------------------------------------------------------------------


class ExternalJudge:
    """Adapter forwarding infer/finetune over the NDJSON wire protocol."""

    def __init__(self, client, mode: str = "generative"):
        if mode not in ("generative", "contrastive"):
            raise ValueError(f"bad external judge mode {mode!r}")
        self.client = client
        self.mode = mode
        self.kind = mode

    def _samples_payload(self, samples):
        return [record_to_dict(r) for r in samples]

    def infer(self, samples: list[SampleRecord]):
        resp = self.client.request(
            {"op": "infer", "mode": self.mode, "samples": self._samples_payload(samples)}
        )
        if self.mode == "generative":
            terms = resp.get("terms")
            if not isinstance(terms, list) or len(terms) != len(samples):
                raise JudgeError("external judge returned a malformed terms list")
            verdicts = []
            for rec, t in zip(samples, terms):
                predicted = frozenset(t)
                if not predicted <= set(prompts.PRIMITIVES):
                    verdicts.append(JudgeVerdict(rec.id, flagged=True))
                    continue
                verdicts.append(
                    JudgeVerdict(
                        rec.id,
                        predicted_terms=predicted,
                        rubric=rubric_score(predicted, rec.truth_terms()),
                    )
                )
            return verdicts
        loss = resp.get("loss")
        if not isinstance(loss, (int, float)):
            raise JudgeError("external judge returned a malformed loss")
        verdicts = [JudgeVerdict(rec.id) for rec in samples]
        return verdicts, float(loss)

    def validation_metric(self, samples: list[SampleRecord]) -> float:
        if self.mode == "generative":
            return float(_mean_rubric(self.infer(samples)))
        _, loss = self.infer(samples)
        return -loss  # lower loss is better; keep "higher is better" orientation

    def batch_reward(self, verdicts) -> float:
        return float((6.0 - _mean_rubric(verdicts)) ** 2)

    def batch_reward_from_loss(self, loss: float) -> float:
        return float(loss) ** 2

    def finetune(self, samples, steps) -> FineTuneReport:
        resp = self.client.request(
            {
                "op": "finetune",
                "mode": self.mode,
                "samples": self._samples_payload(samples),
            }
        )
        report = FineTuneReport()
        if isinstance(resp.get("loss"), (int, float)):
            report.losses.append(float(resp["loss"]))
        elif resp.get("ok") is not True:
            raise JudgeError("external judge did not acknowledge fine-tuning")
        return report

    def digest(self) -> str:
        return "external"
