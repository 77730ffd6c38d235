"""Pluggable judge back-ends scoring generated samples.

Two trainable toy judges stand in for the real vision-language models: a
generative term classifier scored against the answer rubric, and a bi-encoder
contrastive judge trained with the symmetric InfoNCE loss over cosine
similarities. Its text pool is always 3N captions for N samples: the positives,
then the term-swapped negatives, then the object-swapped negatives, in training
and in inference alike. Either judge can be replaced by an external process
speaking the newline-delimited JSON protocol.

A judge is its `encode(samples)`, the samples' judge inputs built once into an
immutable encoding, plus its `_predict(encoded, loss)`: its kind's prediction,
a term mask per sample (bit i is `prompts.PRIMITIVES[i]`) or (positive,
term-swapped, object-swapped) similarity rows. `_Judge` derives the rest once
through the kind: `infer`'s verdicts and loss, `scores(encoded)` (the rubric,
from a table of `rubric_score` over every mask and valid relation, or 1.0/0.0
for a ranking) and their mean, `validation_metric`. `LOCAL_JUDGES` is the one
table of judge names; an external judge's `mode` names the local judge class
whose kind it takes. `rls3 eval` reads the scores off the verdicts through
`verdict_scores`, rows in file order. A predicted term set naming a word
outside PRIMITIVES is flagged: its score is NaN, and every mean and row leaves
it out. Caption token bags are built through a word map per catalog, keyed by
each name's first word.

Both judges consume world-frame coordinates plus the camera pose, so the
camera-relative frame has to be learned; that is the manufactured initial
weakness the loop exploits.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import prompts
from .datasets import SampleRecord
from .nets import Mlp, NetOptimizer, load_net, save_net
from .scene import is_finite_number

RUBRIC_MIN = 1

GENERATIVE_FEATURE_DIM = 28
IMAGE_FEATURE_DIM = 40
TEXT_FEATURE_DIM = 20
EMBED_DIM = 32
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


# --- prediction kinds: rubric and ranking ----------------------------------------


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


_PRIMITIVE_SET = frozenset(prompts.PRIMITIVES)
_TERM_BIT = {term: 1 << i for i, term in enumerate(prompts.PRIMITIVES)}
_BITS = np.array(list(_TERM_BIT.values()))
# the term set of each of the 64 masks
_TERM_SETS = tuple(
    frozenset(t for t, bit in _TERM_BIT.items() if mask & bit)
    for mask in range(1 << len(_TERM_BIT))
)
# the mask value of a predicted term set naming a word outside PRIMITIVES
_FLAGGED = -1


def _mask(terms) -> int:
    """The mask of a term set, or _FLAGGED if it names a word outside PRIMITIVES."""
    terms = frozenset(terms)
    return sum(_TERM_BIT[t] for t in terms) if terms <= _PRIMITIVE_SET else _FLAGGED


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _truth_masks(samples: list[SampleRecord]) -> np.ndarray:
    return _read_only(np.array([_mask(r.terms) for r in samples], dtype=np.intp))


@functools.cache
def _rubric_table() -> np.ndarray:
    """table[p, t]: rubric_score of predicted mask p against truth mask t, for
    every t that is a valid relation; 0 in the columns of the other masks."""
    table = np.zeros((len(_TERM_SETS), len(_TERM_SETS)), dtype=np.int64)
    for t, truth in enumerate(_TERM_SETS):
        try:
            prompts.check_terms(truth)
        except ValueError:
            continue
        for p, predicted in enumerate(_TERM_SETS):
            table[p, t] = rubric_score(predicted, truth)
    return _read_only(table)


def _reply_list(resp: dict, key: str, n: int, entry_ok) -> list:
    """An external infer reply's `key`, a list of n entries each passing
    `entry_ok`; anything else raises JudgeError."""
    entries = resp.get(key)
    if not (isinstance(entries, list) and len(entries) == n and all(map(entry_ok, entries))):
        raise JudgeError(f"external judge returned a malformed {key} list")
    return entries


def _rubric_reply(resp: dict, n: int) -> tuple[np.ndarray, None]:
    """A reply's `terms`, one list of strings per sample, as predicted masks;
    a rubric reply carries no loss."""
    terms = _reply_list(
        resp, "terms", n, lambda t: isinstance(t, list) and all(isinstance(w, str) for w in t)
    )
    return np.array([_mask(t) for t in terms], dtype=np.intp), None


def _rubrics(predicted: np.ndarray, encoded) -> np.ndarray:
    """The rubric of each predicted mask against its sample's truth mask;
    NaN, not scored, where the prediction is flagged."""
    return np.where(predicted == _FLAGGED, np.nan, _rubric_table()[predicted, encoded.truth])


def _rubric_verdict(sample_id: int, mask: int, rubric: float) -> JudgeVerdict:
    if math.isnan(rubric):
        return JudgeVerdict(sample_id, flagged=True)
    return JudgeVerdict(sample_id, predicted_terms=_TERM_SETS[mask], rubric=int(rubric))


def _rubric_loss(rubrics: np.ndarray) -> float:
    """The batch loss: 6 - mean rubric, 1 when all are correct."""
    return 6.0 - scored_mean(rubrics)


def _ranking_reply(resp: dict, n: int) -> tuple[np.ndarray, float]:
    """A reply's `similarities`, one [positive, term-swapped, object-swapped]
    triple per sample, as an (n, 3) array, and its `loss`."""
    sims = _reply_list(
        resp, "similarities", n,
        lambda t: isinstance(t, list) and len(t) == 3 and all(map(is_finite_number, t)),
    )
    loss = resp.get("loss")
    if not is_finite_number(loss):
        raise JudgeError("external judge returned a malformed loss")
    return np.array(sims, dtype=float).reshape(n, 3), float(loss)


def _ranked(similarities: np.ndarray, _encoded) -> np.ndarray:
    """1.0 per (positive, term-swapped, object-swapped) row whose positive
    beats both negatives, else 0.0."""
    pos = similarities[:, 0]
    return ((pos > similarities[:, 1]) & (pos > similarities[:, 2])).astype(float)


def _ranking_verdict(sample_id: int, similarities: list[float], ranked: float) -> JudgeVerdict:
    return JudgeVerdict(sample_id, similarities=tuple(similarities), ranked_correct=bool(ranked))


class _Kind(NamedTuple):
    """A kind of prediction and all that is derived from one."""

    metric_name: str
    reply: Callable  # (external infer reply, n) -> (prediction, loss)
    score: Callable  # (prediction, encoded) -> one score per sample
    verdict: Callable  # (sample id, its prediction, its score) -> its verdict
    loss: Callable | None  # scores -> batch loss, for judges with no loss of their own
    early_stop: tuple  # the loop's default (min_iterations, patience, epsilon), in metric units


_RUBRIC = _Kind("mean_rubric", _rubric_reply, _rubrics, _rubric_verdict, _rubric_loss,
                (15, 10, 0.02))
_RANKING = _Kind("retrieval_accuracy", _ranking_reply, _ranked, _ranking_verdict, None,
                 (10, 5, 0.005))


def scored_mean(scores) -> float:
    """The mean of the scores that are not NaN, or JudgeError if none is."""
    scores = np.asarray(scores, dtype=float)
    scored = scores[~np.isnan(scores)]
    if not scored.size:
        raise JudgeError("no scored verdicts")
    return float(np.mean(scored))


def verdict_scores(verdicts: list[JudgeVerdict]) -> np.ndarray:
    """The scores of `infer`'s verdicts, as `scores` gives them for the same
    samples: the rubric, or 1.0/0.0 for a ranking; NaN where flagged."""
    return np.array([np.nan if v.flagged else v.rubric if v.rubric is not None
                     else v.ranked_correct for v in verdicts], dtype=float)


# --- contrastive loss ------------------------------------------------------------


def _normalize_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("zero-norm embedding row")
    return x / norms, norms


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    hi = np.max(x, axis=axis, keepdims=True)
    return (hi + np.log(np.sum(np.exp(x - hi), axis=axis, keepdims=True))).squeeze(axis)


def _infonce(image_embeddings, text_embeddings, temperature):
    """The symmetric InfoNCE forward: the (total, image-to-text, text-to-image)
    losses, and the arrays contrastive_loss_and_grads differentiates through.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    z = np.asarray(image_embeddings, dtype=float)
    w = np.asarray(text_embeddings, dtype=float)
    n, m = z.shape[0], w.shape[0]
    if m < n:
        raise ValueError("text pool must be at least as large as the image batch")
    zn, z_norms = _normalize_rows(z)
    wn, w_norms = _normalize_rows(w)
    sims = zn @ wn.T / temperature  # (n, m)
    row_lse = _logsumexp(sims, axis=1)
    # over the view, not a copy: a copy's sums differ in the last bit
    col_lse = _logsumexp(sims[:, :n], axis=0)
    diag = sims[np.arange(n), np.arange(n)]
    l_i2t = float(np.mean(row_lse - diag))
    l_t2i = float(np.mean(col_lse - diag))
    losses = ((l_i2t + l_t2i) / 2.0, l_i2t, l_t2i)
    return losses, (zn, z_norms, wn, w_norms, sims, row_lse, col_lse)


def contrastive_loss_components(
    image_embeddings: np.ndarray, text_embeddings: np.ndarray, temperature: float
) -> tuple[float, float, float]:
    """(total, image-to-text, text-to-image) symmetric InfoNCE over cosine
    similarities. Text i is image i's positive; texts beyond N only widen the
    image-to-text denominator.
    """
    return _infonce(image_embeddings, text_embeddings, temperature)[0]


def contrastive_loss(image_embeddings, text_embeddings, temperature) -> float:
    return contrastive_loss_components(image_embeddings, text_embeddings, temperature)[0]


def contrastive_loss_and_grads(
    image_embeddings: np.ndarray, text_embeddings: np.ndarray, temperature: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss plus gradients w.r.t. the raw (unnormalized) embeddings. Used to
    backpropagate into the two encoders.
    """
    (loss, _, _), (zn, z_norms, wn, w_norms, sims, row_lse, col_lse) = _infonce(
        image_embeddings, text_embeddings, temperature
    )
    n = zn.shape[0]
    p_row = np.exp(sims - row_lse[:, None])  # (n, m) row softmax
    p_col = np.exp(sims[:, :n] - col_lse[None, :])  # (n, n) column softmax
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
    out = [0.0] * 18
    out[catalog_names.index(rec.subject)] = 1.0
    out[9 + catalog_names.index(rec.reference)] = 1.0
    out += rec.position_of(rec.subject)
    out += rec.position_of(rec.reference)
    out += rec.camera.position
    out.append(rec.camera.yaw)
    return np.array(out)


def image_features(rec: SampleRecord, catalog_names: tuple[str, ...]) -> np.ndarray:
    """Full scene metadata: per active slot a type one-hot plus position, then
    camera position and yaw; 40 values.
    """
    out = []
    for name, pos, _yaw in rec.objects:
        one_hot = [0.0] * 9
        one_hot[catalog_names.index(name)] = 1.0
        out += one_hot
        out += pos
    out += rec.camera.position
    out.append(rec.camera.yaw)
    return np.array(out)


@functools.lru_cache(maxsize=8)
def _word_map(catalog_names: tuple[str, ...]):
    """text_features' lookup for one catalog: each name's first word -> the
    (words, slot) of the names it starts, in catalog order; and each
    primitive or function word -> its slot. A name with no words never
    matches."""
    names: dict[str, list[tuple[tuple[str, ...], int]]] = {}
    for slot, name in enumerate(catalog_names):
        parts = tuple(prompts.words(name))  # split as text_features splits captions
        if parts:
            names.setdefault(parts[0], []).append((parts, slot))
    singles = {w: 9 + i for i, w in enumerate(prompts.PRIMITIVES)}
    singles.update({w: 15 + i for i, w in enumerate(_TEXT_FUNCTION_WORDS)})
    return names, singles


def text_features(caption: str, catalog_names: tuple[str, ...]) -> np.ndarray:
    """Position-weighted token bag over a 20-word vocabulary: the 9 object
    names, the 6 spatial primitives, and 5 function words. Weighting a token
    by 1/(1+word index) keeps subject/reference order distinguishable. At each
    word the first catalog name that the words from there spell is taken;
    else the word counts if it is a primitive or function word.
    """
    names, singles = _word_map(tuple(catalog_names))
    words = prompts.words(caption)
    out = [0.0] * TEXT_FEATURE_DIM
    i = 0
    while i < len(words):
        word = words[i]
        weight = 1.0 / (1.0 + i)
        for parts, slot in names.get(word, ()):
            if tuple(words[i : i + len(parts)]) == parts:
                out[slot] += weight
                i += len(parts)
                break
        else:
            if word in singles:
                out[singles[word]] += weight
            i += 1
    return np.array(out)


def _load_nets(directory, current: dict[str, Mlp]) -> list[Mlp]:
    """The nets saved in `directory` under the file names of `current`. Raises
    JudgeError naming the directory unless every file loads and each net has
    the input and output widths of the one it replaces (hidden widths may differ)."""
    directory = Path(directory)
    loaded = []
    try:
        for name, net in current.items():
            new = load_net(directory / name)
            got, need = new.layer_sizes, net.layer_sizes
            if (got[0], got[-1]) != (need[0], need[-1]):
                raise ValueError(f"{name} is {got[0]} -> {got[-1]}, not {need[0]} -> {need[-1]}")
            loaded.append(new)
    except (OSError, ValueError) as exc:
        raise JudgeError(f"cannot load judge checkpoint {directory}: {exc}") from exc
    return loaded


class _Judge:
    """What every judge derives from its `kind`, `encode(samples)` and
    `_predict(encoded, loss)`: the kind's prediction and, if `loss` asks, the
    judge's own batch loss, None from a rubric judge."""

    kind: _Kind

    @property
    def metric_name(self) -> str:
        return self.kind.metric_name

    def infer(self, samples: list[SampleRecord]) -> tuple[list[JudgeVerdict], float]:
        """Verdicts plus the batch loss, the judge's own or else the kind's
        loss of the scores; no weight updates."""
        encoded = self.encode(samples)
        prediction, loss = self._predict(encoded, True)
        scores = self.kind.score(prediction, encoded)
        verdict = self.kind.verdict
        verdicts = [
            verdict(rec.id, p, score)
            for rec, p, score in zip(samples, prediction.tolist(), scores.tolist())
        ]
        return verdicts, self.kind.loss(scores) if loss is None else loss

    def scores(self, encoded) -> np.ndarray:
        """Each encoded sample's score, as `infer` scores it; no loss, no verdicts."""
        return self.kind.score(self._predict(encoded, False)[0], encoded)

    def validation_metric(self, encoded) -> float:
        """The mean of the encoded samples' scores, NaN left out."""
        return scored_mean(self.scores(encoded))

    def close(self) -> None:
        """A local judge holds nothing to release."""


# --- generative judge -----------------------------------------------------------------


class GenerativeEncoding(NamedTuple):
    """Samples as every GenerativeJudge method reads them: one
    generative_features row and one truth-term mask per sample, read-only."""

    features: np.ndarray
    truth: np.ndarray


class GenerativeJudge(_Judge):
    """Multi-label term classifier on scene-pair features, scored by the rubric."""

    kind = _RUBRIC
    # the run config field behind each constructor option beyond catalog, hidden, seed and lr
    config_options = {"threshold": "threshold", "minibatch": "generative_minibatch"}
    desk_finetune_steps = 64  # optimizer steps

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

    def encode(self, samples: list[SampleRecord]) -> GenerativeEncoding:
        features = np.stack([generative_features(r, self.catalog_names) for r in samples])
        return GenerativeEncoding(_read_only(features), _truth_masks(samples))

    def _predict(self, encoded: GenerativeEncoding, loss: bool) -> tuple[np.ndarray, None]:
        """The mask of the terms whose probability exceeds the threshold, per row."""
        logits = self.net.forward(encoded.features)
        probs = 1.0 / (1.0 + np.exp(-logits))
        return (probs > self.threshold) @ _BITS, None

    def finetune(self, samples: list[SampleRecord], steps: int) -> list[float]:
        """Optimizer steps of multi-label cross-entropy on seeded minibatches;
        weights resume from wherever the previous call left them. Returns the
        loss of each step.
        """
        if not samples:
            raise JudgeError("empty fine-tuning batch")
        x, truth = self.encode(samples)
        t = ((truth[:, None] & _BITS) != 0).astype(float)  # column i: PRIMITIVES[i]
        losses = []
        for _ in range(steps):
            take = min(self.minibatch, len(samples))
            idx = self._rng.choice(len(samples), size=take, replace=False)
            tape = []
            logits = self.net.forward(x[idx], tape)
            target = t[idx]
            probs = 1.0 / (1.0 + np.exp(-logits))
            eps = 1e-12
            loss = float(
                -np.mean(
                    np.sum(
                        target * np.log(probs + eps)
                        + (1.0 - target) * np.log(1.0 - probs + eps),
                        axis=1,
                    )
                )
            )
            if not np.isfinite(loss):
                raise JudgeError("non-finite fine-tuning loss")
            grad, _ = self.net.backward((probs - target) / take, tape, need="params")
            self.optimizer.step(grad)
            losses.append(loss)
        return losses

    def save(self, directory) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        save_net(self.net, directory / "classifier.net")

    def load(self, directory) -> None:
        """Replace the classifier with a saved one; see _load_nets."""
        (self.net,) = _load_nets(directory, {"classifier.net": self.net})
        self.optimizer = NetOptimizer(self.net, lr=self.optimizer.adam.lr)


# --- contrastive judge ------------------------------------------------------------------


class ContrastiveEncoding(NamedTuple):
    """Samples as every ContrastiveJudge method reads them: N
    image_features rows and the 3N text pool's text_features rows, read-only."""

    images: np.ndarray
    texts: np.ndarray


class ContrastiveJudge(_Judge):
    """Bi-encoder over scene metadata and caption token bags, trained and
    scored against the 3N text pool.
    """

    kind = _RANKING
    config_options = {"temperature": "temperature", "minibatch": "contrastive_minibatch"}
    desk_finetune_steps = 4  # epochs

    def __init__(
        self,
        catalog_names: tuple[str, ...],
        hidden: tuple[int, ...] = (64, 64),
        temperature: float = DEFAULT_TEMPERATURE,
        seed: int | np.random.SeedSequence = 0,
        lr: float = 1e-3,
        minibatch: int = 256,
    ):
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        if minibatch < 2:
            raise ValueError("minibatch must be at least 2: InfoNCE needs negatives")
        seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        img_seed, txt_seed, rng_seed = seq.spawn(3)
        self.catalog_names = tuple(catalog_names)
        self.image_encoder = Mlp([IMAGE_FEATURE_DIM, *hidden, EMBED_DIM], seed=img_seed)
        self.text_encoder = Mlp([TEXT_FEATURE_DIM, *hidden, EMBED_DIM], seed=txt_seed)
        self.image_optimizer = NetOptimizer(self.image_encoder, lr=lr)
        self.text_optimizer = NetOptimizer(self.text_encoder, lr=lr)
        self.temperature = float(temperature)
        self.minibatch = minibatch
        self._rng = np.random.default_rng(rng_seed)
        # caption -> text_features row; a row depends only on the caption and
        # the fixed catalog, so entries never go stale
        self._text_rows: dict[str, np.ndarray] = {}

    def _text_pool(self, samples) -> np.ndarray:
        """The 3N text pool: the positive captions, then the term-swapped
        negatives, then the object-swapped negatives.
        """
        captions = [r.caption for r in samples]
        captions += [r.neg_term for r in samples]
        captions += [r.neg_object for r in samples]
        cache = self._text_rows
        for caption in captions:
            if caption not in cache:
                cache[caption] = text_features(caption, self.catalog_names)
        return np.stack([cache[c] for c in captions])

    def encode(self, samples: list[SampleRecord]) -> ContrastiveEncoding:
        images = np.stack([image_features(r, self.catalog_names) for r in samples])
        return ContrastiveEncoding(_read_only(images), _read_only(self._text_pool(samples)))

    def _predict(self, encoded: ContrastiveEncoding, loss: bool) -> tuple[np.ndarray, float | None]:
        """Per-sample (positive, term-swapped, object-swapped) similarities,
        three row dot products per sample and no N x 3N matrix; and, if asked,
        the InfoNCE loss over the 3N text pool, which builds that matrix.
        """
        n = len(encoded.images)
        z = self.image_encoder.forward(encoded.images)
        w = self.text_encoder.forward(encoded.texts)
        zn, _ = _normalize_rows(z)
        wn, _ = _normalize_rows(w)
        # sample i's positive and its two negatives are text rows i, n + i, 2n + i
        similarities = np.einsum("nd,knd->nk", zn, wn.reshape(3, n, -1))
        return similarities, contrastive_loss(z, w, self.temperature) if loss else None

    def finetune(self, samples: list[SampleRecord], epochs: int) -> list[float]:
        """InfoNCE steps over shuffled minibatches; returns each epoch's mean loss."""
        n = len(samples)
        if n < 2:
            raise JudgeError(f"contrastive fine-tuning needs at least 2 samples, got {n}")
        encoded = self.encode(samples)
        losses = []
        for _ in range(epochs):
            order = self._rng.permutation(n)
            epoch_losses = []
            for start in range(0, n, self.minibatch):
                idx = order[start : start + self.minibatch]
                if len(idx) < 2:  # a trailing single sample has no negatives
                    continue
                x_img = encoded.images[idx]
                x_txt = encoded.texts[np.concatenate((idx, idx + n, idx + 2 * n))]
                img_tape, txt_tape = [], []
                z = self.image_encoder.forward(x_img, img_tape)
                w = self.text_encoder.forward(x_txt, txt_tape)
                loss, grad_z, grad_w = contrastive_loss_and_grads(
                    z, w, self.temperature
                )
                if not np.isfinite(loss):
                    raise JudgeError("non-finite fine-tuning loss")
                img_grad, _ = self.image_encoder.backward(grad_z, img_tape, need="params")
                txt_grad, _ = self.text_encoder.backward(grad_w, txt_tape, need="params")
                self.image_optimizer.step(img_grad)
                self.text_optimizer.step(txt_grad)
                epoch_losses.append(loss)
            losses.append(float(np.mean(epoch_losses)))
        return losses

    def save(self, directory) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        save_net(self.image_encoder, directory / "image.net")
        save_net(self.text_encoder, directory / "text.net")

    def load(self, directory) -> None:
        """Replace both encoders with saved ones; see _load_nets."""
        self.image_encoder, self.text_encoder = _load_nets(
            directory, {"image.net": self.image_encoder, "text.net": self.text_encoder}
        )
        self.image_optimizer = NetOptimizer(self.image_encoder, lr=self.image_optimizer.adam.lr)
        self.text_optimizer = NetOptimizer(self.text_encoder, lr=self.text_optimizer.adam.lr)


# each judge name's local judge class; an external judge in mode m takes its kind
LOCAL_JUDGES = {"generative": GenerativeJudge, "contrastive": ContrastiveJudge}


# --- external judge -----------------------------------------------------------------------


class ExternalEncoding(NamedTuple):
    """Samples as ExternalJudge's infer and scores read them: the JSON lines an
    infer request sends, and one truth-term mask per sample, read-only."""

    lines: tuple[str, ...]
    truth: np.ndarray


class ExternalJudge(_Judge):
    """Adapter forwarding infer/finetune over the NDJSON wire protocol.

    `mode` picks the judge's kind once, that of `LOCAL_JUDGES[mode]`: an infer
    reply carries `terms` (generative mode, the rubric kind) or `similarities`
    and `loss` (contrastive mode, the ranking kind). It is checked and parsed
    once into arrays, then scored as the local judge of that kind scores its
    own output.
    """

    def __init__(self, client, mode: str = "generative"):
        if mode not in LOCAL_JUDGES:
            raise ValueError(f"bad external judge mode {mode!r}")
        self.client = client
        self.mode = mode
        self.kind = LOCAL_JUDGES[mode].kind

    def _request(self, op: str, lines: list[str]) -> dict:
        """Send one op over the wire with the samples' JSON lines; a peer's
        `error` reply raises JudgeError."""
        resp = self.client.request({"op": op, "mode": self.mode, "samples": lines})
        if "error" in resp:
            raise JudgeError(f"external judge failed to {op}: {resp['error']}")
        return resp

    def encode(self, samples: list[SampleRecord]) -> ExternalEncoding:
        return ExternalEncoding(tuple(r.line for r in samples), _truth_masks(samples))

    def _predict(self, encoded: ExternalEncoding, loss: bool):
        """One infer round trip, its reply parsed by the kind; a contrastive
        reply's loss comes asked for or not. A malformed reply raises JudgeError."""
        return self.kind.reply(self._request("infer", list(encoded.lines)), len(encoded.lines))

    def finetune(self, samples, steps) -> list[float]:
        """The reply's loss as a one-entry list, or no loss for a bare `ok`."""
        resp = self._request("finetune", [r.line for r in samples])
        if "loss" in resp:
            if not is_finite_number(resp["loss"]):
                raise JudgeError("external judge returned a malformed fine-tuning loss")
            return [float(resp["loss"])]
        if resp.get("ok") is not True:
            raise JudgeError("external judge did not acknowledge fine-tuning")
        return []

    def save(self, directory) -> None:
        """Writes nothing: the external process owns its weights, and the run
        directory gets no judge checkpoint for it."""

    def close(self) -> None:
        """Close the client, ending a spawned judge process; closing again does nothing."""
        self.client.close()
