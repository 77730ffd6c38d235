import hashlib
import json
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rls3 import judges, prompts
from rls3.datasets import generate_fixed_records
from rls3.judges import (
    ContrastiveJudge,
    ExternalJudge,
    GenerativeJudge,
    JudgeError,
    contrastive_loss,
    contrastive_loss_and_grads,
    contrastive_loss_components,
    generative_features,
    image_features,
    rubric_score,
    text_features,
)
from rls3.nets import Mlp, save_net
from rls3.orchestrator import infer_and_reward
from rls3.scene import builtin_suite
from rls3.wire import NdjsonClient

import oracles
from oracles import finite_difference_gradients, relative_error


@pytest.fixture(scope="module")
def train():
    return builtin_suite("train")


@pytest.fixture(scope="module")
def records(train):
    return generate_fixed_records(train, 120, seed=321)


# --- rubric ---------------------------------------------------------------------


def test_rubric_exhaustive_against_brute_force():
    for truth in oracles.all_truth_sets():
        for predicted in oracles.all_prediction_sets():
            assert rubric_score(predicted, truth) == oracles.rubric_reference(
                predicted, truth
            ), (predicted, truth)


def test_rubric_examples():
    assert rubric_score({"above", "behind", "left"}, {"above", "behind", "left"}) == 5
    assert rubric_score({"above", "behind"}, {"above", "behind", "left"}) == 4
    assert rubric_score({"above"}, {"above", "behind"}) == 3
    assert rubric_score({"above"}, {"above", "behind", "left"}) == 2
    assert rubric_score(set(), {"above"}) == 1
    # opposite-term penalty
    assert rubric_score({"above", "behind", "right"}, {"above", "behind", "left"}) == 3
    # over-prediction penalty
    assert rubric_score({"above", "behind"}, {"above"}) == 4
    assert rubric_score(set(), {"left"}) == 1  # floor


def test_rubric_rejects_bad_truth():
    with pytest.raises(ValueError):
        rubric_score(set(), set())
    with pytest.raises(ValueError):
        rubric_score(set(), {"above", "below", "left", "right"})


def test_rubric_table_is_rubric_score():
    """The validation metric's table, indexed by term masks (bit i for
    PRIMITIVES[i]), holds rubric_score for every prediction and relation."""

    def mask(terms):
        return sum(1 << prompts.PRIMITIVES.index(t) for t in terms)

    table = judges._rubric_table()
    truth_masks = set()
    for truth in oracles.all_truth_sets():
        truth_masks.add(mask(truth))
        for predicted in oracles.all_prediction_sets():
            want = oracles.rubric_reference(predicted, truth)
            assert table[mask(predicted), mask(truth)] == rubric_score(predicted, truth) == want
    # the oracle's truth sets are every valid relation; no other column is filled
    assert set(np.flatnonzero(table.any(axis=0)).tolist()) == truth_masks


def test_rubric_bounds():
    for truth in oracles.all_truth_sets():
        for predicted in oracles.all_prediction_sets():
            assert 1 <= rubric_score(predicted, truth) <= 5


# --- contrastive loss -----------------------------------------------------------


def test_loss_matches_reference():
    rng = np.random.default_rng(0)
    for n, m, tau in ((2, 2, 1.0), (4, 4, 0.07), (5, 15, 0.5), (3, 9, 0.07)):
        z = rng.normal(size=(n, 8))
        w = rng.normal(size=(m, 8))
        got = contrastive_loss(z, w, tau)
        want = oracles.contrastive_loss_reference(z, w, tau)
        assert math.isclose(got, want, rel_tol=1e-10)


def test_loss_orthonormal_closed_form():
    # two orthonormal pairs at temperature 1: both softmaxes give
    # e / (e + 1), so the loss is log(1 + e^-1)
    z = np.array([[1.0, 0.0], [0.0, 1.0]])
    got = contrastive_loss(z, z, 1.0)
    assert math.isclose(got, math.log(1.0 + math.exp(-1.0)), rel_tol=1e-12)


def test_loss_symmetric_components():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(6, 5))
    total, l_i2t, l_t2i = contrastive_loss_components(z, z.copy(), 0.07)
    assert math.isclose(total, (l_i2t + l_t2i) / 2.0, rel_tol=1e-12)
    assert math.isclose(l_i2t, l_t2i, rel_tol=1e-12)  # identical embeddings


def test_loss_decreases_with_alignment():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(4, 6))
    aligned = contrastive_loss(z, z, 0.07)
    shuffled = contrastive_loss(z, z[::-1].copy(), 0.07)
    assert aligned < shuffled


def test_loss_invalid_inputs():
    z = np.ones((3, 4))
    with pytest.raises(ValueError):
        contrastive_loss(z, z, 0.0)
    with pytest.raises(ValueError):
        contrastive_loss(z, np.ones((2, 4)), 0.07)  # pool smaller than batch
    with pytest.raises(ValueError):
        contrastive_loss(z, np.zeros((3, 4)), 0.07)  # zero-norm row


def test_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(4, 6))
    w = rng.normal(size=(12, 6))
    loss, gz, gw = contrastive_loss_and_grads(z, w, 0.07)
    assert math.isclose(loss, oracles.contrastive_loss_reference(z, w, 0.07), rel_tol=1e-10)
    fz, fw = finite_difference_gradients(lambda: contrastive_loss(z, w, 0.07), [z, w])
    assert relative_error(gz, fz) < 1e-6
    assert relative_error(gw, fw) < 1e-6


# --- features -------------------------------------------------------------------


def test_generative_feature_layout(train, records):
    rec = records[0]
    f = generative_features(rec, train.catalog_names)
    assert f.shape == (28,)
    assert f[:9].sum() == 1.0 and f[9:18].sum() == 1.0
    np.testing.assert_allclose(f[18:21], rec.position_of(rec.subject))
    np.testing.assert_allclose(f[24:27], rec.camera.position)


def test_image_feature_layout(train, records):
    rec = records[0]
    f = image_features(rec, train.catalog_names)
    assert f.shape == (40,)
    for slot, (name, pos, _yaw) in enumerate(rec.objects):
        onehot = f[slot * 12 : slot * 12 + 9]
        assert onehot.sum() == 1.0
        np.testing.assert_allclose(f[slot * 12 + 9 : slot * 12 + 12], pos)


def test_text_features_distinguish_negatives(train, records):
    for rec in records[:40]:
        pos = text_features(rec.caption, train.catalog_names)
        neg_t = text_features(rec.neg_term, train.catalog_names)
        neg_o = text_features(rec.neg_object, train.catalog_names)
        assert not np.allclose(pos, neg_t)
        assert not np.allclose(pos, neg_o)


# names sharing a first word, and names that are a prefix of another
_OVERLAPPING_NAMES = (
    "pot lid", "pot", "coffee mug", "coffee table", "mug", "plate", "desk lamp", "lamp", "tea cup"
)
_CAPTION_TOKENS = (
    *_OVERLAPPING_NAMES, "lid", "coffee", "table", "desk", "tea", "cup", "Pot", "MUG.",
    *prompts.PRIMITIVES, "in front of", "to the", "the", "is", "of", "and", "to", "The",
    "sideways", ",", ".", "  ",
)


@settings(max_examples=300, deadline=None)
@given(
    names=st.permutations(_OVERLAPPING_NAMES),
    tokens=st.lists(st.sampled_from(_CAPTION_TOKENS), max_size=16),
)
@example(names=_OVERLAPPING_NAMES, tokens=["The", "pot lid", "is", "left", "of", "the", "pot"])
@example(
    names=tuple(reversed(_OVERLAPPING_NAMES)),
    tokens=["The", "pot lid", "is", "left", "of", "the", "coffee table"],
)
# a name with a capital or a hyphen matches the caption's words it splits into
@example(
    names=(
        "pot lid", "pot", "coffee mug", "Desk Lamp", "mug", "plate", "hand-mixer", "lamp", "tea cup"
    ),
    tokens=["The", "desk lamp", "is", "left", "of", "the", "hand mixer", "and", "the", "Desk-Lamp"],
)
def test_text_features_match_the_scan(names, tokens):
    caption = " ".join(tokens)
    got = text_features(caption, tuple(names))
    assert np.array_equal(got, oracles.text_features_reference(caption, tuple(names)))


def test_text_features_deterministic(train):
    c = "The mug is above the plate."
    np.testing.assert_array_equal(
        text_features(c, train.catalog_names), text_features(c, train.catalog_names)
    )


# --- generative judge -----------------------------------------------------------


def test_generative_infer_shapes(train, records):
    judge = GenerativeJudge(train.catalog_names, seed=0)
    verdicts, _ = judge.infer(records[:10])
    assert len(verdicts) == 10
    for v, rec in zip(verdicts, records[:10]):
        assert v.sample_id == rec.id
        assert 1 <= v.rubric <= 5
        assert v.predicted_terms is not None


def test_generative_finetune_improves(train, records):
    judge = GenerativeJudge(train.catalog_names, seed=1)
    val_set = judge.encode(records)
    before = judge.validation_metric(val_set)
    losses = judge.finetune(records, steps=400)
    after = judge.validation_metric(val_set)
    assert after > before + 0.5
    assert len(losses) == 400
    assert np.mean(losses[-20:]) < np.mean(losses[:20])


def test_generative_digest_tracks_weights(train, records):
    judge = GenerativeJudge(train.catalog_names, seed=2)
    d0 = judge.net.digest()
    assert judge.net.digest() == d0  # inference must not change weights
    judge.infer(records[:5])
    assert judge.net.digest() == d0
    judge.finetune(records[:20], steps=1)
    assert judge.net.digest() != d0


def test_generative_reward_from_rubric(train, records):
    judge = GenerativeJudge(train.catalog_names, seed=3)
    verdicts, loss = judge.infer(records[:16])
    mean = np.mean([v.rubric for v in verdicts])
    assert math.isclose(loss, 6.0 - mean)
    _, j2 = infer_and_reward(judge, records[:16])
    assert math.isclose(j2, (6.0 - mean) ** 2)
    # perfect batch gives the minimum reward of 1
    judge._predicted_masks = lambda features: judge.encode(records[:16]).truth
    assert infer_and_reward(judge, records[:16])[1] == 1.0


def test_generative_empty_batch_rejected(train):
    judge = GenerativeJudge(train.catalog_names)
    with pytest.raises(JudgeError):
        judge.finetune([], steps=1)


def test_generative_save_load(tmp_path, train, records):
    judge = GenerativeJudge(train.catalog_names, seed=4)
    judge.finetune(records[:30], steps=10)
    judge.save(tmp_path)
    other = GenerativeJudge(train.catalog_names, seed=99)
    other.load(tmp_path)
    assert other.net.digest() == judge.net.digest()
    a = [v.rubric for v in judge.infer(records[:10])[0]]
    b = [v.rubric for v in other.infer(records[:10])[0]]
    assert a == b


def test_generative_load_rejects_a_classifier_of_other_width(tmp_path, train):
    # a 7-wide output would be zipped against the 6 primitives and cut short
    save_net(Mlp([judges.GENERATIVE_FEATURE_DIM, 64, 64, 7]), tmp_path / "classifier.net")
    judge = GenerativeJudge(train.catalog_names, seed=4)
    d0 = judge.net.digest()
    with pytest.raises(JudgeError, match=f"cannot load judge checkpoint {re.escape(str(tmp_path))}: .*28 -> 7, not 28 -> 6"):
        judge.load(tmp_path)
    assert judge.net.digest() == d0


# --- the contract every judge keeps -------------------------------------------------

STUB = [sys.executable, "-m", "rls3.external_stub"]
FLAGGING_PEER = (
    "import sys, json\n"
    "for line in sys.stdin:\n"
    "    req = json.loads(line)\n"
    "    terms = [['sideways'] if i % 2 else ['left'] for i in range(len(req['samples']))]\n"
    "    print(json.dumps({'id': req['id'], 'terms': terms}), flush=True)\n"
)

JUDGES = {
    "generative": lambda names: GenerativeJudge(names, seed=0),
    "contrastive": lambda names: ContrastiveJudge(names, seed=0),
    "external-generative": lambda names: ExternalJudge(
        NdjsonClient.spawn(STUB + ["--behavior", "all_correct"], timeout=10),
        mode="generative",
    ),
    "external-contrastive": lambda names: ExternalJudge(
        NdjsonClient.spawn(STUB + ["--behavior", "echo", "--loss", "0.8"], timeout=10),
        mode="contrastive",
    ),
    "external-generative-echo": lambda names: ExternalJudge(
        NdjsonClient.spawn(STUB + ["--behavior", "echo"], timeout=10),
        mode="generative",
    ),
    "external-contrastive-all_correct": lambda names: ExternalJudge(
        NdjsonClient.spawn(STUB + ["--behavior", "all_correct", "--loss", "0.8"], timeout=10),
        mode="contrastive",
    ),
    # every second predicted term set names a word outside the primitives
    "external-generative-flagging": lambda names: ExternalJudge(
        NdjsonClient.spawn([sys.executable, "-c", FLAGGING_PEER], timeout=10),
        mode="generative",
    ),
}


@pytest.fixture(params=sorted(JUDGES))
def any_judge(request, train):
    judge = JUDGES[request.param](train.catalog_names)
    yield judge
    judge.close()


def test_judge_contract(any_judge, records, tmp_path):
    batch = records[:10]
    verdicts, loss = any_judge.infer(batch)
    assert [v.sample_id for v in verdicts] == [r.id for r in batch]
    assert type(loss) is float and math.isfinite(loss)
    for v, rec in zip(verdicts, batch):
        if v.rubric is not None:
            assert v.rubric == rubric_score(v.predicted_terms, rec.terms)
    _, j2 = infer_and_reward(any_judge, batch)
    assert j2 == loss**2
    # every judge's validation metric is the mean of its scores, NaN where a
    # verdict is flagged and left out; infer's verdicts carry the same scores
    encoded = any_judge.encode(records)
    assert not any(a.flags.writeable for a in encoded if isinstance(a, np.ndarray))
    metric = any_judge.validation_metric(encoded)
    assert type(metric) is float
    scores = any_judge.scores(encoded)
    assert scores.dtype == float and scores.shape == (len(records),)
    assert metric == float(np.mean(scores[~np.isnan(scores)]))
    all_verdicts = any_judge.infer(records)[0]
    assert np.isnan(scores).tolist() == [v.flagged for v in all_verdicts]
    np.testing.assert_array_equal(judges.verdict_scores(all_verdicts), scores)
    assert any_judge.metric_name in ("mean_rubric", "retrieval_accuracy")
    assert (any_judge.metric_name == "mean_rubric") == (verdicts[0].rubric is not None)
    any_judge.save(tmp_path / "judge")
    # an external judge's weights stay in its own process: it writes nothing
    assert (tmp_path / "judge").exists() != isinstance(any_judge, ExternalJudge)
    any_judge.close()
    any_judge.close()  # a second close does nothing


def test_verdict_score():
    verdicts = [
        judges.JudgeVerdict(0, rubric=4),
        judges.JudgeVerdict(1, ranked_correct=True),
        judges.JudgeVerdict(2, ranked_correct=False),
        judges.JudgeVerdict(3, flagged=True),
    ]
    np.testing.assert_array_equal(judges.verdict_scores(verdicts), [4.0, 1.0, 0.0, np.nan])
    assert judges.scored_mean(judges.verdict_scores(verdicts)) == 5.0 / 3.0
    with pytest.raises(JudgeError, match="no scored verdicts"):
        judges.scored_mean(judges.verdict_scores(verdicts[3:]))


# --- contrastive judge ------------------------------------------------------------


def test_contrastive_infer(train, records):
    judge = ContrastiveJudge(train.catalog_names, seed=0)
    verdicts, loss = judge.infer(records[:12])
    assert len(verdicts) == 12 and loss > 0
    for v in verdicts:
        assert v.similarities is not None and len(v.similarities) == 3
        pos, nt, no = v.similarities
        assert v.ranked_correct == (pos > nt and pos > no)
        for s in v.similarities:
            assert -1.0 - 1e-9 <= s <= 1.0 + 1e-9


def test_contrastive_finetune_reduces_loss(train, records):
    judge = ContrastiveJudge(train.catalog_names, seed=1, lr=3e-3, minibatch=64)
    _, before = judge.infer(records)
    acc_before = judge.validation_metric(judge.encode(records))
    judge.finetune(records, epochs=30)
    _, after = judge.infer(records)
    acc_after = judge.validation_metric(judge.encode(records))
    assert after < before
    assert acc_after > acc_before


def test_contrastive_rejects_batches_without_negatives(train, records):
    with pytest.raises(ValueError, match="minibatch"):
        ContrastiveJudge(train.catalog_names, minibatch=1)
    judge = ContrastiveJudge(train.catalog_names, seed=2)
    for batch in ([], records[:1]):
        with pytest.raises(JudgeError, match="at least 2 samples"):
            judge.finetune(batch, epochs=1)


def test_contrastive_digest_and_inference_purity(train, records):
    judge = ContrastiveJudge(train.catalog_names, seed=2)

    def digest(j):
        return j.image_encoder.digest(), j.text_encoder.digest()

    d0 = digest(judge)
    judge.infer(records[:8])
    judge.validation_metric(judge.encode(records[:8]))
    assert digest(judge) == d0
    judge.finetune(records[:16], epochs=1)
    assert digest(judge) != d0


def test_contrastive_save_load(tmp_path, train, records):
    judge = ContrastiveJudge(train.catalog_names, seed=3)
    judge.finetune(records[:30], epochs=2)
    judge.save(tmp_path)
    other = ContrastiveJudge(train.catalog_names, seed=77)
    other.load(tmp_path)
    assert other.image_encoder.digest() == judge.image_encoder.digest()
    assert other.text_encoder.digest() == judge.text_encoder.digest()
    _, la = judge.infer(records[:10])
    _, lb = other.infer(records[:10])
    assert la == lb


def _encoder_digests(judge):
    return judge.image_encoder.digest(), judge.text_encoder.digest()


@pytest.mark.parametrize(
    "edit, cause",
    [
        (lambda d: (d / "text.net").unlink(), "No such file"),
        (lambda d: save_net(Mlp([16, 64, 64, judges.EMBED_DIM]), d / "text.net"), "16 -> 32, not 20 -> 32"),
    ],
    ids=["missing-text-net", "text-net-16-wide"],
)
def test_contrastive_load_is_all_or_nothing(tmp_path, train, edit, cause):
    ContrastiveJudge(train.catalog_names, seed=3).save(tmp_path)
    edit(tmp_path)
    judge = ContrastiveJudge(train.catalog_names, seed=77)
    before = _encoder_digests(judge)
    with pytest.raises(JudgeError, match=f"cannot load judge checkpoint {re.escape(str(tmp_path))}: .*{cause}"):
        judge.load(tmp_path)
    assert _encoder_digests(judge) == before  # image.net loaded, but nothing was replaced


def test_judge_load_accepts_other_hidden_widths(tmp_path, train, records):
    ContrastiveJudge(train.catalog_names, hidden=(8,), seed=3).save(tmp_path)
    judge = ContrastiveJudge(train.catalog_names, seed=77)
    judge.load(tmp_path)
    assert judge.image_encoder.layer_sizes == [judges.IMAGE_FEATURE_DIM, 8, judges.EMBED_DIM]
    judge.infer(records[:4])


# bytes of a contrastive judge after 3 epochs over 40 records at minibatch 13
# (chunks of 13, 13, 13 and a skipped 1), and of its later inference
GOLDEN_CONTRASTIVE_FILES = {
    "image.net": "97f7b77073ad08c36d34d8f5656745ff66ac1684745cb0ce9ad91e0cd6b733db",
    "text.net": "fca1fe5fcfa7957a0ed12032ad2ae4dba5504b872117b2922f97ebf2e63a8227",
}
GOLDEN_CONTRASTIVE_LOSSES = [3.7508262358454707, 3.1887172904091994, 2.9945240893818124]
GOLDEN_CONTRASTIVE_SIMILARITIES = (
    "2afee9e2d8b3b83f4d3662c9ebc98c88a70456b751172220f7e4cb106c0058e5"
)


def test_contrastive_golden_digest(tmp_path, train, records):
    judge = ContrastiveJudge(train.catalog_names, hidden=(32, 32), seed=11, minibatch=13)
    assert judge.finetune(records[:40], epochs=3) == GOLDEN_CONTRASTIVE_LOSSES
    judge.save(tmp_path)
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN_CONTRASTIVE_FILES
    }
    assert got == GOLDEN_CONTRASTIVE_FILES
    verdicts, _ = judge.infer(records[40:50])
    sims = json.dumps([v.similarities for v in verdicts]).encode()
    assert hashlib.sha256(sims).hexdigest() == GOLDEN_CONTRASTIVE_SIMILARITIES


def _direct_pool(records, names):
    captions = [r.caption for r in records]
    captions += [r.neg_term for r in records]
    captions += [r.neg_object for r in records]
    return np.stack([text_features(c, names) for c in captions])


def test_text_pool_is_3n(train, records):
    judge = ContrastiveJudge(train.catalog_names, seed=4)
    assert judge._text_pool(records[:5]).shape == (15, judges.TEXT_FEATURE_DIM)


def test_text_pool_cache_matches_direct_features(train, records):
    judge = ContrastiveJudge(train.catalog_names, seed=4)
    for batch in (records[:40], records[:40], records[20:80]):
        expected = _direct_pool(batch, train.catalog_names)
        assert np.array_equal(judge._text_pool(batch), expected)


def test_text_pool_is_a_fresh_array(train, records):
    judge = ContrastiveJudge(train.catalog_names, seed=4)
    judge._text_pool(records[:10])[:] = 7.0
    expected = _direct_pool(records[:10], train.catalog_names)
    assert np.array_equal(judge._text_pool(records[:10]), expected)


def test_contrastive_validation_metric_computes_no_loss(train, records, monkeypatch):
    judge = ContrastiveJudge(train.catalog_names, seed=6)
    verdicts, _ = judge.infer(records)

    def no_loss(*args, **kwargs):
        raise AssertionError("validation computed a loss")

    monkeypatch.setattr(judges, "contrastive_loss", no_loss)
    monkeypatch.setattr(judges, "contrastive_loss_components", no_loss)
    monkeypatch.setattr(judges, "_infonce", no_loss)
    got = judge.validation_metric(judge.encode(records))
    assert got == float(np.mean([v.ranked_correct for v in verdicts]))


def test_contrastive_triples_are_the_full_matrix_diagonals(train):
    recs = generate_fixed_records(train, 240, seed=654)
    judge = ContrastiveJudge(train.catalog_names, seed=8)
    judge.finetune(recs[:60], epochs=2)
    verdicts, _ = judge.infer(recs)
    n = len(recs)
    zn, _ = judges._normalize_rows(judge.image_encoder.forward(judge._image_batch(recs)))
    wn, _ = judges._normalize_rows(judge.text_encoder.forward(judge._text_pool(recs)))
    full = zn @ wn.T
    expected = np.stack([np.diagonal(full[:, k * n : (k + 1) * n]) for k in range(3)], axis=1)
    got = np.array([v.similarities for v in verdicts])
    assert np.max(np.abs(got - expected)) <= 1e-12
    ranked = (expected[:, 0] > expected[:, 1]) & (expected[:, 0] > expected[:, 2])
    assert [v.ranked_correct for v in verdicts] == ranked.tolist()
    encoded = judge.encode(recs)
    np.testing.assert_array_equal(judge.scores(encoded), ranked.astype(float))
    assert judge.validation_metric(encoded) == float(np.mean(ranked.astype(float)))


def test_contrastive_validation_builds_no_similarity_matrix(train):
    recs = generate_fixed_records(train, 2000, seed=655)
    judge = ContrastiveJudge(train.catalog_names, seed=9)
    tracemalloc.start()
    try:
        judge.validation_metric(judge.encode(recs))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 2000 x 6000 similarity matrix alone would take 96 MB
    assert peak < 16e6, f"validation peaked at {peak / 1e6:.1f} MB"


def test_untrained_generative_near_chance(train):
    """Mean rubric of an untrained judge stays within +-0.3 of the Monte-Carlo
    baseline of threshold-random predictions on the same samples.
    """
    records = generate_fixed_records(train, 500, seed=777)
    judge = GenerativeJudge(train.catalog_names, seed=5)
    got = judge.validation_metric(judge.encode(records))

    rng = np.random.default_rng(123)
    sims = []
    for rec in records:
        truth = rec.terms
        # fresh random nets emit tiny logits, so sigmoid ~ 0.5 per term
        predicted = {t for t in oracles.PRIMITIVES if rng.random() > 0.5}
        sims.append(oracles.rubric_reference(predicted, set(truth)))
    baseline = float(np.mean(sims))
    assert abs(got - baseline) <= 0.3
