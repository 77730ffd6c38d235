import math

import numpy as np
import pytest

from rls3.datasets import generate_fixed_records
from rls3.judges import (
    ContrastiveJudge,
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
from rls3.scene import builtin_suite

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


def test_text_features_deterministic(train):
    c = "The mug is above the plate."
    np.testing.assert_array_equal(
        text_features(c, train.catalog_names), text_features(c, train.catalog_names)
    )


# --- generative judge -----------------------------------------------------------


def test_generative_infer_shapes(train, records):
    judge = GenerativeJudge(train.catalog_names, seed=0)
    verdicts = judge.infer(records[:10])
    assert len(verdicts) == 10
    for v, rec in zip(verdicts, records[:10]):
        assert v.sample_id == rec.id
        assert 1 <= v.rubric <= 5
        assert v.predicted_terms is not None


def test_generative_finetune_improves(train, records):
    judge = GenerativeJudge(train.catalog_names, seed=1)
    before = judge.validation_metric(records)
    report = judge.finetune(records, steps=400)
    after = judge.validation_metric(records)
    assert after > before + 0.5
    assert len(report.losses) == 400
    assert np.mean(report.losses[-20:]) < np.mean(report.losses[:20])


def test_generative_digest_tracks_weights(train, records):
    judge = GenerativeJudge(train.catalog_names, seed=2)
    d0 = judge.digest()
    assert judge.digest() == d0  # inference must not change weights
    judge.infer(records[:5])
    assert judge.digest() == d0
    judge.finetune(records[:20], steps=1)
    assert judge.digest() != d0


def test_generative_reward_from_rubric(train, records):
    judge = GenerativeJudge(train.catalog_names, seed=3)
    verdicts = judge.infer(records[:16])
    mean = np.mean([v.rubric for v in verdicts])
    assert math.isclose(judge.batch_reward(verdicts), (6.0 - mean) ** 2)
    # perfect batch gives the minimum reward of 1
    class V:
        rubric = 5
    assert judge.batch_reward([V(), V()]) == 1.0


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
    assert other.digest() == judge.digest()
    a = [v.rubric for v in judge.infer(records[:10])]
    b = [v.rubric for v in other.infer(records[:10])]
    assert a == b


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
    acc_before = judge.validation_metric(records)
    judge.finetune(records, epochs=30)
    _, after = judge.infer(records)
    acc_after = judge.validation_metric(records)
    assert after < before
    assert acc_after > acc_before


def test_contrastive_digest_and_inference_purity(train, records):
    judge = ContrastiveJudge(train.catalog_names, seed=2)
    d0 = judge.digest()
    judge.infer(records[:8])
    judge.validation_metric(records[:8])
    assert judge.digest() == d0
    judge.finetune(records[:16], epochs=1)
    assert judge.digest() != d0


def test_contrastive_save_load(tmp_path, train, records):
    judge = ContrastiveJudge(train.catalog_names, seed=3)
    judge.finetune(records[:30], epochs=2)
    judge.save(tmp_path)
    other = ContrastiveJudge(train.catalog_names, seed=77)
    other.load(tmp_path)
    assert other.digest() == judge.digest()
    _, la = judge.infer(records[:10])
    _, lb = other.infer(records[:10])
    assert la == lb


def test_contrastive_pool_modes(train, records):
    both = ContrastiveJudge(train.catalog_names, seed=4)
    assert both._text_pool(records[:5]).shape[0] == 15
    term = ContrastiveJudge(train.catalog_names, seed=4, pool_negatives="term")
    assert term._text_pool(records[:5]).shape[0] == 10
    # inference always scores against both negatives regardless of pool mode
    verdicts, _ = term.infer(records[:5])
    assert all(len(v.similarities) == 3 for v in verdicts)
    term.finetune(records[:20], epochs=1)
    with pytest.raises(ValueError):
        ContrastiveJudge(train.catalog_names, pool_negatives="none")


def test_untrained_generative_near_chance(train):
    """Mean rubric of an untrained judge stays within +-0.3 of the Monte-Carlo
    baseline of threshold-random predictions on the same samples.
    """
    records = generate_fixed_records(train, 500, seed=777)
    judge = GenerativeJudge(train.catalog_names, seed=5)
    got = judge.validation_metric(records)

    rng = np.random.default_rng(123)
    sims = []
    for rec in records:
        truth = rec.truth_terms()
        # fresh random nets emit tiny logits, so sigmoid ~ 0.5 per term
        predicted = {t for t in oracles.PRIMITIVES if rng.random() > 0.5}
        sims.append(oracles.rubric_reference(predicted, set(truth)))
    baseline = float(np.mean(sims))
    assert abs(got - baseline) <= 0.3
