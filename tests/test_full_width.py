"""Smoke test at the paper's vocabulary widths with a few hundred reviews.

The acceptance criteria that use the real datasets skip without prepared
data, so this is where the 89 527-wide first layer and the 88 584 -> 89 527
vocabulary transfer run in the tier-1 suite.
"""

import math

import numpy as np
import pytest

import oracles
from bowtie import optim
from bowtie.corpus import Vocabulary
from bowtie.encode import MULTI_HOT, POLARITY_WEIGHTED, encode_corpus
from bowtie.net import ModelConfig, init_model
from bowtie.optim import OptimizerSpec
from bowtie.train import Checkpoint, TrainConfig, train
from bowtie.transfer import transfer_evaluate
from synth import copy_of, planted_corpus, rating_table, token_list

SLMRD_WIDTH = 89_527
KID_WIDTH = 88_584
SHARED = 80_000


def test_full_width_encode_train_and_transfer():
    slmrd_tokens = token_list(SLMRD_WIDTH)
    kid_tokens = slmrd_tokens[:SHARED] + token_list(KID_WIDTH - SHARED, prefix="kid")
    slmrd_vocab, kid_vocab = Vocabulary(slmrd_tokens), Vocabulary(kid_tokens)
    ratings = rating_table(1, SLMRD_WIDTH)
    ratings[::13] = 0.0  # some tokens carry no polarity and drop out
    polarity = ratings
    shape = {"max_distinct": 130, "max_count": 4}
    train_c = planted_corpus(2, 256, ratings, **shape)
    val_c = planted_corpus(3, 128, ratings, **shape)

    entries = train_c.nnz
    hot = encode_corpus(copy_of(train_c), MULTI_HOT, width=SLMRD_WIDTH)
    assert hot.matrix.shape == (256, SLMRD_WIDTH) and hot.nnz == entries
    train_set = encode_corpus(train_c, POLARITY_WEIGHTED, polarity=polarity, width=SLMRD_WIDTH)
    val_set = encode_corpus(val_c, POLARITY_WEIGHTED, polarity=polarity, width=SLMRD_WIDTH)
    assert train_set.width == SLMRD_WIDTH and 0 < train_set.nnz < entries

    model = init_model(ModelConfig(input_width=SLMRD_WIDTH))
    config = TrainConfig(optimizer=OptimizerSpec(kind="nadam"), batch_size=64, max_epochs=1)
    model, metrics = train(model, train_set, val_set, config, log=False)
    assert len(metrics) == 1
    assert math.isfinite(metrics[0].train_bce) and math.isfinite(metrics[0].val_bce)
    assert model.weights[0].shape == (SLMRD_WIDTH, 16)

    kid_ratings = np.concatenate([ratings[:SHARED], np.zeros(KID_WIDTH - SHARED)])
    kid_c = planted_corpus(4, 200, kid_ratings, **shape)
    checkpoint = Checkpoint(
        model=model,
        vocab_size=slmrd_vocab.size,
        vocab_sha256=slmrd_vocab.fingerprint(),
        encoding=POLARITY_WEIGHTED,
        provenance={},
    )
    report = transfer_evaluate(checkpoint, kid_c, kid_vocab, slmrd_vocab, polarity)
    assert (report.source_vocab_size, report.target_vocab_size) == (KID_WIDTH, SLMRD_WIDTH)
    assert report.mapped_count == SHARED
    assert len(report.dropped) == KID_WIDTH - SHARED
    assert report.result.count == 200
    assert math.isfinite(report.result.bce)
    assert report.stats.element_min <= report.stats.element_max


@pytest.mark.parametrize(
    "encoding, kind, lr, epochs",
    [(POLARITY_WEIGHTED, "nadam", 0.001, 1), (MULTI_HOT, "sgd", 0.05, 4)],
)
def test_full_width_training_matches_the_oracle_step_bit_for_bit(
    encoding, kind, lr, epochs, monkeypatch
):
    """89 527 first-layer rows: 21 whole chunks of 4 096 and a ragged 3 511."""
    ratings = rating_table(1, SLMRD_WIDTH)
    corpus = planted_corpus(2, 256, ratings, max_distinct=130, max_count=4)
    dataset = encode_corpus(corpus, encoding, polarity=ratings, width=SLMRD_WIDTH)
    config = TrainConfig(
        optimizer=OptimizerSpec(kind=kind, learning_rate=lr), batch_size=64, max_epochs=epochs
    )

    def trained_bytes():
        model = init_model(ModelConfig(input_width=SLMRD_WIDTH))
        model, metrics = train(model, dataset, None, config, log=False)
        assert len(metrics) == epochs
        return [t.tobytes() for t in model.weights + model.biases]

    assert SLMRD_WIDTH % optim._CHUNK_ROWS != 0
    chunked = trained_bytes()
    monkeypatch.setattr(optim, "_step_tensor", oracles.finite_step_tensor)
    assert chunked == trained_bytes()
