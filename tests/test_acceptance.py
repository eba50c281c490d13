"""End-to-end acceptance gate.

Criteria 1-7 exercise the real review datasets and need them prepared on
disk first (`bowtie prepare slmrd` / `bowtie prepare kid`).  Point
BOWTIE_DATA_DIR at the directory holding the prepared `slmrd/` and `kid/`
subdirectories, or place them under `data/` next to this repository's
pyproject.toml.  Without that data those criteria skip and say so.
Criterion 8 is scale-independent and always runs.

Each criterion prints exactly one machine-readable pass/fail line
(visible with `pytest -s` or on failure).
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from bowtie.cli import main
from bowtie.corpus import (
    Vocabulary,
    load_corpus_file,
    load_polarity,
    load_slmrd_vocab,
)
from bowtie.encode import MULTI_HOT, POLARITY_WEIGHTED, encode_corpus, polarity_stats
from bowtie.net import Gradients, backward, forward
from bowtie.optim import OptimizerSpec, apply_update, init_state
from bowtie.train import TrainConfig, load_checkpoint, save_checkpoint, train
from bowtie.transfer import build_vocab_map, remap_corpus
from oracles import dense_forward, dense_multi_hot, dense_polarity_weighted, predict
from synth import copy_of, corpus_from_rows, planted_bag, planted_corpus, rating_table, values_of
from test_net import fd_all_coords, make_model, random_batch, sample_net_case, vector_rel_error
from test_optim import single_step

DATA_DIR = Path(
    os.environ.get("BOWTIE_DATA_DIR", Path(__file__).resolve().parent.parent / "data")
)
SEEDS = (0, 1, 2)


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'pass' if ok else 'FAIL'} ({detail})")
    return ok


def require_data(*relpaths):
    missing = [p for p in relpaths if not (DATA_DIR / p).exists()]
    if missing:
        pytest.skip(
            f"prepared review data not found under {DATA_DIR} "
            f"(missing {', '.join(missing)}); run the prepare commands first"
        )


SLMRD_FILES = ("slmrd/vocab.txt", "slmrd/polarity.txt", "slmrd/train.corpus", "slmrd/test.corpus")
KID_FILES = ("kid/vocab.txt", "kid/full.corpus")


def run_scenario(n, out, seed, extra=()):
    return main(
        [
            "scenario", str(n),
            "--data-dir", str(DATA_DIR),
            "--out", str(out),
            "--seed", str(seed),
            *extra,
        ]
    )


def read_metrics(out):
    rows = (out / "metrics.csv").read_text(encoding="utf-8").splitlines()
    header = rows[0].split(",")
    return [dict(zip(header, (float(v) for v in line.split(",")))) for line in rows[1:]]


def report_footer(out):
    footer = {}
    for line in (out / "report.txt").read_text(encoding="utf-8").splitlines():
        if "=" in line and not line.startswith("#"):
            key, _, value = line.partition("=")
            footer[key] = value
    return footer


# ------------------------------------------------- criteria 1-3: scenario runs


def scenario_accuracy_criterion(criterion, n, tmp_path, min_acc, max_bce):
    require_data(*SLMRD_FILES, *(KID_FILES if n == 1 else ()))
    attempts = []
    for seed in SEEDS:
        out = tmp_path / f"s{n}-seed{seed}"
        run_scenario(n, out, seed)
        rows = read_metrics(out)
        best = max(rows, key=lambda r: (r["val_acc"], -r["val_bce"]))
        attempts.append(f"seed={seed} val_acc={best['val_acc']:.4f} val_bce={best['val_bce']:.4f}")
        if best["val_acc"] >= min_acc and best["val_bce"] <= max_bce and len(rows) <= 20:
            seconds = np.mean([r["seconds"] for r in rows])
            detail = (
                f"{attempts[-1]} epochs={len(rows)} sec_per_epoch={seconds:.2f}"
                f" thresholds acc>={min_acc} bce<={max_bce}"
            )
            ok = report(criterion, True, detail)
            if criterion == 1:
                assert seconds < 300.0, detail
            assert ok
            return
    assert report(criterion, False, "; ".join(attempts))


def test_criterion_1_kid_multi_hot(tmp_path):
    scenario_accuracy_criterion(1, 1, tmp_path, 0.875, 0.32)


def test_criterion_2_slmrd_multi_hot(tmp_path):
    scenario_accuracy_criterion(2, 2, tmp_path, 0.874, 0.32)


def test_criterion_3_slmrd_polarity_weighted(tmp_path):
    scenario_accuracy_criterion(3, 3, tmp_path, 0.885, 0.30)


# ----------------------------------------------------- criterion 4: transfer


def test_criterion_4_transfer_beats_direct_training(tmp_path):
    require_data(*SLMRD_FILES, *KID_FILES)
    attempts = []
    for seed in SEEDS:
        out = tmp_path / f"s4-seed{seed}"
        run_scenario(4, out, seed)
        transfer_acc = float(report_footer(out)["accuracy"])
        direct_acc = read_metrics(out)[-1]["val_acc"]
        attempts.append(f"seed={seed} transfer_acc={transfer_acc:.4f} direct_acc={direct_acc:.4f}")
        if transfer_acc >= 0.905 and direct_acc < transfer_acc:
            assert report(4, True, attempts[-1] + " threshold acc>=0.905, direct<transfer")
            return
    assert report(4, False, "; ".join(attempts))


# ------------------------------------------------ criterion 5: loss stability


def test_criterion_5_loss_stays_stable(tmp_path):
    require_data(*SLMRD_FILES, *KID_FILES)
    attempts = []
    for seed in SEEDS:
        short = tmp_path / f"s5-short-seed{seed}"
        run_scenario(1, short, seed, extra=["--target-acc", "1.0"])
        max_bce = max(r["val_bce"] for r in read_metrics(short))
        long = tmp_path / f"s5-long-seed{seed}"
        run_scenario(1, long, seed, extra=["--target-acc", "1.0", "--epochs", "100"])
        rows = read_metrics(long)
        final = rows[-1]["val_bce"]
        low = min(r["val_bce"] for r in rows)
        attempts.append(
            f"seed={seed} max_bce_20={max_bce:.4f} final_bce_100={final:.4f} min_bce_100={low:.4f}"
        )
        if max_bce < 0.38 and final < 2.0 * low:
            assert report(5, True, attempts[-1] + " bounds max<0.38, final<2*min")
            return
    assert report(5, False, "; ".join(attempts))


# --------------------------------------- criterion 6: vocabulary reconciliation


def test_criterion_6_vocabulary_reconciliation():
    require_data("kid/vocab.txt", "slmrd/vocab.txt")
    source = load_slmrd_vocab(DATA_DIR / "kid" / "vocab.txt")
    target = load_slmrd_vocab(DATA_DIR / "slmrd" / "vocab.txt")
    vmap = build_vocab_map(source, target)
    total = vmap.mapped_count + len(vmap.dropped)
    ok = (
        len(vmap.dropped) <= 50
        and "walmington" in vmap.dropped
        and total == 88587
    )
    detail = (
        f"dropped={len(vmap.dropped)} walmington={'walmington' in vmap.dropped}"
        f" mapped+dropped={total} expected=88587"
    )
    assert report(6, ok, detail)


# ------------------------------------------- criterion 7: polarity statistics


def within_one_percent(x, target):
    return abs(x - target) <= 0.01 * abs(target)


def test_criterion_7_polarity_statistics():
    require_data("slmrd/vocab.txt", "slmrd/polarity.txt", "slmrd/train.corpus", *KID_FILES)
    slmrd_vocab = load_slmrd_vocab(DATA_DIR / "slmrd" / "vocab.txt")
    ratings = load_polarity(DATA_DIR / "slmrd" / "polarity.txt", slmrd_vocab)
    train_corpus = load_corpus_file(DATA_DIR / "slmrd" / "train.corpus", width=slmrd_vocab.size)
    slmrd_stats = polarity_stats(encode_corpus(
        train_corpus, POLARITY_WEIGHTED, polarity=ratings, width=slmrd_vocab.size
    ))

    kid_vocab = load_slmrd_vocab(DATA_DIR / "kid" / "vocab.txt")
    kid_corpus = load_corpus_file(DATA_DIR / "kid" / "full.corpus", width=kid_vocab.size)
    vmap = build_vocab_map(kid_vocab, slmrd_vocab)
    kid_stats = polarity_stats(encode_corpus(
        remap_corpus(kid_corpus, vmap), POLARITY_WEIGHTED, polarity=ratings, width=vmap.target_size
    ))

    candidates = {
        "element": (slmrd_stats.element_min, slmrd_stats.element_max, kid_stats.element_max),
        "rowsum": (slmrd_stats.rowsum_min, slmrd_stats.rowsum_max, kid_stats.rowsum_max),
    }
    matched = [
        name
        for name, (lo, hi, kid_hi) in candidates.items()
        if within_one_percent(lo, -50.07)
        and within_one_percent(hi, 58.75)
        and within_one_percent(kid_hi, 197.84)
    ]
    detail = "; ".join(
        f"{name}: min={lo:.4f} max={hi:.4f} kid_max={kid_hi:.4f}"
        for name, (lo, hi, kid_hi) in candidates.items()
    )
    detail += f"; matched_interpretation={matched[0] if matched else 'none'}"
    detail += "; targets min=-50.07 max=58.75 kid_max=197.84 within 1%"
    assert report(7, bool(matched), detail)


# ---------------------------------------------- criterion 8: property suite


def test_criterion_8_property_suite(tmp_path):
    start = time.perf_counter()
    checks = []

    # gradient vs central finite differences, 100 random small nets
    rng = np.random.default_rng(8001)
    worst = 0.0
    for case in range(100):
        if case % 5 == 0:
            width = int(rng.integers(2, 9))
            model = make_model(width, hidden=(4, 1), dropout=0.2, l2=0.019, seed=3000 + case)
            batch, labels = random_batch(rng, width, 3)
            seed = 7000 + case
            cache = forward(model, batch, training=True, dropout_seed=seed)
            grads = backward(model, cache, labels)
            fd_w, fd_b = fd_all_coords(model, batch, labels, training=True, dropout_seed=seed)
        else:
            model, batch, labels = sample_net_case(rng, case)
            cache = forward(model, batch)
            grads = backward(model, cache, labels)
            fd_w, fd_b = fd_all_coords(model, batch, labels)
        worst = max(worst, vector_rel_error(grads.weights + grads.biases, fd_w + fd_b))
    checks.append(("gradcheck", worst < 1e-6, f"max_rel_err={worst:.3g}"))

    # sparse forward equals the dense loop oracle, 500 cases
    gap = 0.0
    for case in range(500):
        width = int(rng.integers(1, 65))
        hidden = (int(rng.integers(1, 9)), 1)
        activation = "relu" if case % 2 else "none"
        model = make_model(width, hidden=hidden, activation=activation, seed=case)
        batch, _ = random_batch(rng, width, int(rng.integers(1, 7)))
        probs = forward(model, batch).prob
        gap = max(gap, float(np.abs(probs - dense_forward(model, batch.toarray())).max()))
    checks.append(("sparse_vs_dense", gap < 1e-12, f"max_abs_gap={gap:.3g}"))

    # both encoders equal their dense loop oracles exactly
    encoder_ok = True
    for case in range(100):
        width = int(rng.integers(1, 40))
        ratings = rating_table(9000 + case, width)
        if case % 4 == 0:
            ratings[rng.integers(0, width)] = 0.0
        pairs, label = planted_bag(rng, ratings, max_distinct=min(8, width))
        corpus = corpus_from_rows([pairs], [label], width)
        hot = encode_corpus(copy_of(corpus), MULTI_HOT, width=width).matrix.toarray()[0]
        weighted = values_of(encode_corpus(
            corpus, POLARITY_WEIGHTED, polarity=ratings, width=width
        )).toarray()[0]
        encoder_ok = (
            encoder_ok
            and np.array_equal(hot, dense_multi_hot(pairs, width))
            and np.array_equal(weighted, dense_polarity_weighted(pairs, ratings, width))
        )
    checks.append(("encoders_vs_oracle", encoder_ok, "exact equality"))

    # zero gradients leave parameters bitwise untouched, every optimizer
    invariant = True
    for kind in ("sgd", "rmsprop", "adam", "nadam"):
        model = make_model(3, hidden=(2, 1), seed=11)
        before = [w.tobytes() for w in model.weights] + [b.tobytes() for b in model.biases]
        state = init_state(model)
        zero = Gradients(
            weights=[np.zeros_like(w) for w in model.weights],
            biases=[np.zeros_like(b) for b in model.biases],
        )
        for _ in range(3):
            apply_update(OptimizerSpec(kind=kind), state, model, zero)
        after = [w.tobytes() for w in model.weights] + [b.tobytes() for b in model.biases]
        invariant = invariant and before == after
    checks.append(("zero_gradient_invariance", invariant, "bitwise over 3 steps"))

    # adam's first step ignores gradient magnitude
    small = 1.0 - single_step("adam", 1.0, 1.0)
    large = 1.0 - single_step("adam", 1.0, 1000.0)
    scale_ok = abs(small - large) <= 1e-6 * abs(small)
    checks.append(("adam_scale_invariance", scale_ok, f"steps {small:.3e} vs {large:.3e}"))

    # checkpoint round-trips bit for bit and preserves predictions
    model = make_model(12, hidden=(5, 1), activation="relu", dropout=0.2, l2=0.019, seed=3)
    vocab = Vocabulary([f"tok{i:02d}" for i in range(12)])
    path = tmp_path / "roundtrip.ckpt"
    save_checkpoint(str(path), model, vocab.size, vocab.fingerprint(), POLARITY_WEIGHTED)
    restored = load_checkpoint(str(path)).model
    ck_ok = all(
        a.tobytes() == b.tobytes()
        for a, b in zip(model.weights + model.biases, restored.weights + restored.biases)
    )
    probe, _ = random_batch(np.random.default_rng(77), 12, 5)
    ck_ok = ck_ok and all(
        predict(model, probe[i : i + 1]) == predict(restored, probe[i : i + 1])
        for i in range(probe.shape[0])
    )
    checks.append(("checkpoint_roundtrip", ck_ok, "bit-exact, predictions preserved"))

    # a repeated single-threaded run reproduces metrics and weights exactly
    ratings = rating_table(400, 24)
    train_set = encode_corpus(
        planted_corpus(401, 90, ratings), POLARITY_WEIGHTED, polarity=ratings,
        width=24,
    )
    val_set = encode_corpus(
        planted_corpus(402, 40, ratings),
        POLARITY_WEIGHTED,
        polarity=ratings,
        width=24,
    )
    outcomes = []
    for _ in range(2):
        model = make_model(24, hidden=(8, 1), dropout=0.2, l2=0.019, seed=5)
        cfg = TrainConfig(
            optimizer=OptimizerSpec(kind="nadam", learning_rate=0.01),
            batch_size=32,
            max_epochs=4,
            data_seed=6,
            dropout_seed=7,
        )
        trained, metrics = train(model, train_set, val_set, cfg, log=False)
        outcomes.append(
            (
                [(m.epoch, m.train_bce, m.train_accuracy, m.val_bce, m.val_accuracy) for m in metrics],
                [w.tobytes() for w in trained.weights] + [b.tobytes() for b in trained.biases],
            )
        )
    checks.append(("replay_determinism", outcomes[0] == outcomes[1], "two runs identical"))

    elapsed = time.perf_counter() - start
    ok = all(passed for _, passed, _ in checks) and elapsed < 60.0
    detail = "; ".join(f"{name} {'ok' if passed else 'FAIL'} ({note})" for name, passed, note in checks)
    assert report(8, ok, f"{detail}; elapsed={elapsed:.1f}s limit=60s")
