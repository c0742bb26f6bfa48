"""All five uncertainty strategies on one desk-scale task.

Trains the same small classifier on the synthetic dataset under each
strategy and prints a side-by-side metric table. Runs in about a
minute; every number is bit-reproducible from the seeds below.
"""

import time

import numpy as np

import uaperceiver as ua
from uaperceiver.data import channel_stats, standardize
from uaperceiver.model import init_params
from uaperceiver.rng import derive_seed
from uaperceiver.schedules import LRSchedule

SEED = 0
STEPS = 120
LR = 1e-3


def evaluate(predictor, test):
    batch = ua.EvalBatch(predictor.probabilities(test.images), test.labels)
    return (ua.accuracy(batch), ua.nll(batch), ua.ece(batch), ua.brier(batch))


def main():
    config = ua.PerceiverConfig(
        height=16, width=16, channels=3, num_classes=3, latent_count=8,
        latent_dim=32, byte_dim=32, num_bands=4, depth_repeats=1,
        tower_layers=1, heads=2,
    )
    train = ua.synth_dataset(derive_seed(SEED, 0), 600)
    test = ua.synth_dataset(derive_seed(SEED, 1), 200, split="test")
    stats = channel_stats(train)
    train, test = standardize(train, stats), standardize(test, stats)
    settings = ua.TrainSettings(batch_size=4)
    constant = LRSchedule("constant", LR, LR, STEPS, 1)

    rows = []

    def run(name, fn):
        start = time.perf_counter()
        predictor = fn()
        rows.append((name, predictor.ensemble_size, *evaluate(predictor, test),
                     time.perf_counter() - start))

    def single():
        store, _, _ = ua.train_member(
            config, train, constant, derive_seed(SEED, 0), settings,
            fit_temperature=False,
        )
        return ua.Predictor("single", config, [store])

    def deep():
        predictor, _ = ua.deep_ensemble_train(
            config, 4, SEED, train, constant, settings
        )
        return predictor

    def swa():
        store, _, _ = ua.train_member(
            config, train, constant, derive_seed(SEED, 0), settings,
            fit_temperature=False,
        )
        schedule = LRSchedule("swa_linear", LR, LR / 2.5, 40, 8)
        predictor, _ = ua.swa_train(
            config, store, train, schedule, derive_seed(SEED, 1), settings
        )
        return predictor

    def snapshot():
        # longer cycles and only the last two snapshots: early cycles
        # are still far from convergence at desk scale
        schedule = LRSchedule("snapshot_cosine", LR, 0.0, 2 * STEPS, 3)
        predictor, _ = ua.snapshot_train(
            config, SEED, train, schedule, settings, average_last=2
        )
        return predictor

    def fast():
        store, _, _ = ua.train_member(
            config, train, constant, derive_seed(SEED, 0), settings,
            fit_temperature=False,
        )
        schedule = LRSchedule("fast_cyclic", LR, LR / 10, 4 * 8, 4)
        predictor, _ = ua.fast_train(
            config, store, train, schedule, derive_seed(SEED, 1), settings
        )
        return predictor

    def mc_dropout():
        schedule = LRSchedule("constant", LR, LR, STEPS, 1)
        params = init_params(config, derive_seed(derive_seed(SEED, 0), 1))
        mc_settings = ua.TrainSettings(batch_size=4, mc_delta=0.1)
        ua.train_model(config, params, train, schedule,
                       derive_seed(derive_seed(SEED, 0), 2), mc_settings)
        return ua.Predictor(
            "mc_dropout", config, [params.detached()], mc_delta=0.1,
            mc_samples=30, mc_seed=derive_seed(SEED, 0xAB),
        )

    run("single", single)
    run("deep ensemble", deep)
    run("swa", swa)
    run("snapshot", snapshot)
    run("fast", fast)
    run("mc dropout", mc_dropout)

    print(f"{'strategy':<14} {'M':>2} {'acc':>7} {'nll':>8} {'ece':>8} "
          f"{'brier':>8} {'sec':>6}")
    for name, m, acc, nll, ece, brier, sec in rows:
        print(f"{name:<14} {m:>2} {acc:>7.4f} {nll:>8.4f} {ece:>8.4f} "
              f"{brier:>8.4f} {sec:>6.1f}")


if __name__ == "__main__":
    main()
