"""All five uncertainty strategies on one desk-scale task.

Trains the same small classifier on the synthetic dataset under each
strategy, as a run config through the run harness, and prints a
side-by-side metric table. Runs in about a minute; every number is
bit-reproducible from the seeds below.
"""

import dataclasses
import tempfile
import time

import uaperceiver as ua
from uaperceiver.harness import build_dataset, evaluate_predictor

# the single model, and the pretraining of swa and fast, take 120 steps
BASE = ua.RunConfig(
    height=16, width=16, channels=3, num_classes=3, latent_count=8,
    latent_dim=32, byte_dim=32, num_bands=4, depth_repeats=1,
    tower_layers=1, heads=2, learning_rate=1e-3, train_steps=120,
    pretrain_steps=120, synth_train=600, synth_test=200, seed=0,
)
STRATEGIES = [
    ("single", dict(strategy="single")),
    ("deep ensemble", dict(strategy="deep", ensemble_size=4)),
    ("swa", dict(strategy="swa", lr_low=4e-4, swa_steps=40, swa_cycle=8)),
    # longer cycles and only the last two snapshots: early cycles are
    # still far from convergence at desk scale
    ("snapshot", dict(strategy="snapshot", train_steps=240, snapshot_cycles=3,
                      snapshot_last=2)),
    ("fast", dict(strategy="fast", fast_lr_low=1e-4, fast_cycles=4,
                  fast_steps_per_cycle=8)),
    ("mc dropout", dict(strategy="mc", mc_delta=0.1, mc_samples=30)),
]


def main():
    test = build_dataset(BASE, "test")
    print(f"{'strategy':<14} {'M':>2} {'acc':>7} {'nll':>8} {'ece':>8} "
          f"{'brier':>8} {'sec':>6}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, fields in STRATEGIES:
            config = dataclasses.replace(BASE, **fields, out_dir=f"{tmp}/{name}")
            start = time.perf_counter()
            result = ua.run_train(config)
            r = evaluate_predictor(result.predictor, config, test)
            print(f"{name:<14} {r.ensemble_size:>2} {r.accuracy:>7.4f} "
                  f"{r.nll:>8.4f} {r.ece:>8.4f} {r.brier:>8.4f} "
                  f"{time.perf_counter() - start:>6.1f}")


if __name__ == "__main__":
    main()
