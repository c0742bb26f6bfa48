"""Deep-ensemble size sweep: how the metrics move from M = 1 to 4.

Trains a 4-member pool once through the run harness, then evaluates the
first 1, 2, 3, and 4 members as progressively larger ensembles on the
held-out split. With a deliberately noisy task (low contrast, extra
pixel noise) the single model is imperfect and the averaging effect is
visible in NLL and Brier.
"""

import tempfile

import uaperceiver as ua


def main():
    with tempfile.TemporaryDirectory() as tmp:
        config = ua.RunConfig(
            height=16, width=16, channels=3, num_classes=3, latent_count=8,
            latent_dim=32, byte_dim=32, num_bands=4, depth_repeats=1,
            tower_layers=1, heads=2, strategy="deep", ensemble_size=4,
            learning_rate=1e-3, train_steps=100, seed=1, out_dir=tmp,
            # harder-than-default task so the curve has somewhere to go
            synth_train=600, synth_test=300, synth_noise=0.12,
            synth_contrast=0.35, data_seed=1,
        )
        # each member is evaluated once; size M averages the first M members
        reports = ua.sweep_ensemble(config)
    print(f"{'M':>2} {'acc':>7} {'nll':>8} {'ece':>8} {'brier':>8}")
    for r in reports:
        print(f"{r.ensemble_size:>2} {r.accuracy:>7.4f} {r.nll:>8.4f} "
              f"{r.ece:>8.4f} {r.brier:>8.4f}")
    temps = ", ".join(f"{t:.2f}" for t in reports[-1].temperatures)
    print(f"\nper-member fitted temperatures: {temps}")


if __name__ == "__main__":
    main()
