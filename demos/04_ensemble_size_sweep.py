"""Deep-ensemble size sweep: how the metrics move from M = 1 to 4.

Trains a 4-member pool once, then evaluates the first 1, 2, 3, and 4
members as progressively larger ensembles on the held-out split. With a
deliberately noisy task (low contrast, extra pixel noise) the single
model is imperfect and the averaging effect is visible in NLL and Brier.
"""

import uaperceiver as ua
from uaperceiver.data import channel_stats, standardize
from uaperceiver.rng import derive_seed
from uaperceiver.schedules import LRSchedule


def main():
    config = ua.PerceiverConfig(
        height=16, width=16, channels=3, num_classes=3, latent_count=8,
        latent_dim=32, byte_dim=32, num_bands=4, depth_repeats=1,
        tower_layers=1, heads=2,
    )
    # harder-than-default task so the curve has somewhere to go
    train = ua.synth_dataset(derive_seed(1, 0), 600, noise=0.12, contrast=0.35)
    test = ua.synth_dataset(derive_seed(1, 1), 300, noise=0.12, contrast=0.35,
                            split="test")
    stats = channel_stats(train)
    train, test = standardize(train, stats), standardize(test, stats)
    schedule = LRSchedule("constant", 1e-3, 1e-3, 100, 1)
    predictor, _ = ua.deep_ensemble_train(
        config, 4, 1, train, schedule, ua.TrainSettings(batch_size=4)
    )

    # each member is evaluated once; size M averages the first M members
    member_probs = predictor.member_probabilities(test.images)
    print(f"{'M':>2} {'acc':>7} {'nll':>8} {'ece':>8} {'brier':>8}")
    for size in range(1, 5):
        probs = ua.ensemble_average(member_probs[:size])
        batch = ua.EvalBatch(probs, test.labels)
        print(f"{size:>2} {ua.accuracy(batch):>7.4f} {ua.nll(batch):>8.4f} "
              f"{ua.ece(batch):>8.4f} {ua.brier(batch):>8.4f}")
    temps = ", ".join(f"{t:.2f}" for t in predictor.temperatures)
    print(f"\nper-member fitted temperatures: {temps}")


if __name__ == "__main__":
    main()
