"""Train the small encoder-decoder on synthetic tiles and reload it.

Runs a short single-stream training, prints the per-epoch loss curve from
the run manifest, then reloads the run directory into a fresh network and
confirms both copies predict identically.
"""

import tempfile
from pathlib import Path

import numpy as np

from segstack import (TrainConfig, Tensor, build_segnet, forward, init_he,
                      load_run, no_grad, pixel_accuracy, train_segnet)
from segstack.datapipe import synth_dataset


def main():
    out = Path(tempfile.mkdtemp(prefix="segstack-train-"))
    tiles = synth_dataset(seed=3, n_tiles=16, size=64)
    dataset = [(irrg.data, labels) for irrg, comp, labels in tiles]

    net = build_segnet(k=5, scale="mini", in_channels=3)
    init_he(net, seed=42)
    config = TrainConfig(epochs=20, batch_size=4, seed=5)
    train_segnet(net, dataset, config, out)

    # the run directory alone rebuilds the network: spec from the
    # manifest, state from the checkpoint
    clone, manifest = load_run(out)
    print(f"run dir {out} (status {manifest['status']})")
    for entry in manifest["epochs"][::4]:
        print(f"  epoch {entry['epoch']:3d}  loss {entry['loss']:.4f}  "
              f"acc {entry['accuracy']:.3f}")

    acc = pixel_accuracy(net, dataset)
    print(f"training-set pixel accuracy {acc:.3f}")

    # eval-mode outputs of the trained and the reloaded network match bitwise
    x = Tensor(np.stack([dataset[0][0]]))
    with no_grad():
        a = forward(net, x, mode="eval").data
        b = forward(clone, x, mode="eval").data
    print(f"reloaded checkpoint reproduces predictions: {np.array_equal(a, b)}")


if __name__ == "__main__":
    main()
