"""One sha256 over the outputs a byte-identical change must not move.

    OPENBLAS_NUM_THREADS=1 python3 tests/_identity.py

It hashes, for each of the four variants trained 2 epochs (batch 2, with
validation) on a seeded 64x64 phantom set of 21 training images, so each
epoch ends in a batch-1 step: the checkpoint bytes, every step's loss and
every epoch's validation report; then the `redae predict` mask and overlay
bytes of one 304x304 image; then the forward logits at
36, 48 and 64 px. It prints the digest and exits 0 if it equals `EXPECTED`;
otherwise it prints both digests and exits 1. A change that is meant to
move these outputs updates `EXPECTED` in the same commit. The digest holds
for one BLAS build on one CPU family (OpenBLAS picks its kernels per CPU),
so this script is not part of CI.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from redae import checkpoint, cli, data, network, optim, pipeline  # noqa: E402
from redae.tensor import Rng, Tensor4  # noqa: E402

# numpy 2.4.6 with its bundled OpenBLAS 0.3.31, one thread, x86-64
EXPECTED = "b4fad7958c5ba78a4d28a12d6bc485037b537705fc10a0bbe0b472e13322c43c"


def main() -> int:
    digest = hashlib.sha256()
    samples, manifest = pipeline.generate_dataset(32, 64, 64, seed=7)
    processed, manifest = pipeline.preprocess({s.id: s for s in samples}, manifest, seed=7)
    train_ids, val_ids = optim.carve_validation(manifest.train, 0.2, seed=7)
    train_set, val_set = [processed[i] for i in train_ids], [processed[i] for i in val_ids]
    image, _ = data.generate_phantom(304, 304, Rng(8))
    with tempfile.TemporaryDirectory() as tmp:
        data.write_pgm(f"{tmp}/image.pgm", data.image_to_bytes(image[:, :, 0]))
        for variant in network.VARIANTS:
            net = network.build(variant, [16, 32], 3, rng=Rng(7))
            _, log = optim.train(net, train_set, val_set, optim.TrainConfig(epochs=2, seed=7))
            checkpoint.save(net, f"{tmp}/{variant}.ckpt")
            digest.update(Path(f"{tmp}/{variant}.ckpt").read_bytes())
            digest.update(np.array([loss for _, _, loss, _ in log.steps]).tobytes())
            for _, report in log.epoch_metrics:
                digest.update(report.to_json().encode())
            out = f"{tmp}/{variant}"
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["predict", "--ckpt", f"{out}.ckpt", "--image",
                                 f"{tmp}/image.pgm", "--out", out]) == 0
            for suffix in ("_mask.pgm", "_overlay.ppm"):
                digest.update(Path(out + suffix).read_bytes())
            for size in (36, 48, 64):
                x = Tensor4(Rng([9, size]).uniform(0.0, 1.0, (2, 1, size, size)))
                digest.update(network.forward(net, x).data.tobytes())
    if digest.hexdigest() != EXPECTED:
        print(f"digest {digest.hexdigest()}\nexpected {EXPECTED}")
        return 1
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
