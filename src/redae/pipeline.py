"""End-to-end dataset pipeline shared by the CLI and the test suite."""

from __future__ import annotations

import numpy as np

from .data import (AugmentSpec, Sample, SplitManifest, augment,
                   equalize_image, generate_phantoms, split)
from .errors import ConfigError
from .tensor import Rng


def generate_dataset(count: int, h: int, w: int, seed: int,
                     tear_fraction: float = 0.02,
                     ratio: float = 0.8) -> tuple[list[Sample], SplitManifest]:
    """Seeded phantom dataset plus its train/test manifest."""
    if count < 2:
        raise ConfigError(f"count must be >= 2 to split into train and test, got {count}")
    if not 0 < tear_fraction < 1:
        raise ConfigError(f"tear fraction must be in (0, 1), got {tear_fraction}")
    samples = generate_phantoms(count, h, w, Rng(seed), tear_fraction)
    manifest = split([s.id for s in samples], ratio=ratio, seed=seed)
    return samples, manifest


def preprocess(samples: dict[str, Sample], manifest: SplitManifest,
               equalize: bool = True, augment_copies: int = 0,
               spec: AugmentSpec | None = None,
               seed: int = 0) -> tuple[dict[str, Sample], SplitManifest]:
    """Equalize everything; add augmented copies of training samples only.

    Augmented copies stay on the training side of the split; their rng stream
    is derived from (seed, train index, copy index) so output is independent
    of processing order.
    """
    if augment_copies < 0:
        raise ConfigError(f"augmented copies must be >= 0, got {augment_copies}")
    spec = spec or AugmentSpec()
    base_rng = Rng([seed, 0xA06])
    out: dict[str, Sample] = {}
    train_ids: list[str] = []

    for sid, s in samples.items():
        img = equalize_image(s.image) if equalize else s.image
        out[sid] = Sample(image=img, mask=s.mask.copy(), id=sid)

    for i, sid in enumerate(manifest.train):
        train_ids.append(sid)
        for k in range(augment_copies):
            aug = augment(out[sid], spec, base_rng.child(i).child(k))
            aug_id = f"{sid}_aug{k}"
            aug.id = aug_id
            out[aug_id] = aug
            train_ids.append(aug_id)

    new_manifest = SplitManifest(train=train_ids, test=list(manifest.test),
                                 seed=manifest.seed, ratio=manifest.ratio)
    return out, new_manifest


OVERLAY_COLORS = {
    0: (255, 0, 255),  # background: magenta
    1: (218, 112, 214),  # muscle: orchid
    2: (0, 255, 0),  # tear: green
}


# uint8 label -> color in [0, 1]. Labels past the named ones get distinct,
# never black colors: 231 is odd, so label * 231 % 256 is a distinct nonzero red
_PALETTE = (np.arange(256)[:, None] * (231, 57, 109) % 256) / 255.0
_PALETTE[list(OVERLAY_COLORS)] = np.array(list(OVERLAY_COLORS.values())) / 255.0


def overlay(image: np.ndarray, mask: np.ndarray, alpha: float = 0.5) -> np.ndarray:
    """RGB overlay: palette color alpha-blended over the source image, in place.

    `alpha * color + (1 - alpha) * image` swaps the formula's addends: exact."""
    blended = _PALETTE[mask]
    blended *= alpha
    blended += (1 - alpha) * image
    np.clip(blended, 0, 1, out=blended)
    blended *= 255.0
    blended += 0.5
    return np.floor(blended, out=blended).astype(np.uint8)
