"""Dataset handling: image IO, preprocessing, augmentation, and phantoms.

On-disk formats are binary PGM (P5) for grayscale images and masks and binary
PPM (P6) for RGB, all 8-bit with maxval 255. In memory an image is a float64
(h, w, channels) array in [0, 1]; a mask is a uint8 (h, w) array of class
labels. Mask files hold {0, 1, 2} = {background, muscle, tear} (`N_CLASSES`);
in memory the count is the network's. The pipeline stays in float64 so that
its outputs are exact and byte-stable; a network converts its input to its
own compute dtype (float32 by default) at `network.forward`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .tensor import Rng

N_CLASSES = 3  # of the mask file format


@dataclass
class Sample:
    image: np.ndarray  # float64 (h, w, c) in [0, 1]
    mask: np.ndarray  # uint8 (h, w), values < the network's class count
    id: str

    def __post_init__(self):
        if self.image.ndim == 2:
            self.image = self.image[:, :, None]
        if self.image.shape[:2] != self.mask.shape:
            raise DataError(
                f"sample {self.id!r}: image {self.image.shape[:2]} and mask "
                f"{self.mask.shape} dimensions differ")
        if not np.all(np.isfinite(self.image)) or self.image.size and (
                self.image.min() < 0.0 or self.image.max() > 1.0):
            raise DataError(
                f"sample {self.id!r}: image intensities must be finite and in [0, 1]")

    @property
    def channels(self) -> int:
        return self.image.shape[2]


# ---------------------------------------------------------------------------
# PGM / PPM


def _read_netpbm(path: str, magic: bytes) -> np.ndarray:
    with open(path, "rb") as f:
        raw = f.read()
    if not raw.startswith(magic):
        raise DataError(f"{path}: expected {magic.decode()} header")
    # header: magic, width, height, maxval as whitespace-separated tokens,
    # '#' comments allowed
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise DataError(f"{path}: truncated header")
        fields.append(raw[start:pos])
    try:
        width, height, maxval = (int(t) for t in fields)
    except ValueError as e:
        raise DataError(f"{path}: malformed header: {e}") from None
    if width < 1 or height < 1:
        raise DataError(f"{path}: width and height must be >= 1, got {width}x{height}")
    if maxval != 255:
        raise DataError(f"{path}: only maxval 255 supported, got {maxval}")
    pos += 1  # single whitespace after maxval
    planes = 3 if magic == b"P6" else 1
    expected = width * height * planes
    pixels = raw[pos:pos + expected]
    if len(pixels) != expected:
        raise DataError(f"{path}: expected {expected} pixel bytes, got {len(pixels)}")
    arr = np.frombuffer(pixels, dtype=np.uint8)
    return arr.reshape(height, width, 3) if planes == 3 else arr.reshape(height, width)


def read_pgm(path: str) -> np.ndarray:
    return _read_netpbm(path, b"P5")


def read_ppm(path: str) -> np.ndarray:
    return _read_netpbm(path, b"P6")


def _write_netpbm(path: str, arr: np.ndarray, magic: bytes) -> None:
    h, w = arr.shape[:2]
    with open(path, "wb") as f:
        f.write(magic + b"\n" + f"{w} {h}\n255\n".encode())
        f.write(arr.astype(np.uint8).tobytes())


def write_pgm(path: str, arr: np.ndarray) -> None:
    if arr.ndim != 2:
        raise DataError(f"PGM requires a single plane, got shape {arr.shape}")
    _write_netpbm(path, arr, b"P5")


def write_ppm(path: str, arr: np.ndarray) -> None:
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise DataError(f"PPM requires (h, w, 3), got shape {arr.shape}")
    _write_netpbm(path, arr, b"P6")


def image_to_unit(arr: np.ndarray) -> np.ndarray:
    """8-bit image to float64 in [0, 1] (255 -> 1.0)."""
    return arr.astype(np.float64) / 255.0


def image_to_bytes(img: np.ndarray) -> np.ndarray:
    """Float [0, 1] image back to 8-bit, round half up."""
    return np.floor(np.clip(img, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)


def load_sample(image_path: str, mask_path: str, sample_id: str | None = None) -> Sample:
    img = read_ppm(image_path) if image_path.endswith(".ppm") else read_pgm(image_path)
    mask = read_pgm(mask_path)
    if img.shape[:2] != mask.shape:
        raise DataError(f"{image_path}: image {img.shape[:2]} and mask {mask.shape} "
                        "dimensions differ")
    bad = mask >= N_CLASSES
    if bad.any():
        y, x = np.argwhere(bad)[0]
        raise DataError(f"{mask_path}: illegal label {int(mask[y, x])} "
                        f"at pixel ({int(y)}, {int(x)})")
    sid = sample_id or os.path.splitext(os.path.basename(image_path))[0]
    return Sample(image=image_to_unit(img), mask=mask.copy(), id=sid)


def save_sample(s: Sample, image_path: str, mask_path: str) -> None:
    img8 = image_to_bytes(s.image)
    if s.channels == 3:
        write_ppm(image_path, img8)
    else:
        write_pgm(image_path, img8[:, :, 0])
    write_pgm(mask_path, s.mask)


# ---------------------------------------------------------------------------
# Histogram equalization


def hist_equalize(plane: np.ndarray) -> np.ndarray:
    """Equalize one 8-bit plane via the cumulative histogram.

    out(v) = round_half_up((cdf(v) - cdf_min) / (N - cdf_min) * 255), with
    cdf_min the smallest nonzero cdf value. A constant plane (degenerate
    denominator) is returned unchanged.
    """
    if plane.dtype != np.uint8:
        raise DataError(f"hist_equalize expects uint8, got {plane.dtype}")
    hist = np.bincount(plane.reshape(-1), minlength=256)
    cdf = hist.cumsum()
    nonzero = cdf[cdf > 0]
    cdf_min = int(nonzero[0])
    n = int(cdf[-1])
    if n == cdf_min:  # single distinct intensity
        return plane.copy()
    lut = np.floor((cdf - cdf_min) / (n - cdf_min) * 255.0 + 0.5)
    lut = np.clip(lut, 0, 255).astype(np.uint8)
    return lut[plane]


def equalize_image(img: np.ndarray) -> np.ndarray:
    """Per-channel equalization of a float [0, 1] image."""
    img8 = image_to_bytes(img)
    out = np.stack([hist_equalize(img8[:, :, c]) for c in range(img8.shape[2])], axis=2)
    return image_to_unit(out)


# ---------------------------------------------------------------------------
# Augmentation


@dataclass
class AugmentSpec:
    rotation_deg: float = 10.0  # sampled in [-rotation_deg, +rotation_deg]
    scale_min: float = 0.5
    scale_max: float = 1.0
    flip_horizontal: bool = True  # reflection across the vertical axis, p=0.5
    flip_vertical: bool = True  # reflection across the horizontal axis, p=0.5

    def __post_init__(self):
        if not np.isfinite(self.rotation_deg):
            raise ConfigError(f"rotation_deg must be finite, got {self.rotation_deg}")
        if not 0 < self.scale_min <= self.scale_max < np.inf:
            raise ConfigError(f"need 0 < scale_min <= scale_max, both finite, "
                              f"got {self.scale_min} and {self.scale_max}")


def _affine_sample(image: np.ndarray, mask: np.ndarray, angle_deg: float,
                   scl: float, flip_h: bool, flip_v: bool) -> tuple[np.ndarray, np.ndarray]:
    """Rotate/scale/flip about the image center.

    Image is resampled bilinearly, mask nearest-neighbor; out-of-frame
    regions are filled with 0 (background). When the transform is a pure
    flip (or the identity) every output pixel lands on an input pixel with
    zero interpolation weight elsewhere, so the result is bit-exact.
    """
    h, w = mask.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0

    # inverse mapping: output pixel -> input coordinate
    theta = np.deg2rad(angle_deg)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    dy, dx = yy - cy, xx - cx
    # forward = flip -> scale -> rotate; inverse applied in reverse
    sx = (cos_t * dx + sin_t * dy) / scl
    sy = (-sin_t * dx + cos_t * dy) / scl
    if flip_h:
        sx = -sx
    if flip_v:
        sy = -sy
    sx += cx
    sy += cy

    inside = (sx >= 0) & (sx <= w - 1) & (sy >= 0) & (sy <= h - 1)

    # nearest-neighbor for the mask
    ny = np.clip(np.rint(sy).astype(np.int64), 0, h - 1)
    nx = np.clip(np.rint(sx).astype(np.int64), 0, w - 1)
    out_mask = np.where(inside, mask[ny, nx], 0).astype(np.uint8)

    # bilinear for the image
    y0 = np.clip(np.floor(sy).astype(np.int64), 0, h - 1)
    x0 = np.clip(np.floor(sx).astype(np.int64), 0, w - 1)
    y1 = np.clip(y0 + 1, 0, h - 1)
    x1 = np.clip(x0 + 1, 0, w - 1)
    fy = np.clip(sy, 0, h - 1) - y0
    fx = np.clip(sx, 0, w - 1) - x0
    out_img = np.empty_like(image)
    for c in range(image.shape[2]):
        p = image[:, :, c]
        val = (p[y0, x0] * (1 - fy) * (1 - fx) + p[y0, x1] * (1 - fy) * fx
               + p[y1, x0] * fy * (1 - fx) + p[y1, x1] * fy * fx)
        out_img[:, :, c] = np.where(inside, val, 0.0)
    return out_img, out_mask


def augment(s: Sample, spec: AugmentSpec, rng: Rng) -> Sample:
    """One random geometric transform applied identically to image and mask."""
    flip_h = bool(spec.flip_horizontal and rng.uniform() < 0.5)
    flip_v = bool(spec.flip_vertical and rng.uniform() < 0.5)
    angle = float(rng.uniform(-spec.rotation_deg, spec.rotation_deg))
    scl = float(rng.uniform(spec.scale_min, spec.scale_max))
    img, mask = _affine_sample(s.image, s.mask, angle, scl, flip_h, flip_v)
    return Sample(image=img, mask=mask, id=s.id)


# ---------------------------------------------------------------------------
# Splitting


@dataclass
class SplitManifest:
    train: list[str]
    test: list[str]
    seed: int
    ratio: float = 0.8

    def save(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(f"seed={self.seed} ratio={self.ratio}\n")
            for sid in self.train:
                f.write(f"{sid}\ttrain\n")
            for sid in self.test:
                f.write(f"{sid}\ttest\n")

    @staticmethod
    def load(path: str) -> "SplitManifest":
        with open(path) as f:
            header = f.readline().strip()
            try:
                kv = dict(tok.split("=", 1) for tok in header.split())
                seed, ratio = int(kv["seed"]), float(kv["ratio"])
            except (ValueError, KeyError) as e:
                raise DataError(f"{path}: malformed manifest header: {e}") from None
            train, test = [], []
            for line in f:
                line = line.rstrip("\n")
                if not line:
                    continue
                try:
                    sid, part = line.split("\t")
                except ValueError:
                    raise DataError(f"{path}: malformed manifest line {line!r}") from None
                if part == "train":
                    train.append(sid)
                elif part == "test":
                    test.append(sid)
                else:
                    raise DataError(f"{path}: unknown split {part!r}")
        seen: set[str] = set()
        for sid in train + test:  # else eval could score images the model trained on
            if sid in seen:
                raise DataError(f"{path}: sample {sid!r} is listed twice")
            seen.add(sid)
        return SplitManifest(train=train, test=test, seed=seed, ratio=ratio)


def split(ids, ratio: float = 0.8, seed: int = 0) -> SplitManifest:
    """Seeded shuffle, then a prefix split with |train| = round(ratio * N)."""
    ids = list(ids)
    if len(ids) < 2:
        raise DataError(f"need at least 2 samples to split, got {len(ids)}")
    rng = Rng([seed, 0x5BA1])
    rng.shuffle(ids)
    n_train = int(np.floor(ratio * len(ids) + 0.5))
    return SplitManifest(train=ids[:n_train], test=ids[n_train:], seed=seed, ratio=ratio)


# ---------------------------------------------------------------------------
# Padding


def pad_to_multiple(s: Sample, m: int) -> tuple[Sample, tuple[int, int]]:
    """Zero-pad right/bottom to the next multiple of m; returns the crop record."""
    if m < 1:
        raise ShapeError(f"padding multiple must be >= 1, got {m}")
    h, w = s.mask.shape
    ph = (-h) % m
    pw = (-w) % m
    if ph == 0 and pw == 0:
        return s, (h, w)
    img = np.pad(s.image, ((0, ph), (0, pw), (0, 0)))
    mask = np.pad(s.mask, ((0, ph), (0, pw)))
    return Sample(image=img, mask=mask, id=s.id), (h, w)


def crop_mask(mask: np.ndarray, crop: tuple[int, int]) -> np.ndarray:
    return mask[:crop[0], :crop[1]]


# ---------------------------------------------------------------------------
# Synthetic phantoms


def _ellipse_metric(h: int, w: int, cy: float, cx: float, a: float, b: float,
                    theta: float) -> np.ndarray:
    """Normalized squared ellipse distance: <= 1 inside."""
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    dy, dx = yy - cy, xx - cx
    u = (np.cos(theta) * dx + np.sin(theta) * dy) / a
    v = (-np.sin(theta) * dx + np.cos(theta) * dy) / b
    return u * u + v * v


def generate_phantom(h: int, w: int, rng: Rng, tear_fraction_target: float = 0.02) -> tuple[np.ndarray, np.ndarray]:
    """One synthetic sample: dark noisy background, one bright elongated
    muscle ellipse with a smooth intensity gradient, one small dark tear blob
    strictly inside the muscle. Returns (image float [0,1], mask uint8)."""
    if h < 32 or w < 32:
        raise DataError(f"phantom size must be >= 32x32, got {h}x{w}")

    # muscle ellipse
    cy = h * rng.uniform(0.42, 0.58)
    cx = w * rng.uniform(0.42, 0.58)
    a = w * rng.uniform(0.28, 0.36)
    b = h * rng.uniform(0.13, 0.19)
    theta = rng.uniform(0, np.pi)
    m = _ellipse_metric(h, w, cy, cx, a, b, theta)
    muscle = m <= 1.0

    # tear: a disk fully inside the muscle
    area = tear_fraction_target * h * w * rng.uniform(0.8, 1.25)
    r = max(2.0, np.sqrt(area / np.pi))
    yy, xx = np.mgrid[0:h, 0:w]
    tear = None
    for _ in range(100):
        ty = cy + rng.uniform(-0.5, 0.5) * b
        tx = cx + rng.uniform(-0.5, 0.5) * a
        disk = (yy - ty) ** 2 + (xx - tx) ** 2 <= r * r
        if disk.any() and np.all(muscle[disk]):
            tear = disk
            break
    if tear is None:
        raise DataError("could not place a tear inside the sampled muscle after 100 tries")

    mask = np.zeros((h, w), dtype=np.uint8)
    mask[muscle] = 1
    mask[tear] = 2

    img = np.full((h, w), 0.30)
    img[muscle] = 0.72 + 0.14 * (1.0 - m[muscle])  # brighter toward the center
    img[tear] = 0.08
    img += rng.normal((h, w), 0.03)
    img = np.clip(img, 0.0, 1.0)
    return img[:, :, None], mask


def generate_phantoms(count: int, h: int, w: int, rng: Rng,
                      tear_fraction_target: float = 0.02) -> list[Sample]:
    """Deterministic dataset of `count` phantoms (per-sample child streams)."""
    samples = []
    for i in range(count):
        img, mask = generate_phantom(h, w, rng.child(i), tear_fraction_target)
        samples.append(Sample(image=img, mask=mask, id=f"phantom{i:04d}"))
    return samples


# ---------------------------------------------------------------------------
# Dataset directories


def write_dataset(root: str, samples: list[Sample], manifest: SplitManifest) -> None:
    os.makedirs(os.path.join(root, "images"), exist_ok=True)
    os.makedirs(os.path.join(root, "masks"), exist_ok=True)
    for s in samples:
        ext = "ppm" if s.channels == 3 else "pgm"
        save_sample(s, os.path.join(root, "images", f"{s.id}.{ext}"),
                    os.path.join(root, "masks", f"{s.id}.pgm"))
    manifest.save(os.path.join(root, "split.manifest"))


def read_dataset(root: str) -> tuple[dict[str, Sample], SplitManifest]:
    manifest_path = os.path.join(root, "split.manifest")
    if not os.path.exists(manifest_path):
        raise DataError(f"{root}: missing split.manifest")
    manifest = SplitManifest.load(manifest_path)
    samples: dict[str, Sample] = {}
    img_dir = os.path.join(root, "images")
    for sid in manifest.train + manifest.test:
        pgm = os.path.join(img_dir, f"{sid}.pgm")
        ppm = os.path.join(img_dir, f"{sid}.ppm")
        img_path = pgm if os.path.exists(pgm) else ppm
        if not os.path.exists(img_path):
            raise DataError(f"{root}: missing image for sample {sid!r}")
        samples[sid] = load_sample(img_path, os.path.join(root, "masks", f"{sid}.pgm"), sid)
    return samples, manifest
