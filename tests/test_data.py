"""Image IO, preprocessing, augmentation, splitting, and phantom generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import redae.data as D
from redae.errors import DataError
from redae.pipeline import generate_dataset
from redae.tensor import Rng


class TestNetpbm:
    def test_pgm_round_trip(self, tmp_path):
        arr = np.asarray(Rng(1).integers(0, 256, (5, 7)), dtype=np.uint8)
        p = str(tmp_path / "x.pgm")
        D.write_pgm(p, arr)
        assert np.array_equal(D.read_pgm(p), arr)

    def test_ppm_round_trip(self, tmp_path):
        arr = np.asarray(Rng(2).integers(0, 256, (4, 6, 3)), dtype=np.uint8)
        p = str(tmp_path / "x.ppm")
        D.write_ppm(p, arr)
        assert np.array_equal(D.read_ppm(p), arr)

    def test_comments_and_whitespace(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# a comment\n 2 2\n# another\n255\n\x00\x40\x80\xff")
        assert D.read_pgm(str(p)).tolist() == [[0, 64], [128, 255]]

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P6\n1 1\n255\nabc")
        with pytest.raises(DataError):
            D.read_pgm(str(p))

    def test_truncated_body(self, tmp_path):
        p = tmp_path / "short.pgm"
        p.write_bytes(b"P5\n2 2\n255\n\x01\x02")
        with pytest.raises(DataError):
            D.read_pgm(str(p))

    @pytest.mark.parametrize("dims", [b"-1 -1", b"0 0", b"0 2", b"2 0"])
    def test_empty_or_negative_dimensions_rejected(self, tmp_path, dims):
        # one pixel byte: "-1 -1" used to fail in reshape, "0 0" to read as an empty image
        p = tmp_path / "empty.pgm"
        p.write_bytes(b"P5\n" + dims + b"\n255\n\x00")
        with pytest.raises(DataError, match="width and height"):
            D.read_pgm(str(p))

    def test_unsupported_maxval(self, tmp_path):
        p = tmp_path / "deep.pgm"
        p.write_bytes(b"P5\n1 1\n65535\n\x01\x02")
        with pytest.raises(DataError):
            D.read_pgm(str(p))

    def test_unit_bytes_round_trip(self):
        arr = np.arange(256, dtype=np.uint8).reshape(16, 16)
        assert np.array_equal(D.image_to_bytes(D.image_to_unit(arr)), arr)


class TestHistEqualize:
    def test_worked_example(self):
        # 2x2 plane with values [52, 52, 154, 205]
        plane = np.array([[52, 52], [154, 205]], dtype=np.uint8)
        out = D.hist_equalize(plane)
        assert out.tolist() == [[0, 0], [128, 255]]

    def test_constant_image_unchanged(self):
        plane = np.full((4, 4), 77, dtype=np.uint8)
        assert np.array_equal(D.hist_equalize(plane), plane)

    def test_output_spans_full_range(self):
        rng = Rng(3)
        plane = np.asarray(rng.integers(40, 200, (16, 16)), dtype=np.uint8)
        out = D.hist_equalize(plane)
        assert out.min() == 0 and out.max() == 255

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_monotone_non_decreasing_in_intensity(self, seed):
        rng = Rng(seed)
        plane = np.asarray(rng.integers(0, 256, (8, 8)), dtype=np.uint8)
        out = D.hist_equalize(plane)
        a = plane.reshape(-1)
        b = out.reshape(-1).astype(np.int64)
        order = np.argsort(a, kind="stable")
        assert np.all(np.diff(b[order]) >= 0)

    def test_requires_uint8(self):
        with pytest.raises(DataError):
            D.hist_equalize(np.zeros((2, 2), dtype=np.float64))


class TestSample:
    def test_validation_catches_out_of_range_image(self):
        with pytest.raises(DataError):
            D.Sample(image=np.full((2, 2, 1), 1.5), mask=np.zeros((2, 2), np.uint8),
                     id="s")

    def test_mask_shape_must_match(self):
        with pytest.raises(DataError):
            D.Sample(image=np.zeros((2, 2, 1)), mask=np.zeros((2, 3), np.uint8),
                     id="s")

    def test_mask_files_hold_three_classes(self, tmp_path):
        # in memory a mask may use a fourth class (the network's count); a
        # mask file may not
        mask = np.zeros((2, 2), np.uint8)
        mask[1, 0] = 3
        s = D.Sample(image=np.zeros((2, 2, 1)), mask=mask, id="s")
        ip, mp = str(tmp_path / "i.pgm"), str(tmp_path / "m.pgm")
        D.save_sample(s, ip, mp)
        with pytest.raises(DataError, match=r"m\.pgm: illegal label 3 at pixel \(1, 0\)"):
            D.load_sample(ip, mp)

    def test_save_load_round_trip(self, tmp_path):
        rng = Rng(4)
        img = np.asarray(rng.integers(0, 256, (6, 6)), dtype=np.uint8)
        mask = np.asarray(rng.integers(0, 3, (6, 6)), dtype=np.uint8)
        s = D.Sample(image=D.image_to_unit(img), mask=mask, id="t")
        ip, mp = str(tmp_path / "i.pgm"), str(tmp_path / "m.pgm")
        D.save_sample(s, ip, mp)
        back = D.load_sample(ip, mp, "t")
        assert np.array_equal(D.image_to_bytes(back.image)[:, :, 0], img)
        assert np.array_equal(back.mask, mask)


class TestAugment:
    def _sample(self, seed=5, h=16, w=16):
        rng = Rng(seed)
        img = rng.uniform(0, 1, (h, w, 1))
        mask = np.asarray(rng.integers(0, 3, (h, w)), dtype=np.uint8)
        return D.Sample(image=img, mask=mask, id="a")

    def test_flip_is_involution(self):
        s = self._sample()
        for flip_h, flip_v in ((True, False), (False, True), (True, True)):
            img, mask = D._affine_sample(s.image, s.mask, 0.0, 1.0, flip_h, flip_v)
            img, mask = D._affine_sample(img, mask, 0.0, 1.0, flip_h, flip_v)
            assert img.tobytes() == s.image.tobytes()
            assert mask.tobytes() == s.mask.tobytes()

    def test_deterministic_for_same_stream(self):
        s = self._sample()
        spec = D.AugmentSpec()
        a = D.augment(s, spec, Rng(77))
        b = D.augment(s, spec, Rng(77))
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.mask, b.mask)

    def test_identity_spec_returns_same_pixels(self):
        s = self._sample()
        spec = D.AugmentSpec(rotation_deg=0.0, scale_min=1.0, scale_max=1.0,
                             flip_horizontal=False, flip_vertical=False)
        out = D.augment(s, spec, Rng(1))
        assert np.array_equal(out.image, s.image)
        assert np.array_equal(out.mask, s.mask)
        # with no rotation or scaling, each flip moves whole pixels: the
        # resampled output equals numpy's index flip byte for byte
        rng = Rng(6)
        odd = D.Sample(image=rng.uniform(0, 1, (7, 10, 3)),
                       mask=np.asarray(rng.integers(0, 3, (7, 10)), dtype=np.uint8), id="b")
        for sample in (s, odd):
            for flip_h in (False, True):
                for flip_v in (False, True):
                    img, mask = D._affine_sample(sample.image, sample.mask, 0.0, 1.0,
                                                 flip_h, flip_v)
                    rows = slice(None, None, -1 if flip_v else 1)
                    cols = slice(None, None, -1 if flip_h else 1)
                    assert img.dtype == sample.image.dtype and mask.dtype == np.uint8
                    assert img.tobytes() == sample.image[rows, cols].tobytes()
                    assert mask.tobytes() == sample.mask[rows, cols].tobytes()

    def test_output_stays_valid(self):
        s = self._sample()
        for k in range(20):
            out = D.augment(s, D.AugmentSpec(), Rng(100).child(k))
            assert out.image.shape == s.image.shape
            assert out.image.min() >= 0 and out.image.max() <= 1
            assert set(np.unique(out.mask)) <= {0, 1, 2}


class TestSplit:
    def test_sizes_ten(self):
        m = D.split([f"s{i}" for i in range(10)], seed=1)
        assert len(m.train) == 8 and len(m.test) == 2

    def test_sizes_fifteen(self):
        m = D.split([f"s{i}" for i in range(15)], seed=1)
        assert len(m.train) == 12 and len(m.test) == 3

    def test_two_samples_split_one_and_one(self):
        # round(0.8 * 2) = 2 would leave nothing to test on
        samples, m = generate_dataset(2, 32, 32, 0)
        assert len(m.train) == 1 and len(m.test) == 1
        assert sorted(m.train + m.test) == sorted(s.id for s in samples)

    def test_partition_and_determinism(self):
        ids = [f"s{i}" for i in range(23)]
        a = D.split(ids, seed=9)
        b = D.split(ids, seed=9)
        assert a.train == b.train and a.test == b.test
        assert sorted(a.train + a.test) == sorted(ids)
        assert not set(a.train) & set(a.test)

    def test_different_seed_different_split(self):
        ids = [f"s{i}" for i in range(40)]
        assert D.split(ids, seed=1).train != D.split(ids, seed=2).train

    def test_manifest_file_round_trip(self, tmp_path):
        m = D.split([f"s{i}" for i in range(10)], seed=5)
        p = str(tmp_path / "split.manifest")
        m.save(p)
        back = D.SplitManifest.load(p)
        assert back.train == m.train and back.test == m.test
        assert back.seed == m.seed and back.ratio == m.ratio

    @pytest.mark.parametrize("extra", ["s1\ttrain\n", "s1\ttest\n", "s9\ttest\n"])
    def test_manifest_listing_a_sample_twice_is_rejected(self, tmp_path, extra):
        # s1 trains; listed again in either split, or s9 twice in the test split
        p = tmp_path / "split.manifest"
        p.write_text("seed=0 ratio=0.8\ns1\ttrain\ns2\ttrain\ns9\ttest\n" + extra)
        twice = extra.split("\t")[0]
        with pytest.raises(DataError, match=f"sample '{twice}' is listed twice"):
            D.SplitManifest.load(str(p))

    def test_manifest_header_format(self, tmp_path):
        m = D.split(["a", "b", "c", "d", "e"], seed=3)
        p = tmp_path / "split.manifest"
        m.save(str(p))
        first = p.read_text().splitlines()[0]
        assert first == "seed=3 ratio=0.8"


class TestPadCrop:
    def test_pad_to_multiple(self):
        s = D.Sample(image=np.zeros((5, 6, 1)), mask=np.zeros((5, 6), np.uint8),
                     id="p")
        padded, crop = D.pad_to_multiple(s, 4)
        assert padded.image.shape[:2] == (8, 8)
        assert crop == (5, 6)
        assert D.crop_mask(np.zeros((8, 8), np.uint8), crop).shape == (5, 6)

    def test_already_aligned_is_noop(self):
        s = D.Sample(image=np.zeros((8, 8, 1)), mask=np.zeros((8, 8), np.uint8),
                     id="p")
        padded, crop = D.pad_to_multiple(s, 4)
        assert padded.image.shape[:2] == (8, 8) and crop == (8, 8)


class TestPhantoms:
    def test_deterministic(self):
        a, am = D.generate_phantom(64, 64, Rng(11))
        b, bm = D.generate_phantom(64, 64, Rng(11))
        assert np.array_equal(a, b) and np.array_equal(am, bm)

    def test_labels_and_geometry(self):
        img, mask = D.generate_phantom(64, 64, Rng(12))
        assert img.shape == (64, 64, 1) and mask.shape == (64, 64)
        assert set(np.unique(mask)) == {0, 1, 2}
        assert img.min() >= 0 and img.max() <= 1
        # the tear lies strictly inside the muscle: dilating the tear by one
        # pixel never touches background
        tear = mask == 2
        ys, xs = np.nonzero(tear)
        for dy, dx in ((0, 1), (0, -1), (1, 0), (-1, 0)):
            assert np.all(mask[ys + dy, xs + dx] != 0)

    def test_tear_share_near_target(self):
        shares = []
        rng = Rng(42)
        for i in range(200):
            _, mask = D.generate_phantom(64, 64, rng.child(i), 0.02)
            shares.append((mask == 2).mean())
        mean_share = float(np.mean(shares))
        assert 0.01 <= mean_share <= 0.04

    def test_batch_ids_and_determinism(self):
        a = D.generate_phantoms(5, 32, 32, Rng(1))
        b = D.generate_phantoms(5, 32, 32, Rng(1))
        assert [s.id for s in a] == [f"phantom{i:04d}" for i in range(5)]
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.image, sb.image)
            assert np.array_equal(sa.mask, sb.mask)


class TestDatasetIO:
    def test_write_read_round_trip(self, tmp_path):
        samples = D.generate_phantoms(6, 32, 32, Rng(8))
        manifest = D.split([s.id for s in samples], seed=8)
        root = str(tmp_path / "ds")
        D.write_dataset(root, samples, manifest)
        back, back_manifest = D.read_dataset(root)
        assert back_manifest.train == manifest.train
        assert set(back) == {s.id for s in samples}
        for s in samples:
            assert np.array_equal(back[s.id].mask, s.mask)
            assert np.array_equal(D.image_to_bytes(back[s.id].image),
                                  D.image_to_bytes(s.image))

    def test_missing_dataset_errors(self, tmp_path):
        with pytest.raises((DataError, OSError)):
            D.read_dataset(str(tmp_path / "nope"))


def _overlay_reference(image, mask, alpha=0.5):
    """`pipeline.overlay` as first written: per-label masks and a repeated gray image.

    Labels without a named color take the palette's."""
    from redae.pipeline import _PALETTE, OVERLAY_COLORS
    h, w = mask.shape
    base = np.repeat(image, 3, axis=2) if image.shape[2] == 1 else image
    palette = _PALETTE[mask]
    for label, color in OVERLAY_COLORS.items():
        palette[mask == label] = np.asarray(color) / 255.0
    blended = (1 - alpha) * base + alpha * palette
    return np.floor(np.clip(blended, 0, 1) * 255.0 + 0.5).astype(np.uint8)


def test_overlay_gives_every_label_its_own_visible_color():
    # a network with more than three classes shows them all, and the named
    # classes keep their colors
    from redae.pipeline import OVERLAY_COLORS, overlay
    mask = np.arange(256, dtype=np.uint8).reshape(16, 16)
    colors = overlay(np.zeros((16, 16, 1)), mask, alpha=1.0).reshape(256, 3)
    assert len({tuple(c) for c in colors}) == 256
    assert colors.max(axis=1).min() > 0
    for label, color in OVERLAY_COLORS.items():
        assert tuple(colors[label]) == color


@pytest.mark.parametrize("alpha", [0.5, 0.3])
@pytest.mark.parametrize("channels", [1, 3])
def test_overlay_bytes_match_the_reference(channels, alpha):
    # every uint8 label, so labels without a color are covered; the image
    # includes 0, 1 and the exact halves where rounding is decided
    from redae.pipeline import overlay
    rng = Rng([21, channels])
    mask = np.arange(256, dtype=np.uint8).repeat(3).reshape(32, 24)
    image = rng.uniform(0.0, 1.0, (32, 24, channels))
    image.reshape(-1)[:6] = [0.0, 1.0, 0.5, 127.5 / 255, 0.5 / 255, 254.5 / 255]
    out = overlay(image, mask, alpha)
    ref = _overlay_reference(image, mask, alpha)
    assert out.dtype == np.uint8 and out.shape == (32, 24, 3)
    assert out.tobytes() == ref.tobytes()
