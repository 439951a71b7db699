"""End-to-end command-line workflow and exit-code contract."""

import contextlib
import io
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from redae import HybridPoolingSegmenter, checkpoint, optim
from redae.cli import main, read_image_any
from redae.config import DEFAULTS
from redae.data import (Sample, SplitManifest, read_dataset, read_pgm, read_ppm, write_dataset,
                        write_pgm)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            p = os.path.join(dirpath, name)
            out[os.path.relpath(p, root)] = open(p, "rb").read()
    return out


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One tiny generate -> preprocess -> train pipeline shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    raw = str(root / "raw")
    prep = str(root / "prep")
    ckpt = str(root / "model.ckpt")
    cfg = root / "fast.cfg"
    cfg.write_text("epochs=2\nwidths=2,3\nlearning_rate=0.001\nval_fraction=0.2\n")
    assert main(["generate", "--out", raw, "--count", "6", "--size", "32,32",
                 "--seed", "7"]) == 0
    assert main(["preprocess", "--in", raw, "--out", prep, "--augment", "1"]) == 0
    assert main(["train", "--data", prep, "--config", str(cfg),
                 "--variant", "sa-re-dae", "--out", ckpt]) == 0
    return {"root": root, "raw": raw, "prep": prep, "ckpt": ckpt,
            "cfg": str(cfg)}


@pytest.fixture(scope="module")
def test_only(workdir, tmp_path_factory):
    """A copy of the raw dataset with every id in the test split."""
    root = str(tmp_path_factory.mktemp("test_only") / "data")
    shutil.copytree(workdir["raw"], root)
    path = os.path.join(root, "split.manifest")
    m = SplitManifest.load(path)
    SplitManifest(train=[], test=m.train + m.test, seed=m.seed, ratio=m.ratio).save(path)
    return root


class TestGenerate:
    def test_layout(self, workdir):
        raw = workdir["raw"]
        assert os.path.isdir(os.path.join(raw, "images"))
        assert os.path.isdir(os.path.join(raw, "masks"))
        assert os.path.isfile(os.path.join(raw, "split.manifest"))

    def test_rerun_is_byte_identical(self, workdir, tmp_path, capsys):
        again = str(tmp_path / "again")
        code, _, _ = run(capsys, "generate", "--out", again, "--count", "6",
                         "--size", "32,32", "--seed", "7")
        assert code == 0
        assert tree_bytes(again) == tree_bytes(workdir["raw"])

    def test_too_small_size_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "generate", "--out", str(tmp_path / "x"),
                           "--count", "2", "--size", "8,8")
        assert code == 2
        assert err.startswith("error: config:")

    @pytest.mark.parametrize("count", ["1", "0", "-3"])
    def test_count_below_two_is_usage_error(self, tmp_path, capsys, count):
        # a split needs a training and a test sample; nothing is generated first
        out = tmp_path / "x"
        code, _, err = run(capsys, "generate", "--out", str(out), "--count", count,
                           "--size", "32,32")
        assert code == 2
        assert err.startswith("error: config:") and f"got {count}" in err
        assert not out.exists()

    def test_count_two_leaves_a_sample_to_evaluate(self, tmp_path, capsys):
        out = str(tmp_path / "x")
        assert run(capsys, "generate", "--out", out, "--count", "2", "--size", "32,32")[0] == 0
        code, report, _ = run(capsys, "eval", "--data", out, "--oracle")
        assert code == 0 and report.startswith("Region |")

    @pytest.mark.parametrize("flag,value,named", [("--seed", "-1", "seeds must be >= 0"),
                                                  ("--tear-frac", "-1", "tear fraction"),
                                                  ("--tear-frac", "1", "tear fraction"),
                                                  ("--tear-frac", "nan", "tear fraction")])
    def test_out_of_range_value_is_usage_error(self, tmp_path, capsys, flag, value, named):
        out = tmp_path / "x"
        code, _, err = run(capsys, "generate", "--out", str(out), "--count", "2",
                           "--size", "32,32", flag, value)
        assert code == 2
        assert err.startswith("error: config:") and named in err
        assert not out.exists()


class TestPreprocess:
    def test_augmented_copies_stay_in_train_split(self, workdir):
        from redae.data import SplitManifest
        m = SplitManifest.load(os.path.join(workdir["prep"], "split.manifest"))
        # 6 samples -> round(0.8 * 6) = 5 train, each with 1 augmented copy;
        # test side untouched
        assert len(m.train) == 10 and len(m.test) == 1
        assert not any("_aug" in sid for sid in m.test)

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "preprocess", "--in", str(tmp_path / "no"),
                           "--out", str(tmp_path / "o"))
        assert code == 3
        assert err.startswith("error: data:")

    @pytest.mark.parametrize("config,augment", [(None, "-1"), ("rotation_deg=nan", "1"),
                                                ("scale_min=2\nscale_max=1", "1"),
                                                ("scale_min=0", "1")],
                             ids=["negative_copies", "nan_rotation", "min_above_max", "zero_scale"])
    def test_bad_augmentation_is_usage_error(self, workdir, tmp_path, capsys, config, augment):
        argv = ["preprocess", "--in", workdir["raw"], "--out", str(tmp_path / "o"),
                "--augment", augment]
        if config is not None:
            (tmp_path / "aug.cfg").write_text(config + "\n")
            argv += ["--config", str(tmp_path / "aug.cfg")]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: config:")
        assert not (tmp_path / "o").exists()


@pytest.fixture(scope="module")
def rgb_data(workdir, tmp_path_factory):
    """The raw dataset with every image as three channels (PPM)."""
    root = str(tmp_path_factory.mktemp("rgb") / "data")
    samples, manifest = read_dataset(workdir["raw"])
    write_dataset(root, [Sample(np.repeat(s.image, 3, axis=2), s.mask, s.id)
                         for s in samples.values()], manifest)
    return root


class TestTrain:
    def test_artifacts(self, workdir):
        assert os.path.isfile(workdir["ckpt"])
        base = os.path.splitext(workdir["ckpt"])[0]
        loss_lines = open(base + "_loss.csv").read().splitlines()
        assert loss_lines[0] == "epoch,step,loss,seconds"
        assert len(loss_lines) > 1
        assert os.path.isfile(base + "_metrics.csv")

    def test_unknown_config_key_is_usage_error(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("epochz=2\n")
        code, _, err = run(capsys, "train", "--data", workdir["prep"],
                           "--config", str(bad), "--out", str(tmp_path / "m.ckpt"))
        assert code == 2
        assert "epochz" in err

    @pytest.mark.parametrize("line,named", [("variant=sa-redae", "sa-redae"),
                                            ("widths=16", "2 encoder widths"),
                                            ("widths=0,16", "widths and in_channels >= 1")])
    def test_unbuildable_network_in_config_is_usage_error(self, workdir, tmp_path, capsys,
                                                          line, named):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"epochs=1\n{line}\n")
        code, _, err = run(capsys, "train", "--data", workdir["prep"],
                           "--config", str(bad), "--out", str(tmp_path / "m.ckpt"))
        assert code == 2
        assert err.startswith("error: config:") and named in err

    @pytest.mark.parametrize("widths", ["4611686018427387904,3", "10000000,3"])
    def test_width_too_large_to_allocate_is_usage_error(self, workdir, tmp_path, capsys, widths):
        # numpy refuses the first fuse's filters: a ValueError for 2**62, whose
        # dimension overflows, a MemoryError for 10**7 (1.6 PB)
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"epochs=1\nvariant=sa-re-dae\nwidths={widths}\n")
        code, _, err = run(capsys, "train", "--data", workdir["prep"],
                           "--config", str(bad), "--out", str(tmp_path / "m.ckpt"))
        assert code == 2
        assert err.startswith("error: config:") and f"widths ({widths.replace(',', ', ')})" in err
        assert not (tmp_path / "m.ckpt").exists()

    def test_negative_seed_is_usage_error(self, workdir, tmp_path, capsys):
        code, _, err = run(capsys, "train", "--data", workdir["prep"], "--config", workdir["cfg"],
                           "--seed", "-3", "--out", str(tmp_path / "m.ckpt"))
        assert code == 2
        assert err.startswith("error: config:") and "seeds must be >= 0" in err
        assert not (tmp_path / "m.ckpt").exists()

    def test_numeric_abort_keeps_the_last_good_checkpoint(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text("epochs=2\nwidths=2,3\nlearning_rate=1e30\nval_fraction=0\n")
        out = str(tmp_path / "m.ckpt")
        code, _, err = run(capsys, "train", "--data", workdir["prep"], "--config", str(cfg),
                           "--out", out)
        assert code == 4
        assert err.startswith("error: numeric:")
        assert not os.path.exists(out)
        net = checkpoint.load(out + ".lastgood")
        assert net.variant == "sa-re-dae" and net.widths == (2, 3)

    def test_empty_train_split_is_data_error(self, test_only, tmp_path, capsys):
        code, _, err = run(capsys, "train", "--data", test_only,
                           "--out", str(tmp_path / "m.ckpt"))
        assert code == 3
        assert err.startswith("error: data:") and "train split is empty" in err


class TestEval:
    def test_report_table(self, workdir, capsys):
        code, out, _ = run(capsys, "eval", "--data", workdir["prep"],
                           "--ckpt", workdir["ckpt"])
        assert code == 0
        assert out.splitlines()[0] == \
            "Region | DS % | Accuracy % | IOU % | Global Acc% | Weighed IOU%"

    def test_oracle_is_perfect(self, workdir, tmp_path, capsys):
        prefix = str(tmp_path / "oracle_")
        code, out, _ = run(capsys, "eval", "--data", workdir["prep"],
                           "--oracle", "--out-prefix", prefix)
        assert code == 0
        import json
        rep = json.load(open(prefix + "metrics.json"))
        assert all(c["dice"] == 100.0 for c in rep["classes"])

    def test_requires_ckpt_or_oracle(self, workdir, capsys):
        code, _, err = run(capsys, "eval", "--data", workdir["prep"])
        assert code == 2

    @pytest.mark.parametrize("oracle", [True, False])
    def test_sample_in_both_splits_is_data_error(self, workdir, tmp_path, capsys, oracle):
        # else the held-out scores would include an image the model trained on
        root = str(tmp_path / "data")
        shutil.copytree(workdir["prep"], root)
        path = os.path.join(root, "split.manifest")
        m = SplitManifest.load(path)
        SplitManifest(train=m.train, test=m.test + m.train[:1], seed=m.seed,
                      ratio=m.ratio).save(path)
        model = ["--oracle"] if oracle else ["--ckpt", workdir["ckpt"]]
        code, _, err = run(capsys, "eval", "--data", root, *model)
        assert code == 3
        assert err.startswith("error: data:") and f"{m.train[0]!r} is listed twice" in err

    def test_images_with_other_channels_are_data_error(self, workdir, rgb_data, tmp_path,
                                                       capsys):
        prefix = str(tmp_path / "m_")
        code, _, err = run(capsys, "eval", "--data", rgb_data, "--ckpt", workdir["ckpt"],
                           "--out-prefix", prefix)
        assert code == 3
        assert err.startswith("error: data:") and "expects 1-channel images" in err
        assert not os.path.exists(prefix + "metrics.json")

    @pytest.mark.parametrize("oracle", [True, False])
    def test_empty_split_is_data_error(self, workdir, test_only, capsys, oracle):
        model = ["--oracle"] if oracle else ["--ckpt", workdir["ckpt"]]
        code, _, err = run(capsys, "eval", "--data", test_only, "--split", "train", *model)
        assert code == 3
        assert err.startswith("error: data:") and "train split is empty" in err


class TestPredict:
    def test_outputs(self, workdir, tmp_path, capsys):
        img = os.path.join(workdir["raw"], "images")
        first = os.path.join(img, sorted(os.listdir(img))[0])
        out = str(tmp_path / "pred")
        code, _, _ = run(capsys, "predict", "--ckpt", workdir["ckpt"],
                         "--image", first, "--out", out)
        assert code == 0
        mask = read_pgm(out + "_mask.pgm")
        over = read_ppm(out + "_overlay.ppm")
        assert mask.shape == (32, 32)
        assert set(np.unique(mask)) <= {0, 1, 2}
        assert over.shape == (32, 32, 3)

    def test_corrupt_checkpoint_is_data_error(self, workdir, tmp_path, capsys):
        img = os.path.join(workdir["raw"], "images")
        first = os.path.join(img, sorted(os.listdir(img))[0])
        bad = tmp_path / "bad.ckpt"
        raw = bytearray(open(workdir["ckpt"], "rb").read())
        raw[len(raw) // 2] ^= 0xFF
        bad.write_bytes(bytes(raw))
        code, _, err = run(capsys, "predict", "--ckpt", str(bad),
                           "--image", first, "--out", str(tmp_path / "p"))
        assert code == 3
        assert "CRC" in err

    def test_checkpoint_topology_too_large_for_its_file_is_data_error(self, workdir, tmp_path,
                                                                        capsys):
        # a second width of 4194305 asks for terabytes of filters: without the
        # check predict died with an uncaught MemoryError
        import struct
        import zlib
        img = os.path.join(workdir["raw"], "images")
        first = os.path.join(img, sorted(os.listdir(img))[0])
        raw = bytearray(open(workdir["ckpt"], "rb").read()[:-4])
        (n,) = struct.unpack_from("<H", raw, 7)  # variant length, after magic + version
        # in_channels, classes and the width count, then the widths
        assert struct.unpack_from("<I", raw, 17 + n) == (2,)
        raw[25 + n:29 + n] = struct.pack("<I", 4194305)
        bad = tmp_path / "huge.ckpt"
        bad.write_bytes(bytes(raw) + struct.pack("<I", zlib.crc32(bytes(raw))))
        code, _, err = run(capsys, "predict", "--ckpt", str(bad),
                           "--image", first, "--out", str(tmp_path / "p"))
        assert code == 3
        assert err.startswith("error: data:") and "topology does not fit" in err

    def test_version_1_checkpoint_is_data_error(self, workdir, tmp_path, capsys):
        import struct
        import zlib
        img = os.path.join(workdir["raw"], "images")
        first = os.path.join(img, sorted(os.listdir(img))[0])
        raw = bytearray(open(workdir["ckpt"], "rb").read()[:-4])
        raw[5:7] = struct.pack("<H", 1)  # the version, after the magic
        old = tmp_path / "v1.ckpt"
        old.write_bytes(bytes(raw) + struct.pack("<I", zlib.crc32(bytes(raw))))
        code, _, err = run(capsys, "predict", "--ckpt", str(old),
                           "--image", first, "--out", str(tmp_path / "p"))
        assert code == 3
        assert err.startswith("error: data:") and "unsupported checkpoint version 1" in err

    def test_image_with_other_channels_is_data_error(self, workdir, rgb_data, tmp_path,
                                                     capsys):
        img = os.path.join(rgb_data, "images")
        first = os.path.join(img, sorted(os.listdir(img))[0])
        assert first.endswith(".ppm")
        out = str(tmp_path / "p")
        code, _, err = run(capsys, "predict", "--ckpt", workdir["ckpt"],
                           "--image", first, "--out", out)
        assert code == 3
        assert err.startswith("error: data:") and "image has 3" in err
        assert not os.path.exists(out + "_mask.pgm")

    @pytest.mark.parametrize("dims", [b"-1 -1", b"0 0"])
    def test_empty_image_is_data_error(self, workdir, tmp_path, capsys, dims):
        bad = tmp_path / "empty.pgm"
        bad.write_bytes(b"P5\n" + dims + b"\n255\n\x00")
        out = str(tmp_path / "p")
        code, _, err = run(capsys, "predict", "--ckpt", workdir["ckpt"],
                           "--image", str(bad), "--out", out)
        assert code == 3 and "width and height" in err
        assert not os.path.exists(out + "_mask.pgm")

    @pytest.mark.parametrize("damage", ["running_var", "class_weight"])
    def test_unrunnable_checkpoint_is_data_error(self, workdir, tmp_path, capsys, damage):
        # CRC-valid, but a negative variance would give a mask computed from NaN
        img = os.path.join(workdir["raw"], "images")
        first = os.path.join(img, sorted(os.listdir(img))[0])
        net = checkpoint.load(workdir["ckpt"])
        if damage == "running_var":
            net.encoders[0].bn.running_var[0] = -1.0
        else:
            net.class_weights.w[2] = -1.0
        bad = str(tmp_path / "bad.ckpt")
        checkpoint.save(net, bad)
        out = str(tmp_path / "p")
        code, _, err = run(capsys, "predict", "--ckpt", bad, "--image", first, "--out", out)
        assert code == 3 and "error: data:" in err
        assert not os.path.exists(out + "_mask.pgm")

    def test_odd_size_matches_segment_and_estimator(self, tmp_path, capsys):
        # 30x45 pads to 32x48 and crops back; the CLI, the estimator and
        # optim.segment must produce the same mask byte for byte
        rng = np.random.default_rng(5)
        X = rng.random((4, 32, 32))
        y = (X > 0.6).astype(np.uint8) + (X > 0.9)
        est = HybridPoolingSegmenter(variant="sa-re-dae", widths=(2, 3), epochs=1,
                                     learning_rate=1e-3, seed=2).fit(X, y)
        ckpt = str(tmp_path / "est.ckpt")
        checkpoint.save(est.network_, ckpt)
        image = str(tmp_path / "odd.pgm")
        write_pgm(image, rng.integers(0, 256, (30, 45)).astype(np.uint8))
        out = str(tmp_path / "odd")
        code, _, _ = run(capsys, "predict", "--ckpt", ckpt, "--image", image, "--out", out)
        assert code == 0
        cli_mask = read_pgm(out + "_mask.pgm")
        img = read_image_any(image)
        seg = optim.segment(checkpoint.load(ckpt), img)
        est_mask = est.predict(img[None])[0]
        assert cli_mask.shape == seg.shape == est_mask.shape == (30, 45)
        assert seg.dtype == est_mask.dtype == np.uint8
        assert cli_mask.tobytes() == seg.tobytes() == est_mask.tobytes()
        assert len(np.unique(seg)) > 1  # a constant mask would agree trivially


# values a config file or a numeric flag may carry by mistake: non-numeric,
# non-finite, negative, zero, huge and out of range
_BAD = ["abc", "", "nan", "inf", "-inf", "-1", "0", "-0.0", "1e400", "1e308", "2.5", "99999999999"]
# a width of 2**45 asks for a first conv or fuse of over a PiB, more than
# any address space, so numpy refuses it whatever the variant
_BAD_WIDTHS = ["0,3", "-2,3", "2", "2,3,4", "nan,3", "abc", "1e400,3", "",
               f"{2**45},3", f"3,{2**45}", f"{2**62},{2**62}"]
# valid values of every key, extremes included; epochs and widths stay small,
# as a huge valid value of either asks for a long run
_GOOD = {"variant": ["sa-re-dae", "re-dae", "max-only", "avg-only"], "widths": ["2,3", "3,2"],
         "epochs": ["1"], "learning_rate": ["1e-4", "1e-3", "1e300"],
         "momentum": ["0", "0.9", "0.99"], "batch_size": ["1", "2", "99999999999"],
         "seed": ["0", "99999999999"], "shuffle": ["true", "false"],
         "log_every": ["1", "99999999999"], "val_fraction": ["0", "0.1", "0.9"],
         "rotation_deg": ["0", "10", "1e308"], "scale_min": ["1e-300", "0.5", "1"],
         "scale_max": ["1", "1e300"], "flip_horizontal": ["true", "no"],
         "flip_vertical": ["false", "yes"]}


@st.composite
def _config(draw):
    """A value for every key of `DEFAULTS`, up to two of them bad."""
    bad = draw(st.sets(st.sampled_from(sorted(DEFAULTS)), max_size=2))
    return {key: draw(st.sampled_from((_BAD_WIDTHS if key == "widths" else _BAD) if key in bad
                                      else _GOOD[key]))
            for key in DEFAULTS}


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as e:  # argparse refusing a flag's value: its usage exit
        return e.code


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_config(), st.sampled_from([None, "-5", "3", "99999999999999999999", "x"]),
       st.sampled_from(["-1", "0", "1", "x"]))
def test_any_config_and_flags_exit_with_a_contract_code(workdir, values, seed, augment):
    # every key of a generated config, through preprocess and a 1-epoch train:
    # main exits 0, 2 (config or usage), 3 (data) or 4 (numeric), raising nothing
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w") as f:
            f.writelines(f"{key}={value}\n" for key, value in values.items())
        prep = os.path.join(tmp, "prep")
        code = _exit_code(["preprocess", "--in", workdir["raw"], "--out", prep,
                           "--config", cfg, "--augment", augment])
        assert code in (0, 2, 3, 4)
        if code == 0:
            argv = ["train", "--data", prep, "--config", cfg, "--out", os.path.join(tmp, "m.ckpt")]
            assert _exit_code(argv + (["--seed", seed] if seed else [])) in (0, 2, 3, 4)
