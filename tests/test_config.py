"""key=value run-configuration parsing."""

import pytest

from redae.config import DEFAULTS, RunConfig
from redae.errors import ConfigError


class TestFromFile:
    def test_none_gives_defaults(self):
        cfg = RunConfig.from_file(None)
        assert cfg.values == DEFAULTS
        assert cfg.variant == "sa-re-dae"
        assert cfg.widths == (16, 32)

    def test_overrides_comments_and_blank_lines(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# a comment\n\nepochs = 5  # trailing comment\n"
                     "widths=4,8\nshuffle=no\n")
        cfg = RunConfig.from_file(str(p))
        tc = cfg.train_config()
        assert tc.epochs == 5 and tc.shuffle is False
        assert cfg.widths == (4, 8)

    def test_unknown_key_reports_file_and_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("epochs=5\nlern_rate=0.1\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:2.*lern_rate"):
            RunConfig.from_file(str(p))

    def test_classes_is_not_a_key(self, tmp_path):
        # the class count is fixed by the data format (data.N_CLASSES)
        p = tmp_path / "run.cfg"
        p.write_text("classes=4\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:1.*unknown key 'classes'"):
            RunConfig.from_file(str(p))

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("epochs\n")
        with pytest.raises(ConfigError, match="key=value"):
            RunConfig.from_file(str(p))

    def test_bad_number_is_config_error(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("learning_rate=fast\n")
        with pytest.raises(ConfigError):
            RunConfig.from_file(str(p)).train_config()

    def test_bad_bool_is_config_error(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("shuffle=maybe\n")
        with pytest.raises(ConfigError):
            RunConfig.from_file(str(p)).train_config()

    def test_bad_widths_is_config_error(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("widths=16;32\n")
        with pytest.raises(ConfigError):
            RunConfig.from_file(str(p)).widths

    @pytest.mark.parametrize("text", ["rotation_deg=nan", "scale_max=inf",
                                      "scale_min=2\nscale_max=1", "scale_min=0"],
                             ids=["nan_rotation", "inf_scale", "min_above_max", "zero_scale"])
    def test_bad_augmentation_is_config_error(self, tmp_path, text):
        p = tmp_path / "run.cfg"
        p.write_text(text + "\n")
        with pytest.raises(ConfigError):
            RunConfig.from_file(str(p)).augment_spec()

    def test_defaults_produce_valid_objects(self):
        cfg = RunConfig.from_file(None)
        tc = cfg.train_config()
        assert tc.learning_rate == 1e-4 and tc.momentum == 0.9
        assert tc.batch_size == 2 and tc.epochs == 30
        spec = cfg.augment_spec()
        assert spec.rotation_deg == 10.0
        assert spec.scale_min == 0.5 and spec.scale_max == 1.0
