import pytest

from arcindex.config import (PipelineConfig, format_config, load_config,
                             parse_config_text)
from arcindex.errors import ConfigError


def test_defaults_pass_validation():
    cfg = PipelineConfig().validate()
    assert cfg.block_size == 250
    assert cfg.window == 50
    assert cfg.dt_mode == "fixed"
    assert cfg.dt == 0.4


@pytest.mark.parametrize("field,value", [
    ("block_size", 49),
    ("prime_max", 0),
    ("min_mentions", 0),
    ("window", 0),
    ("edge_threshold", 1.5),
    ("edge_threshold", -0.1),
    ("alpha", 0.2),
    ("alpha", -0.01),
    ("smoothing_radius", -1),
    ("max_pivots", 1),
    ("dt_mode", "auto"),
    ("dt", 0.0),
    ("dt", 1.0),
    ("length_ratio_limit", 0.0),
])
def test_out_of_range_values_are_rejected(field, value):
    cfg = PipelineConfig(**{field: value})
    with pytest.raises(ConfigError):
        cfg.validate()


@pytest.mark.parametrize("field,value", [
    ("block_size", 120.5),
    ("prime_max", True),
    ("window", "50"),
    ("alpha", False),
    ("dt", "0.5"),
    ("dt_mode", 1),
])
def test_values_of_the_wrong_type_are_rejected(field, value):
    with pytest.raises(ConfigError, match=field):
        PipelineConfig(**{field: value}).validate()


def test_float_fields_accept_ints():
    cfg = PipelineConfig(alpha=0, edge_threshold=1).validate()
    assert (cfg.alpha, cfg.edge_threshold) == (0, 1)


def test_replace_returns_validated_copy():
    base = PipelineConfig()
    changed = base.replace(dt=0.95)
    assert changed.dt == 0.95
    assert base.dt == 0.4
    with pytest.raises(ConfigError):
        base.replace(dt=2.0)


def test_parse_overrides_only_named_keys():
    cfg = parse_config_text("block_size = 120\ndt = 0.95\n")
    assert cfg.block_size == 120
    assert cfg.dt == 0.95
    assert cfg.window == 50


def test_parse_allows_comments_and_blank_lines():
    text = "\n# tuning for short books\nblock_size = 100  # tokens\n\n"
    cfg = parse_config_text(text)
    assert cfg.block_size == 100


def test_parse_rejects_unknown_keys_with_line_number():
    with pytest.raises(ConfigError, match="line 2.*blocksize"):
        parse_config_text("dt = 0.5\nblocksize = 100\n")
    with pytest.raises(ConfigError, match="line 1.*jobs"):
        parse_config_text("jobs = 2\n")


def test_parse_rejects_bad_syntax_with_line_number():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("just some words\n")


def test_parse_rejects_uncoercible_values():
    with pytest.raises(ConfigError, match="block_size"):
        parse_config_text("block_size = many\n")
    with pytest.raises(ConfigError, match="dt"):
        parse_config_text("dt = fast\n")


def test_parse_validates_merged_result():
    with pytest.raises(ConfigError, match="alpha"):
        parse_config_text("alpha = 0.9\n")


def test_parse_builds_on_base_config():
    base = PipelineConfig(block_size=120)
    cfg = parse_config_text("dt = 0.7\n", base=base)
    assert cfg.block_size == 120
    assert cfg.dt == 0.7


def test_format_parse_round_trip():
    cfg = PipelineConfig(block_size=120, dt_mode="adaptive", alpha=0.05)
    text = format_config(cfg)
    assert parse_config_text(text) == cfg


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("block_size = 150\nmax_pivots = 12\n", encoding="utf-8")
    cfg = load_config(path)
    assert cfg.block_size == 150
    assert cfg.max_pivots == 12
