"""[tool.repro-lint] configuration loading and validation."""

import pytest

from repro.lint import ConfigError, load_config
from repro.lint.config import DEFAULT_DET003_EXEMPT, config_from_pyproject


def _write(tmp_path, text):
    path = tmp_path / "pyproject.toml"
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadConfig:
    def test_missing_pyproject_yields_defaults(self, tmp_path):
        config = load_config(str(tmp_path))
        assert config.det003_exempt == DEFAULT_DET003_EXEMPT
        assert config.exclude == ()

    def test_walks_up_to_nearest_pyproject(self, tmp_path):
        _write(tmp_path, '[tool.repro-lint]\nexclude = ["gen_*.py"]\n')
        nested = tmp_path / "src" / "pkg"
        nested.mkdir(parents=True)
        config = load_config(str(nested))
        assert config.exclude == ("gen_*.py",)

    def test_section_absent_keeps_defaults(self, tmp_path):
        _write(tmp_path, '[project]\nname = "demo"\n')
        config = load_config(str(tmp_path))
        assert config.det003_exempt == DEFAULT_DET003_EXEMPT
        assert config.exclude == ()


class TestSectionParsing:
    def test_all_keys_round_trip(self, tmp_path):
        path = _write(tmp_path, (
            '[tool.repro-lint]\n'
            'det003-exempt = ["obs", "viz"]\n'
            'exclude = ["examples/scratch_*.py"]\n'
        ))
        config = config_from_pyproject(path)
        assert config.det003_exempt == ("obs", "viz")
        assert config.exclude == ("examples/scratch_*.py",)

    def test_unknown_key_raises(self, tmp_path):
        path = _write(tmp_path,
                      '[tool.repro-lint]\ndet3-exempt = ["obs"]\n')
        with pytest.raises(ConfigError, match="unknown .* key"):
            config_from_pyproject(path)

    def test_non_list_exclude_raises(self, tmp_path):
        path = _write(tmp_path, '[tool.repro-lint]\nexclude = "gen.py"\n')
        with pytest.raises(ConfigError, match="list of strings"):
            config_from_pyproject(path)

    def test_malformed_toml_raises(self, tmp_path):
        path = _write(tmp_path, '[tool.repro-lint\nexclude = [\n')
        with pytest.raises(ConfigError, match="cannot parse"):
            config_from_pyproject(path)

