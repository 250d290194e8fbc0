"""Project configuration for the linter (``[tool.repro-lint]``).

Rule-pack knobs that used to be hardcoded class attributes — the DET003
wall-clock exemption list, discovery excludes, the unit-declarations file
for UNIT001 — live in ``pyproject.toml`` under ``[tool.repro-lint]`` so a
policy change is a config edit, not a source edit:

.. code-block:: toml

    [tool.repro-lint]
    det003-exempt = ["obs", "cli", "bench", "tools"]
    exclude = ["examples/scratch_*.py"]
    unit-declarations = "src/repro/lint/units.json"

``tomllib`` (Python 3.11+) parses the file when available; on older
interpreters a deliberately tiny fallback parser reads just the subset this
section uses (string and string-list values), so the linter stays
dependency-free on every supported Python.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

#: The pyproject section owning lint configuration.
CONFIG_SECTION = "repro-lint"

#: DET003 exemption default — matches the historical hardcoded tuple.
DEFAULT_DET003_EXEMPT = ("obs", "cli", "bench", "tools")


@dataclass(frozen=True)
class LintConfig:
    """Resolved ``[tool.repro-lint]`` settings (defaults when absent)."""

    det003_exempt: Tuple[str, ...] = DEFAULT_DET003_EXEMPT
    exclude: Tuple[str, ...] = ()
    unit_declarations: Optional[str] = None
    #: Directory the config was loaded from (anchors relative paths).
    root: str = "."

    def unit_declarations_path(self) -> Optional[str]:
        """The unit-declarations path resolved against the config root."""
        if self.unit_declarations is None:
            return None
        if os.path.isabs(self.unit_declarations):
            return self.unit_declarations
        return os.path.join(self.root, self.unit_declarations)


class ConfigError(ValueError):
    """``[tool.repro-lint]`` exists but cannot be used."""


def load_config(start_dir: str = ".") -> LintConfig:
    """The :class:`LintConfig` of the pyproject nearest to ``start_dir``.

    Walks upward from ``start_dir`` to the filesystem root looking for a
    ``pyproject.toml``; a missing file (or a file without the section)
    yields the defaults.  Malformed values raise :class:`ConfigError` —
    silently ignoring a typo'd config would un-exempt or un-exclude
    nothing visibly.
    """
    directory = os.path.abspath(start_dir)
    while True:
        candidate = os.path.join(directory, "pyproject.toml")
        if os.path.isfile(candidate):
            return config_from_pyproject(candidate)
        parent = os.path.dirname(directory)
        if parent == directory:
            return LintConfig()
        directory = parent


def config_from_pyproject(path: str) -> LintConfig:
    """Parse one pyproject file into a :class:`LintConfig`."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path!r}: {exc}") from exc
    section = _tool_section(text, path)
    config = LintConfig(root=os.path.dirname(os.path.abspath(path)))
    if not section:
        return config
    det003 = _string_list(section, "det003-exempt", path)
    exclude = _string_list(section, "exclude", path)
    declarations = section.get("unit-declarations")
    if declarations is not None and not isinstance(declarations, str):
        raise ConfigError(
            f"{path!r}: [tool.{CONFIG_SECTION}] unit-declarations must be "
            f"a string")
    unknown = sorted(set(section)
                     - {"det003-exempt", "exclude", "unit-declarations"})
    if unknown:
        raise ConfigError(
            f"{path!r}: unknown [tool.{CONFIG_SECTION}] key(s): "
            f"{', '.join(unknown)}")
    return LintConfig(
        det003_exempt=tuple(det003) if det003 is not None
        else config.det003_exempt,
        exclude=tuple(exclude) if exclude is not None else (),
        unit_declarations=declarations,
        root=config.root)


def _string_list(section: Dict[str, Any], key: str,
                 path: str) -> Optional[List[str]]:
    value = section.get(key)
    if value is None:
        return None
    if not isinstance(value, list) \
            or not all(isinstance(item, str) for item in value):
        raise ConfigError(
            f"{path!r}: [tool.{CONFIG_SECTION}] {key} must be a list of "
            f"strings")
    return list(value)


def _tool_section(text: str, path: str) -> Dict[str, Any]:
    """The raw ``[tool.repro-lint]`` table of a pyproject document."""
    try:
        import tomllib
    except ImportError:  # Python < 3.11
        return _fallback_section(text)
    try:
        document = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(f"cannot parse {path!r}: {exc}") from exc
    tool = document.get("tool", {})
    section = tool.get(CONFIG_SECTION, {}) if isinstance(tool, dict) else {}
    return section if isinstance(section, dict) else {}


_HEADER = re.compile(r"^\s*\[(?P<name>[^\]]+)\]\s*$")
_ASSIGN = re.compile(r"^\s*(?P<key>[A-Za-z0-9_-]+)\s*=\s*(?P<value>.+?)\s*$")
_STRING = re.compile(r'^"(?P<body>[^"]*)"$')


def _fallback_section(text: str) -> Dict[str, Any]:
    """Minimal TOML-subset reader for pre-3.11 interpreters.

    Understands exactly what ``[tool.repro-lint]`` uses: bare string values
    and single-line string lists.  Anything else in the section is surfaced
    as-is so the validators above reject it loudly.
    """
    section: Dict[str, Any] = {}
    inside = False
    for line in text.splitlines():
        stripped = line.split("#", 1)[0] if '"' not in line else line
        header = _HEADER.match(stripped)
        if header:
            inside = header.group("name").strip() == f"tool.{CONFIG_SECTION}"
            continue
        if not inside:
            continue
        assign = _ASSIGN.match(stripped)
        if assign is None:
            continue
        section[assign.group("key")] = _parse_value(assign.group("value"))
    return section


def _parse_value(raw: str) -> Any:
    raw = raw.strip()
    string = _STRING.match(raw)
    if string:
        return string.group("body")
    if raw.startswith("[") and raw.endswith("]"):
        body = raw[1:-1].strip()
        if not body:
            return []
        items = [item.strip() for item in body.split(",") if item.strip()]
        parsed = []
        for item in items:
            match = _STRING.match(item)
            parsed.append(match.group("body") if match else item)
        return parsed
    return raw


# Single default instance, loaded lazily by the runner so import order does
# not pin the working directory.
_cached: Optional[LintConfig] = None


def default_config(refresh: bool = False) -> LintConfig:
    """Process-wide config, loaded from the cwd's pyproject once."""
    global _cached
    if _cached is None or refresh:
        _cached = load_config(".")
    return _cached
