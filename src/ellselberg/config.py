"""Run configuration: defaults plus a line-oriented ``key = value`` file.

The file format is deliberately small: one assignment per line, ``#`` starts
a comment, blank lines are skipped.  Unknown keys are errors rather than
silently ignored, since a typo in a tolerance would otherwise weaken a run.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .errors import ConfigurationError
from .quadrature import MIN_BUDGET
from .sampling import DEFAULT_BOX, SafeBox


@dataclass(frozen=True)
class Config:
    """Suite-level knobs; None means "use the per-scenario default".

    ``box`` holds the sampling safe-box keys; the file names its fields
    directly (``a_min``, ...).
    """

    seed: int = 42
    count: int | None = None
    tol: float | None = None
    grid: int | None = None
    timing: bool = False
    box: SafeBox = DEFAULT_BOX

    def __post_init__(self):
        if self.count is not None and self.count < 1:
            raise ConfigurationError(f"count must be at least 1, got {self.count}")
        if self.grid is not None and self.grid < MIN_BUDGET:
            raise ConfigurationError(f"grid must be at least {MIN_BUDGET}, got {self.grid}")
        # inf passes every report; 0, a negative or nan fails every one
        if self.tol is not None and not 0 < self.tol < float("inf"):
            raise ConfigurationError(f"tol must be finite and positive, got {self.tol}")


# The record each file key belongs to: None for Config's own fields.
_SECTION = {
    **{f.name: None for f in fields(Config) if f.name != "box"},
    **{f.name: "box" for f in fields(SafeBox)},
}
_OPTIONAL_INT = ("count", "grid")
_OPTIONAL_FLOAT = ("tol",)


def _parse_value(key: str, raw: str):
    if key not in _SECTION:
        raise ConfigurationError(f"unknown config key {key!r}")
    if raw.lower() in ("none", "default") and key in _OPTIONAL_INT + _OPTIONAL_FLOAT:
        return None
    if key == "timing":
        if raw.lower() in ("on", "true", "1", "yes"):
            return True
        if raw.lower() in ("off", "false", "0", "no"):
            return False
        raise ConfigurationError(f"timing must be on/off, got {raw!r}")
    if key in ("seed", "max_rejections") + _OPTIONAL_INT:
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigurationError(f"{key} expects an integer, got {raw!r}") from exc
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigurationError(f"{key} expects a number, got {raw!r}") from exc


def _assignments(text: str):
    """The (key, raw value) of each assignment line of text, in order."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(
                f"line {lineno}: expected 'key = value', got {line.rstrip()!r}"
            )
        key, raw = (part.strip() for part in stripped.split("=", 1))
        yield key, raw


def parse_config(text: str, base: Config | None = None) -> Config:
    """Apply ``key = value`` lines from ``text`` on top of ``base``."""
    cfg = base if base is not None else Config()
    updates = {None: {}, "box": {}}
    for key, raw in _assignments(text):
        value = _parse_value(key, raw)
        updates[_SECTION[key]][key] = value
    return replace(cfg, box=replace(cfg.box, **updates["box"]), **updates[None])


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc


def load_config(path: str, base: Config | None = None) -> Config:
    return parse_config(_read(path), base)


def _keys(path: str) -> list:
    """The keys the config file at path assigns, in order (a file that
    load_config read)."""
    return [key for key, _ in _assignments(_read(path))]
