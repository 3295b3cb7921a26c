"""Flat `key = value` experiment-config files.

Keys are the :class:`~streamista.harness.ExperimentConfig` fields, read
from the dataclass itself, with ``lam`` and ``P`` spelled ``lambda`` and
``p``; each field's annotation picks its parser.  Unknown keys are errors,
not warnings.  A key given twice takes its last value, a list key too, so
appending a line to a config file overrides that key.  Lists are
comma-separated.  Blank lines and ``#`` comments are ignored.  The harness
decides which values are valid and raises :class:`ConfigError`,
re-exported here, for any it rejects.
"""

from dataclasses import fields
from functools import partial
from typing import get_args

from .harness import ConfigError, ExperimentConfig

# field -> its key in the file format, where the two differ
_FILE_SPELLINGS = {"lam": "lambda", "P": "p"}


def parse_list(text: str, kind=float) -> tuple:
    """Comma-separated values as a tuple of ``kind``; blank items are skipped."""
    return tuple(kind(v) for v in text.split(",") if v.strip())


# file key -> (dataclass field, parser): the field's type, or for a field
# annotated tuple[kind, ...], a list of kind
KEY_MAP = {
    _FILE_SPELLINGS.get(f.name, f.name): (
        f.name, partial(parse_list, kind=get_args(f.type)[0]) if get_args(f.type) else f.type
    )
    for f in fields(ExperimentConfig)
}


def parse_config_text(text: str, source: str = "<string>") -> ExperimentConfig:
    kwargs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KEY_MAP:
            raise ConfigError(
                f"{source}:{lineno}: unknown key {key!r}; valid keys: {', '.join(sorted(KEY_MAP))}"
            )
        field_name, parser = KEY_MAP[key]
        try:
            kwargs[field_name] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
    try:
        return ExperimentConfig(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def parse_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))
