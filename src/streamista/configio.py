"""Flat `key = value` experiment-config files.

Keys mirror :class:`~streamista.harness.ExperimentConfig` fields (with
``lambda`` and ``p`` spelled as in the file format).  Unknown keys are
errors, not warnings.  Lists are comma-separated.  Blank lines and
``#`` comments are ignored.
"""

from dataclasses import fields

from .harness import ExperimentConfig


class ConfigError(ValueError):
    """A config file could not be parsed into a valid experiment."""


def _parse_float_list(v: str):
    return tuple(float(x) for x in v.split(",") if x.strip()) if v else ()


def _parse_int_list(v: str):
    return tuple(int(x) for x in v.split(",") if x.strip()) if v else ()


# file key -> (dataclass field, parser)
KEY_MAP = {
    "m": ("m", int),
    "n": ("n", int),
    "s": ("s", int),
    "n_pairs": ("n_pairs", int),
    "n_samples": ("n_samples", int),
    "beta": ("beta", float),
    "mu": ("mu", float),
    "lambda": ("lam", float),
    "eta": ("eta", float),
    "p": ("P", int),
    "dl": ("dl", float),
    "tau": ("tau", float),
    "noise_mode": ("noise_mode", str),
    "noise_level": ("noise_level", float),
    "noise_delta": ("noise_delta", float),
    "trials": ("trials", int),
    "q": ("q", int),
    "seed": ("seed", int),
    "sweep_axis": ("sweep_axis", str),
    "sweep_values": ("sweep_values", _parse_float_list),
    "sweep_lambda_values": ("sweep_lambda_values", _parse_float_list),
    "sweep_s_values": ("sweep_s_values", _parse_int_list),
    "tail_fraction": ("tail_fraction", float),
}

assert {f.name for f in fields(ExperimentConfig)} == {f for f, _ in KEY_MAP.values()}


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
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def parse_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))
