"""Run configuration: one JSON schema shared by every command.

A config document has up to six sections (``data``, ``model``, ``train``,
``eval``, ``bench``, ``paths``). The keys of the first five are the
fields of their dataclasses (``DatasetMeta``, ``ModelConfig``,
``TrainConfig``, ``EvalConfig``, ``BenchConfig``), with those fields'
defaults, but for ``data.split`` (set by the loader) and the model's
sides, which are ``data.grid_side`` and ``data.image_side``. A config file
overrides defaults, and repeatable dotted-key assignments
(``--set train.n_mode=fixed:8``) override the file; both reject unknown
sections or keys outright so typos cannot silently fall back to defaults.
The resolved config is checked once, before any command reads or writes a
file: every leaf keeps its default's type, every seed lies in [0, 2^64)
and every section's ``validate()`` passes. Every command echoes the
resolved config into the output directory; that echo (plus the seed)
reproduces the run byte for byte, timing fields aside.

A top-level ``--seed S`` derives section seeds (data=S, model=S+1,
train=S+2, eval=S+3, bench=S+4, so S <= 2^64 - 5) before ``--set``
overrides apply. The default seeds are what ``--seed 0`` derives.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .bench import BenchConfig
from .data import VIEW_COUNT, DatasetMeta
from .errors import ContractError
from .metrics import EvalConfig
from .model import ModelConfig
from .training import TrainConfig, parse_n_mode

__all__ = ["RunConfig", "load_run_config", "DEFAULTS"]

_SECTIONS = {"data": DatasetMeta, "model": ModelConfig, "train": TrainConfig,
             "eval": EvalConfig, "bench": BenchConfig}
_SEED_OFFSETS = {"data": 0, "model": 1, "train": 2, "eval": 3, "bench": 4}
# Fields that are not keys: the loader sets the split, and the model's sides are the data's.
_NOT_KEYS = {"data": {"split"}, "model": {"grid_side", "image_side"}}


def _section_defaults(section: str) -> dict:
    skip = _NOT_KEYS.get(section, set())
    body = {f.name: list(f.default) if isinstance(f.default, tuple) else f.default
            for f in dataclasses.fields(_SECTIONS[section]) if f.name not in skip}
    body["seed"] = _SEED_OFFSETS[section]
    return body


DEFAULTS: dict = {section: _section_defaults(section) for section in _SECTIONS}
DEFAULTS["paths"] = {"out_dir": "runs", "dataset_dir": "", "checkpoint": ""}


@dataclass
class RunConfig:
    sections: dict

    def __getattr__(self, section: str):
        """``cfg.data``, ``cfg.model``, ``cfg.train``, ``cfg.eval``, ``cfg.bench``:
        a fresh section object, with JSON lists turned back into tuples."""
        if section not in _SECTIONS:
            raise AttributeError(section)
        body = self.sections[section]
        if section == "model":
            body = {**body, **{k: self.sections["data"][k] for k in _NOT_KEYS["model"]}}
        return _SECTIONS[section](**{k: tuple(v) if isinstance(v, list) else v
                                     for k, v in body.items()})

    @property
    def paths(self) -> dict:
        return self.sections["paths"]

    def echo(self, out_dir) -> Path:
        path = Path(out_dir) / "resolved_config.json"
        path.write_text(json.dumps(self.sections, indent=2, sort_keys=True) + "\n")
        return path


def _merge(sections: dict, doc: dict) -> None:
    """Lay a config document over ``sections`` after checking its keys."""
    for section, body in doc.items():
        if section not in DEFAULTS:
            raise ContractError(f"unknown config key {section!r}")
        if not isinstance(body, dict):
            raise ContractError(f"config key {section!r} must be a section object")
        for key in body:
            if key not in DEFAULTS[section]:
                raise ContractError(f"unknown config key {f'{section}.{key}'!r}")
        sections[section].update(body)


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _fits(value, default) -> bool:
    """Whether ``value`` keeps the type of ``default``: ints stay ints,
    floats accept ints, strings stay strings, and a list's every element
    keeps the type of the default's elements."""
    if isinstance(default, bool):
        return isinstance(value, bool)
    if isinstance(default, int):
        return isinstance(value, int) and not isinstance(value, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, str):
        return isinstance(value, str)
    if isinstance(default, list):
        return isinstance(value, (list, tuple)) and all(_fits(v, default[0]) for v in value)
    return True


def _check_types(sections: dict) -> None:
    """Each leaf keeps its default's type (see ``_fits``); each seed fits a u64."""
    for section, body in DEFAULTS.items():
        for key, default in body.items():
            value = sections[section][key]
            if not _fits(value, default):
                expects = type(default).__name__
                if isinstance(default, list):
                    expects += f" of {type(default[0]).__name__}"
                raise ContractError(
                    f"config key {f'{section}.{key}'!r} expects {expects}, got {value!r}")
            if key == "seed" and not 0 <= value < 2 ** 64:
                raise ContractError(f"config key {f'{section}.seed'!r} must lie in [0, 2**64)")
            if isinstance(default, float):
                sections[section][key] = float(value)


def load_run_config(config_path: str | None = None, overrides: list[str] | None = None,
                    seed: int | None = None, out_dir: str | None = None) -> RunConfig:
    """Resolve defaults <- config file <- --seed <- --set overrides <- --out."""
    sections = copy.deepcopy(DEFAULTS)

    if config_path:
        path = Path(config_path)
        if not path.exists():
            raise OSError(f"config file not found: {path}")
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as e:  # JSONDecodeError or UnicodeDecodeError
            raise ContractError(f"config file is not valid UTF-8 JSON: {e}") from e
        if not isinstance(doc, dict):
            raise ContractError("config file must hold a JSON object")
        _merge(sections, doc)

    if seed is not None:
        top = 2 ** 64 - 1 - max(_SEED_OFFSETS.values())
        if not 0 <= seed <= top:
            raise ContractError(f"--seed must lie in [0, {top}], got {seed}")
        for section, off in _SEED_OFFSETS.items():
            sections[section]["seed"] = seed + off

    for item in overrides or []:
        if "=" not in item:
            raise ContractError(f"--set needs key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        section, dot, key = dotted.partition(".")
        if not dot:
            raise ContractError(f"unknown config key {dotted!r}")
        _merge(sections, {section: {key: _parse_value(raw)}})

    if out_dir is not None:
        sections["paths"]["out_dir"] = str(out_dir)
    _check_types(sections)
    cfg = RunConfig(sections=sections)
    for section in _SECTIONS:
        getattr(cfg, section).validate()
    # Every dataset stores VIEW_COUNT views per sample.
    if parse_n_mode(cfg.train.n_mode)[-1] > VIEW_COUNT:
        raise ContractError(f"config key 'train.n_mode' asks for more than the {VIEW_COUNT} "
                            f"views stored per sample, got {cfg.train.n_mode!r}")
    if max(cfg.eval.view_counts) > VIEW_COUNT:
        raise ContractError(f"config key 'eval.view_counts' asks for more than the {VIEW_COUNT} "
                            f"views stored per sample, got {list(cfg.eval.view_counts)}")
    return cfg
