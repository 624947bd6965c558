"""Typed INI configuration for the command-line runner.

Each subcommand has a fixed schema.  Unknown sections or keys are rejected,
required keys must be present, and every value is parsed to its declared type
before any computation starts, so a bad config never produces partial output.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from ._csv import read_csv
from .errors import ConfigError
from .fields import (
    AnalyticField,
    ScalarField,
    constant_diffusion_law,
    diffusion_coverage_law,
    load_field_csv,
    quadratic_field,
    reaction_coverage_law,
    sine_field,
    two_bump_field,
)
from .graphs import Graph, complete_graph, load_edge_list, path_graph, random_connected_graph
from .grids import Domain
from .sde import GaussianInit, PointInit, UniformInit

__all__ = ["load_config", "SCHEMAS"]


def _as_int(text: str) -> int:
    return int(text, 0)


def _as_float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"not a finite number: {text.strip()!r}")
    return value


def _as_float_or_inf(text: str) -> float:
    """A finite float, or inf for an open-ended horizon."""
    value = float(text)
    return value if value == np.inf else _as_float(text)


def _as_str(text: str) -> str:
    return text.strip()


def _as_floats(text: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    return tuple(_as_float(p) for p in parts)


def _as_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


@dataclass(frozen=True)
class Key:
    parse: Callable[[str], Any]
    required: bool = False
    default: Any = None


@dataclass(frozen=True)
class Section:
    keys: dict[str, Key]
    required: bool = True


_FIELD_SECTION = Section(
    keys={
        "kind": Key(_as_str, required=True),
        "path": Key(_as_str),
        "background": Key(_as_float, default=0.01),
        "dim": Key(_as_int, default=1),
    }
)

_LAW_SECTION = Section(
    keys={
        "family": Key(_as_str, required=True),
        "c1": Key(_as_float),
        "c2": Key(_as_float, default=0.0),
        "k": Key(_as_float, default=1.0),
        "d0": Key(_as_float),
    }
)

_OUTPUT_SECTION = Section(keys={"dir": Key(_as_str)}, required=False)

SCHEMAS: dict[str, dict[str, Section]] = {
    "coverage": {
        "field": _FIELD_SECTION,
        "law": _LAW_SECTION,
        "simulation": Section(
            keys={
                "agents": Key(_as_int, required=True),
                "dt": Key(_as_float, required=True),
                "t_end": Key(_as_float, required=True),
                "seed": Key(_as_int, required=True),
                "snapshots": Key(_as_floats, default=()),
                "workers": Key(_as_int, default=1),  # accepted from older configs; ignored
                "init": Key(_as_str, default="uniform"),
            }
        ),
        "output": Section(
            keys={"dir": Key(_as_str), "bins": Key(_as_int, default=50)},
            required=False,
        ),
    },
    "pde": {
        "field": Section(keys=_FIELD_SECTION.keys, required=False),
        "law": _LAW_SECTION,
        "solver": Section(
            keys={
                "cells": Key(_as_int, required=True),
                "t_end": Key(_as_float, required=True),
                "snapshots": Key(_as_floats, default=()),
                "safety": Key(_as_float, default=0.9),
            }
        ),
        "initial": Section(
            keys={
                "kind": Key(_as_str, default="uniform"),
                "center": Key(_as_floats, default=()),
                "sigma": Key(_as_float, default=0.1),
                "amplitude": Key(_as_float, default=0.5),
            },
            required=False,
        ),
        "output": _OUTPUT_SECTION,
    },
    "graph": {
        "graph": Section(
            keys={
                "kind": Key(_as_str, required=True),
                "n": Key(_as_int),
                "extra_edges": Key(_as_int, default=0),
                "seed": Key(_as_int, default=0),
                "path": Key(_as_str),
            }
        ),
        "rates": Section(
            keys={
                "c": Key(_as_float, required=True),
                "exponent": Key(_as_int, default=1),
                "values": Key(_as_floats),
                "path": Key(_as_str),
            }
        ),
        "propagate": Section(
            keys={
                "p0": Key(_as_str, default="uniform"),
                "times": Key(_as_floats, required=True),
            },
            required=False,
        ),
        "sample": Section(
            keys={
                "start": Key(_as_int, default=0),
                "t_end": Key(_as_float_or_inf, default=float("inf")),
                "seed": Key(_as_int, required=True),
                "max_jumps": Key(_as_int),
            },
            required=False,
        ),
        "output": _OUTPUT_SECTION,
    },
    "estimate": {
        "field": Section(keys=_FIELD_SECTION.keys, required=False),
        "protocol": Section(
            keys={
                "c1": Key(_as_float, required=True),
                "d": Key(_as_float, required=True),
                "t1": Key(_as_float, required=True),
                "t2": Key(_as_float, required=True),
                "agents": Key(_as_int, required=True),
                "dt_coverage": Key(_as_float, required=True),
                "n_obs": Key(_as_int, default=20),
                "seed": Key(_as_int, required=True),
                "workers": Key(_as_int, default=1),  # accepted from older configs; ignored
            },
            required=False,
        ),
        "observations": Section(
            keys={
                "path": Key(_as_str, required=True),
                "d": Key(_as_float, required=True),
                "t1": Key(_as_float, required=True),
                "t2": Key(_as_float, required=True),
            },
            required=False,
        ),
        "window": Section(
            keys={
                "lo": Key(_as_float, required=True),
                "hi": Key(_as_float, required=True),
                "divisor": Key(_as_int, required=True),
            },
            required=False,
        ),
        "inverse": Section(
            keys={
                "lam": Key(_as_float, default=0.1),
                "basis": Key(_as_int, default=10),
                "cells": Key(_as_int, default=100),
                "max_iters": Key(_as_int, default=2000),  # NNLS iteration cap
            },
            required=False,
        ),
        "output": _OUTPUT_SECTION,
    },
}


def load_config(path, subcommand: str) -> dict[str, dict[str, Any]]:
    """Parse and validate an INI file against the subcommand's schema."""
    schema = SCHEMAS[subcommand]
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep keys case-sensitive
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}") from exc

    for section in parser.sections():
        if section not in schema:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in schema[section].keys:
                raise ConfigError(f"unknown key '{key}' in [{section}]")

    base_dir = os.path.dirname(os.path.abspath(path))
    out: dict[str, dict[str, Any]] = {}
    for name, spec in schema.items():
        if name not in parser:
            if spec.required:
                raise ConfigError(f"missing required section [{name}]")
            continue
        values: dict[str, Any] = {}
        for key, keyspec in spec.keys.items():
            if key in parser[name]:
                try:
                    values[key] = keyspec.parse(parser[name][key])
                except ValueError as exc:
                    raise ConfigError(f"bad value for '{key}' in [{name}]: {exc}") from exc
            elif keyspec.required:
                raise ConfigError(f"missing required key '{key}' in [{name}]")
            else:
                values[key] = keyspec.default
        # file references are relative to the config file, not the cwd
        if values.get("path") and name != "output":
            values["path"] = os.path.join(base_dir, values["path"])
        out[name] = values
    return out


# ---------------------------------------------------------------------------
# assembly of model objects from parsed sections


def _uniform_field(dim: int) -> ScalarField:
    domain = Domain.unit_interval() if dim == 1 else Domain.unit_square()

    def ones(pts: np.ndarray) -> np.ndarray:
        return np.ones(pts.shape[0])

    def zeros(pts: np.ndarray) -> np.ndarray:
        return np.zeros_like(pts)

    return AnalyticField(domain, ones, zeros, floor=1.0, label="uniform")


def build_field(sec: dict[str, Any]) -> ScalarField:
    kind = sec["kind"]
    if kind == "sine":
        return sine_field()
    if kind == "quadratic":
        return quadratic_field()
    if kind == "two_bump":
        return two_bump_field(background=sec["background"])
    if kind == "uniform":
        if sec["dim"] not in (1, 2):
            raise ConfigError("field dim must be 1 or 2")
        return _uniform_field(sec["dim"])
    if kind == "csv":
        if not sec["path"]:
            raise ConfigError("field kind 'csv' needs a 'path'")
        return load_field_csv(sec["path"])
    raise ConfigError(f"unknown field kind {kind!r}")


def build_laws(sec: dict[str, Any], field: Optional[ScalarField]):
    family = sec["family"]
    if family == "constant":
        if sec["d0"] is None:
            raise ConfigError("law family 'constant' needs 'd0'")
        return constant_diffusion_law(sec["d0"])
    if field is None:
        raise ConfigError(f"law family {family!r} needs a [field] section")
    if family == "diffusion":
        if sec["c1"] is None:
            raise ConfigError("law family 'diffusion' needs 'c1'")
        return diffusion_coverage_law(field, sec["c1"], sec["c2"])
    if family == "reaction":
        if sec["c1"] is None or not sec["c2"]:
            raise ConfigError("law family 'reaction' needs 'c1' and 'c2'")
        return reaction_coverage_law(field, sec["c1"], sec["c2"], sec["k"])
    raise ConfigError(f"unknown law family {family!r}")


def build_init(spec: str, dim: int):
    head, _, rest = spec.partition(":")
    if head == "uniform" and not rest:
        return UniformInit()
    if head not in ("point", "gaussian"):
        raise ConfigError(f"unknown init spec {spec!r}")
    try:
        coords = _as_floats(rest)
    except ValueError as exc:
        raise ConfigError(f"bad init spec {spec!r}: {exc}") from exc
    if head == "point":
        if len(coords) != dim:
            raise ConfigError(f"init point needs {dim} coordinate(s)")
        return PointInit(np.array(coords))
    if len(coords) != dim + 1:
        raise ConfigError(f"init gaussian needs {dim} center coordinate(s) and a sigma")
    return GaussianInit(np.array(coords[:dim]), coords[dim])


def build_graph(sec: dict[str, Any]) -> Graph:
    kind = sec["kind"]
    if kind == "edgelist":
        if not sec["path"]:
            raise ConfigError("graph kind 'edgelist' needs a 'path'")
        try:
            return load_edge_list(sec["path"])
        except OSError as exc:
            raise ConfigError(f"cannot read edge list: {exc}") from exc
    if sec["n"] is None:
        raise ConfigError(f"graph kind {kind!r} needs 'n'")
    if kind == "path":
        return path_graph(sec["n"])
    if kind == "complete":
        return complete_graph(sec["n"])
    if kind == "random":
        rng = np.random.default_rng(sec["seed"])
        return random_connected_graph(sec["n"], sec["extra_edges"], rng)
    raise ConfigError(f"unknown graph kind {kind!r}")


def build_node_values(sec: dict[str, Any], n_vertices: int) -> np.ndarray:
    if sec["values"] is not None and sec["path"]:
        raise ConfigError("give rate 'values' or 'path', not both")
    if sec["values"] is not None:
        values = np.asarray(sec["values"], dtype=float)
    elif sec["path"]:
        try:
            raw = read_csv(sec["path"], "vertex,value")
        except OSError as exc:
            raise ConfigError(f"cannot read node values: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"node-value CSV: {exc}") from exc
        values = np.empty(len(raw))
        idx = raw["vertex"].astype(int)
        if sorted(idx) != list(range(len(raw))):
            raise ConfigError("node-value CSV must list each vertex exactly once")
        values[idx] = raw["value"]
    else:
        raise ConfigError("rates need 'values' or 'path'")
    if values.shape != (n_vertices,):
        raise ConfigError(f"need exactly {n_vertices} node values, got {len(values)}")
    if (values <= 0).any() or not np.isfinite(values).all():
        raise ConfigError("node values must be positive and finite")
    return values
