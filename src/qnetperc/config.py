"""Declarative run configuration, provenance hashing, and seed splitting.

A RunConfig is a flat, JSON-serializable description of one experiment:
physics parameters, topology source and master seed.  It holds no engine
settings: every rule order reaches the same partition, and `run` always
writes the lexicographic event log.  Every output file embeds the sha256
hash of the resolved config plus the master seed, so a result can always be
traced back to the exact inputs that produced it.

All randomness flows from one 64-bit master seed.  Sub-streams are derived
with numpy's SeedSequence from (master, stream, index) tuples; the stream
tags below keep per-edge and per-replicate draws stable under partial reruns.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .analysis import Scenario, scenario_params
from .quantum import ALPHA_STAR, ChannelModel, DistillationParams, ModelParams

# seed stream tags
STREAM_TOPOLOGY = 0
STREAM_REPEATERS = 1
STREAM_REPLICATE = 2


def subseed(master: int, *path: int) -> int:
    """Deterministic child seed for a named stream of the master seed."""
    ss = np.random.SeedSequence((int(master), *map(int, path)))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class RunConfig:
    # physics
    d0_km: float = 300.0
    epsilon: float = 0.01
    m: int = 102
    alpha: float = ALPHA_STAR
    eta: float = 1.0
    range_mode: str = "asymptotic"
    beta_cap: bool = True
    scenario: str = "distributed"
    # topology source: "file" reads network_path (an edge list, whose cables
    # add_repeaters may cut, or a point cloud CSV); "points" draws n_points
    # uniform points in a box; cli refuses a setting its source does not read
    source: str = "file"
    network_path: str | None = None
    n_points: int = 1000
    box_side: float = 1.0
    add_repeaters: bool = False
    mean_segment_km: float = 50.0
    # master seed of every random stream
    seed: int = 0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            kinds = _FIELD_TYPES[f.type]
            if not isinstance(value, kinds) or (isinstance(value, bool)
                                                 and bool not in kinds):
                raise ValueError(f"config {f.name} must be {f.type}, got {value!r}")
        for name, allowed in _CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"config {name} must be one of {allowed}, "
                                 f"got {getattr(self, name)!r}")

    def model_params(self) -> ModelParams:
        base = ModelParams(
            channel=ChannelModel(d0_km=self.d0_km, epsilon=self.epsilon),
            distill=DistillationParams(m=self.m, alpha=self.alpha, eta=self.eta),
            range_mode=self.range_mode,
            beta_cap=self.beta_cap,
        )
        return scenario_params(base, Scenario(self.scenario))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


# accepted Python types per annotation; bool is an int subclass, so it is
# accepted only where named
_FIELD_TYPES = {"float": (int, float), "int": (int,), "bool": (bool,), "str": (str,),
                "str | None": (str, type(None))}
_CHOICES = {
    "range_mode": ("asymptotic", "exact"),
    "scenario": tuple(s.value for s in Scenario),
    "source": ("file", "points"),
}


def merge_config(file_values: dict | None, cli_values: dict) -> RunConfig:
    """Defaults, overridden by the config file, overridden by explicit flags.

    The file's own values are checked (types and choices) before any flag
    overrides them, so a bad value in the file is an error even where a flag
    replaces it.
    """
    values = {}
    valid = {f.name for f in dataclasses.fields(RunConfig)}
    if file_values:
        unknown = set(file_values) - valid
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        RunConfig(**file_values)
        values.update(file_values)
    values.update({k: v for k, v in cli_values.items() if v is not None and k in valid})
    return RunConfig(**values)


def load_config_file(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return data
