"""Configuration files.

§3.1/§3.2: "The parameters for different architectures are saved in a
configuration file."  This module round-trips the three parameter
surfaces — the cluster hardware (:class:`ClusterSpec`), the scheduler
(:class:`CostParameters`) and the oracle table — through plain dicts /
JSON, so a deployment is one reviewable text file::

    {
      "cluster": {"preset": "meiko", "nodes": 6},
      "scheduler": {"delta": 0.3, "loadd_period": 2.5},
      "oracle": {"rules": [{"pattern": "*.tif", "ops_per_byte": 7.0}]}
    }
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Optional, Union

from .cluster.topology import TESTBEDS, ClusterSpec, NodeSpec
from .core.costmodel import CostParameters
from .core.oracle import Oracle

__all__ = [
    "cluster_spec_to_dict",
    "cluster_spec_from_dict",
    "cost_parameters_to_dict",
    "cost_parameters_from_dict",
    "load_config",
    "dump_config",
    "SWEBConfig",
]

# ------------------------------------------------------------- ClusterSpec
def cluster_spec_to_dict(spec: ClusterSpec) -> dict:
    """Serialise a ClusterSpec (including per-node hardware)."""
    return {
        "name": spec.name,
        "network_kind": spec.network_kind,
        "network_bandwidth": spec.network_bandwidth,
        "network_latency": spec.network_latency,
        "network_background_load": spec.network_background_load,
        "nfs_penalty": spec.nfs_penalty,
        "shared_nic_is_bus": spec.shared_nic_is_bus,
        "nodes": [dataclasses.asdict(ns) for ns in spec.nodes],
    }


def cluster_spec_from_dict(data: dict) -> ClusterSpec:
    """Build a ClusterSpec from a config dict.

    Either ``{"preset": <a repro.cluster.TESTBEDS name>, "nodes": <count>}``
    (without ``nodes``, the testbed's own default count) or a full explicit
    description as produced by :func:`cluster_spec_to_dict`.
    """
    if "preset" in data:
        preset = data["preset"]
        builder = TESTBEDS.get(preset)
        if builder is None:
            raise ValueError(f"unknown preset {preset!r}; "
                             f"choose from {sorted(TESTBEDS)}")
        if "nodes" not in data:
            return builder()
        count = data["nodes"]
        if not isinstance(count, int) or count < 1:
            raise ValueError(f"preset node count must be a positive int, "
                             f"got {count!r}")
        return builder(count)
    nodes = tuple(NodeSpec(**ns) for ns in data["nodes"])
    kwargs = {k: v for k, v in data.items() if k != "nodes"}
    return ClusterSpec(nodes=nodes, **kwargs)


# --------------------------------------------------------- CostParameters
def cost_parameters_to_dict(params: CostParameters) -> dict:
    return dataclasses.asdict(params)


def cost_parameters_from_dict(data: dict) -> CostParameters:
    """Build CostParameters, rejecting unknown keys loudly."""
    known = {f.name for f in dataclasses.fields(CostParameters)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown scheduler parameters: {sorted(unknown)}")
    return CostParameters(**data)


# ------------------------------------------------------------- whole config
@dataclasses.dataclass
class SWEBConfig:
    """Everything needed to stand up a cluster from one file."""

    spec: ClusterSpec
    params: CostParameters
    oracle: Oracle
    policy: str = "sweb"
    seed: int = 0
    backlog: int = 64
    dns_ttl: float = 0.0

    def build(self):
        """Instantiate the configured SWEBCluster."""
        from .core.sweb import SWEBCluster

        return SWEBCluster(spec=self.spec, policy=self.policy,
                           params=self.params, oracle=self.oracle,
                           cgi_registry=self.oracle.cgi, seed=self.seed,
                           backlog=self.backlog, dns_ttl=self.dns_ttl)


def load_config(source: Union[str, Path, dict]) -> SWEBConfig:
    """Parse a config dict, JSON string, or JSON file path."""
    if isinstance(source, Path):
        data = json.loads(source.read_text())
    elif isinstance(source, str):
        stripped = source.lstrip()
        if stripped.startswith("{") or stripped.startswith("["):
            data = json.loads(source)        # inline JSON text
        else:
            data = json.loads(Path(source).read_text())
    else:
        data = source
    if not isinstance(data, dict):
        raise ValueError(f"config must be a JSON object, got {type(data)}")
    spec = cluster_spec_from_dict(data.get("cluster", {"preset": "meiko"}))
    params = cost_parameters_from_dict(data.get("scheduler", {}))
    oracle = Oracle.from_config(data.get("oracle", {}))
    extras = data.get("server", {})
    return SWEBConfig(
        spec=spec, params=params, oracle=oracle,
        policy=extras.get("policy", "sweb"),
        seed=int(extras.get("seed", 0)),
        backlog=int(extras.get("backlog", 64)),
        dns_ttl=float(extras.get("dns_ttl", 0.0)),
    )


def dump_config(config: SWEBConfig, path: Optional[Union[str, Path]] = None
                ) -> str:
    """Serialise a SWEBConfig to JSON (optionally writing it out)."""
    data: dict[str, Any] = {
        "cluster": cluster_spec_to_dict(config.spec),
        "scheduler": cost_parameters_to_dict(config.params),
        "oracle": {"rules": [dataclasses.asdict(rule)
                             for rule in config.oracle.rules]},
        "server": {
            "policy": config.policy,
            "seed": config.seed,
            "backlog": config.backlog,
            "dns_ttl": config.dns_ttl,
        },
    }
    text = json.dumps(data, indent=2, sort_keys=True)
    if path is not None:
        # dump_config's contract is "serialize to this path when asked":
        # the write happens only on an explicit caller-supplied path.
        Path(path).write_text(text + "\n")  # sweb-lint: disable=io-file-write
    return text
