"""The oracle: SWEB's miniature expert system (§3.1, Figure 3).

"The oracle is a miniature expert system, which uses a user-supplied
table to characterize the CPU and disk demands for a particular task.
The parameters for different architectures are saved in a configuration
file."

The table maps glob patterns to cost rules; the first matching pattern
wins.  CGI programs are characterised through the :class:`CGIRegistry`.
The estimate of each static (path, size) is remembered, so the glob
match and the estimate record are built once per distinct file, not once
per request; CGI estimates are read from the registry every time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatch
from typing import Optional

from ..web.cgi import CGIRegistry

__all__ = ["TaskEstimate", "OracleRule", "Oracle"]


@dataclass(frozen=True)
class TaskEstimate:
    """Predicted demands of one request (the broker's inputs)."""

    cpu_ops: float        # operations beyond the fixed per-request overheads
    disk_bytes: float     # bytes that must come off a disk
    output_bytes: float   # bytes that will go back to the client
    is_cgi: bool = False


@dataclass(frozen=True)
class OracleRule:
    """One row of the user-supplied table."""

    pattern: str              # glob over the request path
    ops_per_byte: float       # CPU cost proportional to the file size
    base_ops: float = 0.0     # flat CPU cost for this class of request

    def matches(self, path: str) -> bool:
        return fnmatch(path, self.pattern)


#: Default table, in operations per body byte.  The dominant per-byte CPU
#: cost is packetising/marshalling in the TCP stack (~6 ops/byte on the
#: Meiko, see CostParameters.send_ops_per_byte); text is marginally
#: cheaper to ship than images.
DEFAULT_RULES = (
    OracleRule(pattern="*.html", ops_per_byte=6.0),
    OracleRule(pattern="*.txt", ops_per_byte=5.0),
    OracleRule(pattern="*.gif", ops_per_byte=7.0),
    OracleRule(pattern="*.jpg", ops_per_byte=7.0),
    OracleRule(pattern="*.tif", ops_per_byte=7.0),   # ADL aerial photos
    OracleRule(pattern="*", ops_per_byte=6.0),
)


class Oracle:
    """Characterises requests from the table plus the CGI registry."""

    def __init__(self, rules: Optional[list[OracleRule]] = None,
                 cgi_registry: Optional[CGIRegistry] = None) -> None:
        self.rules = tuple(rules) if rules else DEFAULT_RULES
        if not any(rule.pattern == "*" for rule in self.rules):
            # Guarantee a catch-all so characterize() always succeeds.
            self.rules = self.rules + (OracleRule(pattern="*", ops_per_byte=0.25),)
        self.cgi = cgi_registry if cgi_registry is not None else CGIRegistry()

    @property
    def rules(self) -> tuple[OracleRule, ...]:
        """The table, in match order."""
        return self._rules

    @rules.setter
    def rules(self, rules: tuple[OracleRule, ...]) -> None:
        self._rules = tuple(rules)
        #: (path, file size) -> its static estimate, filled as files are
        #: seen and cleared with the table it was derived from
        self._estimates: dict[tuple[str, float], TaskEstimate] = {}

    @classmethod
    def from_config(cls, config: dict,
                    cgi_registry: Optional[CGIRegistry] = None) -> "Oracle":
        """Build from a configuration-file-style dict::

            {"rules": [{"pattern": "*.html", "ops_per_byte": 0.2,
                        "base_ops": 0.0}, ...]}
        """
        rules = [OracleRule(pattern=r["pattern"],
                            ops_per_byte=float(r["ops_per_byte"]),
                            base_ops=float(r.get("base_ops", 0.0)))
                 for r in config.get("rules", [])]
        return cls(rules=rules or None, cgi_registry=cgi_registry)

    def characterize(self, path: str, file_size: float) -> TaskEstimate:
        """Predict the demands of fetching ``path`` of ``file_size`` bytes.

        For CGI paths the estimate comes from the registry: the program's
        execution cost plus its (usually small) generated output.
        """
        if self.cgi.is_cgi(path):
            prog = self.cgi.lookup(path)
            return TaskEstimate(cpu_ops=prog.cpu_ops, disk_bytes=0.0,
                                output_bytes=prog.output_bytes, is_cgi=True)
        key = (path, file_size)
        est = self._estimates.get(key)
        if est is None:
            rule = next(r for r in self._rules if r.matches(path))
            est = self._estimates[key] = TaskEstimate(
                cpu_ops=rule.base_ops + rule.ops_per_byte * file_size,
                disk_bytes=file_size, output_bytes=file_size, is_cgi=False)
        return est

    def __repr__(self) -> str:
        return f"<Oracle rules={len(self.rules)} cgi={len(self.cgi)}>"
