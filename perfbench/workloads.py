"""The benchmark's workloads, as plain data (no import of the package).

``sim-users`` and ``sim-bytes`` drive the same simulator with opposite
shapes: many users and tiny subfiles, so indexing and loops dominate, against
few users and large subfiles, so byte handling dominates.  ``analyze`` never
touches the simulator; it loads field arithmetic, design construction, the
mu-profile search and the comparison tables.  ``smoke`` is a seconds-long
sim workload that the harness tests use; it is not part of the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

# Payload digests in golden.json are taken with this file seed; the per-run
# seed only changes the file contents that verify_all checks byte for byte.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class SimCase:
    """One verify_all call: N = K files and distinct demands 1..K."""

    spec: str
    z: int
    file_len: int

    @property
    def label(self) -> str:
        return f"{self.spec} z={self.z} len={self.file_len}"


SIM_CASES: dict[str, tuple[SimCase, ...]] = {
    "sim-users": (SimCase("affine:n=5", 2, 256),),
    "sim-bytes": (SimCase("example:8", 3, 4 << 20),),
    "smoke": (SimCase("example:3", 2, 256), SimCase("example:9", 4, 256)),
}

ANALYZE_DESIGNS = (
    "affine:n=25",
    "affine:n=27",
    "hadamard:m=7",
    "hadamard:m=16",
    "ag:q=4,m=3",
    "ag:q=5,m=3",
    "ag:q=2,m=6",
    "ag:q=3,m=4",
) + tuple(f"example:{i}" for i in range(1, 10))

SWEEPS = {
    "affine": (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27),
    "hadamard": (1, 2, 3, 4, 5, 6, 7, 8, 16),
}

# The reference task (reference.py) each workload's samples are divided by:
# the one whose speed moves with the host the way the body's does.  Measured
# on a shared 2-vCPU host, sim-users tracks "objects" and sim-bytes and
# analyze track "bytes" more closely than the other task.
REFERENCE = {"sim-users": "objects", "sim-bytes": "bytes", "analyze": "bytes", "smoke": "objects"}

BENCHMARK_WORKLOADS = ("sim-users", "sim-bytes", "analyze")
ALL_WORKLOADS = BENCHMARK_WORKLOADS + ("smoke",)


def setup_specs(workload: str) -> tuple[str, ...]:
    """The designs a workload builds with from_spec before its timed body."""
    if workload == "analyze":
        return ANALYZE_DESIGNS
    return tuple(dict.fromkeys(case.spec for case in SIM_CASES[workload]))
