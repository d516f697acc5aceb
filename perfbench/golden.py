"""Golden digests of the package's outputs, and the script that records them.

Each digest is a SHA-256: of the payload bytes a sim case broadcasts at the
default file seed (payloads concatenated in schedule order), of its schedule
as ``crdcache schedule`` prints it (``schedule_to_json`` at indent 2 plus a
newline), and of every text the ``analyze`` workload renders.  Every
benchmark run recomputes them and counts a mismatch as a failed check, so a
later change that alters any of these bytes shows up as ``failed > 0``.

Record (only when the outputs are meant to change)::

    PYTHONPATH=src python3 perfbench/golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Iterable

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def payload_digest(payloads: Iterable[bytes]) -> str:
    h = hashlib.sha256()
    for payload in payloads:
        h.update(payload)
    return h.hexdigest()


def schedule_digest(schedule_json: dict) -> str:
    return text_digest(json.dumps(schedule_json, indent=2) + "\n")


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def record() -> dict:
    import pipeline  # not at the top: pipeline imports this module
    from workloads import DEFAULT_SEED, SIM_CASES

    sim = {}
    for cases in SIM_CASES.values():
        for case in cases:
            sim[case.label] = pipeline.sim_digests(pipeline.prepare_sim(case), DEFAULT_SEED)
    designs = pipeline.build_analyze_designs()
    profiles, outputs = pipeline.analyze_batch(designs)
    return {
        "default_seed": DEFAULT_SEED,
        "sim": sim,
        "analyze": {
            "profiles": {label: {str(i): mu for i, mu in p.items()} for label, p in profiles.items()},
            "outputs": {name: text_digest(text) for name, text in sorted(outputs.items())},
        },
    }


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(record(), indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {GOLDEN_PATH}\n")
