"""Byte-for-byte gate on command output: the SHA-256 of the stdout and of the manifest of a fixed list of commands.

The list covers `gk` and `nu` (symbolic and at q = 2, in every basis where the
table lies in Q(q), for A1 A2 B2 G2 at the Borel and the maximal parabolics, and
at heights 14 and 24 for A3 and G2),
`satake-check`, `intertwine` (forward, inverse, with and without
`--roundtrip`), `weyl-identities`, `char` (with `decompose` on G2 and A3
Levis and on B3 and C3 with the full Levi, plain and virtual), `oracle-mu`, `retract` (A2 B2 G2 GL2 A3 at rational coweights),
`cone-check` (A2 B2 G2 GL2) and `global-sl2` (every
action, symbolic and at q = 2 and q = 3/2, and `--explain-conventions`). A
refactor must leave every digest as it is. After an intended change of output, re-record with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import hashlib
import json
from pathlib import Path

from heckelat import cli

GOLDEN = Path(__file__).with_name("golden_cli_stdout.json")


def _digests(argv) -> list[str]:
    """[SHA-256 of stdout, SHA-256 of the manifest] of one command."""
    return [hashlib.sha256(text.encode()).hexdigest() for text in cli.run_capture(argv)]


def test_cli_stdout_matches_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) > 100
    changed = [argv for argv, *shas in golden if _digests(argv) != shas]
    assert not changed, f"{len(changed)} commands print other bytes or manifests, first: {changed[:3]}"


if __name__ == "__main__":
    entries = [[argv, *_digests(argv)] for argv, *_shas in json.loads(GOLDEN.read_text())]
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
